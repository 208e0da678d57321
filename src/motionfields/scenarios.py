"""Bundled golden scenarios, addressable by name from the CLI."""

from __future__ import annotations

import copy


def _geometric_path(start, target, n):
    """n points H_k = target + (start - target) * 2^{-k}, decisively convergent."""
    out = []
    for k in range(n):
        out.append(
            [t + (s - t) * 2.0 ** (-k) for s, t in zip(start, target)]
        )
    return out


M3_DEFAULT = {
    "schema": 1,
    "name": "m3-default",
    "instance": "M3",
    "test_function": {
        "terms": [
            {
                "coeff": [1.0, 0.0],
                "u": {"label": 2, "row": 1, "col": 3},
                "g": {"sigma": 1.0, "poly": {"0,0,0": [1.0, 0.0]}, "radial": True},
            },
            {
                "coeff": [0.5, 0.0],
                "u": {"label": 1, "row": 0, "col": 0},
                "g": {"sigma": 0.8, "poly": {"0,0,0": [1.0, 0.0]}, "radial": True},
            },
        ]
    },
    "cutoffs": {"lambda_max": 5},
    "grids": {
        "gamma0": [
            {"mu": mu, "H": [h]} for mu in (0, 1) for h in (0.5, 1.0, 1.5)
        ],
        "gamma2": list(range(0, 6)),
        "continuity": {
            "mu": 1,
            "path": [[1.0 + 0.125 * i] for i in range(9)],
        },
        "mu_decay": {"H": [1.0], "mu_values": list(range(-5, 6))},
        "h_ladder": {"mus": [0, 1, 2], "H0": [1.0], "levels": 8},
    },
    "convergence_queries": [
        {
            "name": "gamma0-to-gamma0",
            "limit": {"label": 1, "H": [1.0]},
            "sequence": [
                {"label": 1, "H": h} for h in _geometric_path([2.0], [1.0], 30)
            ],
        },
        {
            "name": "gamma0-to-gamma2",
            "limit": {"label": 2, "H": None},
            "sequence": [
                {"label": 1, "H": h} for h in _geometric_path([1.0], [0.0], 28)
            ],
        },
        {
            "name": "diverging-weight",
            "limit": {"label": 1, "H": [1.0]},
            "sequence": [
                {"label": 2, "H": h} for h in _geometric_path([2.0], [1.0], 30)
            ],
        },
    ],
    "tolerances": {},
    "output_dir": None,
}


M2_DEFAULT = {
    "schema": 1,
    "name": "m2-default",
    "instance": "M2",
    "test_function": {
        "terms": [
            {
                "coeff": [1.0, 0.0],
                "u": {"label": 2, "row": 0, "col": 0},
                "g": {"sigma": 1.0, "poly": {"0,0": [1.0, 0.0]}, "radial": True},
            },
            {
                "coeff": [0.5, 0.0],
                "u": {"label": -1, "row": 0, "col": 0},
                "g": {"sigma": 0.8, "poly": {"0,0": [1.0, 0.0]}, "radial": True},
            },
        ]
    },
    "cutoffs": {"lambda_max": 5},
    "grids": {
        "gamma0": [{"mu": 0, "H": [h]} for h in (0.5, 1.0, 1.5, 2.0, 2.5)],
        "gamma2": list(range(-5, 6)),
        "continuity": {"mu": 0, "path": [[1.0 + 0.125 * i] for i in range(9)]},
        "h_ladder": {"mus": [0], "H0": [1.0], "levels": 8},
    },
    "convergence_queries": [
        {
            "name": "gamma0-to-gamma0",
            "limit": {"label": 0, "H": [1.0]},
            "sequence": [
                {"label": 0, "H": h} for h in _geometric_path([2.0], [1.0], 30)
            ],
        },
        {
            "name": "gamma2-discrete",
            "limit": {"label": 3, "H": None},
            "sequence": [{"label": 3, "H": None}] * 12,
        },
    ],
    "tolerances": {},
    "output_dir": None,
}


M2XM2_GAMMA1 = {
    "schema": 1,
    "name": "m2xm2-gamma1",
    "instance": "M2xM2",
    "test_function": {
        "terms": [
            {
                "coeff": [1.0, 0.0],
                "u": {"label": [1, 2], "row": 0, "col": 0},
                "g": {"sigma": 1.0, "poly": {"0,0,0,0": [1.0, 0.0]}, "radial": True},
            },
            {
                "coeff": [0.5, 0.0],
                "u": {"label": [0, 1], "row": 0, "col": 0},
                "g": {"sigma": 0.9, "poly": {"0,0,0,0": [1.0, 0.0]}, "radial": True},
            },
        ]
    },
    "cutoffs": {"lambda_max": 4},
    "grids": {
        "gamma0": [
            {"mu": [0, 0], "H": [a, b]} for a in (0.5, 1.5) for b in (1.0, 2.0)
        ],
        "gamma2": [[a, b] for a in range(-4, 5) for b in range(-4, 5)],
        "continuity": {
            "mu": [0, 2],
            "path": [[1.0 + 0.125 * i, 0.0] for i in range(9)],
        },
        "mu_decay": {"H": [1.0, 0.0], "mu_values": [[0, m] for m in range(-4, 5)]},
        "h_ladder": {"mus": [[0, 0]], "H0": [1.0, 1.0], "levels": 8},
    },
    "convergence_queries": [
        {
            "name": "wall-approach",
            "limit": {"label": [0, 2], "H": [1.0, 0.0]},
            "sequence": [
                {"label": [0, 0], "H": h}
                for h in _geometric_path([1.5, 0.5], [1.0, 0.0], 28)
            ],
        },
        {
            "name": "wall-to-wall",
            "limit": {"label": [0, 2], "H": [1.0, 0.0]},
            "sequence": [
                {"label": [0, 2], "H": [1.0 + 2.0 ** (-k), 0.0]} for k in range(28)
            ],
        },
        {
            "name": "wall-wrong-label",
            "limit": {"label": [0, 2], "H": [1.0, 0.0]},
            "sequence": [
                {"label": [0, 1], "H": [1.0 + 2.0 ** (-k), 0.0]} for k in range(28)
            ],
        },
    ],
    "tolerances": {},
    "output_dir": None,
}


_BUNDLED = {
    "m2-default": M2_DEFAULT,
    "m3-default": M3_DEFAULT,
    "m2xm2-gamma1": M2XM2_GAMMA1,
}

BUNDLED_NAMES = tuple(sorted(_BUNDLED))


def bundled_scenario(name):
    try:
        return copy.deepcopy(_BUNDLED[name])
    except KeyError:
        raise KeyError(
            f"unknown bundled scenario {name!r}; available: {', '.join(BUNDLED_NAMES)}"
        ) from None
