"""Scenario configuration: JSON schema, validation, round-trip serialization.

Irrep labels appear in JSON as integers (rank-one instances) or two-element
lists (the product instance); complex numbers are [re, im] pairs; polynomial
multi-indices are comma-joined strings keying [re, im] coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .pairs import INSTANCE_NAMES, build_instance
from .testfunctions import MatrixCoefficient, PolyGaussian, Term, TestFunction
from .verifier import Thresholds, VerificationPlan

SCHEMA_VERSION = 1


def _label_from_json(x):
    if isinstance(x, list):
        return tuple(int(v) for v in x)
    return int(x)


def _label_to_json(x):
    if isinstance(x, tuple):
        return [int(v) for v in x]
    return int(x)


def _complex_from_json(x):
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, list) and len(x) == 2:
        return complex(x[0], x[1])
    raise ConfigError("coeff", f"expected number or [re, im], got {x!r}")


def _coords(where, x):
    """A flat point as a tuple of finite floats."""
    try:
        H = tuple(float(v) for v in np.atleast_1d(x))
    except (TypeError, ValueError):
        raise ConfigError(where, f"expected a list of numbers, got {x!r}") from None
    if not np.all(np.isfinite(H)):
        raise ConfigError(where, f"coordinates must be finite, got {x!r}")
    return H


def _check_point(where, pt):
    """A dual point of a convergence query: a label and an optional flat point."""
    if not isinstance(pt, dict) or "label" not in pt:
        raise ConfigError(where, "needs an object with a label")
    try:
        _label_from_json(pt["label"])
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.label", f"not an irrep label: {pt['label']!r}") from None
    if pt.get("H") is not None:
        _coords(f"{where}.H", pt["H"])


def _check_queries(queries):
    if not isinstance(queries, list):
        raise ConfigError("convergence_queries", "must be a list")
    for i, q in enumerate(queries):
        where = f"convergence_queries[{i}]"
        if not isinstance(q, dict):
            raise ConfigError(where, "must be an object")
        _check_point(f"{where}.limit", q.get("limit"))
        seq = q.get("sequence")
        if not isinstance(seq, list):
            raise ConfigError(f"{where}.sequence", "needs a list of points")
        for j, pt in enumerate(seq):
            _check_point(f"{where}.sequence[{j}]", pt)


def _complex_to_json(z):
    z = complex(z)
    return [z.real, z.imag]


@dataclass
class ScenarioConfig:
    name: str
    instance: str
    test_function: dict
    lambda_max: int
    order: int | None
    gamma0: list  # (label, H tuple)
    gamma2: list
    continuity_mu: object
    continuity_path: list
    h_ladder_mus: list
    h_ladder_H0: tuple
    h_ladder_levels: int
    mu_values: list | None
    mu_decay_H: tuple | None
    convergence_queries: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    output_dir: str | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("<root>", "scenario document must be an object")
        if doc.get("schema") != SCHEMA_VERSION:
            raise ConfigError("schema", f"expected {SCHEMA_VERSION}, got {doc.get('schema')!r}")
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError("name", "scenario needs a nonempty name")
        instance = doc.get("instance")
        if instance not in INSTANCE_NAMES:
            raise ConfigError(
                "instance", f"{instance!r} not in {', '.join(INSTANCE_NAMES)}"
            )
        tf = doc.get("test_function")
        if not isinstance(tf, dict) or "terms" not in tf or not tf["terms"]:
            raise ConfigError("test_function", "needs a nonempty terms list")
        cut = doc.get("cutoffs", {})
        lambda_max = cut.get("lambda_max")
        if not isinstance(lambda_max, int) or lambda_max <= 0:
            raise ConfigError("cutoffs.lambda_max", "must be a positive integer")
        order = cut.get("order")
        if order is not None and (not isinstance(order, int) or order <= 0):
            raise ConfigError("cutoffs.order", "must be a positive integer or null")
        grids = doc.get("grids", {})
        gamma0 = [
            (_label_from_json(e["mu"]), _coords(f"grids.gamma0[{i}].H", e["H"]))
            for i, e in enumerate(grids.get("gamma0", []))
        ]
        gamma2 = [_label_from_json(x) for x in grids.get("gamma2", [])]
        cont = grids.get("continuity")
        if not cont or len(cont.get("path", [])) < 3 or len(cont["path"]) % 2 == 0:
            raise ConfigError(
                "grids.continuity", "needs an odd number (>= 3) of path points"
            )
        ladder = grids.get("h_ladder")
        if not ladder or ladder.get("levels", -1) < 1:
            raise ConfigError("grids.h_ladder", "needs mus, H0 and levels >= 1")
        mu_grid = grids.get("mu_decay")
        queries = doc.get("convergence_queries", [])
        _check_queries(queries)
        tol = doc.get("tolerances", {})
        valid_tols = set(Thresholds().__dataclass_fields__)
        for k, v in tol.items():
            if k not in valid_tols:
                raise ConfigError(f"tolerances.{k}", "unknown threshold name")
            if not (isinstance(v, (int, float)) and v > 0):
                raise ConfigError(f"tolerances.{k}", "must be positive")
        return cls(
            name=name,
            instance=instance,
            test_function=tf,
            lambda_max=lambda_max,
            order=order,
            gamma0=gamma0,
            gamma2=gamma2,
            continuity_mu=_label_from_json(cont["mu"]),
            continuity_path=[
                _coords(f"grids.continuity.path[{i}]", h)
                for i, h in enumerate(cont["path"])
            ],
            h_ladder_mus=[_label_from_json(m) for m in ladder["mus"]],
            h_ladder_H0=_coords("grids.h_ladder.H0", ladder["H0"]),
            h_ladder_levels=int(ladder["levels"]),
            mu_values=(
                [_label_from_json(m) for m in mu_grid["mu_values"]] if mu_grid else None
            ),
            mu_decay_H=_coords("grids.mu_decay.H", mu_grid["H"]) if mu_grid else None,
            convergence_queries=queries,
            tolerances=dict(tol),
            output_dir=doc.get("output_dir"),
        )

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError("<json>", str(e)) from None
        return cls.from_dict(doc)

    def to_dict(self):
        doc = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "instance": self.instance,
            "test_function": self.test_function,
            "cutoffs": {"lambda_max": self.lambda_max, "order": self.order},
            "grids": {
                "gamma0": [
                    {"mu": _label_to_json(mu), "H": list(H)} for mu, H in self.gamma0
                ],
                "gamma2": [_label_to_json(x) for x in self.gamma2],
                "continuity": {
                    "mu": _label_to_json(self.continuity_mu),
                    "path": [list(h) for h in self.continuity_path],
                },
                "h_ladder": {
                    "mus": [_label_to_json(m) for m in self.h_ladder_mus],
                    "H0": list(self.h_ladder_H0),
                    "levels": self.h_ladder_levels,
                },
            },
            "convergence_queries": self.convergence_queries,
            "tolerances": dict(self.tolerances),
            "output_dir": self.output_dir,
        }
        if self.mu_values is not None:
            doc["grids"]["mu_decay"] = {
                "H": list(self.mu_decay_H),
                "mu_values": [_label_to_json(m) for m in self.mu_values],
            }
        return doc

    # -- realization --------------------------------------------------------

    def build_pair(self):
        return build_instance(self.instance)

    def build_test_function(self, pair):
        terms = []
        for i, t in enumerate(self.test_function["terms"]):
            where = f"test_function.terms[{i}]"
            try:
                coeff = _complex_from_json(t["coeff"])
                u = t["u"]
                mc = MatrixCoefficient(
                    _label_from_json(u["label"]),
                    int(u.get("row", 0)),
                    int(u.get("col", 0)),
                )
                gspec = t["g"]
                poly = {}
                for key, val in gspec["poly"].items():
                    alpha = tuple(int(x) for x in key.split(",")) if key else ()
                    poly[alpha] = _complex_from_json(val)
                g = PolyGaussian(
                    pair.dim_p,
                    float(gspec["sigma"]),
                    poly,
                    radial=bool(gspec.get("radial", False)),
                )
            except ConfigError:
                raise
            except (KeyError, TypeError, ValueError) as e:
                raise ConfigError(where, str(e)) from None
            terms.append(Term(coeff, mc, g))
        try:
            return TestFunction(pair, terms)
        except ValueError as e:
            raise ConfigError("test_function", str(e)) from None

    def build_plan(self):
        return VerificationPlan(
            lambda_max=self.lambda_max,
            gamma0_grid=self.gamma0,
            gamma2_lambdas=self.gamma2,
            continuity_mu=self.continuity_mu,
            continuity_path=self.continuity_path,
            h_ladder_mus=self.h_ladder_mus,
            h_ladder_H0=self.h_ladder_H0,
            h_ladder_levels=self.h_ladder_levels,
            mu_values=self.mu_values,
            mu_decay_H=self.mu_decay_H,
            order=self.order,
        )

    def build_thresholds(self):
        return Thresholds(**self.tolerances)


def round_floats(obj, sig=12):
    """Recursively round floats to a fixed number of significant digits."""
    if isinstance(obj, float):
        if obj == 0.0 or not np.isfinite(obj):
            return 0.0 if obj == 0.0 else obj
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    if isinstance(obj, (np.floating,)):
        return round_floats(float(obj), sig)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj, sig=12):
    return json.dumps(round_floats(obj, sig), sort_keys=True, indent=2) + "\n"
