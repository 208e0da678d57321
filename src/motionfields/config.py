"""Scenario configuration: the one parser of the scenario format.

``ScenarioConfig.from_dict`` turns a scenario document, in one pass, into
the test-function terms, the ``VerificationPlan``, the ``Thresholds`` and
the convergence queries, with labels and coordinates parsed.  Every
malformed field raises a ``ConfigError`` naming it (for example
``grids.gamma0[0].mu``), so a bad document is refused before any work.

Irrep labels appear in JSON as integers (rank-one instances) or integer
lists (the product instance).  Each grid or query label must be an irrep
label of the stabilizer at its points; the parser checks this by locating
each point (``dual.make_dual_point``), and the plan and the queries hold
the located points, so the run locates none again.  The continuity path
must keep one induced stratum, wall set and label (``verifier.path_break``).
Flat points are lists of ``rank`` finite numbers; complex numbers are
numbers or [re, im] pairs; polynomial multi-indices are comma-joined
strings keying complex coefficients.

``dump_json`` writes the JSON artifacts of a run, in one recursive pass
that rounds each float as it writes it.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dual import make_dual_point
from .errors import ConfigError, NonRadialFlatFactor, StratumMismatch, SupBoundOverflow
from .pairs import INSTANCE_NAMES, WALL_TOL, build_instance
from .testfunctions import MatrixCoefficient, PolyGaussian, Term, TestFunction
from .verifier import Thresholds, VerificationPlan, path_break

SCHEMA_VERSION = 1


# -- field parsers: each returns the parsed value or raises ConfigError ------


def _require(ok, where, message):
    if not ok:
        raise ConfigError(where, message)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    """An int or float that a float can hold: a larger int overflows every float use."""
    if isinstance(x, float):
        return True
    return _is_int(x) and abs(x) <= sys.float_info.max


def _obj(where, x):
    _require(isinstance(x, dict), where, f"expected an object, got {x!r}")
    return x


def _key(where, obj, key):
    """``obj[key]``, where ``obj`` is the object at ``where``."""
    _require(key in _obj(where, obj), f"{where}.{key}", "missing")
    return obj[key]


def _items(where, x, empty_ok=False):
    """(field name, entry) for each entry of a list."""
    what = "a list" if empty_ok else "a nonempty list"
    _require(isinstance(x, list) and (x or empty_ok), where, f"expected {what}, got {x!r}")
    return [(f"{where}[{i}]", v) for i, v in enumerate(x)]


def _positive_int(where, x):
    _require(_is_int(x) and x > 0, where, f"must be a positive integer, got {x!r}")
    return x


def _label(where, x):
    """An irrep label: an integer or a nonempty list of integers."""
    if isinstance(x, list) and x and all(map(_is_int, x)):
        return tuple(x)
    _require(_is_int(x), where, f"not an irrep label: {x!r}")
    return x


def _located(where, x, pair, Hs):
    """The dual points of the label ``x`` at each flat point of ``Hs`` (None: K)."""
    label = _label(where, x)
    try:
        return [make_dual_point(pair, label, H) for H in Hs]
    except StratumMismatch as e:
        raise ConfigError(where, str(e)) from None


def _located_each(where, x, pair, H):
    """The dual point at ``H`` of each label of the list ``x``."""
    return [_located(w, v, pair, [H])[0] for w, v in _items(where, x)]


def _coords(where, x, rank):
    """A flat point: ``rank`` finite numbers."""
    ok = isinstance(x, list) and len(x) == rank and all(map(_is_number, x))
    _require(ok, where, f"expected a list of {rank} numbers, got {x!r}")
    _require(all(map(math.isfinite, x)), where, f"coordinates must be finite, got {x!r}")
    return tuple(float(v) for v in x)


def _nonzero(where, x, pair):
    """A flat point off the zero point: its norm exceeds the wall tolerance."""
    H = _coords(where, x, pair.rank)
    _require(math.hypot(*H) > WALL_TOL, where, f"must be a nonzero point, got {list(H)!r}")
    return H


def _complex(where, x):
    pair = isinstance(x, list) and len(x) == 2 and all(map(_is_number, x))
    _require(_is_number(x) or pair, where, f"expected a number or [re, im], got {x!r}")
    z = complex(*x) if pair else complex(x)
    _require(math.isfinite(abs(z)), where, f"must be finite, got {x!r}")
    return z


def _tolerances(where, tol):
    """Threshold values by name: known names, finite positive numbers."""
    for k, v in _obj(where, tol).items():
        _require(k in Thresholds.__dataclass_fields__, f"{where}.{k}", "unknown threshold name")
        _require(_is_number(v) and 0 < v < math.inf, f"{where}.{k}",
                 f"must be a finite positive number, got {v!r}")
    return tol


def _term(where, t, dim):
    u, g = _key(where, t, "u"), _key(where, t, "g")
    label = _label(f"{where}.u.label", _key(f"{where}.u", u, "label"))
    row, col = u.get("row", 0), u.get("col", 0)
    _require(all(_is_int(i) and i >= 0 for i in (row, col)), f"{where}.u",
             "row and col must be nonnegative integers")
    poly = {}
    for key, val in _obj(f"{where}.g.poly", _key(f"{where}.g", g, "poly")).items():
        alpha = key.split(",")
        _require(all(a.isdecimal() for a in alpha), f"{where}.g.poly.{key}", "not a multi-index")
        poly[tuple(map(int, alpha))] = _complex(f"{where}.g.poly.{key}", val)
    sigma, radial = _key(f"{where}.g", g, "sigma"), g.get("radial", False)
    _require(_is_number(sigma), f"{where}.g.sigma", f"must be a number, got {sigma!r}")
    _require(isinstance(radial, bool), f"{where}.g.radial", "must be true or false")
    coeff = _complex(f"{where}.coeff", _key(where, t, "coeff"))
    try:
        flat = PolyGaussian(dim, float(sigma), poly, radial=radial)
    except NonRadialFlatFactor as e:
        raise ConfigError(f"{where}.g.radial", str(e)) from None
    except OverflowError:
        raise ConfigError(f"{where}.g.sigma", f"its square overflows a float, got {sigma!r}") from None
    except ValueError as e:
        raise ConfigError(f"{where}.g", str(e)) from None
    return Term(coeff, MatrixCoefficient(label, row, col), flat)


def _terms(tf, pair):
    where = "test_function.terms"
    entries = _items(where, _key("test_function", tf, "terms"))
    terms = tuple(_term(w, t, pair.dim_p) for w, t in entries)
    try:
        f = TestFunction(pair, terms)  # labels and indices against the instance
    except ValueError as e:
        raise ConfigError(where, str(e)) from None
    try:  # condition 1 bounds each HS norm by d_mu sup^2
        f.fhat2_sup()
    except SupBoundOverflow as e:
        raise ConfigError(where, str(e)) from None
    return terms


def _plan(doc, pair):
    """The verification plan; every grid label fits the stabilizer of its points."""
    rank = pair.rank
    cut, grids = _obj("cutoffs", doc.get("cutoffs", {})), _obj("grids", doc.get("grids", {}))
    order = cut.get("order")  # null in older documents
    _require(order is None, "cutoffs.order",
             f"not a setting: entries are closed forms, with no quadrature order, got {order!r}")
    cont, ladder = _key("grids", grids, "continuity"), _key("grids", grids, "h_ladder")
    path = _items("grids.continuity.path", _key("grids.continuity", cont, "path"))
    _require(len(path) >= 3 and len(path) % 2, "grids.continuity.path",
             "needs an odd number (>= 3) of points")
    path = [_coords(w, h, rank) for w, h in path]
    grid = []
    for w, e in _items("grids.gamma0", grids.get("gamma0")):
        H = _coords(f"{w}.H", _key(w, e, "H"), rank)
        grid += _located(f"{w}.mu", _key(w, e, "mu"), pair, [H])
    # every rung t H0 of a ray from zero is the zero point: condition 4 would be vacuous
    H0 = _nonzero("grids.h_ladder.H0", _key("grids.h_ladder", ladder, "H0"), pair)
    mu_grid = grids.get("mu_decay")
    # condition 3 reads weights of a stabilizer of the induced strata, not K-labels
    mu_H = None if mu_grid is None else _nonzero(
        "grids.mu_decay.H", _key("grids.mu_decay", mu_grid, "H"), pair
    )
    lambda_max = _positive_int("cutoffs.lambda_max", cut.get("lambda_max"))
    grid += _located_each("grids.gamma2", grids.get("gamma2"), pair, None)
    path = _located("grids.continuity.mu", _key("grids.continuity", cont, "mu"), pair, path)
    broken = path_break(pair, path)  # the check condition 2 makes, before any work
    if broken:
        raise ConfigError(f"grids.continuity.path[{broken[0]}]", broken[1])
    ladder_mus = []  # the labels as given: the rays are formed at H0 as given
    for w, mu in _items("grids.h_ladder.mus", _key("grids.h_ladder", ladder, "mus")):
        _located(w, mu, pair, [H0])
        ladder_mus.append(_label(w, mu))
    return VerificationPlan(
        lambda_max=lambda_max,
        grid=grid,
        path=path,
        h_ladder_mus=ladder_mus,
        h_ladder_H0=H0,
        h_ladder_levels=_positive_int(
            "grids.h_ladder.levels", _key("grids.h_ladder", ladder, "levels")
        ),
        mu_points=None if mu_grid is None else _located_each(
            "grids.mu_decay.mu_values", _key("grids.mu_decay", mu_grid, "mu_values"), pair, mu_H
        ),
    )


def _point(where, pt, pair):
    """A dual point of a convergence query."""
    H = _obj(where, pt).get("H")
    H = None if H is None else _coords(f"{where}.H", H, pair.rank)
    return _located(f"{where}.label", _key(where, pt, "label"), pair, [H])[0]


def _queries(queries, pair):
    """Convergence queries as (name, limit, sequence) of located points."""
    out = []
    for i, (where, q) in enumerate(_items("convergence_queries", queries, empty_ok=True)):
        name = _obj(where, q).get("name", f"query-{i}")
        _require(isinstance(name, str), f"{where}.name", f"must be a string, got {name!r}")
        seq = _items(f"{where}.sequence", q.get("sequence"))
        limit = _point(f"{where}.limit", q.get("limit"), pair)
        out.append((name, limit, tuple(_point(w, p, pair) for w, p in seq)))
    return tuple(out)


# -- serialization -----------------------------------------------------------


def _label_to_json(x):
    return list(x) if isinstance(x, tuple) else x


def _point_to_json(p):
    return {"label": _label_to_json(p.label), "H": None if p.H is None else list(p.H)}


@dataclass
class ScenarioConfig:
    name: str
    instance: str
    terms: tuple  # Term objects of the test function
    plan: VerificationPlan
    thresholds: Thresholds
    queries: tuple  # (name, limit, sequence) of DualPoints
    output_dir: str | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, doc):
        doc = _obj("<root>", doc)
        schema, name, instance = doc.get("schema"), doc.get("name"), doc.get("instance")
        _require(schema == SCHEMA_VERSION, "schema", f"expected {SCHEMA_VERSION}, got {schema!r}")
        _require(isinstance(name, str) and name, "name", "scenario needs a nonempty name")
        _require(instance in INSTANCE_NAMES, "instance",
                 f"{instance!r} not in {', '.join(INSTANCE_NAMES)}")
        output_dir = doc.get("output_dir")
        _require(output_dir is None or isinstance(output_dir, str), "output_dir",
                 f"must be a string or null, got {output_dir!r}")
        pair = build_instance(instance)
        return cls(
            name=name,
            instance=instance,
            terms=_terms(doc.get("test_function"), pair),
            plan=_plan(doc, pair),
            thresholds=Thresholds(**_tolerances("tolerances", doc.get("tolerances", {}))),
            queries=_queries(doc.get("convergence_queries", []), pair),
            output_dir=output_dir,
        )

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:  # a JSONDecodeError, or an int too long
            raise ConfigError("<json>", str(e) or "nested too deeply") from None
        return cls.from_dict(doc)

    def override_tolerances(self, overrides):
        """Replace thresholds from {name: numeric text}, checked like the document's block."""
        tol = {}
        for k, v in overrides.items():
            try:
                tol[k] = float(v)
            except ValueError:
                raise ConfigError(f"override-tolerance.{k}", f"not a number: {v!r}") from None
        self.thresholds = replace(self.thresholds, **_tolerances("override-tolerance", tol))

    def to_dict(self):
        """The document, written from the located points: each H dominant and
        its label moved with it, the grid's K-dual points under ``gamma2`` and
        the path under its first point's label.  A document already in that
        form, as the bundled ones are, is written back as it is."""
        plan, pair = self.plan, self.build_pair()
        grids = {
            "gamma0": [{"mu": _label_to_json(p.label), "H": list(p.H)}
                       for p in plan.grid if p.H is not None],
            "gamma2": [_label_to_json(p.label) for p in plan.grid if p.H is None],
            "continuity": {
                "mu": _label_to_json(plan.path[0].label),
                "path": [list(p.h_coords(pair)) for p in plan.path],
            },
            "h_ladder": {
                "mus": [_label_to_json(m) for m in plan.h_ladder_mus],
                "H0": list(plan.h_ladder_H0),
                "levels": plan.h_ladder_levels,
            },
        }
        if plan.mu_points is not None:
            grids["mu_decay"] = {
                "H": list(plan.mu_points[0].H),
                "mu_values": [_label_to_json(p.label) for p in plan.mu_points],
            }
        queries = [
            {"name": n, "limit": _point_to_json(lim), "sequence": list(map(_point_to_json, seq))}
            for n, lim, seq in self.queries
        ]
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "instance": self.instance,
            "test_function": {"terms": [t.to_json() for t in self.terms]},
            "cutoffs": {"lambda_max": plan.lambda_max},
            "grids": grids,
            "convergence_queries": queries,
            "tolerances": asdict(self.thresholds),
            "output_dir": self.output_dir,
        }

    # -- realization --------------------------------------------------------

    def build_pair(self):
        return build_instance(self.instance)

    def build_test_function(self, pair):
        return TestFunction(pair, self.terms)


_escape = json.encoder.encode_basestring_ascii


def _float_json(x):
    """A float at 12 significant digits, with ``json``'s names for NaN and +-inf."""
    if math.isfinite(x):
        return repr(float(f"{x:.12g}")) if x else "0.0"
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _plain(x):
    """A numpy scalar or a subclass of a JSON type as the plain JSON type."""
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, dict):
        return dict(x.items())
    if isinstance(x, (list, tuple)):
        return list(x)
    if isinstance(x, (int, np.integer)):  # bool cannot be subclassed
        return operator.index(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, str):
        return str.__str__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json(x, pad):
    """``x`` as JSON text; ``pad`` is the newline and indent of its own line."""
    t = type(x)
    if t is float:
        return _float_json(x)
    if t is str:
        return _escape(x)
    if t is dict:
        if not x:
            return "{}"
        inner = pad + "  "  # a key that is not a str is a TypeError of _escape
        items = [_escape(k) + ": " + _json(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in x]) + pad + "]"
    if t is int:
        return repr(x)
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    return _json(_plain(x), pad)


def dump_json(obj):
    """``obj`` as the artifact text: 2-space indent, sorted keys, ASCII escapes,
    floats at 12 significant digits (+-0.0 as 0.0) and a final newline.

    Tuples are written as lists and numpy scalars as the JSON type they
    hold; any other type, or a key that is not a string, is a TypeError.
    """
    return _json(obj, "\n") + "\n"
