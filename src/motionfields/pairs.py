"""Concrete Riemannian-pair data: chambers, Weyl elements, stabilizers.

Three instances ship:

* ``M2``    -- K = SO(2) acting on R^2, rank 1.
* ``M3``    -- K = SO(3) acting on R^3, rank 1 (the a-line is the z-axis,
  so the centralizer of a regular point is the z-rotation circle).
* ``M2xM2`` -- K = SO(2)^2 on R^2 + R^2, rank 2; the positive chamber is the
  open quadrant and its walls make the singular stratum non-empty.

Coordinates on p and on the flat part are Euclidean in a fixed
orthonormal basis, so the invariant form is the dot product.  A pair holds
the label algebra a run uses: roots, Weyl elements with their label maps,
and stabilizers with their branching in closed form.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import UnknownInstance
from .groups import CircleGroup, CompactGroup, ProductGroup, RotationGroup3, TrivialGroup

WALL_TOL = 1e-9  # absolute tolerance on root values


@dataclass(frozen=True)
class WeylElement:
    """Orthogonal map on a-coordinates together with its label map.

    ``relabel`` is the map that conjugation by a representative of the
    element in K induces on the irrep labels of the torus or trivial
    stabilizers of nonzero points.
    """

    name: str
    matrix: tuple  # rows, as tuples, for hashability
    relabel: Callable

    def apply(self, coords):
        return tuple(
            float(sum(r * c for r, c in zip(row, coords))) for row in self.matrix
        )


def _fixed(label):
    """The label map of a conjugation that fixes every irrep."""
    return label


@dataclass(eq=False)
class StabilizerDescriptor:
    """A closed connected subgroup of K, by its branching, in closed form.

    ``count(group, lam, mu)`` is the multiplicity of the stabilizer irrep mu
    in the irrep lam of ``group``, which contains the stabilizer (K, or a
    larger stabilizer); ``bands(group, mu)`` is the set of bands of the
    irreps of ``group`` over mu, an integer interval (lo, hi) with hi
    possibly inf, or None when it is empty.  ``positions(K, lam, mu)``
    lists, in index order, the basis vectors of lam whose torus weight
    restricts to mu, in closed form: the copies of a basis
    (``PeterWeylBasis.positions``); it is None for a stabilizer that is all
    of K, which branches by Schur's lemma.
    """

    structure: str
    group: CompactGroup
    count: Callable
    bands: Callable
    positions: Callable | None


@dataclass(eq=False)
class SymmetricPairDescriptor:
    name: str
    dim_p: int
    rank: int
    positive_roots: np.ndarray  # (n_roots, rank), acting by dot product
    weyl_group: tuple
    K: CompactGroup
    a_basis: np.ndarray  # (rank, dim_p): orthonormal rows embedding a into p
    stabilizer_of: Callable  # coords -> StabilizerDescriptor
    # (rule, coords) -> Ad(k)H at a rule's nodes, for the quadrature oracle;
    # kept because the benchmark's tracer wraps it after every build_instance
    ad_orbit_table: Callable
    M: StabilizerDescriptor  # centralizer of the flat, = stabilizer of regular points

    def embed_a(self, coords):
        return np.asarray(coords, dtype=float) @ self.a_basis

    @cached_property
    def _root_rows(self):
        return tuple(tuple(float(x) for x in r) for r in self.positive_roots)

    def _root_floats(self, coords):
        """The positive roots at ``coords``, as Python floats (rank <= 2: no numpy)."""
        return [sum(a * c for a, c in zip(r, coords)) for r in self._root_rows]

    def wall_set(self, coords):
        vals = self._root_floats(coords)
        return tuple(i for i, v in enumerate(vals) if abs(v) <= WALL_TOL)

    def zero_point(self):
        return tuple([0.0] * self.rank)


# ---------------------------------------------------------------------------
# stabilizer builders


def _trivial():
    """Every weight restricts to 0: lam holds mu = 0 d_lam times, and every K-type lies over it."""
    return StabilizerDescriptor(
        "Trivial", TrivialGroup(),
        lambda G, lam, mu: G.irrep_dim(lam) * int(mu == 0),
        lambda G, mu: (0, math.inf) if mu == 0 else None,
        lambda G, lam, mu: range(G.irrep_dim(lam) if mu == 0 else 0),
    )


def _circle():
    """The circle: all of an SO(2) factor, or the z-rotations in SO(3) (weight m to m).

    mu occurs in lam as often as the weight mu does: once in SO(2)'s irrep mu,
    once in each of SO(3)'s irreps of ell >= |mu|.
    """
    return StabilizerDescriptor(
        "Torus(1)", CircleGroup(),
        lambda G, lam, mu: G.weight_multiplicity(lam, mu),
        lambda G, mu: G.weight_bands(mu),
        lambda G, lam, mu: G.weight_positions(lam, mu),
    )


def _whole(structure, group):
    """All of K, by Schur's lemma: lam holds mu once if they are equal, and only then."""
    return StabilizerDescriptor(
        structure, group,
        lambda G, lam, mu: int(lam == mu),
        lambda G, mu: (G.char_band(mu),) * 2,
        None,
    )


def _product_stab(factors):
    """Factorwise stabilizer of a product instance, one factor per factor of K.

    Counts multiply; a K-type's band is the max of its factors', so the bands
    over mu are the interval from the max of the factors' lowest bands to the
    max of their highest.
    """
    g = ProductGroup([f.group for f in factors])
    structure = "Product(" + ", ".join(f.structure for f in factors) + ")"

    def count(G, lam, mu):
        return math.prod(f.count(h, x, m) for f, h, x, m in zip(factors, G.factors, lam, mu))

    def bands(G, mu):
        each = [f.bands(h, m) for f, h, m in zip(factors, G.factors, mu)]
        return None if None in each else tuple(map(max, zip(*each)))

    def positions(G, lam, mu):  # the kron (C-order) index of the factors' positions
        out = [0]
        for f, h, x, m in zip(factors, G.factors, lam, mu):
            out = [i * h.irrep_dim(x) + j for i in out for j in f.positions(h, x, m)]
        return out

    return StabilizerDescriptor(structure, g, count, bands, positions)


# ---------------------------------------------------------------------------
# instances


def _build_m2():
    circle, trivial = _circle(), _trivial()

    def stab(coords):
        return circle if abs(coords[0]) <= WALL_TOL else trivial

    def orbit_table(rule, coords):
        t = float(coords[0])
        theta = rule.params
        return np.stack([t * np.cos(theta), t * np.sin(theta)], axis=1)

    weyl = (
        WeylElement("id", ((1.0,),), _fixed),
        WeylElement("flip", ((-1.0,),), _fixed),  # K is abelian
    )
    return SymmetricPairDescriptor(
        name="M2",
        dim_p=2,
        rank=1,
        positive_roots=np.array([[1.0]]),
        weyl_group=weyl,
        K=CircleGroup(),
        a_basis=np.array([[1.0, 0.0]]),
        stabilizer_of=stab,
        ad_orbit_table=orbit_table,
        M=trivial,
    )


def _build_m3():
    full, circle = _whole("SO3", RotationGroup3()), _circle()

    def stab(coords):
        return full if abs(coords[0]) <= WALL_TOL else circle

    def orbit_table(rule, coords):
        t = float(coords[0])
        alpha, beta, _ = rule.params
        sb = np.sin(beta)
        return np.stack(
            [t * np.cos(alpha) * sb, t * np.sin(alpha) * sb, t * np.cos(beta)],
            axis=1,
        )

    weyl = (
        WeylElement("id", ((1.0,),), _fixed),
        # represented by rot_x(pi), which conjugates rot_z(theta) to rot_z(-theta): m -> -m
        WeylElement("flip", ((-1.0,),), operator.neg),
    )
    return SymmetricPairDescriptor(
        name="M3",
        dim_p=3,
        rank=1,
        positive_roots=np.array([[1.0]]),
        weyl_group=weyl,
        K=RotationGroup3(),
        a_basis=np.array([[0.0, 0.0, 1.0]]),
        stabilizer_of=stab,
        ad_orbit_table=orbit_table,
        M=circle,
    )


def _build_m2xm2():
    circle, trivial = _circle(), _trivial()
    # one descriptor per wall pattern: which factor's coordinate vanishes
    stabs = {
        walls: _product_stab([circle if w else trivial for w in walls])
        for walls in itertools.product((False, True), repeat=2)
    }

    def stab(coords):
        return stabs[tuple(abs(c) <= WALL_TOL for c in coords)]

    def orbit_table(rule, coords):
        t1, t2 = rule.params
        a, b = float(coords[0]), float(coords[1])
        return np.stack(
            [a * np.cos(t1), a * np.sin(t1), b * np.cos(t2), b * np.sin(t2)],
            axis=1,
        )

    weyl = tuple(
        WeylElement(
            f"({'flip' if s1 < 0 else 'id'},{'flip' if s2 < 0 else 'id'})",
            ((s1, 0.0), (0.0, s2)),
            _fixed,  # K is abelian
        )
        for s1 in (1.0, -1.0)
        for s2 in (1.0, -1.0)
    )
    return SymmetricPairDescriptor(
        name="M2xM2",
        dim_p=4,
        rank=2,
        positive_roots=np.array([[1.0, 0.0], [0.0, 1.0]]),
        weyl_group=weyl,
        K=ProductGroup([CircleGroup(), CircleGroup()]),
        a_basis=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
        stabilizer_of=stab,
        ad_orbit_table=orbit_table,
        M=stabs[False, False],
    )


_BUILDERS = {"M2": _build_m2, "M3": _build_m3, "M2xM2": _build_m2xm2}

INSTANCE_NAMES = tuple(sorted(_BUILDERS))


def build_instance(name):
    """Instantiate one of the shipped pairs by name ("M2", "M3", "M2xM2")."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownInstance(
            f"unknown instance {name!r}; available: {', '.join(INSTANCE_NAMES)}"
        ) from None
    return builder()


# ---------------------------------------------------------------------------
# chamber operations


def as_coords(coords):
    """Flat coordinates as a tuple of Python floats; a scalar is rank 1."""
    if not isinstance(coords, (tuple, list)):
        coords = np.atleast_1d(coords)
    return tuple(float(c) for c in coords)


def dominant_representative(pair, coords):
    """The unique Weyl-orbit point in the closed positive chamber.

    Returns ``(dominant_coords, weyl_element)`` with ``w.apply(coords)``
    equal to the dominant point.  For points on walls several elements work;
    the first in the stored order is returned, so the output is deterministic.
    """
    coords = as_coords(coords)
    for w in pair.weyl_group:
        moved = w.apply(coords)
        if all(v >= -WALL_TOL for v in pair._root_floats(moved)):
            return moved, w
    raise AssertionError("no dominant representative found; broken Weyl data")


def stabilizer(pair, coords):
    """Stabilizer descriptor of the point; depends only on its wall pattern."""
    return pair.stabilizer_of(as_coords(coords))
