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
and stabilizers with their restriction maps on torus weights.
"""

from __future__ import annotations

import itertools
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
    """A closed connected subgroup of K, by its branching.

    ``restrict`` maps a torus weight of K (``CompactGroup.weights``) to the
    stabilizer label it restricts to; it is None for a stabilizer that is
    all of K, which branches by Schur's lemma.
    """

    structure: str
    group: CompactGroup
    restrict: Callable | None


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
    return StabilizerDescriptor("Trivial", TrivialGroup(), lambda w: 0)


def _circle():
    """The circle: all of an SO(2) factor, or the z-rotations in SO(3) (weight m to m)."""
    return StabilizerDescriptor("Torus(1)", CircleGroup(), lambda w: w)


def _product_stab(factors):
    """Factorwise stabilizer of a product instance, one factor per factor of K."""
    g = ProductGroup([f.group for f in factors])
    structure = "Product(" + ", ".join(f.structure for f in factors) + ")"

    def restrict(w):
        return tuple(f.restrict(x) for f, x in zip(factors, w))

    return StabilizerDescriptor(structure, g, restrict)


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
    full, circle = StabilizerDescriptor("SO3", RotationGroup3(), None), _circle()

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


def stab_contained(pair, coords_small, coords_big):
    """Whether the stabilizer of the first point sits inside the second's.

    For the shipped instances the stabilizer grows exactly with the set of
    vanishing positive roots, so containment is a wall-set inclusion.
    """
    return set(pair.wall_set(coords_small)) <= set(pair.wall_set(coords_big))
