"""The stratified unitary dual and sequence-level Fell convergence.

Points are stored in canonical form: the flat coordinate is replaced by its
dominant representative and the stabilizer irrep label is transported along
the Weyl element used, so equivalent inputs collapse to equal points.  Each
point is located once per process and kept (``make_dual_point``).  The
three strata are

* ``gamma0`` -- regular dominant H with an irrep of the centralizer M,
* ``gamma1`` -- nonzero wall H with an irrep of its (larger) stabilizer,
* ``gamma2`` -- the dual of K itself (H = 0 semantics).

Convergence of a finite sequence (read as the tail of an abstract one) is
decided by a single rule covering all strata: the flat parts must converge
numerically and, on the final half of the sequence, each member's
stabilizer must sit inside the limit's and the limit's irrep must contain
the member's irrep upon restriction.  A cross-check against brute-force
neighborhood membership over a fixed radius grid is provided for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptySequence,
    EpsilonTooLarge,
    MixedInstance,
    StratumMismatch,
)
from .induction import restriction_multiplicity
from .pairs import (
    as_coords,
    dominant_representative,
    stab_contained,
    stabilizer,
)

H_CONV_TOL = 1e-6

GAMMA0, GAMMA1, GAMMA2 = "gamma0", "gamma1", "gamma2"


@dataclass(frozen=True)
class DualPoint:
    pair_name: str
    stratum: str
    label: object
    H: tuple | None  # dominant coordinates; None on gamma2

    def h_coords(self, pair):
        """Flat coordinates with the gamma2 convention H = 0."""
        return self.H if self.H is not None else pair.zero_point()


def transport_label(pair, w, H_from, label):
    """Label of the conjugated irrep when moving H by a Weyl element.

    The identity, first in every instance's ``weyl_group``, moves no label:
    it is returned as it is, with no rule, table or character match.  For
    another element the stabilizers of ``H_from`` and ``w.H_from`` are
    identified by conjugation with the stored representative of ``w``; the
    transported label is the candidate whose character matches at the nodes
    of the stabilizer's quadrature rule of order 2 band + 1.  That rule
    integrates products of characters of band <= band exactly, so two
    distinct candidates, orthonormal characters, differ by at least sqrt(2)
    at some node and the match is exact.  Results are kept per (instance,
    Weyl element, stabilizer structures, label).
    """
    H_from = as_coords(H_from)
    return _transport(
        pair, w, pair.stabilizer_of(H_from), pair.stabilizer_of(w.apply(H_from)), label
    )


def _transport(pair, w, stab_from, stab_to, label):
    """``transport_label`` between two stabilizer descriptors."""
    if w is pair.weyl_group[0]:  # the identity
        return label
    key = (pair.name, w.name, stab_from.structure, stab_to.structure, label)
    if key in _TRANSPORTED:
        return _TRANSPORTED[key]
    kw = w.rep_in_k
    kw_inv = pair.K.inverse(kw)
    band = stab_from.group.char_band(label)
    rule = stab_to.group.quadrature(2 * band + 1)
    moved = [
        stab_from.pullback(pair.K.compose(kw_inv, pair.K.compose(stab_to.embed(s), kw)))
        for s in rule.nodes
    ]
    table = stab_from.group.irrep_table(label, stab_from.group.params_of(moved))
    targets = np.trace(table, axis1=1, axis2=2)
    for cand in stab_to.group.irrep_labels(band):
        chars = np.trace(stab_to.group.irrep_table(cand, rule.params), axis1=1, axis2=2)
        if np.all(np.abs(chars - targets) < 1e-8):
            _TRANSPORTED[key] = cand
            return cand
    raise AssertionError(f"no transported label found for {label!r} under {w.name}")


_TRANSPORTED = {}  # (pair, Weyl element, stabilizer structures, label) -> label


def make_dual_point(pair, label, H=None):
    """Canonical dual point from raw data; the stratum is derived, not trusted.

    ``H`` may be any flat coordinate (or None / zero for the K-dual); it is
    replaced by its dominant representative and the label transported
    accordingly.  StratumMismatch is raised when the label is not an irrep
    label of the stabilizer of that representative, or of K itself on the
    K-dual.  Points are kept per (instance, wall tolerance, label, raw H),
    so each is located once per process.  The label is keyed by its type and
    repr: 1.0, True or [0, 0] equal a label or are unhashable, and must
    still be refused after 1 or (0, 0) is kept.
    """
    if H is not None:
        H = as_coords(H)
    key = (pair.name, pair.wall_tol, type(label), repr(label), H)
    if key in _POINTS:
        return _POINTS[key]
    if H is None or math.hypot(*H) <= pair.wall_tol:
        if not pair.K.validate_label(label):
            raise StratumMismatch(f"{label!r} is not a K-irrep label on {pair.name}")
        point = DualPoint(pair.name, GAMMA2, label, None)
    else:
        dom, w = dominant_representative(pair, H)
        stab = pair.stabilizer_of(dom)
        if not stab.group.validate_label(label):
            raise StratumMismatch(
                f"{label!r} is not an irrep label of stabilizer {stab.structure} "
                f"at H={dom} on {pair.name}"
            )
        moved = _transport(pair, w, pair.stabilizer_of(H), stab, label)
        stratum = GAMMA1 if pair.wall_set(dom) else GAMMA0
        point = DualPoint(pair.name, stratum, moved, dom)
    _POINTS[key] = point
    return point


_POINTS = {}  # (instance, wall tolerance, label type, label repr, raw H) -> DualPoint


def equivalent(pair, p1, p2, tol=1e-12):
    """Whether two points parametrize equivalent representations."""
    if p1.pair_name != p2.pair_name:
        raise MixedInstance(f"{p1.pair_name} vs {p2.pair_name}")
    if p1.stratum != p2.stratum or p1.label != p2.label:
        return False
    if p1.H is None and p2.H is None:
        return True
    return max(abs(a - b) for a, b in zip(p1.H, p2.H)) <= tol


def weyl_action_on_pairs(pair, w, point):
    """Move a dual point by a Weyl element: (rho, H) -> (w.rho, w.H).

    Points are stored canonically, so the moved pair is immediately reduced
    back to its dominant form and the result is equivalent to the input
    (the action is by construction trivial on equivalence classes).
    """
    if point.stratum == GAMMA2:
        return point
    raw_H = w.apply(point.H)
    raw_label = transport_label(pair, w, point.H, point.label)
    return make_dual_point(pair, raw_label, raw_H)


def _h_distances(pair, Hs, H):
    """Distances from each flat point of ``Hs`` to ``H``, in one batch, as floats."""
    d = pair.embed_a(Hs) - pair.embed_a(H)
    return np.sqrt(np.einsum("ij,jk,ik->i", d, pair.inner_product, d)).tolist()


def epsilon_threshold(pair, H):
    """Largest radius below which every nearby point has a smaller stabilizer.

    The distance from H to the wall of a positive root alpha is
    |alpha(H)| / |alpha|; radii beyond the smallest such distance allow
    points whose stabilizer is not contained in H's, breaking the
    neighborhood-basis hypothesis.
    """
    vals = pair.root_values(H)
    norms = np.linalg.norm(pair.positive_roots, axis=1)
    dists = [
        abs(v) / n
        for v, n in zip(vals, norms)
        if abs(v) > pair.wall_tol
    ]
    return min(dists) if dists else math.inf


def in_neighborhood(pair, base, eps, candidate):
    """Membership of ``candidate`` in the basic neighborhood of ``base``.

    True iff the flat parts are within ``eps`` and the base's irrep
    restricted to the candidate's stabilizer contains the candidate's irrep.
    EpsilonTooLarge is raised when ``eps`` exceeds the containment threshold
    of the base point.
    """
    if base.pair_name != candidate.pair_name:
        raise MixedInstance(f"{base.pair_name} vs {candidate.pair_name}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    Hb = base.h_coords(pair)
    Hc = candidate.h_coords(pair)
    thr = epsilon_threshold(pair, Hb)
    if eps > thr:
        raise EpsilonTooLarge(
            f"eps={eps} exceeds the stabilizer-containment threshold {thr:.3g} "
            f"at H={Hb} on {pair.name}"
        )
    if _h_distances(pair, [Hc], Hb)[0] >= eps:
        return False
    big = stabilizer(pair, Hb).group
    sub = stabilizer(pair, Hc)
    return restriction_multiplicity(big, base.label, sub, candidate.label) > 0


@dataclass
class ConvergenceCertificate:
    verdict: bool
    tail_index: int | None
    evidence: list = field(default_factory=list)

    @property
    def converges(self):
        return self.verdict


def converges(pair, seq, limit, h_tol=H_CONV_TOL):
    """Decide Fell convergence of a finite tail toward ``limit``.

    The numeric reading of "H_n converges": over the last quarter of the
    sequence, distances to the limit have mean below ``h_tol`` and are
    non-increasing.  The representation-theoretic clause ("for n large
    enough") is required on the final half: the member's stabilizer is
    contained in the limit's, and the limit's irrep restricted to it
    contains the member's irrep.  For a K-dual limit over a K-dual tail
    this reduces to the sequence being eventually constant.  The distances
    are one numpy expression over the stacked flat points, and each
    multiplicity is counted once per (member stabilizer structure, member
    label).
    """
    if not seq:
        raise EmptySequence("convergence query needs at least one element")
    names = {p.pair_name for p in seq} | {limit.pair_name}
    if names != {pair.name}:
        raise MixedInstance(f"points from instances {sorted(names)} on {pair.name}")

    n = len(seq)
    H_lim = limit.h_coords(pair)
    Hs = [p.h_coords(pair) for p in seq]
    tail_start = n - math.ceil(n / 2)
    quarter_start = n - max(1, math.ceil(n / 4))

    dists = _h_distances(pair, Hs, H_lim)
    evidence = [{"n": i, "distance": d} for i, d in enumerate(dists)]
    big = stabilizer(pair, H_lim).group
    mults = {}  # (member stabilizer structure, member label) -> multiplicity
    branch_ok = True
    for rec, p, H in zip(evidence[tail_start:], seq[tail_start:], Hs[tail_start:]):
        contained = stab_contained(pair, H, H_lim)
        rec["stabilizer_contained"] = contained
        if contained:
            sub = stabilizer(pair, H)
            key = (sub.structure, p.label)
            if key not in mults:
                mults[key] = restriction_multiplicity(big, limit.label, sub, p.label)
            rec["multiplicity"] = mults[key]
            branch_ok = branch_ok and mults[key] > 0
        else:
            branch_ok = False

    quarter = dists[quarter_start:]
    h_ok = float(np.mean(quarter)) < h_tol and all(
        b <= a + 1e-15 for a, b in zip(quarter, quarter[1:])
    )
    verdict = bool(h_ok and branch_ok)
    # from the last-quarter start both clauses hold: multiplicities are
    # positive (the quarter sits inside the checked half) and distances
    # are small and non-increasing
    return ConvergenceCertificate(
        verdict=verdict,
        tail_index=quarter_start if verdict else None,
        evidence=evidence,
    )


def neighborhood_cross_check(pair, seq, limit, eps_grid=(0.5, 0.1, 0.01)):
    """Brute-force verdict: final half lies in every eps-neighborhood of the limit."""
    if not seq:
        raise EmptySequence("convergence query needs at least one element")
    tail = seq[len(seq) - math.ceil(len(seq) / 2):]
    for eps in eps_grid:
        for p in tail:
            if not in_neighborhood(pair, limit, eps, p):
                return False
    return True
