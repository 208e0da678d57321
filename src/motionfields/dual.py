"""The stratified unitary dual and sequence-level Fell convergence.

Points are stored in canonical form: the flat coordinate is replaced by its
dominant representative and the stabilizer irrep label is transported along
the Weyl element used, by the closed-form label map the instance stores with
that element, so equivalent inputs collapse to equal points: two points are
equivalent exactly when they are equal.  The three strata are

* ``gamma0`` -- regular dominant H with an irrep of the centralizer M,
* ``gamma1`` -- nonzero wall H with an irrep of its (larger) stabilizer,
* ``gamma2`` -- the dual of K itself (H = 0 semantics).

Convergence of a finite sequence (read as the tail of an abstract one) is
decided by a single rule covering all strata: the flat parts must converge
numerically and, on the final half of the sequence, each member's
stabilizer must sit inside the limit's and the limit's irrep must contain
the member's irrep upon restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EmptySequence, MixedInstance, StratumMismatch
from .induction import restriction_multiplicity
from .pairs import WALL_TOL, as_coords, dominant_representative, stabilizer

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

    Conjugation by the stored representative of ``w`` carries the stabilizer
    of ``H_from`` onto that of ``w.H_from``.  Every stabilizer here is a
    torus, trivial or all of K, so the conjugated irrep is given in closed
    form: on a torus or the trivial group by the label map ``w.relabel``
    that the instance writes with ``w`` (m -> -m for the M3 flip, the
    identity where K is abelian); on all of K the conjugation is
    inner and fixes every label.  No rule, table or character match is used.
    """
    H_from = as_coords(H_from)
    return _transport(w, pair.stabilizer_of(H_from), label)


def _transport(w, stab, label):
    """``transport_label`` given the stabilizer at either end of the move.

    Only whether it is all of K matters (the one kind of stabilizer with no
    ``positions``), and conjugation keeps that.
    """
    return label if stab.positions is None else w.relabel(label)


def make_dual_point(pair, label, H=None):
    """Canonical dual point from raw data; the stratum is derived, not trusted.

    ``H`` may be any flat coordinate (or None / zero for the K-dual); it is
    replaced by its dominant representative and the label transported
    accordingly.  StratumMismatch is raised when the label is not an irrep
    label of the stabilizer of that representative, or of K itself on the
    K-dual; a label of another type that compares equal (1.0, True) is not one.
    """
    H = None if H is None else as_coords(H)
    if H is None or math.hypot(*H) <= WALL_TOL:
        if not pair.K.validate_label(label):
            raise StratumMismatch(f"{label!r} is not a K-irrep label on {pair.name}")
        return DualPoint(pair.name, GAMMA2, label, None)
    dom, w = dominant_representative(pair, H)
    stab = pair.stabilizer_of(dom)
    if not stab.group.validate_label(label):
        raise StratumMismatch(
            f"{label!r} is not an irrep label of stabilizer {stab.structure} "
            f"at H={dom} on {pair.name}"
        )
    moved = _transport(w, stab, label)  # stab is conjugate to the stabilizer at H
    return DualPoint(pair.name, GAMMA1 if pair.wall_set(dom) else GAMMA0, moved, dom)


@dataclass
class ConvergenceCertificate:
    verdict: bool
    tail_index: int | None
    evidence: list = field(default_factory=list)


def converges(pair, seq, limit):
    """Decide Fell convergence of a finite tail toward ``limit``.

    The numeric reading of "H_n converges": over the last quarter of the
    sequence, distances to the limit have mean below ``H_CONV_TOL`` and are
    non-increasing.  The representation-theoretic clause ("for n large
    enough") is required on the final half: the member's stabilizer is
    contained in the limit's, and the limit's irrep restricted to it
    contains the member's irrep.  For a K-dual limit over a K-dual tail
    this reduces to the sequence being eventually constant.  Containment is
    the wall-set inclusion (its oracle is ``stab_contained`` in
    tests/pointwise.py), with the limit's wall set taken once per query
    and each member's once; each multiplicity is counted once per (member
    stabilizer structure, member label).  The mean distance is
    ``math.fsum``'s, correctly rounded.
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

    dists = [math.sqrt(sum((a - b) * (a - b) for a, b in zip(H, H_lim))) for H in Hs]
    evidence = [{"n": i, "distance": d} for i, d in enumerate(dists)]
    big = stabilizer(pair, H_lim).group
    big_walls = set(pair.wall_set(H_lim))
    mults = {}  # (member stabilizer structure, member label) -> multiplicity
    branch_ok = True
    for rec, p, H in zip(evidence[tail_start:], seq[tail_start:], Hs[tail_start:]):
        contained = set(pair.wall_set(H)) <= big_walls  # the stabilizers' inclusion
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
    h_ok = math.fsum(quarter) / len(quarter) < H_CONV_TOL and all(
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
