"""Branching multiplicities and the orthonormal basis of the induced space.

The carrier space of an induced representation attached to a point H and a
stabilizer irrep rho is the space of covariant maps K -> H_rho.  Its
orthonormal basis is assembled K-type by K-type from matrix coefficients

    psi(k) = sqrt(d_lambda) T* tau_lambda(k^{-1}) v

where T runs over a Hilbert-Schmidt-orthonormal set of intertwiners
H_rho -> H_lambda.  Every shipped stabilizer is trivial, a coordinate
subtorus of K's maximal torus, or all of K, so branching needs no
quadrature and no list: each stabilizer states in closed form how often
rho occurs in lambda (``StabilizerDescriptor.count``, read by
``restriction_multiplicity``) and the bands of the K-types over rho
(``StabilizerDescriptor.bands``, read by ``branches_between``).  An
intertwiner is a unit weight vector whose weight restricts to rho, at the
positions the stabilizer gives in closed form
(``StabilizerDescriptor.positions``), or the identity on all of K (Schur's
lemma).  So a basis holds the counts and gives each K-type's copies as the
positions they select (``PeterWeylBasis.positions``), which ``fourier``
reads; no run forms an intertwiner.  This is the weight-basis form of the
SE(2)/SE(3) induced representations in Chirikjian & Kyatkin, Engineering
Applications of Noncommutative Harmonic Analysis (2001).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyBasis
from .groups import CompactGroup
from .pairs import StabilizerDescriptor, as_coords


def restriction_multiplicity(group, big, sub, small):
    """Multiplicity of the ``sub``-irrep ``small`` in the ``group``-irrep ``big``.

    ``group`` carries ``big`` (K, or a stabilizer's ``group``) and ``sub``
    sits inside it.  The count is ``sub``'s closed form
    (``StabilizerDescriptor.count``), O(1) in the labels.  Frobenius
    reciprocity (the K-types of an induced space) and the Fell topology
    both read this number.
    """
    return sub.count(group, big, small)


def intertwiners(K, lam, stab, mu):
    """HS-orthonormal intertwiners H_mu -> H_lam for the stabilizer action.

    If the stabilizer is all of K this is Schur's lemma: I / sqrt(d_lam) when
    lam == mu, else none.  Otherwise mu is one-dimensional and they are the
    (d_lam x 1) unit columns e_i whose weight restricts to mu, in index order:
    the stabilizer's closed-form ``positions``, with no weight listed.  The
    package calls this nowhere, as ``PeterWeylBasis.positions`` gives the
    same copies: it is the tests' oracle of those positions, and a name the
    benchmark's tracer wraps.
    """
    d = K.irrep_dim(lam)
    unit = np.eye(d, dtype=complex)
    if stab.positions is None:
        return [unit / np.sqrt(d)] * restriction_multiplicity(K, lam, stab, mu)
    return [unit[:, [i]] for i in stab.positions(K, lam, mu)]


@dataclass(eq=False)
class PeterWeylBasis:
    """Orthonormal basis of the covariant-map space, cut at a K-type level.

    ``blocks`` lists (lambda, copies) in label order, copies the branching
    multiplicity of mu in lambda; the basis runs lambda, then copy (an
    intertwiner, given by the ``positions`` it selects), then v in
    H_lambda, the layout operators read as ``columns`` (lambda -> the slice
    its copies span) or ``block_index`` ((lambda, copy, v) per basis
    vector).  A basis depends on (instance, mu, stabilizer, lambda_max)
    only: the points of a stratum piece share one.
    """

    pair_name: str
    mu: object
    lambda_max: int
    stab: StabilizerDescriptor
    K: CompactGroup
    blocks: list
    d_rho: int

    def positions(self, lam):
        """The vector indices of the K-type lam that its copies select, d_rho per copy.

        Copy c maps the a-th basis vector of H_mu to the unit vector at
        ``positions(lam)[c d_rho + a]`` of H_lam, over sqrt(d_rho): a unit
        column at the stabilizer's ``positions`` (d_rho = 1), or, on all of
        K, I / sqrt(d) at lam = mu, the identity.
        """
        if self.stab.positions is None:
            return range(self.K.irrep_dim(lam) if lam == self.mu else 0)
        return self.stab.positions(self.K, lam, self.mu)

    @cached_property
    def block_index(self):
        return [(lam, c, v) for lam, copies in self.blocks
                for c in range(copies) for v in range(self.K.irrep_dim(lam))]

    @cached_property
    def columns(self):
        cols, start = {}, 0
        for lam, copies in self.blocks:
            cols[lam] = slice(start, start + self.K.irrep_dim(lam) * copies)
            start = cols[lam].stop
        return cols

    @property
    def size(self):
        return max((c.stop for c in self.columns.values()), default=0)


def peter_weyl_basis(pair, mu, H, lambda_max):
    """Basis of the induced space attached to (mu, H), cut at ``lambda_max``.

    Blocks are ordered by K-type label, then intertwiner copy, then vector
    index; the block for lambda appears with multiplicity equal to the
    branching multiplicity of mu in the restriction of lambda, the
    stabilizer's closed form: no weight is listed and no intertwiner formed.
    H enters only through its stabilizer, so the basis is built once per
    (instance, mu, stabilizer structure, lambda_max) and shared.
    """
    stab = _stabilizer_over(pair, mu, H)
    key = (pair.name, mu, stab.structure, lambda_max)
    if key in _BASES:
        return _BASES[key]
    counts = ((lam, restriction_multiplicity(pair.K, lam, stab, mu))
              for lam in pair.K.irrep_labels(lambda_max))
    blocks = [(lam, copies) for lam, copies in counts if copies]
    if not blocks:
        raise EmptyBasis(
            f"no K-type below {lambda_max} branches over mu={mu!r} on {pair.name}"
        )
    _BASES[key] = PeterWeylBasis(
        pair_name=pair.name,
        mu=mu,
        lambda_max=lambda_max,
        stab=stab,
        K=pair.K,
        blocks=blocks,
        d_rho=stab.group.irrep_dim(mu),
    )
    return _BASES[key]


def k_type_basis(pair, lam):
    """The basis of the K-dual point ``lam``, the induced space at H = 0.

    Its stabilizer is K: one block, lam, once (Schur's lemma; its intertwiner
    is I / sqrt(d), whose ``positions`` are the identity), cut at band(lam).
    """
    K, stab = pair.K, pair.stabilizer_of(pair.zero_point())
    return PeterWeylBasis(pair.name, lam, K.char_band(lam), stab, K, [(lam, 1)], K.irrep_dim(lam))


def branches_between(K, stab, mu, lo, hi):
    """Whether a K-type of band in (lo, hi] lies over mu: the stabilizer's bands over mu meet it."""
    bands = stab.bands(K, mu)
    return bands is not None and max(bands[0], lo + 1) <= min(bands[1], hi)


def window_basis(pair, mu, H, lambda_max, window):
    """The shared basis of (mu, H) cut at min(``lambda_max``, ``window``).

    The stabilizer's bands over mu decide first, so nothing is built for an
    empty window:
    EmptyBasis, naming ``lambda_max``, when no K-type up to ``lambda_max``
    lies over mu; an empty basis (no blocks, size 0) when none up to the cut
    does, beyond the mu cut-off, where an operator living in it is zero.
    """
    stab = _stabilizer_over(pair, mu, H)
    cut = min(lambda_max, window)
    if branches_between(pair.K, stab, mu, -1, cut):
        return peter_weyl_basis(pair, mu, H, cut)
    if not branches_between(pair.K, stab, mu, cut, lambda_max):
        raise EmptyBasis(f"no K-type below {lambda_max} branches over mu={mu!r} on {pair.name}")
    return PeterWeylBasis(pair.name, mu, cut, stab, pair.K, [], stab.group.irrep_dim(mu))


def _stabilizer_over(pair, mu, H):
    """The stabilizer of H; ValueError unless ``mu`` is one of its irrep labels."""
    stab = pair.stabilizer_of(as_coords(H))
    if not stab.group.validate_label(mu):
        raise ValueError(f"label {mu!r} is not an irrep of stabilizer {stab.structure}")
    return stab


_BASES = {}  # (instance, mu, stabilizer structure, lambda_max) -> PeterWeylBasis
