"""Branching multiplicities and the orthonormal basis of the induced space.

The carrier space of an induced representation attached to a point H and a
stabilizer irrep rho is the space of covariant maps K -> H_rho.  Its
orthonormal basis is assembled K-type by K-type from matrix coefficients

    psi(k) = sqrt(d_lambda) T* tau_lambda(k^{-1}) v

where T runs over a Hilbert-Schmidt-orthonormal set of intertwiners
H_rho -> H_lambda.  Every shipped stabilizer is trivial, a coordinate
subtorus of K's maximal torus, or all of K, so branching needs no
quadrature: an intertwiner is a unit weight vector (``CompactGroup.weights``)
whose weight restricts to rho (``StabilizerDescriptor.restrict``), or the
identity on all of K (Schur's lemma), and multiplicities count weights.
This is the weight-basis form of the SE(2)/SE(3) induced representations in
Chirikjian & Kyatkin, Engineering Applications of Noncommutative Harmonic
Analysis (2001).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyBasis
from .groups import CompactGroup, IrrepDescriptor
from .pairs import StabilizerDescriptor, as_coords


def full_group(K: CompactGroup) -> StabilizerDescriptor:
    """K viewed as a subgroup of itself (identity embedding, Schur's lemma)."""
    return StabilizerDescriptor(K.name, K, lambda s: s, lambda k: k, None)


def enumerate_irreps(group, cutoff):
    """All irreps with weight magnitude at most ``cutoff``, sorted by label."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    g = group.group if isinstance(group, StabilizerDescriptor) else group
    return [IrrepDescriptor(g, lab, g.irrep_dim(lab)) for lab in g.irrep_labels(cutoff)]


def _as_label(irrep_or_label):
    return irrep_or_label.weight if isinstance(irrep_or_label, IrrepDescriptor) else irrep_or_label


def restriction_multiplicity(big_ctx, big, sub, small):
    """Multiplicity of ``small`` in the restriction of ``big`` to ``sub``.

    ``big_ctx`` is the subgroup of K carrying ``big`` (possibly K itself via
    :func:`full_group`) and ``sub`` sits inside it.  If ``sub`` is all of K
    this is Schur's lemma; otherwise it counts the weights of ``big`` that
    restrict to ``small``.  Every shipped stabilizer reads its weights in the
    coordinates of K's maximal torus, so ``sub.restrict`` applies to them.
    """
    big, small = _as_label(big), _as_label(small)
    if sub.restrict is None:
        return int(big == small)
    return sum(sub.restrict(w) == small for w in big_ctx.group.weights(big))


def branching_multiplicity(K, big, sub, small):
    """Multiplicity of the stabilizer irrep ``small`` in the K-irrep ``big``."""
    return restriction_multiplicity(full_group(K), big, sub, small)


def intertwiners(K, lam, stab, mu):
    """HS-orthonormal intertwiners H_mu -> H_lam for the stabilizer action.

    If the stabilizer is all of K this is Schur's lemma: I / sqrt(d_lam) when
    lam == mu, else none.  Otherwise mu is one-dimensional and they are the
    (d_lam x 1) unit columns e_i whose weight restricts to mu, in index order.
    """
    d = K.irrep_dim(lam)
    unit = np.eye(d, dtype=complex)
    if stab.restrict is None:
        return [unit / np.sqrt(d)] if lam == mu else []
    return [unit[:, [i]] for i, w in enumerate(K.weights(lam)) if stab.restrict(w) == mu]


@dataclass(eq=False)
class PeterWeylBasis:
    """Orthonormal basis of the covariant-map space, cut at a K-type level.

    ``blocks`` lists (lambda, [T_1, ..., T_b]) in label order; the flat
    ``block_index`` records (lambda, copy, v) per basis vector, in block
    order: lambda, then copy, then the vector index v inside H_lambda.  A
    basis depends on (instance, mu, stabilizer, lambda_max) only, so one
    object serves every point of a stratum piece.
    """

    pair_name: str
    mu: object
    lambda_max: int
    stab: StabilizerDescriptor
    K: CompactGroup
    blocks: list
    d_rho: int

    @cached_property
    def block_index(self):
        return [
            (lam, c, v)
            for lam, Ts in self.blocks
            for c in range(len(Ts))
            for v in range(self.K.irrep_dim(lam))
        ]

    @property
    def size(self):
        return sum(self.K.irrep_dim(lam) * len(Ts) for lam, Ts in self.blocks)

    def node_table(self, rule):
        """Basis values at every node of ``rule``, shape (size, n, d_rho)."""
        return self._values(rule.params)

    def _values(self, params):
        """Basis values at the elements ``params`` of K, shape (size, n, d_rho)."""
        rows = []
        for lam, Ts in self.blocks:
            tab = self.K.irrep_table(lam, params)
            sq = np.sqrt(self.K.irrep_dim(lam))
            rows.extend(sq * np.conj(np.einsum("nvb,ba->vna", tab, T)) for T in Ts)
        return np.concatenate(rows, axis=0)


def peter_weyl_basis(pair, mu, H, lambda_max):
    """Basis of the induced space attached to (mu, H), cut at ``lambda_max``.

    Blocks are ordered by K-type label, then intertwiner copy, then vector
    index; the block for lambda appears with multiplicity equal to the
    number of independent intertwiners (= the branching multiplicity of mu
    in the restriction of lambda).  H enters only through its stabilizer, so
    the basis is built once per (instance, mu, stabilizer structure,
    lambda_max) and shared.
    """
    stab = pair.stabilizer_of(as_coords(H))
    if not stab.group.validate_label(mu):
        raise ValueError(f"label {mu!r} is not an irrep of stabilizer {stab.structure}")
    key = (pair.name, mu, stab.structure, lambda_max)
    if key in _BASES:
        return _BASES[key]
    blocks = []
    for lam in pair.K.irrep_labels(lambda_max):
        Ts = intertwiners(pair.K, lam, stab, mu)
        if Ts:
            blocks.append((lam, Ts))
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


def branches_between(K, stab, mu, lo, hi):
    """Whether a K-type of band in (lo, hi] branches over mu, by weight counts."""
    labels = K.irrep_labels(hi)
    return any(K.char_band(x) > lo and branching_multiplicity(K, x, stab, mu) for x in labels)


def window_basis(pair, mu, H, lambda_max, window):
    """The basis of (mu, H) cut at min(``lambda_max``, ``window``), or None if
    that is empty (an operator living in it is zero) but the one at
    ``lambda_max`` is not; EmptyBasis, as from ``peter_weyl_basis``, if both are."""
    try:
        return peter_weyl_basis(pair, mu, H, min(lambda_max, window))
    except EmptyBasis:
        if branches_between(pair.K, pair.stabilizer_of(as_coords(H)), mu, window, lambda_max):
            return None
        return peter_weyl_basis(pair, mu, H, lambda_max)  # raises, naming lambda_max


_BASES = {}  # (instance, mu, stabilizer structure, lambda_max) -> PeterWeylBasis
