"""Branching multiplicities and the orthonormal basis of the induced space.

The carrier space of an induced representation attached to a point H and a
stabilizer irrep rho is the space of covariant maps K -> H_rho.  Its
orthonormal basis is assembled K-type by K-type from matrix coefficients

    psi(k) = sqrt(d_lambda) T* tau_lambda(k^{-1}) v

where T runs over a Hilbert-Schmidt-orthonormal set of intertwiners
H_rho -> H_lambda.  Intertwiners are computed by averaging over the
stabilizer, which is instance-agnostic and needs no weight-vector
bookkeeping: the average of tau(s) (x) conj(rho(s)) is the orthogonal
projection onto the intertwiner space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBasis, NonIntegerMultiplicity
from .groups import CompactGroup, IrrepDescriptor
from .pairs import StabilizerDescriptor

MULT_ROUND_TOL = 1e-3


def full_group(K: CompactGroup) -> StabilizerDescriptor:
    """K viewed as a subgroup of itself (identity embedding)."""
    return StabilizerDescriptor(K.name, K, lambda s: s, lambda k: k)


def enumerate_irreps(group, cutoff):
    """All irreps with weight magnitude at most ``cutoff``, sorted by label."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    g = group.group if isinstance(group, StabilizerDescriptor) else group
    return [IrrepDescriptor(g, lab, g.irrep_dim(lab)) for lab in g.irrep_labels(cutoff)]


def haar_quadrature(group, order):
    if order < 1:
        raise ValueError("order must be positive")
    g = group.group if isinstance(group, StabilizerDescriptor) else group
    return g.quadrature(order)


def _as_label(irrep_or_label):
    return irrep_or_label.weight if isinstance(irrep_or_label, IrrepDescriptor) else irrep_or_label


def restriction_multiplicity(big_ctx, big, sub, small, order=None):
    """Multiplicity of ``small`` in the restriction of ``big`` to ``sub``.

    ``big_ctx`` is the subgroup of K carrying ``big`` (possibly K itself via
    :func:`full_group`); ``sub`` must embed into it, which is checked through
    ``big_ctx.pullback``.  Computed as the character inner product over the
    subgroup with a quadrature rule sized from the weight labels.
    """
    big, small = _as_label(big), _as_label(small)
    band = big_ctx.group.char_band(big) + sub.group.char_band(small) + 2
    rule = sub.group.quadrature(order if order is not None else band)
    inside = big_ctx.group.params_of([big_ctx.pullback(sub.embed(s)) for s in rule.nodes])
    chi_big = np.trace(big_ctx.group.irrep_table(big, inside), axis1=1, axis2=2)
    chi_small = np.trace(sub.group.irrep_node_table(small, rule), axis1=1, axis2=2)
    val = complex(np.sum(rule.weights * chi_big * np.conj(chi_small)))
    nearest = round(val.real)
    if abs(val - nearest) > MULT_ROUND_TOL:
        raise NonIntegerMultiplicity(
            f"[{big}|:{small}] quadrature gave {val:.6g}; rule is too coarse"
        )
    return int(nearest)


def branching_multiplicity(K, big, sub, small, order=None):
    """Multiplicity of the stabilizer irrep ``small`` in the K-irrep ``big``."""
    return restriction_multiplicity(full_group(K), big, sub, small, order=order)


def intertwiners(K, lam, stab, mu):
    """HS-orthonormal intertwiners H_mu -> H_lam for the stabilizer action.

    The averaged operator P(E) = int tau(s) E rho(s)^dagger ds is the
    orthogonal projection onto the intertwiner space; its unit eigenvectors
    are the returned matrices (row-major vec).  Eigenvalues must cluster at
    0 and 1 -- anything in between signals a broken quadrature rule.
    """
    d_lam = K.irrep_dim(lam)
    d_mu = stab.group.irrep_dim(mu)
    order = K.char_band(lam) + stab.group.char_band(mu) + 2
    rule = stab.group.quadrature(order)
    tau = K.irrep_table(lam, K.params_of([stab.embed(s) for s in rule.nodes]))
    rho = stab.group.irrep_node_table(mu, rule)
    # P = sum_n w_n kron(tau_n, conj(rho_n)), entry [(a, c), (b, d)]
    P = np.einsum("n,nab,ncd->acbd", rule.weights, tau, rho.conj(), optimize=True)
    P = P.reshape(d_lam * d_mu, d_lam * d_mu)
    evals, evecs = np.linalg.eigh((P + P.conj().T) / 2.0)
    if np.any((evals > 0.1) & (evals < 0.9)):
        raise NonIntegerMultiplicity(
            f"intertwiner projection for lambda={lam}, mu={mu} has eigenvalues "
            f"away from 0/1: {evals}"
        )
    out = []
    for idx in np.flatnonzero(evals > 0.5):
        T = evecs[:, idx].reshape(d_lam, d_mu)
        # fix the arbitrary phase: largest entry made real positive
        piv = np.unravel_index(np.argmax(np.abs(T)), T.shape)
        T = T * (np.abs(T[piv]) / T[piv])
        out.append(T)
    return out


@dataclass(eq=False)
class PeterWeylBasis:
    """Orthonormal basis of the covariant-map space, cut at a K-type level.

    ``blocks`` lists (lambda, [T_1, ..., T_b]) in label order; the flat
    ``block_index`` records (lambda, copy, v) per basis vector, in block
    order: lambda, then copy, then the vector index v inside H_lambda.
    """

    pair_name: str
    mu: object
    H: tuple
    lambda_max: int
    stab: StabilizerDescriptor
    K: CompactGroup
    blocks: list
    d_rho: int

    @property
    def block_index(self):
        out = []
        for lam, Ts in self.blocks:
            d = self.K.irrep_dim(lam)
            for c in range(len(Ts)):
                out.extend((lam, c, v) for v in range(d))
        return out

    @property
    def size(self):
        return sum(self.K.irrep_dim(lam) * len(Ts) for lam, Ts in self.blocks)

    def evaluate(self, k):
        """All basis maps at one group element, shape (size, d_rho)."""
        return self._values(self.K.params_of([k]))[:, 0]

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

    def gram(self, rule):
        tab = self.node_table(rule)
        return np.einsum("ina,n,jna->ij", np.conj(tab), rule.weights, tab)


def peter_weyl_basis(pair, mu, H, lambda_max):
    """Basis of the induced space attached to (mu, H), cut at ``lambda_max``.

    Blocks are ordered by K-type label, then intertwiner copy, then vector
    index; the block for lambda appears with multiplicity equal to the
    number of independent intertwiners (= the branching multiplicity of mu
    in the restriction of lambda).
    """
    H = tuple(float(c) for c in np.atleast_1d(H))
    stab = pair.stabilizer_of(H)
    if not stab.group.validate_label(mu):
        raise ValueError(f"label {mu!r} is not an irrep of stabilizer {stab.structure}")
    blocks = []
    for lam in pair.K.irrep_labels(lambda_max):
        Ts = intertwiners(pair.K, lam, stab, mu)
        if Ts:
            blocks.append((lam, Ts))
    if not blocks:
        raise EmptyBasis(
            f"no K-type below {lambda_max} branches over mu={mu!r} on {pair.name}"
        )
    return PeterWeylBasis(
        pair_name=pair.name,
        mu=mu,
        H=H,
        lambda_max=lambda_max,
        stab=stab,
        K=pair.K,
        blocks=blocks,
        d_rho=stab.group.irrep_dim(mu),
    )
