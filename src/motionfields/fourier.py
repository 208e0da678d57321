"""Group Fourier transform as truncated operator matrices.

The induced operator acts by pi(f) Psi(h) = int_K fhat2(h k^{-1}, Ad(h) H)
Psi(k) dk.  Matrix entries against the covariant basis are product-rule
double quadratures over K x K.  For separable terms the kernel factorizes
through matrix coefficients, so every entry is a sum over r of products
A B, where A and B are weighted node sums of two irrep matrices, one from
the term and one from the basis block (``CompactGroup.coefficient_sums``).
No basis node table is built.  On SO(3) the sums are Euler-factorised: the
equispaced alpha and gamma sums become a frequency selection from a 2-D
FFT of the orbit factor, leaving one Gauss-Legendre sum in beta.  Either
way the values are those of the naive product-rule double sum.  The K-dual
entries are the plain integrated representations tau_lambda(f), taken from
the same sums with the orbit factor 1, and the zero-point operator is
their block sum over the branching K-types.  Each operator is computed at
the quadrature order ``proven_order``, which integrates it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual import GAMMA2, DualPoint
from .errors import QuadratureOrderTooLow
from .induction import PeterWeylBasis, peter_weyl_basis
from .pairs import stabilizer


def proven_order(f, lam_band, orbit=True):
    """The order that integrates entries against K-types of band <= ``lam_band`` exactly.

    An entry integrand is u(k) tau_lam(k), for induced entries (``orbit``)
    times g-hat(Ad(k)H) = C q(Ad(k)H) exp(-sigma^2 |H|^2 / 2), as Ad is
    orthogonal; q has the degree of g's polynomial, which bounds its K-band.
    A rule of order q is exact up to band q on SO(3), but only up to q - 1
    on a circle factor (q nodes): hence the 1 +.
    """
    K = f.pair.K
    return 1 + lam_band + max(
        K.char_band(t.u.label) + (t.g.max_degree() if orbit else 0) for t in f.terms
    )


def _rule(f, pair, lam_band, order, orbit=True):
    """The rule of ``order``, by default the proven one; below it is refused."""
    proven = proven_order(f, lam_band, orbit)
    if order is not None and order < proven:
        raise QuadratureOrderTooLow(f"order {order} is below the proven order {proven}")
    return pair.K.quadrature(proven if order is None else order)


@dataclass(eq=False)
class TruncatedOperator:
    """Matrix of an operator in an explicit finite basis.

    ``block_index`` lists (K-type label, copy, vector index) per basis row;
    for K-dual entries the basis is the standard one of the single K-type.
    """

    matrix: np.ndarray
    lambda_max: int
    order: int
    block_index: list
    basis: PeterWeylBasis | None = None
    point: DualPoint | None = None

    @property
    def size(self):
        return self.matrix.shape[0]

    def to_dict(self):
        """JSON-ready form; complex entries become [re, im] pairs."""
        return {
            "lambda_max": self.lambda_max,
            "order": self.order,
            "block_index": [
                [list(lam) if isinstance(lam, tuple) else lam, c, v]
                for lam, c, v in self.block_index
            ],
            "matrix": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.matrix
            ],
        }


def block_diagonal(blocks):
    """Square complex blocks placed along the diagonal, in order."""
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    row = 0
    for b in blocks:
        d = b.shape[0]
        out[row : row + d, row : row + d] = b
        row += d
    return out


def operator_norm(T):
    m = T.matrix if isinstance(T, TruncatedOperator) else np.asarray(T)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def hs_norm(T):
    m = T.matrix if isinstance(T, TruncatedOperator) else np.asarray(T)
    return float(np.linalg.norm(m))


def _basis_factor(basis, sums):
    """sqrt(d_lam) S T for every basis block, stacked: shape (r, N, d_rho)."""
    return np.concatenate(
        [
            np.sqrt(basis.K.irrep_dim(lam)) * (S @ T)
            for (lam, Ts), S in zip(basis.blocks, sums)
            for T in Ts
        ],
        axis=1,
    )


def _pi_entries(f, pair, basis, H, rule):
    ad = pair.ad_orbit_table(rule, H)  # (n, dim_p)
    lams = [lam for lam, _ in basis.blocks]
    # u(h k^{-1}) = sum_r D[h, i0, r] conj(D[k, j0, r]) splits the K x K
    # product quadrature into two single sums per r: A from g-hat on the
    # orbit and row i0, B from the plain rule and row j0
    left = [(t.g.fourier(ad), t.u.label, t.u.row) for t in f.terms]
    right = list(dict.fromkeys((t.u.label, t.u.col) for t in f.terms))
    ones = np.ones(len(rule))
    sums = pair.K.coefficient_sums(
        rule, lams, left + [(ones, lab, col) for lab, col in right]
    )
    factors = [_basis_factor(basis, s) for s in sums]
    B = dict(zip(right, (np.conj(x) for x in factors[len(left):])))
    M = np.zeros((basis.size, basis.size), dtype=complex)
    for term, A in zip(f.terms, factors):
        M += term.coeff * np.einsum("ria,rja->ij", A, B[(term.u.label, term.u.col)])
    return M


def pi_matrix(f, pair, mu, H, lambda_max, order=None, basis=None, point=None):
    """Truncated matrix of the induced-representation operator at (mu, H).

    Entries are <pi(f) psi_j, psi_i> over the covariant basis cut at
    ``lambda_max``, integrated at ``proven_order`` for the basis K-types,
    which is exact; an explicit ``order`` below it raises
    QuadratureOrderTooLow.  A prebuilt ``basis`` may be passed to share it
    across points with the same stabilizer (e.g. along a ray toward zero).
    """
    H = tuple(float(c) for c in np.atleast_1d(H))
    if basis is None:
        basis = peter_weyl_basis(pair, mu, H, lambda_max)
    lam_band = max(pair.K.char_band(lam) for lam, _ in basis.blocks)
    rule = _rule(f, pair, lam_band, order)
    return TruncatedOperator(
        matrix=_pi_entries(f, pair, basis, H, rule),
        lambda_max=lambda_max,
        order=rule.order,
        block_index=basis.block_index,
        basis=basis,
        point=point,
    )


def tau_matrix(f, pair, lam, order=None, point=None):
    """The K-dual entry: integral of fhat2(k, 0) against the K-irrep.

    Each term contributes ghat(0) times the rule's sum of u(k) tau_lam(k),
    read off ``CompactGroup.coefficient_sums`` with g = 1 at the term's row,
    at ``proven_order`` (an explicit ``order`` below it raises).
    """
    rule = _rule(f, pair, pair.K.char_band(lam), order, orbit=False)
    ones = np.ones(len(rule))
    sums = pair.K.coefficient_sums(
        rule, [lam], [(ones, t.u.label, t.u.row) for t in f.terms]
    )
    zero = np.zeros((1, pair.dim_p))
    d = pair.K.irrep_dim(lam)
    M = np.zeros((d, d), dtype=complex)
    for term, (S,) in zip(f.terms, sums):
        ghat0 = complex(term.g.fourier(zero)[0])
        M += term.coeff * ghat0 * S[term.u.col]
    return TruncatedOperator(
        matrix=M,
        lambda_max=pair.K.char_band(lam),
        order=rule.order,
        block_index=[(lam, 0, v) for v in range(d)],
        point=point,
    )


def pi_mu0_matrix(f, pair, mu, lambda_max, basis=None, H_ref=None):
    """Matrix of the zero-point operator: block sum of tau_lambda(f).

    Blocks follow the covariant-basis order of the companion induced
    operator, each K-type repeated per branching copy, so differences
    against pi_matrix along a ray toward zero are entrywise meaningful.
    ``order`` is the largest of the blocks' orders.
    """
    if basis is None:
        if H_ref is None:
            H_ref = tuple([1.0] * pair.rank)
        basis = peter_weyl_basis(pair, mu, H_ref, lambda_max)
    taus = {lam: tau_matrix(f, pair, lam) for lam, _ in basis.blocks}
    return TruncatedOperator(
        matrix=block_diagonal(
            [taus[lam].matrix for lam, Ts in basis.blocks for _ in Ts]
        ),
        lambda_max=lambda_max,
        order=max(t.order for t in taus.values()),
        block_index=basis.block_index,
        basis=basis,
    )


@dataclass(eq=False)
class OperatorFieldSample:
    """A finite grid of dual points with attached truncated operators."""

    instance_name: str
    grid: tuple
    operators: dict
    metadata: dict = field(default_factory=dict)


def sample_field(f, pair, grid, lambda_max):
    """Evaluate the Fourier-transform field of ``f`` on a grid of dual points.

    Every operator is integrated at its ``proven_order``.  Induced-stratum
    points that share a weight and a stabilizer share one covariant basis.
    """
    for p in grid:
        if p.pair_name != pair.name:
            raise ValueError(f"grid point {p} is not on instance {pair.name}")
    bases = {}
    operators = {}
    for p in grid:
        if p.stratum == GAMMA2:
            operators[p] = tau_matrix(f, pair, p.label, point=p)
            continue
        key = (p.label, stabilizer(pair, p.H).structure)
        if key not in bases:
            bases[key] = peter_weyl_basis(pair, p.label, p.H, lambda_max)
        operators[p] = pi_matrix(
            f, pair, p.label, p.H, lambda_max, basis=bases[key], point=p
        )
    return OperatorFieldSample(
        instance_name=pair.name,
        grid=tuple(grid),
        operators=operators,
        metadata={
            "function": f.describe(),
            "bandlimit": f.bandlimit,
            "fhat2_sup": f.fhat2_sup(),
            "lambda_max": lambda_max,
        },
    )
