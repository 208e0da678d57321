"""Group Fourier transform as truncated operator matrices.

The induced operator acts by pi(f) Psi(h) = int_K fhat2(h k^{-1}, Ad(h) H)
Psi(k) dk.  Matrix entries against the covariant basis are double
integrals over K x K.  For separable terms the kernel factorizes through
matrix coefficients, so every entry is a sum over r of products A B of two
single integrals of a term coefficient against a basis block.  Both are
closed forms; no entry is a node sum.  B is the Schur sum
(``CompactGroup.schur_sum``), zero outside the block of the term's
contragredient K-type bar.  A carries the orbit factor g-hat(Ad(k) H).
For a Gaussian flat factor (degree 0) that is a constant, a function of
|H| alone as Ad is orthogonal (``_envelope``); then A is a Schur sum too
and the basis copies drop out: the term adds coeff g-hat(H) times the
rank-one J[:, row] J[:, col]^H / d of its contragredient (bar, J) to each
copy of bar.  ``_schur_blocks`` forms that block sum, with no Schur sum
tensor and no polynomial evaluation.  For the other terms g-hat(Ad(k)H)
is the envelope of |H| times a polynomial in matrix coefficients of K
(``CompactGroup.orbit_expansion``), so A is a sum of Gaunt integrals of
three matrix coefficients (``CompactGroup.gaunt``: Kronecker deltas on
SO(2), products of two 3j symbols on SO(3)); ``_orbit_sums`` forms it for
all points of a family at once.  At H = 0 these give the K-dual entry
tau_lambda(f), on ``induction.k_type_basis``, and the zero-point operator.

Selection rule: a term u g (u of the K-type l, g of degree d) has entries
only in the columns of bar and in rows of band <= band(l) + d, the band of
A.  So f lives in its window, the K-types of band <= W = max_t band(l_t) +
d_t (``TestFunction.window``), exactly; it vanishes at weights mu over
which no K-type of the window lies (the mu cut-off), and tau_lambda(f)
unless lambda is the bar of a term.

The field is evaluated one family at a time: the induced points that share
mu and a stabilizer share one basis, cut at min(lambda_max, W), and
``pi_family`` forms all their operators as one (P, n, n) stack on it, with
one ``_schur_blocks`` call for the Gaussian terms and one ``_orbit_sums``
call per other term; beyond the mu cut-off that basis is empty and the
stack (P, 0, 0).  The basis holds the block layout (``columns``), which
both read, and branching counts; only ``_block_factor`` multiplies by
intertwiners (degree >= 1), which the basis forms once per K-type.  A
``TruncatedOperator`` holds a read-only matrix, its basis and its norms,
taken once by ``stack_norms``: ``sample_field`` takes each family's in one
batched SVD, and any other operator's are taken on the first read, from
one SVD of its nonzero rows.  ``pi_matrix`` keeps the basis cut at
lambda_max and forms only the rows of its window K-types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dual import GAMMA2, DualPoint
from .errors import NonFiniteEntries
from .induction import PeterWeylBasis, intertwiners, k_type_basis, peter_weyl_basis, window_basis
from .pairs import as_coords, stabilizer


@dataclass(eq=False)
class TruncatedOperator:
    """Matrix of an operator in an explicit finite basis.

    ``basis`` holds the layout (``block_index``: K-type label, copy and
    vector index per row); a K-dual entry's basis is the K-type's own
    (``induction.k_type_basis``).  One of ``sample_field`` holds its window:
    ``basis`` is cut at min(``lambda_max``, W), above which entries are
    zero, and is empty (a 0 x 0 matrix) beyond the mu cut-off;
    ``lambda_max`` is the requested cutoff.  The matrix is made read-only
    here, so ``op_norm`` and ``hs_norm`` are taken once: by
    ``sample_field``'s batch for a family, else on the first read, from its
    nonzero rows (the window rows of f).
    """

    matrix: np.ndarray
    lambda_max: int
    basis: PeterWeylBasis
    point: DualPoint | None = None

    def __post_init__(self):
        self.matrix.flags.writeable = False

    @property
    def block_index(self):
        return self.basis.block_index

    @property
    def size(self):
        return self.matrix.shape[0]

    @cached_property
    def _norms(self):  # unless sample_field has set them
        (a,), (b,) = stack_norms(self.matrix[None, self.matrix.any(axis=1)])
        return float(a), float(b)

    @property
    def op_norm(self):
        return self._norms[0]

    @property
    def hs_norm(self):
        return self._norms[1]

    def to_dict(self):
        """JSON-ready form; complex entries become [re, im] pairs."""
        return {
            "lambda_max": self.lambda_max,
            "block_index": [[list(lam) if isinstance(lam, tuple) else lam, c, v]
                            for lam, c, v in self.block_index],
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix],
        }


def stack_norms(stack):
    """(operator norms, HS norms) of the matrices of ``stack`` (P, n, N).

    A matrix may be given by the rows of it that can be nonzero (none, n =
    0, where a selection rule zeroes the operator).  One batched SVD covers
    the stack: the operator norm is the largest singular value (0 for an
    empty matrix) and the HS norm the 2-norm of all of them, which needs no
    temporary the size of the stack.
    """
    s = np.linalg.svd(stack, compute_uv=False)
    return s.max(axis=1, initial=0.0), np.linalg.norm(s, axis=1)


def operator_norm(T):
    if isinstance(T, TruncatedOperator):
        return T.op_norm
    return float(stack_norms(np.asarray(T)[None])[0][0])


def hs_norm(T):
    if isinstance(T, TruncatedOperator):
        return T.hs_norm
    return float(np.linalg.norm(np.asarray(T)))


def _block_factor(basis, lam, S):
    """sqrt(d_lam) S T per intertwiner T of ``basis`` at lam: (..., r, d_lam * copies, d_rho)."""
    Ts = basis.intertwiners_of(lam)
    return np.concatenate([np.sqrt(basis.K.irrep_dim(lam)) * (S @ T) for T in Ts], axis=-2)


def _envelope(g, c, Hs):
    """c (2 pi sigma^2)^{dim/2} exp(-sigma^2 |H|^2 / 2) at each point of ``Hs`` (P, rank).

    The Gaussian factor of g-hat(Ad(k) H): it depends on |H| alone, as Ad is
    orthogonal and the rows of ``a_basis`` are orthonormal.
    """
    amp = (2.0 * np.pi * g.sigma**2) ** (g.dim / 2.0)
    return c * amp * np.exp(-g.sigma**2 * np.sum(Hs * Hs, axis=1) / 2.0)


def _schur_blocks(terms, basis, Hs):
    """Block sums of the Gaussian ``terms`` on ``basis``, one matrix per point of ``Hs``.

    ``Hs`` holds flat coordinates, shape (P, rank), and the result is (P, N,
    N).  A Gaussian g-hat is constant on the orbit of H: its value is
    c_0 times the envelope of |H| (``_envelope``), c_0 its constant
    coefficient.  By Schur orthogonality the term then adds coeff g-hat(H)
    times the rank-one J[:, row] J[:, col]^H / d_bar to each copy of the
    contragredient bar of its label, within ``basis.columns[bar]``, with
    (bar, J) = ``CompactGroup.contragredient``.  A term whose bar is not in
    the basis adds nothing, and its g-hat is not evaluated.
    """
    K, cols = basis.K, basis.columns
    M = np.zeros((len(Hs), basis.size, basis.size), dtype=complex)
    for t in terms:
        bar, J = K.contragredient(t.u.label)
        if bar in cols:
            ghat, d = _envelope(t.g, t.g._hat_poly[(0,) * t.g.dim], Hs), len(J)
            rank_one = J[:, t.u.row, None] * J[:, t.u.col].conj() / d
            block = (t.coeff * ghat)[:, None, None] * rank_one
            for i in range(cols[bar].start, cols[bar].stop, d):
                M[:, i : i + d, i : i + d] += block
    return M


def _orbit_sums(t, K, lams, Hs):
    """A[lam][p, r, v, b] = int g-hat(Ad(k)H_p) tau_l(k)[row, r] tau_lam(k)[v, b] dk.

    g-hat(Ad(k)H) = q(Ad(k)H) times the envelope of |H| (``_envelope``).
    q(Ad(k)H) = sum c_key(H) tau_J(k)[a, e] (``CompactGroup.orbit_expansion``),
    so A is the c-weighted sum of ``CompactGroup.gaunt`` over the keys, for
    all points at once.
    """
    g = t.g
    c = {}
    for alpha, q in g._hat_poly.items():
        for key, v in K.orbit_expansion(alpha, Hs).items():
            c[key] = c.get(key, 0.0) + q * v
    C = _envelope(g, np.array(list(c.values())), Hs)
    gaunts = (np.array([K.gaunt(key, t.u.label, t.u.row, lam) for key in c]) for lam in lams)
    return [np.tensordot(C, G, axes=(0, 0)) for G in gaunts]


def pi_family(f, pair, basis, Hs):
    """Induced operators of ``f`` at the flat points ``Hs`` that share ``basis``.

    The points of one family share mu and a stabilizer, hence the basis
    (callers cut it at the window; H = 0 is the zero point).  Returns the
    (P, N, N) stack of their entries <pi(f) psi_j, psi_i>, in ``Hs`` order
    (N = 0 on an empty basis).  Gaussian terms are one ``_schur_blocks``
    call for all points; each other term adds its A B
    products (``_orbit_sums``), also for all points at once.
    NonFiniteEntries names the first point where those overflow a float; a
    Gaussian term's entries are bounded by ``TestFunction.fhat2_sup``.
    """
    K, cols = pair.K, basis.columns
    Hs = np.asarray(Hs, dtype=float).reshape(-1, pair.rank)
    M = _schur_blocks([t for t in f.terms if not t.g.max_degree()], basis, Hs)
    # u(h k^{-1}) = sum_r tau[h, i0, r] conj(tau[k, j0, r]) splits the K x K
    # integral into two single ones per r: A, the integrals of g-hat on the
    # orbit at row i0, and B, the Schur sums at row j0, which vanish outside
    # the basis block of the contragredient K-type bar; a term whose bar is
    # not in the basis contributes nothing.  B does not depend on H.
    poly_terms = []
    for t in f.terms:
        if t.g.max_degree():
            bar, S = K.schur_sum(t.u.label, t.u.col)
            if bar in cols:
                poly_terms.append((t, cols[bar], _block_factor(basis, bar, S)))
    if not poly_terms:
        return M
    # A has band <= W: only the rows of the window's K-types are nonzero
    rows = [lam for lam in cols if K.char_band(lam) <= f.window]
    at = np.concatenate([np.arange(basis.size)[cols[lam]] for lam in rows])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries are refused below
        for t, bar_cols, B in poly_terms:
            A = np.concatenate([_block_factor(basis, lam, S)
                                for lam, S in zip(rows, _orbit_sums(t, K, rows, Hs))], axis=-2)
            M[:, at, bar_cols] += t.coeff * np.einsum("pria,rja->pij", A, B.conj())
    bad = ~np.isfinite(M).all(axis=(1, 2))
    if bad.any():  # an inf from g-hat's polynomial factor, or inf * 0 against its Gaussian
        H = tuple(Hs[bad.argmax()].tolist())
        raise NonFiniteEntries(f"entries of pi(f) at mu={basis.mu!r}, H={H} overflow a float")
    return M


def pi_matrix(f, pair, mu, H, lambda_max):
    """Truncated matrix of the induced-representation operator at (mu, H).

    The one-point ``pi_family`` on the shared basis of (mu, the stabilizer
    of H) cut at ``lambda_max``.  Entries are <pi(f) psi_j, psi_i>, formed
    only in the rows of its window K-types (the rest is zero by the
    selection rule).  No norm is taken here: they are taken on the first
    read, from the nonzero rows.
    """
    basis = peter_weyl_basis(pair, mu, H, lambda_max)
    return TruncatedOperator(pi_family(f, pair, basis, [as_coords(H)])[0], lambda_max, basis)


def tau_matrix(f, pair, lam):
    """The K-dual entry: integral of fhat2(k, 0) against the K-irrep ``lam``.

    The one-point ``pi_family`` at H = 0 on ``induction.k_type_basis``: each
    term contributes ghat(0) times its Schur sum, zero unless lam is the
    contragredient of the term's label.
    """
    basis = k_type_basis(pair, lam)
    matrix = pi_family(f, pair, basis, [pair.zero_point()])[0]
    return TruncatedOperator(matrix, basis.lambda_max, basis)


def pi_mu0_matrix(f, pair, mu, lambda_max, basis=None):
    """Matrix of the zero-point operator: the one-point ``pi_family`` at H = 0.

    Its basis is that of the companion induced operator, so differences
    against pi_matrix along a ray toward zero are entrywise meaningful; on
    it the operator is the block sum of tau_lambda(f), each K-type repeated
    per branching copy.  Without ``basis`` that is the basis at the regular
    point H = (1, ..., 1).
    """
    if basis is None:
        basis = peter_weyl_basis(pair, mu, (1.0,) * pair.rank, lambda_max)
    matrix = pi_family(f, pair, basis, [pair.zero_point()])[0]
    return TruncatedOperator(matrix, lambda_max, basis)


@dataclass(eq=False)
class OperatorFieldSample:
    """A finite grid of dual points with attached truncated operators."""

    instance_name: str
    grid: tuple
    operators: dict
    metadata: dict = field(default_factory=dict)


def sample_field(f, pair, grid, lambda_max):
    """Evaluate the Fourier-transform field of ``f`` on a grid of dual points.

    Induced-stratum points that share a weight and a stabilizer structure
    form a family: one ``induction.window_basis``, one ``pi_family`` call
    and one batched SVD for their norms, which each operator holds with its
    window matrix; nothing beyond the window is built, and a family beyond
    the mu cut-off holds 0 x 0 matrices on an empty basis.  A K-dual label
    is a one-point family at H = 0 on its K-type: one ``tau_matrix`` where
    a term's bar is the label, else, by the selection rule, a zero matrix;
    its norms are taken when they are read.  ``operators`` follows the
    grid order; the metadata carries W and the ``fhat2_sup`` bound.
    """
    for p in grid:
        if p.pair_name != pair.name:
            raise ValueError(f"grid point {p} is not on instance {pair.name}")
    sup = f.fhat2_sup()  # SupBoundOverflow before any entry is formed
    # each K-dual label is a one-point family: by the selection rule only
    # the bars of the terms pay a pi_family call
    bars = {pair.K.contragredient(t.u.label)[0] for t in f.terms}
    families = {}  # (mu, stabilizer structure) -> its points, in grid order
    operators = {}
    for p in grid:
        if p.stratum != GAMMA2:
            families.setdefault((p.label, stabilizer(pair, p.H).structure), []).append(p)
        elif p.label in bars:
            T = operators[p] = tau_matrix(f, pair, p.label)
            T.point = p
        else:
            B = k_type_basis(pair, p.label)
            operators[p] = TruncatedOperator(np.zeros((B.size,) * 2, complex), B.lambda_max, B, p)
    for (mu, _), pts in families.items():
        basis = window_basis(pair, mu, pts[0].H, lambda_max, f.window)
        stack = pi_family(f, pair, basis, [p.H for p in pts])
        for p, m, a, b in zip(pts, stack, *stack_norms(stack)):
            T = operators[p] = TruncatedOperator(m, lambda_max, basis, p)
            T._norms = (float(a), float(b))
    metadata = {"function": f.describe(), "bandlimit": f.bandlimit, "window": f.window,
                "fhat2_sup": sup, "lambda_max": lambda_max}
    return OperatorFieldSample(pair.name, tuple(grid), {p: operators[p] for p in grid}, metadata)
