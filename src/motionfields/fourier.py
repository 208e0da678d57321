"""Group Fourier transform as truncated operator matrices.

The induced operator acts by pi(f) Psi(h) = int_K fhat2(h k^{-1}, Ad(h) H)
Psi(k) dk.  Matrix entries against the covariant basis are double
integrals over K x K.  For separable terms the kernel factorizes through
matrix coefficients, so every entry is a sum over r of products A B of two
single integrals of a term coefficient against a basis block.  Both are
closed forms; no entry is a node sum.  B is the Schur sum
(``CompactGroup.schur_sum``), zero outside the block of the term's
contragredient K-type bar.  A carries the orbit factor g-hat(Ad(k) H).
Where that is a constant g-hat(xi), A is a Schur sum too and the basis
copies drop out: the term adds coeff g-hat(xi) S[col] to each copy of bar.
``_schur_blocks`` forms that block sum for Gaussian flat factors (degree
0), with xi = H as Ad is orthogonal.  For the other terms g-hat(Ad(k)H) is
a Gaussian in |H| times a polynomial in matrix coefficients of K
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
stack (P, 0, 0).  ``sample_field`` takes each family's norms in one
batched SVD and records them on the operators, which hold the window
matrix and basis.  ``pi_matrix`` keeps the basis cut at lambda_max, forms
only the rows of its window K-types and records its norms, on their first
read, from one SVD of the nonzero rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual import GAMMA2, DualPoint
from .errors import NonFiniteEntries
from .induction import PeterWeylBasis, k_type_basis, peter_weyl_basis, window_basis
from .pairs import as_coords, stabilizer


@dataclass(eq=False)
class TruncatedOperator:
    """Matrix of an operator in an explicit finite basis.

    ``block_index`` lists (K-type label, copy, vector index) per basis row;
    a K-dual entry's basis is the K-type's own (``induction.k_type_basis``).
    One of ``sample_field`` holds its window: ``basis`` is cut at
    min(``lambda_max``, W), above which entries are zero, and is empty (a
    0 x 0 matrix) beyond the mu cut-off; ``lambda_max`` is the requested
    cutoff.  ``op_norm`` and ``hs_norm`` are those recorded
    for a read-only matrix (by ``sample_field``, or on the first read of
    one from ``pi_matrix``), else taken from ``matrix`` on each read.
    """

    matrix: np.ndarray
    lambda_max: int
    block_index: list
    basis: PeterWeylBasis | None = None
    point: DualPoint | None = None
    _norms: tuple | None = field(default=None, init=False, repr=False)

    @property
    def size(self):
        return self.matrix.shape[0]

    @property
    def op_norm(self):
        return self._norms[0] if self._recorded() else operator_norm(self.matrix)

    @property
    def hs_norm(self):
        return self._norms[1] if self._recorded() else hs_norm(self.matrix)

    def _recorded(self):
        """Whether norms are recorded; those of a read-only matrix are, on the
        first read, from one SVD of its nonzero rows (the window rows of f)."""
        m = self.matrix
        if self._norms is None and not m.flags.writeable:
            _record_norms([self], m[None, m.any(axis=1)])
        return self._norms is not None

    def to_dict(self):
        """JSON-ready form; complex entries become [re, im] pairs."""
        return {
            "lambda_max": self.lambda_max,
            "block_index": [
                [list(lam) if isinstance(lam, tuple) else lam, c, v]
                for lam, c, v in self.block_index
            ],
            "matrix": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.matrix
            ],
        }


def operator_norm(T):
    if isinstance(T, TruncatedOperator):
        return T.op_norm
    return float(np.linalg.svd(np.asarray(T), compute_uv=False).max(initial=0.0))


def hs_norm(T):
    if isinstance(T, TruncatedOperator):
        return T.hs_norm
    return float(np.linalg.norm(np.asarray(T)))


def _record_norms(ops, stack):
    """Record on ``ops`` the norms of the matrices of ``stack`` (P, n, N).

    ``stack`` holds each operator's matrix, or the rows of it that can be
    nonzero (none, n = 0, where a selection rule zeroes the operator).  One
    batched SVD covers the stack: the operator norm is the largest singular
    value (0 for an empty matrix) and the HS norm the 2-norm of all of
    them, which needs no temporary the size of the stack.  Each matrix is
    made read-only, so a recorded norm cannot go stale.
    """
    s = np.linalg.svd(stack, compute_uv=False)
    for T, a, b in zip(ops, s.max(axis=1, initial=0.0), np.linalg.norm(s, axis=1)):
        T.matrix.flags.writeable = False
        T._norms = (float(a), float(b))


def _block_factor(K, lam, Ts, S):
    """sqrt(d_lam) S T for every copy T of one basis block: (..., r, d_lam * copies, d_rho)."""
    return np.concatenate([np.sqrt(K.irrep_dim(lam)) * (S @ T) for T in Ts], axis=-2)


def _schur_blocks(terms, K, blocks, xi):
    """Block sums of coeff g-hat(xi) S[col] over Gaussian ``terms``, one stack per row of ``xi``.

    ``xi`` has shape (P, dim_p) and the result (P, N, N), one block per
    (lam, copy) of ``blocks`` (pairs of a K-type and its copies, in basis
    order).  S is the term's Schur sum at its row, which lives on the
    contragredient bar of its label.  Each term's g-hat is evaluated once
    for the whole batch, and each K-type's sum is placed once per copy.  A
    term whose bar is not among ``blocks`` adds nothing, and its g-hat is
    not evaluated.
    """
    xi = np.asarray(xi, dtype=float)
    dims = {lam: K.irrep_dim(lam) for lam, _ in blocks}
    sums = {}
    for t in terms:
        bar, S = K.schur_sum(t.u.label, t.u.row)
        if bar in dims:
            c = t.coeff * t.g.fourier(xi)
            sums[bar] = sums.get(bar, 0.0) + c[:, None, None] * S[t.u.col]
    N = sum(dims[lam] * len(Ts) for lam, Ts in blocks)
    M, row = np.zeros((len(xi), N, N), dtype=complex), 0
    for lam, Ts in blocks:
        d = dims[lam]
        for _ in Ts:
            if lam in sums:
                M[:, row : row + d, row : row + d] = sums[lam]
            row += d
    return M


def _orbit_sums(t, K, lams, Hs):
    """A[lam][p, r, v, b] = int g-hat(Ad(k)H_p) tau_l(k)[row, r] tau_lam(k)[v, b] dk.

    g-hat(Ad(k)H) = a exp(-sigma^2 |H|^2 / 2) q(Ad(k)H), as Ad is orthogonal.
    q(Ad(k)H) = sum c_key(H) tau_J(k)[a, e] (``CompactGroup.orbit_expansion``),
    so A is the c-weighted sum of ``CompactGroup.gaunt`` over the keys, for
    all points at once.
    """
    g, Hs = t.g, np.asarray(Hs, dtype=float)
    c = {}
    for alpha, q in g._hat_poly.items():
        for key, v in K.orbit_expansion(alpha, Hs).items():
            c[key] = c.get(key, 0.0) + q * v
    amp = (2.0 * np.pi * g.sigma**2) ** (g.dim / 2.0)
    C = np.array(list(c.values())) * amp * np.exp(-g.sigma**2 * np.sum(Hs * Hs, axis=1) / 2.0)
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
    K = pair.K
    Hs = np.asarray(Hs, dtype=float).reshape(-1, pair.rank)
    # a Gaussian g-hat is constant on the orbit, as Ad is orthogonal
    M = _schur_blocks(
        [t for t in f.terms if not t.g.max_degree()], K, basis.blocks, pair.embed_a(Hs)
    )
    cols, start = {}, 0  # lam -> (its basis columns, its copies)
    for lam, Ts in basis.blocks:
        cols[lam] = (slice(start, start + K.irrep_dim(lam) * len(Ts)), Ts)
        start = cols[lam][0].stop
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
                poly_terms.append((t, cols[bar][0], _block_factor(K, bar, cols[bar][1], S)))
    if not poly_terms:
        return M
    # A has band <= W: only the rows of the window's K-types are nonzero
    rows = [(lam, Ts) for lam, Ts in basis.blocks if K.char_band(lam) <= f.window]
    at = np.concatenate([np.arange(cols[lam][0].start, cols[lam][0].stop) for lam, _ in rows])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries are refused below
        for t, bar_cols, B in poly_terms:
            sums = _orbit_sums(t, K, [lam for lam, _ in rows], Hs)
            A = np.concatenate(
                [_block_factor(K, lam, Ts, S) for (lam, Ts), S in zip(rows, sums)], axis=-2
            )
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
    selection rule).  The matrix is read-only, so its norms are recorded
    on the first read, from its nonzero rows.
    """
    basis = peter_weyl_basis(pair, mu, H, lambda_max)
    stack = pi_family(f, pair, basis, [as_coords(H)])
    stack.flags.writeable = False
    return TruncatedOperator(stack[0], lambda_max, basis.block_index, basis)


def tau_matrix(f, pair, lam):
    """The K-dual entry: integral of fhat2(k, 0) against the K-irrep ``lam``.

    The one-point ``pi_family`` at H = 0 on ``induction.k_type_basis``: each
    term contributes ghat(0) times its Schur sum, zero unless lam is the
    contragredient of the term's label.
    """
    basis = k_type_basis(pair, lam)
    matrix = pi_family(f, pair, basis, [pair.zero_point()])[0]
    return TruncatedOperator(matrix, basis.lambda_max, basis.block_index, basis)


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
    return TruncatedOperator(matrix, lambda_max, basis.block_index, basis)


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
    and one batched SVD for their norms, which each operator records with
    its window matrix; nothing beyond the window is built, and a family
    beyond the mu cut-off holds 0 x 0 matrices on an empty basis.  A K-dual
    label is a one-point family at H = 0 on its K-type: one ``tau_matrix``
    where a term's bar is the label, else, by the selection rule, a zero
    matrix with no nonzero row to take norms of.  ``operators`` follows the
    grid order; the metadata carries W and the ``fhat2_sup`` bound.
    """
    for p in grid:
        if p.pair_name != pair.name:
            raise ValueError(f"grid point {p} is not on instance {pair.name}")
    sup = f.fhat2_sup()  # SupBoundOverflow before any entry is formed
    # each K-dual label is a one-point family: by the selection rule only
    # the bars of the terms pay a pi_family call
    bars = {pair.K.schur_sum(t.u.label, t.u.row)[0] for t in f.terms}
    families = {}  # (mu, stabilizer structure) -> its points, in grid order
    operators = {}
    for p in grid:
        if p.stratum != GAMMA2:
            families.setdefault((p.label, stabilizer(pair, p.H).structure), []).append(p)
        elif p.label in bars:
            T = operators[p] = tau_matrix(f, pair, p.label)
            T.point = p
            _record_norms([T], T.matrix[None])
        else:
            B = k_type_basis(pair, p.label)
            M = np.zeros((B.size, B.size), complex)
            T = operators[p] = TruncatedOperator(M, B.lambda_max, B.block_index, B, p)
            _record_norms([T], M[None, :0])
    for (mu, _), pts in families.items():
        basis = window_basis(pair, mu, pts[0].H, lambda_max, f.window)
        stack = pi_family(f, pair, basis, [p.H for p in pts])
        ops = [TruncatedOperator(m, lambda_max, basis.block_index, basis, p)
               for p, m in zip(pts, stack)]
        _record_norms(ops, stack)
        operators.update(zip(pts, ops))
    metadata = {"function": f.describe(), "bandlimit": f.bandlimit, "window": f.window,
                "fhat2_sup": sup, "lambda_max": lambda_max}
    return OperatorFieldSample(pair.name, tuple(grid), {p: operators[p] for p in grid}, metadata)
