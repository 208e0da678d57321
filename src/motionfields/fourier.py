"""Group Fourier transform as truncated operator matrices.

The induced operator acts by pi(f) Psi(h) = int_K fhat2(h k^{-1}, Ad(h) H)
Psi(k) dk.  Matrix entries against the covariant basis are double
integrals over K x K.  For separable terms the kernel factorizes through
matrix coefficients, so every entry is a sum over r of products A B of two
single integrals of a term coefficient against a basis block.  Both are
closed forms, given by their nonzeros; no entry is a node sum.  B is a
Schur sum, zero outside the block of the term's contragredient K-type bar:
(bar, units) is ``CompactGroup.contragredient``, J a signed permutation
given by its units, (row, sign) per column.  A carries the orbit factor
g-hat(Ad(k) H).  For a Gaussian flat factor (degree 0) that is a constant,
a function of |H| alone as Ad is orthogonal (``_envelope``); then A is a
Schur sum too and the basis copies drop out: the term adds coeff g-hat(H)
times J[:, row] J[:, col]^H / d to each copy of its contragredient bar.
That is a matrix unit, and ``_schur_blocks`` gives it as one entry per
copy, with no array: no d x d block, Schur sum or polynomial evaluation.
For the other terms g-hat(Ad(k)H) is the envelope of |H| times a
polynomial in matrix coefficients of K (``CompactGroup.orbit_expansion``),
so A is a sum of Gaunt integrals of three matrix coefficients
(``CompactGroup.gaunt``, a band: Kronecker deltas on SO(2), products of two
3j symbols on SO(3)), and B is read off the units.  Each intertwiner is
a unit at the positions its copy selects (``PeterWeylBasis.positions``),
so each (Gaunt key, r) meets at most one copy of a K-type and one of bar:
``_gaunt_entries`` gives a term's entries as a scatter of their nonzeros,
for all points of a family at once, and forms no intertwiner.  At H = 0 these give the K-dual entry
tau_lambda(f), on ``induction.k_type_basis``, and the zero-point operator.

Selection rule: a term u g (u of the K-type l, g of degree d) has entries
only in the columns of bar and in rows of band <= band(l) + d, the band of
A.  So f lives in its window, the K-types of band <= W = max_t band(l_t) +
d_t (``TestFunction.window``), exactly; it vanishes at weights mu over
which no K-type of the window lies (the mu cut-off), and tau_lambda(f)
unless lambda is the bar of a term.

The field is evaluated one family at a time: the induced points that share
mu and a stabilizer share one basis, cut at min(lambda_max, W), and
``pi_family`` forms all their operators on it at once, on the support they
write: sorted basis rows and columns and a (P, rows, cols) block, with one
``_schur_blocks`` call for the Gaussian terms and one ``_gaunt_entries``
call per other term, both written straight into the block; beyond the mu
cut-off that basis is empty and nothing is formed.  No N x N array is
formed on any run path.  The basis holds the block layout (``columns``),
which both read, the branching counts and the copies' positions.  A
``TruncatedOperator`` holds its block, rows, columns and basis; its dense
``matrix`` is built only when read.  Every norm is taken once, on the
block of a family.  ``sample_field`` reads a whole ``VerificationPlan`` in
one pass: the points of its grid, path, weight sample and h-ladder (zero
points included) that share a family are one block, a point two readings
share is formed once, and every norm the five checks read, of operators,
path steps and ladder deltas, comes from one batched SVD per shape.  The
path's step norms are taken there only, and the pass hands them to its path
sample (``OperatorFieldSample.steps``).
``pi_matrix`` keeps the basis cut at lambda_max and writes only the rows of
its window K-types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dual import GAMMA2, DualPoint
from .errors import MotionFieldsError, NonFiniteEntries, PathCrossesStrata
from .induction import PeterWeylBasis, k_type_basis, peter_weyl_basis, window_basis
from .pairs import as_coords, stabilizer


@dataclass(eq=False)
class TruncatedOperator:
    """An operator on an explicit finite basis, held on its support.

    ``block`` holds its entries at the basis rows ``rows`` and columns
    ``cols`` (sorted tuples); every other entry is zero, so the operator
    takes memory with its support, not with the basis.  ``basis`` holds the
    layout (``block_index``: K-type label, copy and vector index per row);
    a K-dual entry's basis is the K-type's own (``induction.k_type_basis``).
    One of ``sample_field`` holds its window: ``basis`` is cut at
    min(``lambda_max``, W), above which entries are zero, and is empty (a
    0 x 0 operator) beyond the mu cut-off; ``lambda_max`` is the requested
    cutoff.  The block is made read-only here, so ``op_norm`` and
    ``hs_norm`` are taken once, on it: by ``sample_field``'s batch on its
    family's block, else on the first read.  ``matrix``, the dense N x N
    form, is built only when read (``to_dict`` and the tests).
    """

    block: np.ndarray
    rows: tuple
    cols: tuple
    lambda_max: int
    basis: PeterWeylBasis
    point: DualPoint | None = None

    def __post_init__(self):
        self.block.flags.writeable = False

    @property
    def block_index(self):
        return self.basis.block_index

    @property
    def size(self):
        return self.basis.size

    @cached_property
    def matrix(self):
        """The dense, read-only N x N matrix."""
        M = np.zeros((self.size, self.size), dtype=complex)
        M[np.ix_(self.rows, self.cols)] = self.block
        M.flags.writeable = False
        return M

    @cached_property
    def _norms(self):  # unless sample_field has set them
        (a,), (b,) = stack_norms(self.block[None])
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
    """(operator norms, HS norms) of the matrices of ``stack`` (P, n, m), on a support.

    The support is empty, n = m = 0, where a selection rule zeroes the
    operator.  One batched SVD covers the stack: the operator
    norm is the largest singular value (0 for an empty matrix) and the HS
    norm the 2-norm of all of them, which needs no temporary the size of the
    stack.
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


def _envelope(g, r2):
    """(2 pi sigma^2)^{dim/2} exp(-sigma^2 r2 / 2) at r2 = |H|^2, a float.

    The Gaussian factor of g-hat(Ad(k) H): it depends on |H| alone, as Ad is
    orthogonal and the rows of ``a_basis`` are orthonormal.
    """
    return (2.0 * math.pi * g.sigma**2) ** (g.dim / 2.0) * math.exp(-g.sigma**2 * r2 / 2.0)


def _schur_blocks(terms, basis, r2):
    """The entries of the Gaussian ``terms`` on ``basis``: {(i, j): values}, values per point.

    ``r2`` holds |H|^2 per point.  A Gaussian g-hat is constant on the
    orbit of H: its value is c_0 times the envelope of |H| (``_envelope``),
    c_0 its constant coefficient.  By Schur orthogonality the term then adds
    coeff g-hat(H) times J[:, row] J[:, col]^H / d_bar to each copy of the
    contragredient bar of its label, within ``basis.columns[bar]``, with
    (bar, units) = ``CompactGroup.contragredient``.  J is a signed
    permutation, so that is a matrix unit: one entry, at (a, b) in the copy,
    with (a, x) and (b, y) the units of columns row and col, and weight x
    conj(y) / d_bar.  Each entry's P values are summed in Python, from 0j in
    term order, and given once per copy at its basis position (i, j); no
    array is formed.  A term whose bar is not in the basis adds nothing, and
    its g-hat is not evaluated.  Returns the entries and, per point, whether
    they are all finite.
    """
    K, cols = basis.K, basis.columns
    entries = {}  # (bar, d_bar, a, b) -> the entry's value per point
    for t in terms:
        bar, units = K.contragredient(t.u.label)
        if bar in cols:
            (a, x), (b, y), d = units[t.u.row], units[t.u.col], len(units)
            c0, w = t.g._hat_poly[(0,) * t.g.dim], x * y.conjugate() / d
            values = entries.setdefault((bar, d, a, b), [0j] * len(r2))
            for p, s in enumerate(r2):
                values[p] += (t.coeff * (c0 * _envelope(t.g, s))) * w
    units = {(i + a, i + b): values for (bar, d, a, b), values in entries.items()
             for i in range(cols[bar].start, cols[bar].stop, d)}
    return units, [all(math.isfinite(v[p].real) and math.isfinite(v[p].imag) for v in entries.values())
                   for p in range(len(r2))]


def _gaunt_entries(t, basis, rows, Hs, r2):
    """The nonzeros of the degree >= 1 term ``t`` on ``basis``: (i, j, values), values (P, n).

    With u(h k^{-1}) = sum_r tau(h)[row, r] conj(tau(k)[col, r]) and psi =
    sqrt(d_lam) T* tau_lam(k^{-1}) v, an entry is a sum over r of A, the
    integral of g-hat(Ad(k)H) tau_l(k)[row, r] against a copy of a window
    K-type lam (``rows``), times B, the Schur sum of tau_l(k)[col, r]
    against a copy of bar.  g-hat(Ad(k)H) is sum_key C[key](H)
    tau_J(k)[a, e] times the envelope of |H| (``orbit_expansion``,
    ``_envelope``), and each key's Gaunt band (``CompactGroup.gaunt``) has
    one v and one b per r.  With (v0, x0) = units[col] and (pi(r), y_r) =
    units[r] of the contragredient, B is x0 y_r / d_bar at row v0 and index
    pi(r) of bar.  A copy's intertwiner is a unit at each of its
    ``PeterWeylBasis.positions``, over sqrt(d_rho).  So (key, r) meets at
    most one copy c' of lam, that of position b_r, and one copy c of bar,
    that of position pi(r), and adds sqrt(d_lam d_bar) / d_rho (x0 y_r /
    d_bar) C[key](H) times its band value at row (lam, c', v), column (bar,
    c, v0), if the two positions stand for one vector of H_mu.  Keys whose C
    is 0 at every point (at H = 0, all of degree >= 1) are dropped, and the
    weights summed per entry and key first, so the values are one product
    of those weights with C, and no zero is summed or written.
    """
    K, cols, d_rho = basis.K, basis.columns, basis.d_rho
    bar, units = K.contragredient(t.u.label)
    d, (v0, x0) = len(units), units[t.u.col]
    c = {}
    for alpha, q in t.g._hat_poly.items():
        for key, v in K.orbit_expansion(alpha, Hs).items():
            c[key] = c.get(key, 0.0) + q * v
    c = {key: v for key, v in c.items() if v.any()}
    # b -> (copy c, vector a of H_mu) of bar; r -> (column j, a, the value of B)
    at_bar = {b: divmod(n, d_rho) for n, b in enumerate(basis.positions(bar))}
    over = {r: (cols[bar].start + at_bar[b][0] * d + v0, at_bar[b][1], x0 * y / d)
            for r, (b, y) in enumerate(units) if b in at_bar}
    weights = {}  # (i, j) -> {key index: weight}
    for lam in rows:
        at = {b: divmod(n, d_rho) for n, b in enumerate(basis.positions(lam))}
        start, d_lam = cols[lam].start, K.irrep_dim(lam)
        scale = math.sqrt(d_lam * d) / d_rho
        for k, key in enumerate(c):
            r, v, b, values = K.gaunt(key, t.u.label, t.u.row, lam)
            for r, b, x in zip(r.tolist(), b.tolist(), values.tolist()):
                if r in over and b in at and at[b][1] == over[r][1]:
                    j, _, w = over[r]
                    e = weights.setdefault((start + at[b][0] * d_lam + v, j), {})
                    e[k] = e.get(k, 0.0) + scale * w * x
    V = np.array([[e.get(k, 0.0) for k in range(len(c))] for e in weights.values()])
    C = np.array(list(c.values())).reshape(len(c), len(r2)) * [_envelope(t.g, s) for s in r2]
    i, j = np.array(list(weights), dtype=int).reshape(-1, 2).T
    return i, j, (V.reshape(len(weights), len(c)) @ C).T


def pi_family(f, pair, basis, Hs):
    """Induced operators of ``f`` at the flat points ``Hs`` that share ``basis``, on the support they write.

    The points of one family share mu and a stabilizer, hence the basis
    (callers cut it at the window; H = 0 is the zero point).  Returns
    (rows, cols, block): the sorted basis rows and columns of the entries
    <pi(f) psi_j, psi_i> written, as tuples, and the (P, len(rows),
    len(cols)) block of their values, in ``Hs`` order; every other entry
    is zero by the selection rule, and no N x N array is formed.  The
    support is empty, and the block (P, 0, 0), where no term writes (on an
    empty basis, or where no term's bar is in it).  Gaussian terms are one
    ``_schur_blocks`` call for all points; each other term whose bar is in
    the basis adds its nonzeros (``_gaunt_entries``), in the window rows,
    for all points at once.  ValueError is raised unless every point has
    ``pair.rank`` coordinates.  NonFiniteEntries names the first point
    where an entry written, once summed, overflows a float.
    """
    K, columns = pair.K, basis.columns
    if any(len(H) != pair.rank for H in Hs):
        raise ValueError(f"flat points {Hs!r} are not all of rank {pair.rank}, that of {pair.name}")
    r2 = [sum(h * h for h in map(float, H)) for H in Hs]  # |H|^2, the envelope's argument
    # a Gaussian-only family checks its values in Python, and calls numpy only for its block
    units, finite = _schur_blocks([t for t in f.terms if not t.g.max_degree()], basis, r2)
    poly_terms = [t for t in f.terms
                  if t.g.max_degree() and K.contragredient(t.u.label)[0] in columns]
    scatters, written = [], list(units)
    if poly_terms:
        # A has band <= W: only the rows of the window's K-types are nonzero
        window = [lam for lam in columns if K.char_band(lam) <= f.window]
        points = np.asarray(Hs, dtype=float).reshape(-1, pair.rank)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries are refused below
            for t in poly_terms:
                i, j, values = _gaunt_entries(t, basis, window, points, r2)
                i, j = i.tolist(), j.tolist()
                scatters.append((i, j, t.coeff * values))
                written += zip(i, j)
    rows, cols = sorted({i for i, _ in written}), sorted({j for _, j in written})
    at_row, at_col = {i: n for n, i in enumerate(rows)}, {j: n for n, j in enumerate(cols)}
    block = np.zeros((len(Hs), len(rows), len(cols)), dtype=complex)
    for (i, j), values in units.items():
        block[:, at_row[i], at_col[j]] = values
    if scatters:
        with np.errstate(over="ignore", invalid="ignore"):
            for i, j, values in scatters:
                block[:, [at_row[x] for x in i], [at_col[y] for y in j]] += values
        finite = np.isfinite(block).all(axis=(1, 2)).tolist()  # the Gaussian entries too, once summed
    if not all(finite):  # an inf from g-hat's polynomial factor, or inf * 0 against its Gaussian
        p = finite.index(False)
        H = tuple(map(float, Hs[p]))
        raise NonFiniteEntries(f"entries of pi(f) at mu={basis.mu!r}, H={H} overflow a float", p)
    return tuple(rows), tuple(cols), block


def _one_point(f, pair, basis, H, lambda_max):
    """The one-point ``pi_family`` at ``H`` on ``basis``, held as a ``TruncatedOperator``."""
    rows, cols, block = pi_family(f, pair, basis, [H])
    return TruncatedOperator(block[0], rows, cols, lambda_max, basis)


def pi_matrix(f, pair, mu, H, lambda_max):
    """Truncated matrix of the induced-representation operator at (mu, H).

    The one-point ``pi_family`` on the shared basis of (mu, the stabilizer
    of H) cut at ``lambda_max``.  Entries are <pi(f) psi_j, psi_i>, formed
    only in the rows of its window K-types (the rest is zero by the
    selection rule).  No norm is taken here: they are taken on the first
    read, on the block.
    """
    basis = peter_weyl_basis(pair, mu, H, lambda_max)
    return _one_point(f, pair, basis, as_coords(H), lambda_max)


def tau_matrix(f, pair, lam):
    """The K-dual entry: integral of fhat2(k, 0) against the K-irrep ``lam``.

    The one-point ``pi_family`` at H = 0 on ``induction.k_type_basis``: each
    term contributes ghat(0) times its Schur sum, zero unless lam is the
    contragredient of the term's label.
    """
    basis = k_type_basis(pair, lam)
    return _one_point(f, pair, basis, pair.zero_point(), basis.lambda_max)


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
    return _one_point(f, pair, basis, pair.zero_point(), lambda_max)


@dataclass(eq=False)
class OperatorFieldSample:
    """A finite grid of dual points with attached truncated operators.

    ``steps`` is set on the path sample of a plan's ``sample_field`` pass,
    and None on every other: (fine, coarse), the operator norms of the
    path's step differences at full and at half resolution
    (``step_differences``), which condition 2 reads.
    """

    instance_name: str
    grid: tuple
    operators: dict
    metadata: dict = field(default_factory=dict)
    steps: tuple | None = None


@dataclass
class VerificationPlan:
    """Where the five condition checks read the field on one instance."""

    lambda_max: int
    grid: list  # DualPoints for conditions 1 and 5
    path: list  # DualPoints along the continuity path, odd count
    h_ladder_mus: list  # labels at h_ladder_H0, as given
    h_ladder_H0: object
    h_ladder_levels: int
    mu_points: list | None = None  # DualPoints at one H for condition 3


def path_break(pair, pts):
    """(i, reason) for the first point where a continuity path breaks, or None.

    A point's stratum is its stratum tag, wall set and label (points are
    canonical: their H is dominant already), and every point must share
    that of the first, which must be an induced stratum, and none may equal
    the one or two before it (a step of length 0).  The scenario parser
    refuses such a path, and ``check_path`` raises on it.
    """

    def stratum_key(p):
        walls = () if p.stratum == GAMMA2 else pair.wall_set(p.H)
        return (p.stratum, walls, p.label)

    first = stratum_key(pts[0])
    for i, p in enumerate(pts):
        if stratum_key(p) != first:
            return i, f"path leaves the stratum {first} of its first point at {p}"
    if first[0] == GAMMA2:
        return 0, "continuity paths live in the induced strata"
    for i, p in enumerate(pts):
        if p in pts[max(i - 2, 0):i]:
            return i, f"path repeats {p} within two steps: a step of length 0"
    return None


def check_path(pair, pts):
    """ValueError unless ``pts`` has an odd count >= 3; PathCrossesStrata where ``path_break`` finds a break.

    Its points then share one stratum piece, hence one basis: their
    matrices have one shape.
    """
    if len(pts) < 3 or len(pts) % 2 == 0:
        raise ValueError("continuity path needs an odd number (>= 3) of points")
    broken = path_break(pair, pts)
    if broken:
        raise PathCrossesStrata(f"path: {broken[1]}")


def step_differences(ops):
    """(fine, coarse): the step differences of a path's matrices, the stack ``ops``, as new arrays.

    A stride-2 difference is the sum of the two steps it spans.
    """
    fine = np.diff(ops, axis=0)
    return fine, fine[:-1:2] + fine[1::2]


def _norms_by_shape(mats):
    """(operator, HS) norms of each matrix of ``mats``: one ``stack_norms`` call per shape.

    The matrices are given on their families' supports; one with no entry
    (an empty support) has norms (0, 0) without an SVD, the value
    ``stack_norms`` gives it.
    """
    shapes, norms = {}, [(0.0, 0.0)] * len(mats)
    for i, m in enumerate(mats):
        if m.size:
            shapes.setdefault(m.shape, []).append(i)
    for at in shapes.values():
        op, hs = stack_norms(np.stack([mats[i] for i in at]))
        for i, a, b in zip(at, op.tolist(), hs.tolist()):
            norms[i] = (a, b)
    return norms


def _named(e, stage, mu, H, lambda_max):
    """``e`` again, its message led by the reading, the point and the lambda_max it came from."""
    at = f"lambda={mu!r}" if H is None else f"mu={mu!r}, H={H}"
    return type(e)(f"{stage} at {at}, lambda_max={lambda_max}: {e}")


class _Family:
    """The points on one basis: one index per distinct H, in order of first request.

    ``live``: formed by ``pi_family``, else zero; ``asked``: (reading, mu,
    H, lambda_max) of each point's first request; ``rows``, ``cols`` and
    ``block``: the support ``pi_family`` wrote, one matrix per point, empty
    unless formed; ``normed``: point -> its place among the matrices
    normed, for the points a reading holds as operators.
    """

    def __init__(self, basis, live):
        self.basis, self.live = basis, live
        self.points, self.asked, self.normed = {}, [], {}
        self.rows = self.cols = self.block = None

    def index(self, H, asked):
        if H not in self.points:
            self.points[H] = len(self.asked)
            self.asked.append(asked)
        return self.points[H]


def sample_field(f, pair, grid, lambda_max):
    """Evaluate the Fourier-transform field of ``f`` at dual points, in one pass.

    ``grid`` is a list of dual points read at ``lambda_max``, and the result
    their ``OperatorFieldSample``; or a ``VerificationPlan``, read at its
    own lambda_max (its weight points at max(lambda_max, their top band +
    2)), and the result maps "main", "path" and, if it has them, "mu" to
    the samples of its grid, path and weight points, and "h_ladder" to (mu,
    [||pi(mu, H0 2^-j) - pi0|| for j = 0..levels]) per ladder weight.

    Every induced point of every reading joins the family of its weight,
    stabilizer structure and window cut min(lambda_max, W): one
    ``window_basis`` and one ``pi_family`` block on the support the family
    writes, a matrix per distinct H (no call beyond the mu cut-off, where
    the basis is empty).  A ladder's rungs and zero point (H = 0) join the
    family of its weight at H0; a K-dual label is a one-point family at H
    = 0 on ``k_type_basis``, formed only where a term's bar is the label
    (else zero, by the selection rule).  A family not formed has the empty
    support and allocates nothing, however large its basis.  The blocks are
    read-only, and the operators, the path's steps (``step_differences``)
    and the ladder's deltas are normed on them, with one ``stack_norms``
    call per shape.  EmptyBasis, NonFiniteEntries and a refused label name the
    reading ("main grid", "path", "mu points", "h-ladder"), the point and
    its lambda_max; ``operators`` follow the grid order, and the
    metadata carries W and the ``fhat2_sup`` bound.
    """
    plan = grid if isinstance(grid, VerificationPlan) else VerificationPlan(
        lambda_max, list(grid), [], [], None, 0)
    lam = plan.lambda_max
    readings = [("main", "main grid", plan.grid, lam), ("path", "path", plan.path, lam)]
    if plan.mu_points:
        group = stabilizer(pair, plan.mu_points[0].H).group
        band = max(group.char_band(p.label) for p in plan.mu_points)
        readings.append(("mu", "mu points", plan.mu_points, max(lam, band + 2)))
    for _, _, pts, _ in readings:
        for p in pts:
            if p.pair_name != pair.name:
                raise ValueError(f"grid point {p} is not on instance {pair.name}")
    sup = f.fhat2_sup()  # SupBoundOverflow before any entry is formed
    if plan.path:
        check_path(pair, plan.path)
    zero, bars = pair.zero_point(), {pair.K.contragredient(t.u.label)[0] for t in f.terms}
    families, bases = {}, {}  # key -> _Family; (mu, structure, lambda_max) -> window basis

    def family(stage, mu, H, lam_r):
        """The family of (mu, H) read at ``lam_r``; H None is the K-dual point mu."""
        try:
            if H is None:
                key = (GAMMA2, mu)
                if key not in families:
                    families[key] = _Family(k_type_basis(pair, mu), mu in bars)
                return families[key]
            structure = stabilizer(pair, H).structure
            if (mu, structure, lam_r) not in bases:
                bases[mu, structure, lam_r] = window_basis(pair, mu, H, lam_r, f.window)
            basis = bases[mu, structure, lam_r]
            return families.setdefault((mu, structure, basis.lambda_max), _Family(basis, True))
        except (MotionFieldsError, ValueError) as e:
            raise _named(e, stage, mu, H, lam_r) from None

    placed = {}  # reading -> (family, index) per point
    for name, stage, pts, lam_r in readings:
        placed[name] = [(fam, fam.index(zero if p.H is None else p.H, (stage, p.label, p.H, lam_r)))
                        for p in pts for fam in [family(stage, p.label, p.H, lam_r)]]
    ladder = []
    if plan.h_ladder_mus:
        H0 = as_coords(plan.h_ladder_H0)
        Hs = [tuple(c * 2.0 ** (-j) for c in H0) for j in range(plan.h_ladder_levels + 1)]
        for mu in plan.h_ladder_mus:
            fam = family("h-ladder", mu, H0, lam)
            ladder.append((mu, fam, [fam.index(H, ("h-ladder", mu, H, lam)) for H in Hs + [zero]]))

    for fam in families.values():
        basis, Hs = fam.basis, list(fam.points)
        if basis.size and fam.live:
            try:
                fam.rows, fam.cols, fam.block = pi_family(f, pair, basis, Hs)
            except NonFiniteEntries as e:
                raise _named(e, *fam.asked[e.index]) from None
        else:  # beyond the mu cut-off, or a K-dual label that is no term's bar
            fam.rows, fam.cols, fam.block = (), (), np.zeros((len(Hs), 0, 0), dtype=complex)
        fam.block.flags.writeable = False
    mats = []  # every matrix whose norms a check reads: the readings' operators, once each
    for name, _, _, _ in readings:
        for fam, r in placed[name]:
            if r not in fam.normed:
                fam.normed[r] = len(mats)
                mats.append(fam.block[r])
    # the path's steps (one family: check_path) and each ladder weight's deltas to its zero point
    path = [fam.block[r] for fam, r in placed["path"]]
    diffs = list(step_differences(np.stack(path))) if path else []
    diffs += [fam.block[rows[:-1]] - fam.block[rows[-1]] for _, fam, rows in ladder]
    at = len(mats)
    for d in diffs:
        mats.extend(d)
    norms = _norms_by_shape(mats)
    left = iter(a for a, _ in norms[at:])  # the differences' operator norms, in order
    diff_norms = [[next(left) for _ in d] for d in diffs]

    common = {"function": f.describe(), "bandlimit": f.bandlimit, "window": f.window,
              "fhat2_sup": sup}
    out = {}
    for name, _, pts, lam_r in readings:
        operators = {}
        for p, (fam, r) in zip(pts, placed[name]):
            T = operators[p] = TruncatedOperator(
                fam.block[r], fam.rows, fam.cols,
                fam.basis.lambda_max if p.H is None else lam_r, fam.basis, p)
            T._norms = norms[fam.normed[r]]
        out[name] = OperatorFieldSample(pair.name, tuple(pts), operators,
                                        dict(common, lambda_max=lam_r),
                                        tuple(diff_norms[:2]) if name == "path" and pts else None)
    if not isinstance(grid, VerificationPlan):
        return out["main"]
    out["h_ladder"] = [(mu, d) for (mu, _, _), d in zip(ladder, diff_norms[len(diffs) - len(ladder):])]
    return out
