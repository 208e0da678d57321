"""The pointwise model of K and of the pairs, kept as the oracle of the label algebra.

``motionfields`` evaluates no group element: every operator entry is a
closed form in the labels of K.  This module keeps the element model those
closed forms replaced.  Elements are plain data: an angle for the circle, a
3x3 rotation matrix for SO(3), ``()`` for the trivial group and tuples of
factor elements for products.  ``irrep_table`` evaluates an irrep at n
elements in parameter form (angles, z-y-z Euler triples, tuples of factor
params; ``params_of``), by Wigner-d on SO(3).  ``adjoint`` is K acting on
p; ``embed`` and ``pullback`` carry a stabilizer into K and back;
``weyl_rep`` represents a Weyl element in K; ``stab_contained`` compares
two points' stabilizers; ``value`` evaluates a test function.  It also
keeps the listings that src's closed forms replaced: ``weights`` lists an
irrep's torus weights and ``restrict`` maps one to a stabilizer label (the
oracles of the closed-form branching), and ``signed_permutation`` forms the
matrix J of a contragredient's units.  Operators, which src holds on their
support, have their dense forms here: ``on_support`` cuts a dense stack to
its nonzero rows and columns (the oracle of the support a family writes),
``dense_family`` places a family's block in its basis, and
``dense_operator`` makes an operator of a dense matrix.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from motionfields.fourier import TruncatedOperator
from motionfields.groups import CircleGroup, ProductGroup, RotationGroup3, TrivialGroup
from motionfields.testfunctions import poly_eval


def _factors(group):
    return group.factors if isinstance(group, ProductGroup) else (group,)


# -- elements ------------------------------------------------------------------


def identity(group):
    if isinstance(group, ProductGroup):
        return tuple(identity(f) for f in group.factors)
    if isinstance(group, RotationGroup3):
        return np.eye(3)
    return 0.0 if isinstance(group, CircleGroup) else ()


def compose(group, a, b):
    if isinstance(group, ProductGroup):
        return tuple(compose(f, x, y) for f, x, y in zip(group.factors, a, b))
    if isinstance(group, RotationGroup3):
        return a @ b
    return float(np.mod(a + b, 2.0 * np.pi)) if isinstance(group, CircleGroup) else ()


def inverse(group, a):
    if isinstance(group, ProductGroup):
        return tuple(inverse(f, x) for f, x in zip(group.factors, a))
    if isinstance(group, RotationGroup3):
        return a.T.copy()
    return float(np.mod(-a, 2.0 * np.pi)) if isinstance(group, CircleGroup) else ()


def random(group, rng):
    """A Haar-random element; on SO(3) that of a uniform unit quaternion."""
    if isinstance(group, ProductGroup):
        return tuple(random(f, rng) for f in group.factors)
    if isinstance(group, RotationGroup3):
        q = rng.normal(size=4)
        w, x, y, z = q / np.linalg.norm(q)
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
    return float(rng.uniform(0.0, 2.0 * np.pi)) if isinstance(group, CircleGroup) else ()


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def from_euler(alpha, beta, gamma):
    return rot_z(alpha) @ rot_y(beta) @ rot_z(gamma)


def euler_zyz(R):
    """Extract (alpha, beta, gamma) with R = Rz(alpha) Ry(beta) Rz(gamma)."""
    r22 = min(1.0, max(-1.0, float(R[2, 2])))
    # atan2 keeps full precision near beta = 0 and pi, where acos(r22)
    # loses half the digits
    beta = math.atan2(math.hypot(R[0, 2], R[1, 2]), r22)
    if abs(r22) < 1.0 - 1e-12:
        alpha = math.atan2(R[1, 2], R[0, 2])
        gamma = math.atan2(R[2, 1], -R[2, 0])
    elif r22 > 0.0:  # beta ~ 0: R = Rz(alpha + gamma)
        alpha = math.atan2(R[1, 0], R[0, 0])
        gamma = 0.0
    else:  # beta ~ pi: R = Rz(alpha - gamma) Ry(pi)
        alpha = math.atan2(-R[1, 0], -R[0, 0])
        gamma = 0.0
    return alpha, beta, gamma


# -- irreps at elements ----------------------------------------------------------


@lru_cache(maxsize=None)
def _jy_eigenvectors(ell):
    """Unitary V with J_y = V diag(m) V^H, m = -ell..ell, and V^H.

    J_y is the tridiagonal Hermitian matrix of (J+ - J-)/(2i) in the basis
    |m>, from <m+1|J+|m> = sqrt(ell(ell+1) - m(m+1)); its eigenvalues are
    exactly -ell..ell, which eigh returns in ascending order.
    """
    m = np.arange(-ell, ell)
    up = np.sqrt(ell * (ell + 1) - m * (m + 1.0))
    V = np.linalg.eigh((np.diag(up, -1) - np.diag(up, 1)) / 2j)[1]
    return V, V.conj().T


def wigner_d(ell, beta):
    """Little-d matrices d^ell(beta), shape (len(beta), 2ell+1, 2ell+1).

    Row/column indices run over m', m = -ell..ell, in the z-y-z convention
    D^ell_{m'm}(a,b,c) = e^{-i m' a} d^ell_{m'm}(b) e^{-i m c}.
    d^ell(beta) = exp(-i beta J_y) from the exact diagonalisation of J_y
    (Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307, 2015).
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    V, Vh = _jy_eigenvectors(int(ell))
    phase = np.exp(-1j * np.outer(beta, np.arange(-int(ell), int(ell) + 1)))
    return ((V * phase[:, None, :]) @ Vh).real


def irrep_table(group, label, params):
    """tau_label at the n elements ``params``, shape (n, d, d); products in kron (C) order."""
    if isinstance(group, ProductGroup):
        out = None
        for f, w, p in zip(group.factors, label, params):
            t = irrep_table(f, w, p)
            if out is not None:  # kron of the factor matrices, node by node
                n, (a, b), (c, d) = len(t), out.shape[1:], t.shape[1:]
                t = np.einsum("nab,ncd->nacbd", out, t).reshape(n, a * c, b * d)
            out = t
        return out
    if isinstance(group, RotationGroup3):
        alpha, beta, gamma = params
        ub, inv = np.unique(beta, return_inverse=True)
        m = np.arange(-int(label), int(label) + 1)
        ea, eg = np.exp(-1j * np.outer(alpha, m)), np.exp(-1j * np.outer(gamma, m))
        return ea[:, :, None] * wigner_d(label, ub)[inv] * eg[:, None, :]
    if isinstance(group, CircleGroup):
        return np.exp(1j * label * params)[:, None, None]
    return np.ones((len(params), 1, 1), dtype=complex)


def params_of(group, elts):
    """The parameter form of a list of elements, as ``irrep_table`` reads it."""
    if isinstance(group, ProductGroup):
        return tuple(params_of(f, [e[i] for e in elts]) for i, f in enumerate(group.factors))
    if isinstance(group, RotationGroup3):
        return tuple(np.array([euler_zyz(R) for R in elts], dtype=float).reshape(-1, 3).T)
    return np.array(elts, dtype=float) if isinstance(group, CircleGroup) else np.zeros(len(elts))


def irrep_matrix(group, label, elt):
    return irrep_table(group, label, params_of(group, [elt]))[0]


def character(group, label, elt):
    return complex(np.trace(irrep_matrix(group, label, elt)))


def weights(group, label):
    """The torus weight of each standard basis vector of the irrep, in basis order.

    rot_z(theta) acts on SO(3)'s e_m (m = -ell..ell) by e^{-i m theta}, so
    e_m has weight -m; products list tuples of factor weights in the kron
    (C) order of the factor bases.
    """
    if isinstance(group, ProductGroup):
        return list(itertools.product(*(weights(f, w) for f, w in zip(group.factors, label))))
    if isinstance(group, RotationGroup3):
        return list(range(int(label), -int(label) - 1, -1))
    return [label] if isinstance(group, CircleGroup) else [0]


def signed_permutation(units):
    """The matrix J of ``CompactGroup.contragredient``'s units: J[row, c] = sign at units[c]."""
    J = np.zeros((len(units), len(units)))
    for c, (a, x) in enumerate(units):
        J[a, c] = x
    return J


# -- the pair: K acting on p, stabilizers and Weyl representatives --------------


def adjoint(pair, k, X):
    """Ad(k) X: each factor of K rotates its block of p."""
    X, out, start = np.asarray(X, dtype=float), [], 0
    ks = k if isinstance(pair.K, ProductGroup) else (k,)
    for f, kf in zip(_factors(pair.K), ks):
        if isinstance(f, CircleGroup):
            c, s = np.cos(kf), np.sin(kf)
            kf = np.array([[c, -s], [s, c]])
        out.append(kf @ X[start : start + f.space_dim])
        start += f.space_dim
    return np.concatenate(out)


def embed(K, group, s):
    """The element of K that the stabilizer element ``s`` of ``group`` is.

    A trivial factor sits at the identity, the circle in SO(3) as the
    z-rotations, and a factor that is all of K's factor as itself.
    """
    if isinstance(group, ProductGroup):
        return tuple(embed(Kf, f, x) for Kf, f, x in zip(K.factors, group.factors, s))
    if isinstance(group, TrivialGroup):
        return identity(K)
    return rot_z(s) if isinstance(K, RotationGroup3) and isinstance(group, CircleGroup) else s


def pullback(K, group, k):
    """The partial inverse of ``embed``: ValueError off the subgroup (tolerance 1e-8)."""
    if isinstance(group, ProductGroup):
        return tuple(pullback(Kf, f, x) for Kf, f, x in zip(K.factors, group.factors, k))
    if isinstance(group, TrivialGroup):
        return ()
    if isinstance(K, RotationGroup3) and isinstance(group, CircleGroup):
        if abs(k[2, 2] - 1.0) > 1e-8 or abs(k[0, 2]) > 1e-8 or abs(k[1, 2]) > 1e-8:
            raise ValueError("element is not a z-axis rotation")
        return float(np.arctan2(k[1, 0], k[0, 0]) % (2.0 * np.pi))
    return k


def weyl_rep(pair, w):
    """A representative in K of ``w``: on each factor whose flat coordinate w
    flips, the half turn of the circle, or rot_x(pi) on SO(3), which
    conjugates rot_z(theta) to rot_z(-theta) (``relabel``: m -> -m)."""
    reps = [
        identity(f) if s > 0 else rot_x(np.pi) if isinstance(f, RotationGroup3) else float(np.pi)
        for f, s in zip(_factors(pair.K), np.diag(w.matrix))
    ]
    return tuple(reps) if isinstance(pair.K, ProductGroup) else reps[0]


def root_values(pair, coords):
    return pair.positive_roots @ np.asarray(coords, dtype=float)


def phi(pair, coords, X):
    """The linear form <H, X> on p attached to the point H."""
    return float(pair.embed_a(coords) @ np.asarray(X))


def restrict(group, w):
    """The label of the stabilizer ``group`` that the torus weight ``w`` of K restricts to.

    For every stabilizer but all of K (which branches by Schur's lemma): a
    circle, all of an SO(2) factor or SO(3)'s z-rotations, keeps the
    weight, the trivial group sends it to 0, and products go factor by
    factor.
    """
    if isinstance(group, ProductGroup):
        return tuple(restrict(f, x) for f, x in zip(group.factors, w))
    if isinstance(group, RotationGroup3):
        raise ValueError("all of K restricts no weight: it branches by Schur's lemma")
    return w if isinstance(group, CircleGroup) else 0


def stab_contained(pair, coords_small, coords_big):
    """Whether the stabilizer of the first point sits inside the second's.

    For the shipped instances the stabilizer grows exactly with the set of
    vanishing positive roots, so containment is a wall-set inclusion: the
    oracle of the one ``dual.converges`` takes.
    """
    return set(pair.wall_set(coords_small)) <= set(pair.wall_set(coords_big))


# -- test functions --------------------------------------------------------------


def u_table(f, params):
    """u of every term of ``f`` at the elements ``params`` of K, shape (terms, n)."""
    K = f.pair.K
    return np.array([irrep_table(K, t.u.label, params)[:, t.u.row, t.u.col] for t in f.terms])


def g_value(g, X):
    """The flat factor p(X) exp(-|X|^2 / (2 sigma^2)) at the rows of ``X``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return poly_eval(g.poly, X) * np.exp(-np.sum(X * X, axis=1) / (2.0 * g.sigma**2))


def value(f, k, X):
    """f(k, X), the sum of c u(k) g(X) over the terms."""
    u = u_table(f, params_of(f.pair.K, [k]))[:, 0]
    out = sum(t.coeff * ut * g_value(t.g, X) for t, ut in zip(f.terms, u))
    return out if out.size > 1 else complex(out[0])


# -- operators: the dense forms src holds on their support -----------------------


def on_support(stack):
    """``stack`` (P, N, N) on its support: the rows and columns where some matrix of it is nonzero.

    The singular values other than 0 of a matrix are those of its cut; an
    all-zero stack has the empty support, (P, 0, 0).  The oracle of the
    support ``fourier.pi_family`` writes.
    """
    nonzero = stack.any(axis=0)
    return stack[:, nonzero.any(axis=1)][:, :, nonzero.any(axis=0)]


def dense_family(basis, family):
    """The (P, N, N) stack of a ``fourier.pi_family`` result (rows, cols, block) on ``basis``."""
    rows, cols, block = family
    M = np.zeros((len(block), basis.size, basis.size), dtype=complex)
    M[:, np.asarray(rows, dtype=int)[:, None], np.asarray(cols, dtype=int)] = block
    return M


def dense_operator(matrix, lambda_max, basis, point=None):
    """The ``TruncatedOperator`` of a dense N x N ``matrix`` on ``basis``, held on every row and column."""
    n = range(len(matrix))
    return TruncatedOperator(np.asarray(matrix), tuple(n), tuple(n), lambda_max, basis, point)
