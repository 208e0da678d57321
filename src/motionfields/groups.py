"""Compact groups used as K and as stabilizer factors.

Groups are small value-like objects.  Elements are plain data: an angle for
the circle, a 3x3 rotation matrix for SO(3), ``()`` for the trivial group,
and tuples of factor elements for products.  Irreps are addressed by integer
weights (SO(2): m in Z; SO(3): ell >= 0; products: tuples).  Each group
evaluates its irreps in one vectorised method, ``irrep_table``, at elements
given in parameter form (angles, Euler triples, tuples of factor
parameters); single irrep matrices and characters are a row and a trace of
it.

Haar integrals are closed forms, never node sums.  ``schur_sum`` integrates
two matrix coefficients (Schur orthogonality).  K acts on its defining space
(the plane, R^3, their sums), and ``orbit_expansion`` writes a monomial of
the orbit point k (t e_0) in matrix coefficients of K: e^{i n theta} on
SO(2), D^J_{M0} on SO(3) by the Clebsch-Gordan product rule.  ``gaunt``
integrates three matrix coefficients: a Kronecker delta on SO(2), two Wigner
3j symbols on SO(3), factor by factor on products.  The Clebsch-Gordan
coefficients follow from the Racah formula in integer arithmetic
(Varshalovich, Moskalev & Khersonskii, Quantum Theory of Angular Momentum,
1988).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce

import numpy as np


class CompactGroup:
    """Common interface; concrete groups override everything that matters."""

    name = "?"

    # -- elements ---------------------------------------------------------
    def identity(self):
        raise NotImplementedError

    def compose(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def random(self, rng):
        raise NotImplementedError

    # -- irreps -----------------------------------------------------------
    def irrep_labels(self, cutoff):
        raise NotImplementedError

    def irrep_dim(self, label):
        raise NotImplementedError

    def validate_label(self, label):
        raise NotImplementedError

    def char_band(self, label):
        """Max weight magnitude occurring in the irrep."""
        raise NotImplementedError

    def weights(self, label):
        """Torus weight of each standard basis vector of the irrep, in basis order."""
        raise NotImplementedError

    def contragredient(self, label):
        """(bar, J): the label of the conjugate irrep and a unitary J with
        tau_bar(k) = J conj(tau_label(k)) J^H for every k."""
        raise NotImplementedError

    def irrep_table(self, label, params):
        """tau_label at n elements given as ``params``, shape (n, d, d).

        ``params`` is an array of n angles (SO(2), and n entries for the
        trivial group), a triple of n-arrays of z-y-z Euler angles (SO(3)), or
        a tuple of factor params (products).  This is the one place where a
        concrete group evaluates its irreps.
        """
        raise NotImplementedError

    def params_of(self, elts):
        """The ``params`` form of a list of elements."""
        raise NotImplementedError

    def irrep_matrix(self, label, elt):
        """tau_label(elt): a one-element ``irrep_table``."""
        return self.irrep_table(label, self.params_of([elt]))[0]

    def character(self, label, elt):
        return complex(np.trace(self.irrep_matrix(label, elt)))

    def schur_sum(self, label, row):
        """The Haar integrals of two matrix coefficients, in closed form.

        S[r, v, b] = int tau_label(k)[row, r] tau_lam(k)[v, b] dk vanishes
        unless lam is the contragredient ``bar`` of ``label``; there Schur
        orthogonality against tau_bar = J conj(tau_label) J^H gives

            S[r, v, b] = J[v, row] conj(J[b, r]) / d_label.

        Returns (bar, S), computed once per (group, label, row); S is read-only.
        """
        key = (self.name, label, row)
        if key not in _SCHUR:
            bar, J = self.contragredient(label)
            S = np.einsum("v,br->rvb", J[:, row], J.conj()) / self.irrep_dim(label)
            _SCHUR[key] = (bar, _freeze(S))
        return _SCHUR[key]

    # -- the orbit of K in its defining space -------------------------------
    space_dim = 0  # dimension of the defining space

    def orbit_expansion(self, alpha, t):
        """The monomial X^alpha of the orbit point X = k (t e_0), in matrix coefficients.

        e_0 is the base point of each factor's defining space (e_x of the
        plane, e_z of R^3) and ``t`` has shape (P, factors).  Returns a dict
        mapping (J, a) to c of shape (P,) with X^alpha = sum c tau_J(k)[a, e]:
        e is the column of J's base vector (``gaunt``).
        """
        raise NotImplementedError

    def gaunt(self, key, label, row, lam):
        """int tau_J(k)[a, e] tau_label(k)[row, r] tau_lam(k)[v, b] dk as an (r, v, b) array.

        ``key`` is (J, a) of ``orbit_expansion``; computed once per
        (group, key, label, row, lam) and read-only.
        """
        k = (self.name, key, label, row, lam)
        if k not in _GAUNT:
            _GAUNT[k] = _freeze(self._gaunt(key, label, row, lam))
        return _GAUNT[k]

    def _gaunt(self, key, label, row, lam):
        raise NotImplementedError


class TrivialGroup(CompactGroup):
    name = "Trivial"

    def identity(self):
        return ()

    def compose(self, a, b):
        return ()

    def inverse(self, a):
        return ()

    def random(self, rng):
        return ()

    def irrep_labels(self, cutoff):
        return [0]

    def irrep_dim(self, label):
        return 1

    def validate_label(self, label):
        return _is_weight(label) and label == 0

    def char_band(self, label):
        return 0

    def weights(self, label):
        return [0]

    def contragredient(self, label):
        return 0, np.ones((1, 1))

    def irrep_table(self, label, params):
        return np.ones((len(params), 1, 1), dtype=complex)

    def params_of(self, elts):
        return np.zeros(len(elts))


class CircleGroup(CompactGroup):
    """SO(2), elements are angles; irrep m acts by exp(i m theta)."""

    name = "SO(2)"

    def identity(self):
        return 0.0

    def compose(self, a, b):
        return float(np.mod(a + b, 2.0 * np.pi))

    def inverse(self, a):
        return float(np.mod(-a, 2.0 * np.pi))

    def random(self, rng):
        return float(rng.uniform(0.0, 2.0 * np.pi))

    def irrep_labels(self, cutoff):
        return list(range(-cutoff, cutoff + 1))

    def irrep_dim(self, label):
        return 1

    def validate_label(self, label):
        return _is_weight(label)

    def char_band(self, label):
        return abs(int(label))

    def weights(self, label):
        return [label]

    def contragredient(self, label):
        return -int(label), np.ones((1, 1))

    def irrep_table(self, label, params):
        return np.exp(1j * label * params)[:, None, None]

    def params_of(self, elts):
        return np.array(elts, dtype=float)

    space_dim = 2

    def orbit_expansion(self, alpha, t):
        """(cos, sin) = ((z + 1/z) / 2, (z - 1/z) / 2i) with z = e^{i theta}: a Laurent product."""
        c = np.ones(1, dtype=complex)
        for coord, power in zip(_CIRCLE_COORDS, alpha):
            for _ in range(power):
                c = np.convolve(c, coord)
        d = sum(alpha)
        scale = t[:, 0] ** d
        return {(n - d, 0): cn * scale for n, cn in enumerate(c) if cn}

    def _gaunt(self, key, label, row, lam):
        return np.full((1, 1, 1), float(key[0] + label + lam == 0))


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


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


@lru_cache(maxsize=None)
def _jy_eigenvectors(ell):
    """Unitary V with J_y = V diag(m) V^H, m = -ell..ell, and V^H (read-only).

    J_y is the tridiagonal Hermitian matrix of (J+ - J-)/(2i) in the basis
    |m>, from <m+1|J+|m> = sqrt(ell(ell+1) - m(m+1)); its eigenvalues are
    exactly -ell..ell, which eigh returns in ascending order.
    """
    m = np.arange(-ell, ell)
    up = np.sqrt(ell * (ell + 1) - m * (m + 1.0))
    jy = (np.diag(up, -1) - np.diag(up, 1)) / 2j
    V = np.linalg.eigh(jy)[1]
    Vh = V.conj().T.copy()
    V.setflags(write=False)
    Vh.setflags(write=False)
    return V, Vh


def wigner_d(ell, beta):
    """Little-d matrices d^ell(beta), shape (len(beta), 2ell+1, 2ell+1).

    Row/column indices run over m', m = -ell..ell.  Entries follow the
    z-y-z convention D^ell_{m'm}(a,b,c) = e^{-i m' a} d^ell_{m'm}(b) e^{-i m c}.
    d^ell(beta) = exp(-i beta J_y) is evaluated from the exact
    diagonalisation of J_y (Feng, Wang, Yang & Jin, Phys. Rev. E 92,
    043307, 2015): one batched product over all beta.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    ell = int(ell)
    V, Vh = _jy_eigenvectors(ell)
    m = np.arange(-ell, ell + 1)
    phase = np.exp(-1j * np.outer(beta, m))
    return ((V * phase[:, None, :]) @ Vh).real


class RotationGroup3(CompactGroup):
    """SO(3), elements are 3x3 rotation matrices; irrep ell has dim 2ell+1."""

    name = "SO(3)"

    def identity(self):
        return np.eye(3)

    def compose(self, a, b):
        return a @ b

    def inverse(self, a):
        return a.T.copy()

    def random(self, rng):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def from_euler(self, alpha, beta, gamma):
        return rot_z(alpha) @ rot_y(beta) @ rot_z(gamma)

    def irrep_labels(self, cutoff):
        return list(range(0, cutoff + 1))

    def irrep_dim(self, label):
        return 2 * int(label) + 1

    def validate_label(self, label):
        return _is_weight(label) and label >= 0

    def char_band(self, label):
        return int(label)

    def weights(self, label):
        """rot_z(theta) acts on e_m (m = -ell..ell) by e^{-i m theta}: weight -m."""
        return list(range(int(label), -int(label) - 1, -1))

    def contragredient(self, label):
        """conj(D^ell_{m'm}) = (-1)^(m'-m) D^ell_{-m',-m}: J[2ell - a, a] = (-1)^(a - ell)."""
        ell = int(label)
        a = np.arange(2 * ell + 1)
        J = np.zeros((2 * ell + 1, 2 * ell + 1))
        J[2 * ell - a, a] = (-1.0) ** (a - ell)
        return ell, J

    def irrep_table(self, label, params):
        alpha, beta, gamma = params
        ell = int(label)
        ub, inv = np.unique(beta, return_inverse=True)
        d = wigner_d(ell, ub)[inv]
        m = np.arange(-ell, ell + 1)
        ea = np.exp(-1j * np.outer(alpha, m))
        eg = np.exp(-1j * np.outer(gamma, m))
        return ea[:, :, None] * d * eg[:, None, :]

    def params_of(self, elts):
        return tuple(np.array([euler_zyz(R) for R in elts], dtype=float).reshape(-1, 3).T)

    space_dim = 3

    def orbit_expansion(self, alpha, t):
        """(x, y, z) = R e_z in the m = 0 column of D^1 (``_so3_monomial``)."""
        scale = t[:, 0] ** sum(alpha)
        return {key: c * scale for key, c in _so3_monomial(tuple(alpha))}

    def _gaunt(self, key, label, row, lam):
        """int D^J_{M0} D^ell_{m_row m_r} D^lam_{m_v m_b} dk, with m = index - ell:

            3j(ell J lam; m_row M m_v) 3j(ell J lam; m_r 0 m_b),

        nonzero only at m_v = -m_row - M and m_b = -m_r.
        """
        (J, a), ell, lam = key, int(label), int(lam)
        out = np.zeros((2 * ell + 1, 2 * lam + 1, 2 * lam + 1))
        m_row, M = row - ell, a - J
        m_v = -m_row - M
        if abs(m_v) <= lam:
            first = wigner_3j(ell, J, lam, m_row, M, m_v)
            for m in range(-min(ell, lam), min(ell, lam) + 1):
                out[m + ell, m_v + lam, lam - m] = first * wigner_3j(ell, J, lam, m, 0, -m)
        return out


class ProductGroup(CompactGroup):
    """Direct product; elements and irrep labels are tuples over the factors."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.name = " x ".join(f.name for f in self.factors)
        self.space_dim = sum(f.space_dim for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def compose(self, a, b):
        return tuple(f.compose(x, y) for f, x, y in zip(self.factors, a, b))

    def inverse(self, a):
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def random(self, rng):
        return tuple(f.random(rng) for f in self.factors)

    def irrep_labels(self, cutoff):
        return list(itertools.product(*(f.irrep_labels(cutoff) for f in self.factors)))

    def irrep_dim(self, label):
        return int(np.prod([f.irrep_dim(w) for f, w in zip(self.factors, label)]))

    def validate_label(self, label):
        return (
            isinstance(label, tuple)
            and len(label) == len(self.factors)
            and all(f.validate_label(w) for f, w in zip(self.factors, label))
        )

    def char_band(self, label):
        return max(f.char_band(w) for f, w in zip(self.factors, label))

    def weights(self, label):
        """Tuples of factor weights, in the kron (C) order of ``irrep_table``."""
        return list(itertools.product(*(f.weights(w) for f, w in zip(self.factors, label))))

    def contragredient(self, label):
        """Factor by factor, with J the kron of the factors' in the C order of ``irrep_table``."""
        bars, Js = zip(*(f.contragredient(w) for f, w in zip(self.factors, label)))
        return tuple(bars), reduce(np.kron, Js)

    def irrep_table(self, label, params):
        tables = [f.irrep_table(w, p) for f, w, p in zip(self.factors, label, params)]
        out = tables[0]
        for t in tables[1:]:  # kron of the factor matrices, node by node
            n, (a, b), (c, d) = len(t), out.shape[1:], t.shape[1:]
            out = np.einsum("nab,ncd->nacbd", out, t).reshape(n, a * c, b * d)
        return out

    def params_of(self, elts):
        return tuple(f.params_of([e[i] for e in elts]) for i, f in enumerate(self.factors))

    def orbit_expansion(self, alpha, t):
        """Factor by factor: each takes its chunk of ``alpha`` and its column of ``t``.

        Keys are (labels, a) with a the C-order (kron) index of the factors' a.
        """
        out, start = {((), 0): 1.0}, 0
        for i, f in enumerate(self.factors):
            part = f.orbit_expansion(alpha[start : start + f.space_dim], t[:, i : i + 1])
            start += f.space_dim
            out = {
                (J + (Jf,), a * f.irrep_dim(Jf) + af): c * cf
                for (J, a), c in out.items()
                for (Jf, af), cf in part.items()
            }
        return out

    def _gaunt(self, key, label, row, lam):
        """The kron, in C order on each of r, v and b, of the factors' arrays."""
        J, a = key
        a = np.unravel_index(a, [f.irrep_dim(x) for f, x in zip(self.factors, J)])
        row = np.unravel_index(row, [f.irrep_dim(x) for f, x in zip(self.factors, label)])
        out = np.ones((1, 1, 1))
        for f, Jf, af, lf, rf, mf in zip(self.factors, J, a, label, row, lam):
            g = f.gaunt((Jf, int(af)), lf, int(rf), mf)
            (p, q, r), (x, y, z) = out.shape, g.shape
            out = np.einsum("pqr,xyz->pxqyrz", out, g).reshape(p * x, q * y, r * z)
        return out


_SCHUR = {}  # (group name, label, row) -> (bar, S) of schur_sum
_GAUNT = {}  # (group name, key, label, row, lam) -> (r, v, b) array of gaunt

# cos and sin of theta as Laurent coefficients of z^-1, z^0, z^1
_CIRCLE_COORDS = (np.array([0.5, 0.0, 0.5]), np.array([0.5j, 0.0, -0.5j]))
# x, y, z of R e_z as coefficients of D^1_{m0}, m = -1, 0, 1
_SO3_COORDS = (
    {-1: math.sqrt(0.5), 1: -math.sqrt(0.5)},
    {-1: -1j * math.sqrt(0.5), 1: -1j * math.sqrt(0.5)},
    {0: 1.0},
)


@lru_cache(maxsize=None)
def clebsch_gordan(j1, m1, j2, m2, j, m):
    """<j1 m1 j2 m2 | j m> for integer spins, by the Racah formula.

    The alternating sum is formed exactly over the lcm of its denominators,
    and only the final square root is a float.
    """
    inside = abs(m1) <= j1 and abs(m2) <= j2 and abs(m) <= j
    if m != m1 + m2 or not (abs(j1 - j2) <= j <= j1 + j2 and inside):
        return 0.0
    f = math.factorial
    ks = range(max(0, j2 - j - m1, j1 - j + m2), min(j1 + j2 - j, j1 - m1, j2 + m2) + 1)
    dens = [
        f(k) * f(j1 + j2 - j - k) * f(j1 - m1 - k) * f(j2 + m2 - k)
        * f(j - j2 + m1 + k) * f(j - j1 - m2 + k)
        for k in ks
    ]
    den = math.lcm(*dens)
    s = sum((-1) ** k * (den // d) for k, d in zip(ks, dens))
    num = (
        (2 * j + 1) * f(j + j1 - j2) * f(j - j1 + j2) * f(j1 + j2 - j)
        * f(j + m) * f(j - m) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
    )
    return math.copysign(math.sqrt(num * s * s / (f(j1 + j2 + j + 1) * den * den)), s)


def wigner_3j(j1, j2, j3, m1, m2, m3):
    """(j1 j2 j3; m1 m2 m3) = (-1)^(j1 - j2 - m3) <j1 m1 j2 m2 | j3 -m3> / sqrt(2 j3 + 1)."""
    sign = -1.0 if (j1 - j2 - m3) % 2 else 1.0
    return sign * clebsch_gordan(j1, m1, j2, m2, j3, -m3) / math.sqrt(2 * j3 + 1)


@lru_cache(maxsize=None)
def _so3_monomial(alpha):
    """x^a y^b z^c of R e_z as pairs ((J, M + J), c), with x^a y^b z^c = sum c D^J_{M0}(R).

    One D^1 factor at a time, by D^J_{M0} D^1_{m0} = sum_J' <J M 1 m|J' M+m>
    <J 0 1 0|J' 0> D^J'_{M+m,0}; the second coefficient vanishes at J' = J.
    """
    out = {(0, 0): 1.0}  # (J, M) -> c
    for coord, power in zip(_SO3_COORDS, alpha):
        for _ in range(power):
            nxt = {}
            for (J, M), c in out.items():
                for m, v in coord.items():
                    for J2 in (J - 1, J + 1):
                        w = clebsch_gordan(J, M, 1, m, J2, M + m)
                        w *= clebsch_gordan(J, 0, 1, 0, J2, 0)
                        if w:
                            nxt[J2, M + m] = nxt.get((J2, M + m), 0.0) + c * v * w
            out = nxt
    return tuple(((J, M + J), c) for (J, M), c in out.items() if c)


def _is_weight(x):
    """An integer, not a bool: True == 1 and 1.0 == 1, but neither is a weight."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _freeze(x):
    """Make the array ``x`` read-only; returns it."""
    x.setflags(write=False)
    return x

