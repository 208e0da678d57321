"""Compact groups used as K and as stabilizer factors.

Groups are small value-like objects that hold the label algebra of their
irreps and nothing pointwise: no run evaluates a group element.  Irreps are
addressed by integer weights (SO(2): m in Z; SO(3): ell >= 0; products:
tuples of factor labels, their matrices the kron of the factors' in C
order).  SO(3)'s irrep ell is D^ell in the z-y-z convention, on the basis
e_m, m = -ell..ell.

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
    """The label algebra of a compact group; concrete groups override it."""

    name = "?"

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


class CircleGroup(CompactGroup):
    """SO(2); irrep m acts by exp(i m theta) at the rotation by theta."""

    name = "SO(2)"

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


class RotationGroup3(CompactGroup):
    """SO(3); irrep ell has dim 2ell+1."""

    name = "SO(3)"

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
    """Direct product; irrep labels are tuples over the factors."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.name = " x ".join(f.name for f in self.factors)
        self.space_dim = sum(f.space_dim for f in self.factors)

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
        """Tuples of factor weights, in the kron (C) order of the factor bases."""
        return list(itertools.product(*(f.weights(w) for f, w in zip(self.factors, label))))

    def contragredient(self, label):
        """Factor by factor, with J the kron of the factors' in C order."""
        bars, Js = zip(*(f.contragredient(w) for f, w in zip(self.factors, label)))
        return tuple(bars), reduce(np.kron, Js)

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

