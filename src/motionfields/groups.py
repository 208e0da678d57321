"""Compact groups used as K and as stabilizer factors.

Groups are small value-like objects that hold the label algebra of their
irreps and nothing pointwise: no run evaluates a group element.  Irreps are
addressed by integer weights (SO(2): m in Z; SO(3): ell >= 0; products:
tuples of factor labels, their matrices the kron of the factors' in C
order).  SO(3)'s irrep ell is D^ell in the z-y-z convention, on the basis
e_m, m = -ell..ell.  How often a torus weight occurs in an irrep, and in
the irreps of which bands, and at which positions of the irrep's basis,
are closed forms (``weight_multiplicity``, ``weight_bands``,
``weight_positions``); no weight is listed.

Haar integrals are closed forms, never node sums, given by their nonzeros.
Two matrix coefficients integrate by Schur orthogonality against the
contragredient, whose J is a signed permutation (``contragredient``: its
units).  K acts on its defining space (the plane, R^3, their sums), and
``orbit_expansion`` writes a monomial of the orbit point k (t e_0) in matrix
coefficients of K: e^{i n theta} on SO(2), D^J_{M0} on SO(3) by the
Clebsch-Gordan product rule.  ``gaunt`` integrates three matrix
coefficients, as a band: a Kronecker delta on SO(2), two Wigner 3j symbols
on SO(3), the kron of the factors' bands on products.  The Clebsch-Gordan
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

    def weight_positions(self, label, w):
        """The indices of the irrep's basis vectors of torus weight ``w``, in closed form, in order."""
        raise NotImplementedError

    def weight_multiplicity(self, label, w):
        """How often the torus weight ``w`` occurs in the irrep."""
        return len(self.weight_positions(label, w))

    def weight_bands(self, w):
        """The bands of the irreps in which the torus weight ``w`` occurs, in closed form.

        An integer interval (lo, hi), hi possibly inf, or None if there are none.
        """
        raise NotImplementedError

    def contragredient(self, label):
        """(bar, units): the label of the conjugate irrep and, per column c
        of the unitary J with tau_bar(k) = J conj(tau_label(k)) J^H for every
        k, units[c] = (row, sign) of its one nonzero.

        J is a signed permutation on every group here, and the units are
        its closed form: ((0, 1.0),) on the trivial group and SO(2), (2ell -
        a, (-1)^(a - ell)) on SO(3), their kron on products.  They give the
        Schur sums in closed form: int tau_label(k)[row, r] tau_lam(k)[v, b]
        dk vanishes unless lam = bar, v is the row of column row's unit and
        b that of column r's, where it is the product of their signs over
        d_label.  ``fourier`` reads the units for both factors of an entry;
        no J is formed.  Computed once per (group, label), where ValueError
        is raised unless the rows are a permutation and every sign is +-1.
        """
        key = (self.name, label)
        if key not in _CONTRAGREDIENT:
            bar, units = self._contragredient(label)
            if not (sorted(a for a, _ in units) == list(range(len(units)))
                    and all(x in (1, -1) for _, x in units)):
                raise ValueError(f"J of the contragredient of {label!r} on {self.name} "
                                 "is not a signed permutation")
            _CONTRAGREDIENT[key] = (bar, tuple(units))
        return _CONTRAGREDIENT[key]

    def _contragredient(self, label):
        raise NotImplementedError

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
        """The nonzeros of int tau_J(k)[a, e] tau_label(k)[row, r] tau_lam(k)[v, b] dk.

        ``key`` is (J, a) of ``orbit_expansion``.  Over (r, v, b) the
        integral is a band: one v, fixed by the key and ``row``, and one b
        per r.  Returns (r, v, b, values), the nonzero values at (r[i], v,
        b[i]) with r increasing (v is 0 where there are none); computed once
        per (group, key, label, row, lam), the arrays read-only.
        """
        k = (self.name, key, label, row, lam)
        if k not in _GAUNT:
            r, v, b, values = self._gaunt(key, label, row, lam)
            _GAUNT[k] = (_freeze(r), v, _freeze(b), _freeze(values))
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

    def _contragredient(self, label):
        return 0, ((0, 1.0),)


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

    def weight_positions(self, label, w):
        return [0] if label == w else []

    def weight_bands(self, w):
        return abs(w), abs(w)

    def _contragredient(self, label):
        return -int(label), ((0, 1.0),)

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
        """A Kronecker delta: 1 at (0, 0, 0) where the three weights sum to 0."""
        return _band(0, [(0, 0, float(key[0] + label + lam == 0))])


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

    def weight_positions(self, label, w):
        """rot_z(theta) acts on e_m (m = -ell..ell) by e^{-i m theta}, so the weight w is at ell - w."""
        return [int(label) - w] if abs(w) <= label else []

    def weight_bands(self, w):
        """Every ell >= |w| holds the weight w."""
        return abs(w), math.inf

    def _contragredient(self, label):
        """conj(D^ell_{m'm}) = (-1)^(m'-m) D^ell_{-m',-m}: J[2ell - a, a] = (-1)^(a - ell)."""
        ell = int(label)
        return ell, tuple((2 * ell - a, (-1.0) ** (a - ell)) for a in range(2 * ell + 1))

    space_dim = 3

    def orbit_expansion(self, alpha, t):
        """(x, y, z) = R e_z in the m = 0 column of D^1 (``_so3_monomial``)."""
        scale = t[:, 0] ** sum(alpha)
        return {key: c * scale for key, c in _so3_monomial(tuple(alpha))}

    def _gaunt(self, key, label, row, lam):
        """int D^J_{M0} D^ell_{m_row m_r} D^lam_{m_v m_b} dk, with m = index - ell:

            3j(ell J lam; m_row M m_v) 3j(ell J lam; m_r 0 m_b),

        nonzero only at m_v = -m_row - M and m_b = -m_r: at most 2 min(ell,
        lam) + 1 entries, b = lam + ell - r.
        """
        (J, a), ell, lam = key, int(label), int(lam)
        m_row, M = row - ell, a - J
        m_v = -m_row - M
        first = wigner_3j(ell, J, lam, m_row, M, m_v)  # 0 unless |m_v| <= lam
        ms = range(-min(ell, lam), min(ell, lam) + 1) if first else ()
        entries = [(m + ell, lam - m, first * wigner_3j(ell, J, lam, m, 0, -m)) for m in ms]
        return _band(m_v + lam, entries)


class ProductGroup(CompactGroup):
    """Direct product; irrep labels are tuples over the factors."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.name = " x ".join(f.name for f in self.factors)
        self.space_dim = sum(f.space_dim for f in self.factors)

    def irrep_labels(self, cutoff):
        return list(itertools.product(*(f.irrep_labels(cutoff) for f in self.factors)))

    def irrep_dim(self, label):
        return math.prod(f.irrep_dim(w) for f, w in zip(self.factors, label))

    def validate_label(self, label):
        return (
            isinstance(label, tuple)
            and len(label) == len(self.factors)
            and all(f.validate_label(w) for f, w in zip(self.factors, label))
        )

    def char_band(self, label):
        return max(f.char_band(w) for f, w in zip(self.factors, label))

    def _contragredient(self, label):
        """Factor by factor, with J the kron of the factors' in C order: the
        unit of column a d_2 + b is at row a' d_2 + b' with sign x y, for
        factor units (a', x) and (b', y)."""
        bars, units = zip(*(f.contragredient(w) for f, w in zip(self.factors, label)))
        return tuple(bars), reduce(
            lambda u, v: tuple((a * len(v) + b, x * y) for a, x in u for b, y in v), units)

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
        """The kron, in C order on each of r, v and b, of the factors' bands."""
        J, a = key
        a = np.unravel_index(a, [f.irrep_dim(x) for f, x in zip(self.factors, J)])
        row = np.unravel_index(row, [f.irrep_dim(x) for f, x in zip(self.factors, label)])
        entries, v = [(0, 0, 1.0)], 0  # (r, b, value)
        for f, Jf, af, lf, rowf, mf in zip(self.factors, J, a, label, row, lam):
            rf, vf, bf, xf = f.gaunt((Jf, int(af)), lf, int(rowf), mf)
            d_r, d_b = f.irrep_dim(lf), f.irrep_dim(mf)
            entries = [(r * d_r + s, b * d_b + c, x * y) for r, b, x in entries
                       for s, c, y in zip(rf.tolist(), bf.tolist(), xf.tolist())]
            v = v * d_b + vf
        return _band(v, entries)


_CONTRAGREDIENT = {}  # (group name, label) -> (bar, units) of contragredient
_GAUNT = {}  # (group name, key, label, row, lam) -> (r, v, b, values) band of gaunt

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


def _band(v, entries):
    """The band (r, v, b, values) of the (r, b, value) ``entries`` of nonzero value (v 0 if none)."""
    entries = [e for e in entries if e[2]]
    rb = np.array([e[:2] for e in entries], dtype=int).reshape(-1, 2)
    return rb[:, 0], v if entries else 0, rb[:, 1], np.array([e[2] for e in entries], dtype=float)


def _is_weight(x):
    """An integer, not a bool: True == 1 and 1.0 == 1, but neither is a weight."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _freeze(x):
    """Make the array ``x`` read-only; returns it."""
    x.setflags(write=False)
    return x

