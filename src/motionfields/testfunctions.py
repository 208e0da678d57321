"""Separable test functions with closed-form partial Fourier transforms.

A term is c * u(k) * g(X) with u a matrix coefficient of a K-irrep and g a
polynomial times a centered Gaussian on the flat part.  The X-Fourier
transform of such a g is again polynomial-times-Gaussian, computed once and
exactly, so every bound of interest can be checked without uncontrolled
numerical Fourier error.  Functions constant in X are rejected: they are
not integrable on the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonRadialFlatFactor, SupBoundOverflow

# polynomials as {multi-index tuple: complex coefficient}


def poly_eval(poly, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0], dtype=complex)
    for alpha, c in poly.items():
        mono = np.ones(pts.shape[0])
        for j, a in enumerate(alpha):
            if a:
                mono = mono * pts[:, j] ** a
        out += c * mono
    return out


def poly_diff(poly, j):
    out = {}
    for alpha, c in poly.items():
        if alpha[j]:
            beta = list(alpha)
            beta[j] -= 1
            beta = tuple(beta)
            out[beta] = out.get(beta, 0.0) + c * alpha[j]
    return out


def poly_mul_coord(poly, j):
    out = {}
    for alpha, c in poly.items():
        beta = list(alpha)
        beta[j] += 1
        out[tuple(beta)] = out.get(tuple(beta), 0.0) + c
    return out


def poly_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            g = tuple(x + y for x, y in zip(a, b))
            out[g] = out.get(g, 0.0) + ca * cb
    return out


def _poly_clean(poly, tol=0.0):
    return {a: complex(c) for a, c in poly.items() if abs(c) > tol}


def _r2(dim):
    """|X|^2 on R^dim as a polynomial."""
    return {tuple(2 * (i == j) for i in range(dim)): 1.0 for j in range(dim)}


def _multi_index(alpha, dim):
    """``alpha`` as a tuple of Python ints; ValueError unless it has ``dim`` entries >= 0."""
    alpha = tuple(alpha)
    if len(alpha) != dim:
        raise ValueError(f"multi-index {alpha} does not match dim {dim}")
    if not all(isinstance(a, (int, np.integer)) and a >= 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} needs nonnegative integer entries")
    return tuple(int(a) for a in alpha)


@dataclass(eq=False)
class PolyGaussian:
    """g(X) = p(X) exp(-|X|^2 / (2 sigma^2)) on R^dim.

    ``fourier`` evaluates the transform int g(X) exp(i <xi, X>) dX, which is
    (2 pi sigma^2)^{dim/2} q(xi) exp(-sigma^2 |xi|^2 / 2) with q computed by
    repeated differentiation (multiplication by X_j maps to -i d/dxi_j).
    """

    dim: int
    sigma: float
    poly: dict
    radial: bool = False
    _hat_poly: dict = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(
                "flat factor needs a finite positive decay scale; "
                "functions constant in X are not integrable"
            )
        self.poly = _poly_clean({_multi_index(a, self.dim): c for a, c in self.poly.items()})
        if not self.poly:
            raise ValueError("flat factor polynomial is identically zero")
        if self.radial and not self._is_r2_poly():
            # star() drops the adjoint motion only for radial flat factors
            raise NonRadialFlatFactor(
                "a radial flat factor needs a polynomial in |X|^2, as radial_poly builds"
            )
        self._hat_poly = self._transform_poly()

    def _is_r2_poly(self):
        """Whether p = sum_k c_k (|X|^2)^k, up to round-off (1e-12 of its largest coefficient).

        c_k is the coefficient of X_1^(2k), the only monomial of that form in
        (|X|^2)^k; what is left after taking those powers off must vanish.
        """
        rest = dict(self.poly)
        power = {tuple([0] * self.dim): 1.0}
        for k in range(self.max_degree() // 2 + 1):
            c = self.poly.get((2 * k,) + (0,) * (self.dim - 1), 0.0)
            for a, v in power.items():
                rest[a] = rest.get(a, 0.0) - c * v
            power = poly_mul(power, _r2(self.dim))
        scale = max(abs(c) for c in self.poly.values())
        return all(abs(c) <= 1e-12 * scale for c in rest.values())

    @classmethod
    def gaussian(cls, dim, sigma=1.0, coeff=1.0):
        return cls(dim, sigma, {tuple([0] * dim): coeff}, radial=True)

    @classmethod
    def radial_poly(cls, dim, sigma, r2_coeffs):
        """p = sum_k c_k (|X|^2)^k times the Gaussian; always radial."""
        poly = {}
        power = {tuple([0] * dim): 1.0}
        for k, c in enumerate(r2_coeffs):
            if k:
                power = poly_mul(power, _r2(dim))
            for a, v in power.items():
                poly[a] = poly.get(a, 0.0) + c * v
        return cls(dim, sigma, poly, radial=True)

    def _transform_poly(self):
        s2 = self.sigma**2
        total = {}
        for alpha, c in self.poly.items():
            q = {tuple([0] * self.dim): 1.0 + 0.0j}
            for j, a in enumerate(alpha):
                for _ in range(a):
                    # multiplication by X_j becomes -i (d_j - s2 xi_j) on q
                    dq = poly_diff(q, j)
                    xq = poly_mul_coord(q, j)
                    q = {
                        b: -1j * (dq.get(b, 0.0) - s2 * xq.get(b, 0.0))
                        for b in set(dq) | set(xq)
                    }
            for b, v in q.items():
                total[b] = total.get(b, 0.0) + c * v
        return _poly_clean(total, tol=0.0)

    def fourier(self, xi):
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        r2 = np.sum(xi * xi, axis=1)
        amp = (2.0 * np.pi * self.sigma**2) ** (self.dim / 2.0)
        return amp * poly_eval(self._hat_poly, xi) * np.exp(-self.sigma**2 * r2 / 2.0)

    def conj(self):
        return PolyGaussian(
            self.dim,
            self.sigma,
            {a: np.conj(c) for a, c in self.poly.items()},
            radial=self.radial,
        )

    def max_degree(self):
        return max(sum(a) for a in self.poly)

    def sup_bound(self):
        """Closed-form upper bound on sup_xi |g-hat(xi)|.

        With g-hat = a q(xi) exp(-sigma^2 |xi|^2 / 2), each monomial obeys
        |xi^alpha| exp(-sigma^2 |xi|^2 / 2) <= prod_i (alpha_i / (e sigma^2))^(alpha_i / 2),
        the product of the 1-D maxima at xi_i^2 = alpha_i / sigma^2 (0^0 = 1).
        Exact for degree 0, where the sup sits at xi = 0.
        """
        amp = (2.0 * math.pi * self.sigma**2) ** (self.dim / 2.0)
        es2 = math.e * self.sigma**2
        return amp * sum(
            abs(c) * math.prod((a / es2) ** (a / 2.0) for a in alpha)
            for alpha, c in self._hat_poly.items()
        )


def _complex_json(z):
    return [float(np.real(z)), float(np.imag(z))]


@dataclass(frozen=True)
class MatrixCoefficient:
    """The factor u(k) = entry (row, col) of the K-irrep with this label."""

    label: object
    row: int = 0
    col: int = 0


@dataclass(frozen=True)
class Term:
    coeff: complex
    u: MatrixCoefficient
    g: PolyGaussian

    def to_json(self):
        """The term as scenario JSON: complex numbers as [re, im], labels as lists."""
        u, g, label = self.u, self.g, self.u.label
        return {
            "coeff": _complex_json(self.coeff),
            "u": {"label": list(label) if isinstance(label, tuple) else label,
                  "row": u.row, "col": u.col},
            "g": {"sigma": g.sigma, "radial": g.radial,
                  "poly": {",".join(map(str, a)): _complex_json(c) for a, c in g.poly.items()}},
        }


class TestFunction:
    """Finite sum of separable terms on a fixed instance."""

    __test__ = False  # not a pytest collectable, despite the name

    def __init__(self, pair, terms):
        if not terms:
            raise ValueError("need at least one term")
        self.pair = pair
        self.terms = tuple(terms)
        for t in self.terms:
            if not pair.K.validate_label(t.u.label):
                raise ValueError(f"{t.u.label!r} is not a K-irrep label on {pair.name}")
            d = pair.K.irrep_dim(t.u.label)
            if not (0 <= t.u.row < d and 0 <= t.u.col < d):
                raise ValueError("matrix-coefficient indices out of range")
            if t.g.dim != pair.dim_p:
                raise ValueError(
                    f"flat factor dim {t.g.dim} != instance dim {pair.dim_p}"
                )
        self.bandlimit = max(pair.K.char_band(t.u.label) for t in self.terms)
        # the selection-rule window: entries lie in K-types of band <= W (see fourier)
        self.window = max(pair.K.char_band(t.u.label) + t.g.max_degree() for t in self.terms)
        self._sup = None  # fhat2_sup(), once computed

    def __add__(self, other):
        if other.pair is not self.pair and other.pair.name != self.pair.name:
            raise ValueError("cannot add test functions on different instances")
        return TestFunction(self.pair, self.terms + other.terms)

    def star(self):
        """The involution f*(k, X) = conj(f(k^{-1}, -Ad(k^{-1}) X)).

        Supported when every flat factor is radial (then the adjoint motion
        drops out and the result stays in the separable class); the K-factor
        transposes its matrix-coefficient indices.
        """
        if not all(t.g.radial for t in self.terms):
            raise ValueError("star() needs radial flat factors")
        return TestFunction(
            self.pair,
            [
                Term(
                    np.conj(t.coeff),
                    MatrixCoefficient(t.u.label, t.u.col, t.u.row),
                    t.g.conj(),
                )
                for t in self.terms
            ],
        )

    def fhat2_sup(self):
        """Closed-form upper bound on sup over (k, xi) of |f-hat|, computed once.

        The entries of a unitary irrep have modulus at most 1, so the sum of
        |c| times ``PolyGaussian.sup_bound`` over the terms bounds the sup.
        For one term with a Gaussian flat factor and a diagonal entry u
        (|u(e)| = 1) it is the sup itself, reached at (e, 0).  Condition 1
        squares it: SupBoundOverflow, naming the largest term, is raised
        when that square is not a finite float.
        """
        if self._sup is None:
            parts = []  # |c| sup|g-hat| per term
            for t in self.terms:
                try:
                    parts.append(abs(t.coeff) * t.g.sup_bound())
                except ArithmeticError:  # an overflow, or e sigma^2 underflowing to 0
                    parts.append(math.inf)
            sup = sum(parts)
            if not sup * sup < math.inf:
                i = parts.index(max(parts))
                raise SupBoundOverflow(
                    f"the sup bound of |f-hat|, squared, is not a finite float: term {i} "
                    f"(u {self.terms[i].u.label!r}, flat degree {self.terms[i].g.max_degree()}) "
                    f"bounds |f-hat| by {parts[i]:.3g}"
                )
            self._sup = sup
        return self._sup

    def describe(self):
        return {"bandlimit": self.bandlimit, "terms": [t.to_json() for t in self.terms]}
