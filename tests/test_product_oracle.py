"""The product instance is a tensor product: an exact oracle with no quadrature.

For direct products C*(G1 x G2) is C*(G1) (x) C*(G2), so the M2xM2 field of
f1 (x) f2 is the kron of two M2 fields: at a regular point
pi((mu1, mu2), (H1, H2))(f) = pi(mu1, H1)(f1) (x) pi(mu2, H2)(f2); on the
wall H1 = 0 the first factor is M2's K-dual entry tau_mu1(f1) on its
``k_type_basis``, and at the zero point and on K-dual labels both factors
are.  The kron is formed here, from one-instance operators; src has no
second assembler.  The degree >= 1 terms of f reach the product's Gaunt
bands, whose C-order kron of the factors' bands is what this guards.
"""

import itertools

import numpy as np
import pytest

from motionfields import MatrixCoefficient, PolyGaussian, Term, TestFunction, pi_matrix
from motionfields.fourier import pi_family
from motionfields.induction import k_type_basis

LAMBDA_MAX = 3
H1, H2 = 0.7, 1.3


def m2_function(pair, rng, degree, sigma):
    """One or two terms of labels |m| <= 2 whose flat factors have degree ``degree`` exactly.

    Each polynomial has a constant term, so g-hat(0) != 0 and the K-dual
    entries, the factors on walls and at the zero point, are not all zero.
    """
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        poly = {(i, degree - i): complex(*rng.normal(size=2)) for i in range(degree + 1)
                if rng.random() < 0.7 or i == degree}
        poly[0, 0] = poly.get((0, 0), 0) + complex(*rng.normal(size=2))
        for _ in range(int(rng.integers(0, 3))):
            d = int(rng.integers(0, degree + 1))
            i = int(rng.integers(0, d + 1))
            poly[i, d - i] = poly.get((i, d - i), 0) + complex(*rng.normal(size=2))
        terms.append(Term(complex(*rng.normal(size=2)), MatrixCoefficient(int(rng.integers(-2, 3))),
                          PolyGaussian(2, sigma, poly)))
    return TestFunction(pair, terms)


def tensor(pair, f1, f2):
    """f1 (x) f2 on M2xM2: the terms' products, their flat factors on (x1, x2, x3, x4)."""
    sigma = f1.terms[0].g.sigma
    return TestFunction(pair, [
        Term(s.coeff * t.coeff, MatrixCoefficient((s.u.label, t.u.label)),
             PolyGaussian(4, sigma, {a + b: x * y for a, x in s.g.poly.items()
                                     for b, y in t.g.poly.items()}))
        for s in f1.terms for t in f2.terms])


def factor(f, m2, mu, H):
    """The M2 field of ``f`` at (mu, H): induced at H != 0, else the K-dual entry tau_mu(f)."""
    if H:
        return pi_matrix(f, m2, mu, (H,), LAMBDA_MAX).matrix
    return pi_family(f, m2, k_type_basis(m2, mu), [(0.0,)])[0]


DEGREES = list(itertools.product(range(4), repeat=2))


@pytest.mark.parametrize("d1,d2", DEGREES, ids=[f"deg{a}x{b}" for a, b in DEGREES])
def test_product_field_is_the_kron_of_the_factor_fields(m2, m2xm2, d1, d2):
    rng = np.random.default_rng([d1, d2, 2024])
    sigma = float(rng.uniform(0.7, 1.2))
    f1, f2 = m2_function(m2, rng, d1, sigma), m2_function(m2, rng, d2, sigma)
    f = tensor(m2xm2, f1, f2)
    labels = range(-2, 3)
    cases = {  # kind -> [(product operator, its kron reference)]
        "regular": [((0, 0), (H1, H2))],
        "wall": [((m, 0), (0.0, H2)) for m in labels] + [((0, m), (H1, 0.0)) for m in labels],
        "zero": [((m, n), (0.0, 0.0)) for m in labels for n in labels],
    }
    pairs = {kind: [(pi_matrix(f, m2xm2, mu, H, LAMBDA_MAX).matrix,
                     np.kron(factor(f1, m2, mu[0], H[0]), factor(f2, m2, mu[1], H[1])))
                    for mu, H in pts]
             for kind, pts in cases.items()}
    pairs["k-dual"] = [(pi_family(f, m2xm2, k_type_basis(m2xm2, (m, n)), [(0.0, 0.0)])[0],
                        np.kron(factor(f1, m2, m, 0.0), factor(f2, m2, n, 0.0)))
                       for m in labels for n in labels]
    scale = max(np.abs(ref).max() for got in pairs.values() for _, ref in got)
    for kind, got in pairs.items():
        # every kind holds a nonzero entry, so no comparison is vacuous
        assert max(np.abs(ref).max() for _, ref in got) > 1e-6 * scale, kind
        for M, ref in got:
            assert M.shape == ref.shape, kind
            assert np.abs(M - ref).max() <= 1e-12 * scale, kind
