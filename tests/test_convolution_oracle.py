"""The Fourier transform is multiplicative: an exact convolution oracle.

C*(G0) is the closure of L^1(G0) under the Fourier transform, which sends
convolution to operator product, pi(f * g) = pi(f) pi(g), at every dual
point.  For g with radial flat factors the adjoint motion drops out of the
convolution, (f * g)(k, X) = int f(k', X') g(k'^-1 k, Ad(k'^-1)(X - X')),
and f * g stays in the separable class:

- on K, u_l[i, j] * u_l[j, m] = u_l[i, m] / d_l by Schur orthogonality,
  and the convolution of coefficients of other indices or labels is 0;
- on the flat part the transforms multiply: sigma^2 = sigma_f^2 +
  sigma_g^2, and the hat polynomial is q_f q_g a_f a_g / a, with a = (2 pi
  sigma^2)^{dim/2} the Gaussian's amplitude (likewise a_f, a_g).

The product's hat polynomial is set here, so src gains nothing.  pi(f) is
zero outside the columns of the copies of its terms' bars, which a basis
cut at their band holds, so the truncated product is exact.
"""

import math

import numpy as np
import pytest

from motionfields import (MatrixCoefficient, PolyGaussian, Term, TestFunction, pi_matrix,
                          pi_mu0_matrix, tau_matrix)
from motionfields.testfunctions import poly_mul

LAMBDA_MAX = 3
# induced points (mu, H), regular and on walls (only the product instance has
# walls other than 0), and the weights of the zero-point operator, from the bars
# of f's terms: each meets a column of f's
INDUCED = {
    "M2": lambda bars: [(0, (0.8,)), (0, (1.7,))],
    "M3": lambda bars: [(mu, (0.9,)) for mu in range(-max(bars), max(bars) + 1)],
    "M2xM2": lambda bars: [((0, 0), (0.7, 1.3))]
    + [((m, 0), (0.0, 1.3)) for m in {b[0] for b in bars}]
    + [((0, n), (0.7, 0.0)) for n in {b[1] for b in bars}],
}
ZERO_MUS = {"M2": lambda bars: [0], "M3": lambda bars: [0, max(bars)],
            "M2xM2": lambda bars: [(0, 0)]}


def flat(dim, sigma, degree, rng):
    """A non-radial flat factor of degree ``degree`` exactly, with a constant term."""
    top = tuple(int(a) for a in rng.multinomial(degree, [1 / dim] * dim))
    poly = {top: complex(*rng.normal(size=2))}
    poly[(0,) * dim] = poly.get((0,) * dim, 0) + complex(*rng.normal(size=2))
    for _ in range(int(rng.integers(0, 3))):
        alpha = tuple(int(a) for a in rng.multinomial(int(rng.integers(0, degree + 1)),
                                                     [1 / dim] * dim))
        poly[alpha] = poly.get(alpha, 0) + complex(*rng.normal(size=2))
    return PolyGaussian(dim, sigma, poly)


def functions(pair, degree, rng):
    """(f, g): f of 2-3 terms of flat degree ``degree``, the first of label band 2,
    the others of band <= 2; g radial.

    Each term of f, u_l[i, j], meets a term of g, u_l[j, m] with a Gaussian
    or radial flat factor, so f * g has a term for it; g has one more term
    on a row of l other than j where d_l > 1, which meets nothing.
    """
    K, dim = pair.K, pair.dim_p
    labels = K.irrep_labels(2)
    top = [lab for lab in labels if K.char_band(lab) == 2]
    f_terms, g_terms = [], []
    for n in range(int(rng.integers(2, 4))):
        pool = labels if n else top
        lab = pool[int(rng.integers(len(pool)))]
        d = K.irrep_dim(lab)
        i, j, m = (int(x) for x in rng.integers(d, size=3))
        coeff = complex(*rng.normal(size=2))
        f_terms.append(Term(coeff, MatrixCoefficient(lab, i, j),
                            flat(dim, float(rng.uniform(0.7, 1.2)), degree, rng)))
        sigma = float(rng.uniform(0.6, 1.1))
        radial = (PolyGaussian.gaussian(dim, sigma) if rng.random() < 0.5
                  else PolyGaussian.radial_poly(dim, sigma, list(rng.normal(size=2))))
        g_terms.append(Term(complex(*rng.normal(size=2)), MatrixCoefficient(lab, j, m), radial))
        if d > 1:
            g_terms.append(Term(0.7, MatrixCoefficient(lab, (j + 1) % d, m),
                                PolyGaussian.gaussian(dim, sigma)))
    return TestFunction(pair, f_terms), TestFunction(pair, g_terms)


def amplitude(g):
    return (2 * math.pi * g.sigma**2) ** (g.dim / 2)


def convolution(pair, f, g):
    """f * g, its flat factors' hat polynomials set from the factors'."""
    terms = []
    for s in f.terms:
        for t in g.terms:
            if s.u.label != t.u.label or s.u.col != t.u.row:
                continue
            sigma = math.hypot(s.g.sigma, t.g.sigma)
            h = PolyGaussian(pair.dim_p, sigma, poly_mul(s.g._hat_poly, t.g._hat_poly))
            scale = amplitude(s.g) * amplitude(t.g) / amplitude(h)
            h._hat_poly = {a: c * scale for a, c in h.poly.items()}
            terms.append(Term(s.coeff * t.coeff / pair.K.irrep_dim(s.u.label),
                              MatrixCoefficient(s.u.label, s.u.row, t.u.col), h))
    return TestFunction(pair, terms)


CASES = [(name, degree) for name in ("M2", "M3", "M2xM2") for degree in range(4)]


@pytest.mark.parametrize("instance,degree", CASES, ids=[f"{n}-deg{d}" for n, d in CASES])
def test_transform_of_a_convolution_is_the_product(instance, degree, request):
    pair = request.getfixturevalue(instance.lower())
    rng = np.random.default_rng([len(instance), degree, 31])
    f, g = functions(pair, degree, rng)
    fg = convolution(pair, f, g)
    assert max(t.g.max_degree() for t in fg.terms) >= degree
    bars = sorted({pair.K.contragredient(t.u.label)[0] for t in f.terms}, key=repr)
    cases = (  # (kind, the operator of a function there)
        [("induced", lambda h, mu=mu, H=H: pi_matrix(h, pair, mu, H, LAMBDA_MAX))
         for mu, H in INDUCED[instance](bars)]
        + [("zero", lambda h, mu=mu: pi_mu0_matrix(h, pair, mu, LAMBDA_MAX))
           for mu in ZERO_MUS[instance](bars)]
        + [("k-dual", lambda h, lam=lam: tau_matrix(h, pair, lam)) for lam in bars])
    for kind, op in cases:
        ref = op(fg).matrix
        scale = np.abs(ref).max()
        assert scale > 1e-6, kind  # mu and lambda are chosen so that no case is vacuous
        got = op(f).matrix @ op(g).matrix
        assert np.abs(got - ref).max() <= 1e-12 * scale, kind
