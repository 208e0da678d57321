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

import csv
import itertools
import math

import numpy as np
import pointwise as pw
import pytest

from motionfields import MatrixCoefficient, PolyGaussian, Term, TestFunction, pi_matrix
from motionfields.cli import main
from motionfields.config import dump_json
from motionfields.fourier import pi_family
from motionfields.induction import k_type_basis
from motionfields.scenarios import bundled_scenario

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
    basis = k_type_basis(m2, mu)
    return pw.dense_family(basis, pi_family(f, m2, basis, [(0.0,)]))[0]


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
    pairs["k-dual"] = [(pw.dense_family(basis, pi_family(f, m2xm2, basis, [(0.0, 0.0)]))[0],
                        np.kron(factor(f1, m2, m, 0.0), factor(f2, m2, n, 0.0)))
                       for m in labels for n in labels for basis in [k_type_basis(m2xm2, (m, n))]]
    scale = max(np.abs(ref).max() for got in pairs.values() for _, ref in got)
    for kind, got in pairs.items():
        # every kind holds a nonzero entry, so no comparison is vacuous
        assert max(np.abs(ref).max() for _, ref in got) > 1e-6 * scale, kind
        for M, ref in got:
            assert M.shape == ref.shape, kind
            assert np.abs(M - ref).max() <= 1e-12 * scale, kind


def test_product_scenario_norms_are_the_factor_products(m2, m2xm2, tmp_path):
    # a verdict-level product case: the CLI on an M2xM2 scenario whose one
    # term is u_(1,-2) (x) p1(x1, x2) p2(x3, x4) with a shared sigma, at a
    # lambda_max >= W, so the truncation is exact.  At each regular grid
    # point the operator is the kron of the two M2 operators, so its
    # operator and HS norms in norms.csv are the products of the factors',
    # to 1e-12 relative beyond the rounding of the 12 digits printed
    sigma, c1, c2 = 0.9, 0.8 - 0.3j, 1.1 + 0.2j
    p1 = {(0, 0): 1.0, (1, 0): 0.5, (0, 1): -0.3j}
    p2 = {(0, 0): 0.7, (2, 0): 0.25, (1, 1): 0.4 + 0.1j}
    f1 = TestFunction(m2, [Term(c1, MatrixCoefficient(1), PolyGaussian(2, sigma, p1))])
    f2 = TestFunction(m2, [Term(c2, MatrixCoefficient(-2), PolyGaussian(2, sigma, p2))])
    f = tensor(m2xm2, f1, f2)
    lambda_max = f.window
    assert lambda_max >= max(f1.window, f2.window)
    doc = bundled_scenario("m2xm2-gamma1")
    doc["cutoffs"]["lambda_max"] = lambda_max
    doc["test_function"] = {"terms": [
        {"coeff": [t.coeff.real, t.coeff.imag],
         "u": {"label": list(t.u.label), "row": t.u.row, "col": t.u.col},
         "g": {"sigma": sigma, "radial": False,
               "poly": {",".join(map(str, a)): [complex(x).real, complex(x).imag]
                        for a, x in t.g.poly.items()}}}
        for t in f.terms]}
    Hs = [(0.5, 1.0), (0.5, 2.0), (1.5, 1.0), (0.8, 0.3), (2.0, 1.7)]
    doc["grids"]["gamma0"] = [{"mu": [0, 0], "H": list(H)} for H in Hs]
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(dump_json(doc))
    assert main(["run", "--scenario", str(path), "--output-dir", str(out)]) in (0, 1)
    with open(out / "norms.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["grid"] == "main" and r["stratum"] == "gamma0"]
    assert [tuple(map(float, r["H"].strip("()").split(";"))) for r in rows] == Hs
    for r, (h1, h2) in zip(rows, Hs):
        a, b = pi_matrix(f1, m2, 0, (h1,), lambda_max), pi_matrix(f2, m2, 0, (h2,), lambda_max)
        for name, want in [("op_norm", a.op_norm * b.op_norm), ("hs_norm", a.hs_norm * b.hs_norm)]:
            got = float(r[name])
            printed = 0.5 * 10.0 ** (math.floor(math.log10(want)) - 11)  # half the 12th digit
            assert want > 1e-6 and abs(got - want) <= 1e-12 * want + printed, (name, h1, h2)
