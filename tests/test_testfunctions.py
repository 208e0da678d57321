import numpy as np
import pytest

from motionfields import MatrixCoefficient, PolyGaussian, Term, TestFunction


def fourier_oracle_2d(g, xi, half_width=9.0, n=721):
    """Direct 2D grid quadrature of the flat Fourier integral."""
    x = np.linspace(-half_width, half_width, n)
    dx = x[1] - x[0]
    XX, YY = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([XX.ravel(), YY.ravel()], axis=-1)
    vals = g.value(pts)
    return np.sum(vals * np.exp(1j * (pts @ np.asarray(xi)))) * dx * dx


class TestPolyGaussian:
    def test_gaussian_hat_closed_form(self):
        g = PolyGaussian.gaussian(2, 1.0)
        xi = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]])
        expect = 2 * np.pi * np.exp(-np.sum(xi * xi, axis=1) / 2)
        assert np.abs(g.fourier(xi) - expect).max() < 1e-14

    @pytest.mark.parametrize("xi", [(0.3, -0.7), (0.0, 0.0), (1.2, 0.4)])
    def test_hat_matches_grid_oracle(self, xi):
        g = PolyGaussian(2, 0.8, {(1, 0): 1.0, (0, 2): 0.5})
        assert abs(g.fourier(np.array([xi]))[0] - fourier_oracle_2d(g, xi)) < 1e-10

    def test_hat_at_zero_is_mass(self):
        g = PolyGaussian(2, 1.1, {(0, 0): 1.0, (2, 0): 0.3})
        assert abs(g.fourier(np.zeros((1, 2)))[0] - fourier_oracle_2d(g, (0, 0))) < 1e-10

    def test_rejects_non_integrable(self):
        with pytest.raises(ValueError):
            PolyGaussian(2, np.inf, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            PolyGaussian(2, 0.0, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            PolyGaussian(2, 1.0, {})

    def test_radial_builder(self):
        g = PolyGaussian.radial_poly(2, 1.0, [1.0, 2.0])
        X = np.array([[1.0, 2.0]])
        assert g.value(X)[0] == pytest.approx((1 + 2 * 5) * np.exp(-2.5))
        assert g.radial

    def test_sup_estimate_gaussian(self):
        assert PolyGaussian.gaussian(2, 1.0).sup_abs_fourier() == pytest.approx(
            2 * np.pi, rel=1e-9
        )


class TestTestFunction:
    def test_partial_fourier_separable(self, m2):
        f = TestFunction(
            m2, [Term(1.0, MatrixCoefficient(2), PolyGaussian.gaussian(2, 1.0))]
        )
        got = f.partial_fourier(0.3, [1.0, 0.0])
        assert got == pytest.approx(np.exp(0.6j) * 2 * np.pi * np.exp(-0.5))

    def test_validation(self, m2, m3):
        with pytest.raises(ValueError):
            TestFunction(m2, [])
        with pytest.raises(ValueError):
            TestFunction(
                m2, [Term(1.0, MatrixCoefficient(2), PolyGaussian.gaussian(3, 1.0))]
            )
        with pytest.raises(ValueError):
            TestFunction(
                m3, [Term(1.0, MatrixCoefficient(1, 0, 5), PolyGaussian.gaussian(3, 1.0))]
            )

    def test_bandlimit(self, m3):
        f = TestFunction(
            m3,
            [
                Term(1.0, MatrixCoefficient(3, 0, 0), PolyGaussian.gaussian(3, 1.0)),
                Term(1.0, MatrixCoefficient(1, 0, 0), PolyGaussian.gaussian(3, 1.0)),
            ],
        )
        assert f.bandlimit == 3

    def test_star_is_involution(self, m2):
        f = TestFunction(
            m2,
            [
                Term(0.7 + 0.2j, MatrixCoefficient(2), PolyGaussian.gaussian(2, 1.0)),
                Term(0.4, MatrixCoefficient(-1), PolyGaussian.radial_poly(2, 1.0, [0.0, 1.0])),
            ],
        )
        ff = f.star().star()
        for t1, t2 in zip(f.terms, ff.terms):
            assert t1.coeff == pytest.approx(t2.coeff)
            assert t1.u == t2.u
            assert t1.g.poly == t2.g.poly

    def test_star_pointwise(self, m2, rng):
        # f*(k, X) = conj(f(k^{-1}, -Ad(k^{-1}) X)) pointwise on samples
        from motionfields import adjoint_action

        f = TestFunction(
            m2,
            [
                Term(0.7 + 0.2j, MatrixCoefficient(2), PolyGaussian.gaussian(2, 1.0)),
                Term(0.4 - 0.1j, MatrixCoefficient(-1), PolyGaussian.radial_poly(2, 0.9, [1.0, 0.5])),
            ],
        )
        fs = f.star()
        for _ in range(10):
            k = m2.K.random(rng)
            X = rng.normal(size=2)
            kinv = m2.K.inverse(k)
            expect = np.conj(f.value(kinv, -adjoint_action(m2, kinv, X)))
            assert fs.value(k, X) == pytest.approx(expect, abs=1e-12)

    def test_star_requires_radial(self, m2):
        f = TestFunction(
            m2, [Term(1.0, MatrixCoefficient(1), PolyGaussian(2, 1.0, {(1, 0): 1.0}))]
        )
        with pytest.raises(ValueError):
            f.star()

    def test_sup_single_term_exact_factorization(self, m2):
        f = TestFunction(
            m2, [Term(2.0, MatrixCoefficient(3), PolyGaussian.gaussian(2, 1.0))]
        )
        assert f.fhat2_sup() == pytest.approx(2 * 2 * np.pi, rel=1e-9)

    def test_sup_multi_term_bounded(self, m2):
        f = TestFunction(
            m2,
            [
                Term(1.0, MatrixCoefficient(1), PolyGaussian.gaussian(2, 1.0)),
                Term(0.5, MatrixCoefficient(-1), PolyGaussian.gaussian(2, 2.0)),
            ],
        )
        est = f.fhat2_sup()
        assert est <= f.fhat2_sup_bound() + 1e-9
        # both peaks at xi = 0 and the phases align on the diagonal
        assert est == pytest.approx(2 * np.pi + 0.5 * 8 * np.pi, rel=1e-6)

    def test_sup_extra_k_candidate(self, m2):
        # |f-hat(theta, 0)| = 2 pi |1 + e^{i(0.3 - 2 theta)}| peaks at theta = 0.15,
        # which no node of the circle rule hits; passing it as a candidate
        # recovers the exact sup 4 pi
        f = TestFunction(
            m2,
            [
                Term(1.0, MatrixCoefficient(1), PolyGaussian.gaussian(2, 1.0)),
                Term(np.exp(0.3j), MatrixCoefficient(-1), PolyGaussian.gaussian(2, 1.0)),
            ],
        )
        assert f.fhat2_sup() < 4 * np.pi - 1e-3
        assert f.fhat2_sup(extra_k=[0.15]) == pytest.approx(4 * np.pi, rel=1e-12)
        assert abs(f.partial_fourier(0.15, np.zeros(2))) == pytest.approx(4 * np.pi, rel=1e-12)

    def test_addition(self, m2):
        f = TestFunction(m2, [Term(1.0, MatrixCoefficient(1), PolyGaussian.gaussian(2, 1.0))])
        g = TestFunction(m2, [Term(1.0, MatrixCoefficient(2), PolyGaussian.gaussian(2, 1.0))])
        assert (f + g).bandlimit == 2 and len((f + g).terms) == 2

    def test_describe_roundtrips_through_config(self, m3):
        from motionfields.config import ScenarioConfig
        from motionfields.scenarios import bundled_scenario

        cfg = ScenarioConfig.from_dict(bundled_scenario("m3-default"))
        f = cfg.build_test_function(m3)
        desc = f.describe()
        assert desc["bandlimit"] == f.bandlimit
        assert len(desc["terms"]) == len(f.terms)
