import json

import numpy as np
import pytest

from motionfields import (
    MatrixCoefficient,
    PolyGaussian,
    Term,
    TestFunction,
    pi_matrix,
    stabilizer,
)
from quadrature import quadrature
from test_fourier import partial_fourier


def fourier_oracle_2d(g, xi, half_width=9.0, n=721):
    """Direct 2D grid quadrature of the flat Fourier integral."""
    x = np.linspace(-half_width, half_width, n)
    dx = x[1] - x[0]
    XX, YY = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([XX.ravel(), YY.ravel()], axis=-1)
    vals = g.value(pts)
    return np.sum(vals * np.exp(1j * (pts @ np.asarray(xi)))) * dx * dx


def grid_sup_abs_fourier(g):
    """Grid-refined estimate of sup_xi |g-hat(xi)|: five rounds, each a third as wide."""
    radius = (np.sqrt(2.0 * max(1, g.max_degree())) + 6.0) / g.sigma
    center, width, best = np.zeros(g.dim), radius, 0.0
    for _ in range(5):
        axes = [np.linspace(c - width, c + width, 9 if g.dim <= 3 else 7) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g.dim)
        vals = np.abs(g.fourier(grid))
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, center = float(vals[i]), grid[i]
        width /= 3.0
    return max(best, float(np.abs(g.fourier(np.zeros((1, g.dim))))[0]))


def xi_candidates(f, extra_xi=None):
    """xi = 0, a cube grid out past every term's Gaussian peak, and ``extra_xi``."""
    dim = f.pair.dim_p
    radius = max((np.sqrt(2.0 * max(1, t.g.max_degree())) + 6.0) / t.g.sigma for t in f.terms)
    grid = np.linspace(-radius, radius, 9 if dim <= 3 else 7)
    cube = np.stack(np.meshgrid(*([grid] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    pts = [np.zeros((1, dim)), cube]
    if extra_xi is not None and len(extra_xi):
        pts.append(np.atleast_2d(np.asarray(extra_xi, dtype=float)))
    return np.concatenate(pts, axis=0)


def einsum_grid_sup(f, extra_k=None, extra_xi=None, rounds=4):
    """Oracle grid estimate of sup |f-hat| over (k, xi), from below.

    k runs over the nodes of a K rule of order 2 bandlimit + 8, then
    ``extra_k``; xi starts at ``xi_candidates`` and is refined around the
    best point, one einsum over the whole (k x xi) grid per round.  Returns
    the value, and the k index and xi of the first maximum in C order.
    """
    K = f.pair.K
    uvals = f._u_table(quadrature(K, 2 * f.bandlimit + 8).params)
    if extra_k:
        uvals = np.concatenate([uvals, f._u_table(K.params_of(extra_k))], axis=1)
    coeffs = np.array([t.coeff for t in f.terms])
    xi = xi_candidates(f, extra_xi)
    best, k_best, center, width = 0.0, None, xi[0], None
    for _ in range(rounds):
        gvals = np.array([t.g.fourier(xi) for t in f.terms])
        vals = np.abs(np.einsum("t,tk,tx->kx", coeffs, uvals, gvals))
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[idx] > best:
            best, k_best, center = float(vals[idx]), int(idx[0]), xi[idx[1]]
        width = 0.5 if width is None else width / 3.0
        axes = [np.linspace(c - width, c + width, 5) for c in center]
        xi = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.pair.dim_p)
    return best, k_best, center


def seeded_function(pair, rng, degree=None):
    """2-3 terms, labels of band <= 2.

    Flat factors are one monomial of degree <= 2, or with ``degree`` a
    monomial of that degree plus one of lower degree.
    """
    K, dim = pair.K, pair.dim_p
    labels = K.irrep_labels(2)
    terms = []
    for _ in range(int(rng.integers(2, 4))):
        lab = labels[int(rng.integers(len(labels)))]
        d = K.irrep_dim(lab)
        if degree is None:
            alpha = tuple(rng.multinomial(int(rng.integers(0, 3)), [1 / dim] * dim))
            poly = {alpha: complex(*rng.normal(size=2))}
        else:
            poly = {tuple(rng.multinomial(degree, [1 / dim] * dim)): complex(*rng.normal(size=2))}
            if degree:
                low = tuple(rng.multinomial(int(rng.integers(degree)), [1 / dim] * dim))
                poly[low] = complex(*rng.normal(size=2))
        flat = PolyGaussian(dim, float(rng.uniform(0.7, 1.2)), poly)
        u = MatrixCoefficient(lab, int(rng.integers(d)), int(rng.integers(d)))
        terms.append(Term(complex(*rng.normal(size=2)), u, flat))
    return TestFunction(pair, terms)


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

    def test_numpy_multi_index_is_stored_as_int(self, m2):
        # rng.multinomial gives numpy integers; the degree read from them
        # feeds the window and the orbit expansion, which must stay ints
        g = PolyGaussian(2, 1.0, {(np.int64(1), np.int64(0)): 1.0})
        assert all(type(a) is int for alpha in g.poly for a in alpha)
        f = TestFunction(m2, [Term(1.0, MatrixCoefficient(0), g)])
        op = pi_matrix(f, m2, stabilizer(m2, (1.0,)).group.irrep_labels(0)[0], (1.0,), 2)
        assert type(f.window) is int and f.window == 1
        json.dumps(op.to_dict())

    @pytest.mark.parametrize("alpha", [(-1, 0), (0, -2), (1.0, 0), (0.5, 0), ("1", 0)])
    def test_multi_index_needs_nonnegative_integers(self, alpha):
        # a negative entry made max_degree() -1 and g-hat that of a constant
        with pytest.raises(ValueError, match="nonnegative integer"):
            PolyGaussian(2, 1.0, {alpha: 1.0, (0, 0): 1.0})

    def test_radial_builder(self):
        g = PolyGaussian.radial_poly(2, 1.0, [1.0, 2.0])
        X = np.array([[1.0, 2.0]])
        assert g.value(X)[0] == pytest.approx((1 + 2 * 5) * np.exp(-2.5))
        assert g.radial

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_radial_flag_needs_polynomial_in_r2(self, dim):
        # star() drops the adjoint motion only for radial flat factors, so
        # a polynomial that is not one in |X|^2 is refused the flag
        for coeffs in ([1.0], [0.3, -1.7, 0.25], [0.0, 0.0, 0.5j]):
            g = PolyGaussian.radial_poly(dim, 0.9, coeffs)
            assert PolyGaussian(dim, 0.9, g.poly, radial=True).radial
        e1 = (1,) + (0,) * (dim - 1)
        e2 = (0, 2) + (0,) * (dim - 2)
        for poly in ({e1: 1.0}, {e2: 1.0}, {(0,) * dim: 1.0, e1: 1e-3}):
            with pytest.raises(ValueError, match=r"\|X\|\^2"):
                PolyGaussian(dim, 0.9, poly, radial=True)
            assert not PolyGaussian(dim, 0.9, poly).radial

    def test_sup_bound_gaussian(self):
        g = PolyGaussian.gaussian(2, 1.0)
        assert g.sup_bound() == pytest.approx(2 * np.pi, rel=1e-12)
        assert grid_sup_abs_fourier(g) == pytest.approx(g.sup_bound(), rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.6, 1.0, 1.7])
    def test_sup_bound_exact_for_one_coordinate(self, sigma):
        # p = X_1 gives g-hat = a i sigma^2 xi_1 exp(-sigma^2 |xi|^2 / 2): one
        # monomial, whose bound a sigma e^{-1/2} is reached at xi = (1/sigma, 0)
        g = PolyGaussian(2, sigma, {(1, 0): 1.0})
        peak = abs(g.fourier(np.array([[1.0 / sigma, 0.0]]))[0])
        assert g.sup_bound() == pytest.approx(peak, rel=1e-12)
        assert peak == pytest.approx(2 * np.pi * sigma**3 * np.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_sup_bound_above_dense_grid(self, seed):
        # the refined grid fell up to 4% below the sup of degree 1-4 factors;
        # the bound must lie above both it and a dense grid
        rng = np.random.default_rng([seed, 29])
        for _ in range(5):
            sigma = float(rng.uniform(0.6, 1.5))
            poly = {
                tuple(rng.multinomial(int(rng.integers(1, 5)), [0.5, 0.5])):
                    complex(*rng.normal(size=2))
                for _ in range(int(rng.integers(1, 4)))
            }
            g = PolyGaussian(2, sigma, poly)
            x = np.linspace(-6.0 / sigma, 6.0 / sigma, 401)
            xi = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
            dense = float(np.abs(g.fourier(xi)).max())
            assert max(dense, grid_sup_abs_fourier(g)) <= g.sup_bound() * (1 + 1e-12)


class TestTestFunction:
    def test_partial_fourier_separable(self, m2):
        f = TestFunction(
            m2, [Term(1.0, MatrixCoefficient(2), PolyGaussian.gaussian(2, 1.0))]
        )
        got = partial_fourier(f, 0.3, [1.0, 0.0])
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
            expect = np.conj(f.value(kinv, -m2.adjoint_action(kinv, X)))
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
        est = einsum_grid_sup(f)[0]
        assert est <= f.fhat2_sup() * (1 + 1e-12)
        # both peaks at xi = 0 and the phases align on the diagonal, so the
        # bound is the sup
        assert est == pytest.approx(2 * np.pi + 0.5 * 8 * np.pi, rel=1e-6)
        assert f.fhat2_sup() == pytest.approx(2 * np.pi + 0.5 * 8 * np.pi, rel=1e-12)

    def test_sup_extra_k_candidate(self, m2):
        # |f-hat(theta, 0)| = 2 pi |1 + e^{i(0.3 - 2 theta)}| peaks at theta = 0.15,
        # which no node of the circle rule hits: the grid estimate falls below
        # the exact sup 4 pi unless given that candidate; the bound does not
        f = TestFunction(
            m2,
            [
                Term(1.0, MatrixCoefficient(1), PolyGaussian.gaussian(2, 1.0)),
                Term(np.exp(0.3j), MatrixCoefficient(-1), PolyGaussian.gaussian(2, 1.0)),
            ],
        )
        assert einsum_grid_sup(f)[0] < 4 * np.pi - 1e-3
        assert einsum_grid_sup(f, extra_k=[0.15])[0] == pytest.approx(4 * np.pi, rel=1e-12)
        assert abs(partial_fourier(f, 0.15, np.zeros(2))) == pytest.approx(4 * np.pi, rel=1e-12)
        assert f.fhat2_sup() == pytest.approx(4 * np.pi, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_sup_grid_in_k_blocks(self, instance, seed, request):
        # the oracle grid over the rule nodes, and over extra k and xi
        # candidates, stays below the bound
        pair = request.getfixturevalue(instance.lower())
        rng = np.random.default_rng([seed, len(instance), 17])
        f = seeded_function(pair, rng)
        extra_k = [pair.K.random(rng) for _ in range(3)]
        extra_xi = rng.normal(size=(4, pair.dim_p))
        for args in ((None, None), (extra_k, extra_xi)):
            assert 0 < einsum_grid_sup(f, *args)[0] <= f.fhat2_sup() * (1 + 1e-12)
        assert f.fhat2_sup() == sum(abs(t.coeff) * t.g.sup_bound() for t in f.terms)

    def test_sup_maximum_past_first_k_block(self, m2xm2):
        # as in test_sup_extra_k_candidate, on M2xM2: the peak is the extra
        # candidate, which follows the 144 rule nodes, and the bound is exact
        f = TestFunction(
            m2xm2,
            [
                Term(1.0, MatrixCoefficient((1, 0)), PolyGaussian.gaussian(4, 1.0)),
                Term(np.exp(0.3j), MatrixCoefficient((-1, 2)), PolyGaussian.gaussian(4, 1.0)),
            ],
        )
        extra_k = [(0.15, 0.0)]
        want, k_best, _ = einsum_grid_sup(f, extra_k)
        assert k_best == len(quadrature(m2xm2.K, 2 * f.bandlimit + 8)) == 144
        assert want == pytest.approx(8 * np.pi**2, rel=1e-12)
        assert einsum_grid_sup(f)[0] < 8 * np.pi**2 - 1e-3
        assert f.fhat2_sup() == pytest.approx(8 * np.pi**2, rel=1e-12)

    @pytest.mark.parametrize("degree", range(5))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_grid_estimate_below_bound(self, instance, degree, request):
        pair = request.getfixturevalue(instance.lower())
        rng = np.random.default_rng([degree, len(instance), 23])
        for _ in range(2):
            f = seeded_function(pair, rng, degree)
            assert einsum_grid_sup(f)[0] <= f.fhat2_sup() * (1 + 1e-12)

    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_bound_exact_for_single_gaussian(self, instance, request):
        # a diagonal entry has |u(e)| = 1 and a Gaussian peaks at xi = 0, so
        # the oracle, given k = e, reaches the bound there
        pair = request.getfixturevalue(instance.lower())
        lab = pair.K.irrep_labels(2)[-1]
        row = pair.K.irrep_dim(lab) - 1
        g = PolyGaussian.gaussian(pair.dim_p, 0.8)
        f = TestFunction(pair, [Term(0.6 - 0.3j, MatrixCoefficient(lab, row, row), g)])
        est = einsum_grid_sup(f, extra_k=[pair.K.identity()])[0]
        assert est == pytest.approx(f.fhat2_sup(), rel=1e-12)

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
