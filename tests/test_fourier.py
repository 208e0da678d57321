import dataclasses
import math
import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from motionfields import (
    EmptyBasis,
    MatrixCoefficient,
    PolyGaussian,
    Term,
    TestFunction,
    check_h_to_zero,
    hs_norm,
    make_dual_point,
    operator_norm,
    peter_weyl_basis,
    pi_matrix,
    pi_mu0_matrix,
    sample_field,
    stabilizer,
    tau_matrix,
    transport_label,
)
from motionfields import VerificationPlan, run_verification
from motionfields import fourier, groups, induction
from motionfields.cli import load_scenario
from motionfields.errors import NonFiniteEntries
from motionfields.induction import PeterWeylBasis, k_type_basis, window_basis
from motionfields.groups import CompactGroup
from motionfields.pairs import SymmetricPairDescriptor
import pointwise as pw
from pointwise import signed_permutation
from quadrature import coefficient_sums, pi_entries, proven_order, quadrature, refuse_node_rules
from test_induction import node_table


def gauss_term(pair, label, row=0, col=0, coeff=1.0, sigma=1.0):
    return Term(coeff, MatrixCoefficient(label, row, col),
                PolyGaussian.gaussian(pair.dim_p, sigma))


def partial_fourier(f, k, xi):
    """f-hat in the flat variable at one element k: the sum of c u(k) g-hat(xi)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    u = pw.u_table(f, pw.params_of(f.pair.K, [k]))[:, 0]
    out = sum(t.coeff * ut * t.g.fourier(xi) for t, ut in zip(f.terms, u))
    return out if out.size > 1 else complex(out[0])


def brute_pi_matrix(f, pair, basis, H, order):
    """Independent oracle: the naive K x K double quadrature."""
    rule = quadrature(pair.K, order)
    Psi = node_table(basis, rule)
    w, nodes = rule.weights, rule.nodes
    Hp = pair.embed_a(H)
    N = basis.size
    M = np.zeros((N, N), dtype=complex)
    for a in range(len(w)):
        xi = pw.adjoint(pair, nodes[a], Hp)
        for b in range(len(w)):
            fh = partial_fourier(
                f, pw.compose(pair.K, nodes[a], pw.inverse(pair.K, nodes[b])), xi
            )
            M += w[a] * w[b] * fh * np.einsum(
                "ia,ja->ij", np.conj(Psi[:, a, :]), Psi[:, b, :]
            )
    return M


def placed(pair, T):
    """A sampled operator's window matrix at its rows and columns in the basis
    cut at its ``lambda_max``, matched by block index."""
    full = peter_weyl_basis(pair, T.point.label, T.point.H, T.lambda_max)
    at = [full.block_index.index(b) for b in T.block_index]
    M = np.zeros((full.size, full.size), dtype=complex)
    M[np.ix_(at, at)] = T.matrix
    return M


def l1_norm_estimate(f):
    """Quadrature estimate of the group L^1 norm (40 Gauss-Hermite nodes per flat axis)."""
    pair = f.pair
    rule = quadrature(pair.K, 2 * f.bandlimit + 6)
    smax = max(t.g.sigma for t in f.terms)
    x, w = np.polynomial.hermite_e.hermegauss(40)
    x, w = x * smax, w * smax  # weight e^{-x^2/(2 smax^2)} dx
    X = np.stack([a.ravel() for a in np.meshgrid(*([x] * pair.dim_p), indexing="ij")], axis=-1)
    W = np.prod([a.ravel() for a in np.meshgrid(*([w] * pair.dim_p), indexing="ij")], axis=0)
    comp = np.exp(np.sum(X * X, axis=1) / (2.0 * smax**2))
    cu = np.array([t.coeff for t in f.terms]) * pw.u_table(f, rule.params).T  # (n_k, terms)
    gvals = np.array([pw.g_value(t.g, X) for t in f.terms])  # (terms, n_X)
    return sum(wk * float(np.abs(row @ gvals) @ (W * comp)) for wk, row in zip(rule.weights, cu))


def table_tau_matrix(f, pair, lam, order):
    """Reference K-dual entry: the full-node-table contraction per term."""
    rule = quadrature(pair.K, order)
    tab = pw.irrep_table(pair.K, lam, rule.params)
    zero = np.zeros((1, pair.dim_p))
    M = np.zeros(tab.shape[1:], dtype=complex)
    for term in f.terms:
        uvals = pw.irrep_table(pair.K, term.u.label, rule.params)[:, term.u.row, term.u.col]
        ghat0 = complex(term.g.fourier(zero)[0])
        M += term.coeff * ghat0 * np.einsum("n,nab->ab", rule.weights * uvals, tab)
    return M


def coefficient_sum_tau(f, pair, lam, order):
    """The K-dual entry from ``coefficient_sums`` at any order, aliasing included."""
    rule = quadrature(pair.K, order)
    ones = np.ones(len(rule))
    sums = coefficient_sums(pair.K, rule, [lam], [(ones, t.u.label, t.u.row) for t in f.terms])
    zero = np.zeros((1, pair.dim_p))
    return sum(
        t.coeff * complex(t.g.fourier(zero)[0]) * S[t.u.col] for t, (S,) in zip(f.terms, sums)
    )


def kernel(f, pair, mu, H, h, k):
    """The stabilizer-averaged kernel at (h, k): a d_mu x d_mu matrix.

    For a trivial stabilizer the average collapses to the scalar
    fhat2(h k^{-1}, Ad(h) H) times the identity.
    """
    H = tuple(float(c) for c in np.atleast_1d(H))
    stab = stabilizer(pair, H)
    band = f.bandlimit + stab.group.char_band(mu)
    rule = quadrature(stab.group, 2 * band + 4)
    xi = pw.adjoint(pair, h, pair.embed_a(H))
    k_inv = pw.inverse(pair.K, k)
    d = stab.group.irrep_dim(mu)
    out = np.zeros((d, d), dtype=complex)
    for w, s in zip(rule.weights, rule.nodes):
        elt = pw.compose(pair.K, h, pw.compose(pair.K, pw.embed(pair.K, stab.group, s), k_inv))
        out += w * complex(partial_fourier(f, elt, xi)) * pw.irrep_matrix(stab.group, mu, s)
    return out


class TestKernel:
    def test_trivial_stabilizer_collapse(self, m2, rng):
        f = TestFunction(m2, [gauss_term(m2, 2), gauss_term(m2, -1, sigma=0.8)])
        H = (1.2,)
        for _ in range(5):
            h, k = pw.random(m2.K, rng), pw.random(m2.K, rng)
            got = kernel(f, m2, 0, H, h, k)
            xi = pw.adjoint(m2, h, m2.embed_a(H))
            expect = partial_fourier(f, pw.compose(m2.K, h, pw.inverse(m2.K, k)), xi)
            assert got.shape == (1, 1)
            assert got[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_operator_norm_bound(self, m3, rng):
        # the averaged kernel never exceeds the sup of the partial transform
        f = TestFunction(m3, [gauss_term(m3, 2, 1, 3), gauss_term(m3, 1, 0, 0, 0.5)])
        sup = f.fhat2_sup()
        for _ in range(40):
            h, k = pw.random(m3.K, rng), pw.random(m3.K, rng)
            mu = int(rng.integers(-3, 4))
            H = (float(rng.uniform(0.1, 2.0)),)
            val = operator_norm(kernel(f, m3, mu, H, h, k))
            assert val <= sup + 1e-9

    def test_vanishes_beyond_bandlimit(self, m3, rng):
        f = TestFunction(m3, [gauss_term(m3, 2, 0, 1)])
        for mu in (3, 4, -3):
            h, k = pw.random(m3.K, rng), pw.random(m3.K, rng)
            assert operator_norm(kernel(f, m3, mu, (1.0,), h, k)) < 1e-12


class TestPiMatrix:
    def test_m2_against_double_quadrature(self, m2):
        f = TestFunction(
            m2,
            [
                Term(1.0 + 0.5j, MatrixCoefficient(2), PolyGaussian.gaussian(2, 1.0)),
                Term(0.3, MatrixCoefficient(-1), PolyGaussian(2, 0.8, {(1, 0): 1.0})),
            ],
        )
        op = pi_matrix(f, m2, 0, (1.3,), 3)
        # the oracle takes the order exact on the whole basis, where the
        # rows |m| = 3, beyond the window |m| <= 2, are zero
        oracle = brute_pi_matrix(f, m2, op.basis, (1.3,), proven_order(f, 3))
        assert np.abs(op.matrix - oracle).max() < 1e-12

    def test_m3_against_double_quadrature(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 1, 0, 2)])
        op = pi_matrix(f, m3, 0, (0.8,), 1)
        oracle = brute_pi_matrix(f, m3, op.basis, (0.8,), 6)
        assert np.abs(op.matrix - oracle).max() < 1e-10

    def test_m2_mode_structure(self, m2):
        # u = e^{2 i theta} with radial flat factor: the operator picks the
        # single covariant vector e^{2 i theta} and scales it by ghat(|H|)
        f = TestFunction(m2, [gauss_term(m2, 2)])
        op = pi_matrix(f, m2, 0, (1.3,), 3)
        idx = {bi[0]: i for i, bi in enumerate(op.block_index)}
        expect = np.zeros_like(op.matrix)
        expect[idx[-2], idx[-2]] = 2 * np.pi * np.exp(-(1.3**2) / 2)
        assert np.abs(op.matrix - expect).max() < 1e-12

    def test_hermitian_for_star_invariant(self, m2, m3):
        g = PolyGaussian.gaussian(2, 1.0)
        f = TestFunction(m2, [Term(0.7, MatrixCoefficient(2), g),
                              Term(-0.3, MatrixCoefficient(-1), g)])
        assert f.star().terms[0].coeff == pytest.approx(0.7)
        op = pi_matrix(f, m2, 0, (1.0,), 3)
        assert np.abs(op.matrix - op.matrix.conj().T).max() < 1e-9
        g3 = PolyGaussian.gaussian(3, 1.0)
        f3 = TestFunction(m3, [Term(0.5, MatrixCoefficient(2, 1, 1), g3)])
        op3 = pi_matrix(f3, m3, 1, (1.0,), 3)
        assert np.abs(op3.matrix - op3.matrix.conj().T).max() < 1e-9

    def test_star_compatibility(self, m2):
        f = TestFunction(
            m2,
            [
                Term(0.7 + 0.2j, MatrixCoefficient(2), PolyGaussian.gaussian(2, 1.0)),
                Term(0.4 - 0.1j, MatrixCoefficient(-1), PolyGaussian.radial_poly(2, 0.9, [1.0, 0.5])),
            ],
        )
        op = pi_matrix(f, m2, 0, (1.1,), 4)
        ops = pi_matrix(f.star(), m2, 0, (1.1,), 4)
        assert np.abs(ops.matrix - op.matrix.conj().T).max() < 1e-9

    def test_hs_bound(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 2, 1, 3), gauss_term(m3, 1, 0, 0, 0.5, 0.8)])
        sup = f.fhat2_sup()
        for mu in (0, 1, 2):
            op = pi_matrix(f, m3, mu, (1.0,), 5)
            assert hs_norm(op) ** 2 <= 1 * sup**2 * (1 + 1e-6)

    def test_empty_basis_propagates(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 1)])
        with pytest.raises(EmptyBasis):
            pi_matrix(f, m3, 6, (1.0,), 3)

    def test_refinement_stability(self, m3):
        # bandlimited data: the retained block is unchanged under refinement
        f = TestFunction(m3, [gauss_term(m3, 2, 0, 1)])
        lam_max = 4
        op = pi_matrix(f, m3, 1, (1.0,), lam_max)
        basis2 = peter_weyl_basis(m3, 1, (1.0,), lam_max + 2)
        rule = quadrature(m3.K, proven_order(f, lam_max) + 4)
        op2 = pi_entries(f, m3, basis2, (1.0,), rule)
        keep = [i for i, b in enumerate(basis2.block_index) if b[0] <= lam_max]
        sub = op2[np.ix_(keep, keep)]
        assert np.abs(sub - op.matrix).max() < 1e-8

    def test_weyl_translate_singular_values(self, m3, m2xm2, rng):
        f3 = TestFunction(m3, [gauss_term(m3, 2, 1, 0), gauss_term(m3, 1, 0, 0, 0.4)])
        for _ in range(5):
            mu = int(rng.integers(-2, 3))
            H = (float(rng.uniform(0.3, 2.0)),)
            w = m3.weyl_group[1]
            op1 = pi_matrix(f3, m3, mu, H, 4)
            op2 = pi_matrix(f3, m3, transport_label(m3, w, H, mu), w.apply(H), 4)
            s1 = np.linalg.svd(op1.matrix, compute_uv=False)
            s2 = np.linalg.svd(op2.matrix, compute_uv=False)
            assert np.abs(s1 - s2).max() < 1e-8


class TestFactorisedEntries:
    """Factorised entries against the naive K x K double quadrature.

    The M3 cases take the oracle's entry sums (``quadrature.pi_entries``)
    at order 4, below the proven order, so the A sums alias on purpose:
    splitting u(h k^-1) into A and B must reproduce the product rule
    itself, not only the exact integral.  The closed-form operators are
    checked against the oracle at exact orders elsewhere; here on M2xM2.
    """

    @staticmethod
    def m3_function(m3):
        return TestFunction(
            m3,
            [
                Term(1.0, MatrixCoefficient(2, 0, 3),
                     PolyGaussian(3, 0.9, {(1, 0, 0): 1.0, (0, 1, 2): 0.5j})),
                Term(0.4 - 0.2j, MatrixCoefficient(1, 2, 1), PolyGaussian.gaussian(3, 1.1)),
            ],
        )

    @staticmethod
    def assert_matches(M, oracle):
        assert np.abs(oracle).max() > 1e-3  # the comparison is not vacuous
        assert np.abs(M - oracle).max() <= 1e-10

    @pytest.mark.parametrize("mu", [0, 1, -2])
    def test_m3_non_radial_regular_points(self, m3, mu):
        f = self.m3_function(m3)
        H = (0.9,)
        basis = peter_weyl_basis(m3, mu, H, 2)
        M = pi_entries(f, m3, basis, H, quadrature(m3.K, 4))
        self.assert_matches(M, brute_pi_matrix(f, m3, basis, H, 4))

    def test_m3_so3_stabilizer(self, m3):
        # mu = 1 at H = 0: the stabilizer is SO(3) itself and d_rho = 3
        f = self.m3_function(m3)
        basis = peter_weyl_basis(m3, 1, (0.0,), 2)
        assert basis.d_rho == 3
        M = pi_entries(f, m3, basis, (0.0,), quadrature(m3.K, 4))
        self.assert_matches(M, brute_pi_matrix(f, m3, basis, (0.0,), 4))

    def test_m2xm2_wall_point(self, m2xm2):
        # the closed form against the double sum at an order exact on the basis
        f = TestFunction(
            m2xm2,
            [
                Term(1.0, MatrixCoefficient((-1, 1)),
                     PolyGaussian(4, 0.9, {(1, 0, 0, 0): 1.0, (0, 0, 1, 1): 0.5j})),
                Term(0.4, MatrixCoefficient((0, 1)), PolyGaussian.gaussian(4, 1.0)),
            ],
        )
        H = (0.0, 0.7)
        op = pi_matrix(f, m2xm2, (1, 0), H, 2)
        self.assert_matches(op.matrix, brute_pi_matrix(f, m2xm2, op.basis, H, proven_order(f, 2)))

    @staticmethod
    def z10_function(m3, label):
        flat = PolyGaussian(3, 1.0, {(0, 0, 10): 1.0})
        return TestFunction(m3, [Term(1.0, MatrixCoefficient(label), flat)])

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("lam_max", [2, 5])
    def test_default_order_exact_on_high_degree_flat_factor(self, m3, label, lam_max):
        # z^10 expands into D^J of J <= 10; the closed form equals a rule
        # 4 orders above the exact one, label + 10 + lam_max + 1
        f = self.z10_function(m3, label)
        op = pi_matrix(f, m3, 0, (1.0,), lam_max)
        assert proven_order(f, lam_max) == label + 10 + lam_max + 1
        fine = pi_entries(f, m3, op.basis, (1.0,), quadrature(m3.K, proven_order(f, lam_max) + 4))
        assert np.abs(op.matrix - fine).max() <= 1e-12 * np.abs(fine).max()


def random_function(pair, rng, max_label=3, max_degree=4, min_degree=0):
    """A seeded test function: 1-3 terms, labels of band <= ``max_label``,
    non-radial flat factors of degree in [``min_degree``, ``max_degree``]."""
    dim, K = pair.dim_p, pair.K
    labels = K.irrep_labels(max_label)
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        lab = labels[int(rng.integers(len(labels)))]
        d = K.irrep_dim(lab)
        deg = int(rng.integers(min_degree, max_degree + 1))
        top = tuple(rng.multinomial(deg, [1 / dim] * dim))
        poly = {top: complex(*rng.normal(size=2))}
        for _ in range(int(rng.integers(0, 3))):
            alpha = tuple(rng.multinomial(int(rng.integers(0, deg + 1)), [1 / dim] * dim))
            poly[alpha] = poly.get(alpha, 0) + complex(*rng.normal(size=2))
        flat = PolyGaussian(dim, float(rng.uniform(0.7, 1.2)), poly)
        u = MatrixCoefficient(lab, int(rng.integers(d)), int(rng.integers(d)))
        terms.append(Term(complex(*rng.normal(size=2)), u, flat))
    return TestFunction(pair, terms)


class TestProvenOrder:
    """Closed-form entries are those of a rule 8 orders finer than the proven order.

    K-dual entries, a closed form, are checked against the node-table sums
    of that finer rule.

    The reference order is derived here, independently of ``proven_order``:
    band(u) + deg q + band(lambda) is the band of an entry integrand, and a
    rule of order band + 1 integrates it exactly on every K.  The corner
    cases (labels 0, degree 4, lambda_max 0) are where an order blind to
    deg q is lowest.
    """

    POINTS = {
        "M2": [(1.1,), (0.0,)],
        "M3": [(0.9,), (0.0,)],
        "M2xM2": [(0.8, 1.3), (0.0, 0.9), (0.7, 0.0), (0.0, 0.0)],
    }

    @staticmethod
    def band(f, lam_band, orbit=True):
        K = f.pair.K
        return lam_band + max(
            K.char_band(t.u.label) + (max(map(sum, t.g.poly)) if orbit else 0)
            for t in f.terms
        )

    @staticmethod
    def assert_equal_entries(M, fine):
        scale = np.abs(fine).max()
        if scale > 1e-10:  # all-zero operators carry no evidence
            assert np.abs(M - fine).max() <= 1e-12 * scale

    def check(self, pair, f, lam_max, rng):
        K = pair.K
        for H in self.POINTS[pair.name]:
            labels = stabilizer(pair, H).group.irrep_labels(lam_max)
            mu = labels[int(rng.integers(len(labels)))]
            op = pi_matrix(f, pair, mu, H, lam_max)
            lam_band = max(K.char_band(lam) for lam, _ in op.basis.blocks)
            ref = self.band(f, lam_band) + 9
            fine = pi_entries(f, pair, op.basis, H, quadrature(K, ref))
            self.assert_equal_entries(op.matrix, fine)
        for lam in K.irrep_labels(lam_max):
            op = tau_matrix(f, pair, lam)
            ref = self.band(f, K.char_band(lam), orbit=False) + 9
            self.assert_equal_entries(op.matrix, table_tau_matrix(f, pair, lam, ref))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_random_functions(self, instance, seed, request):
        pair = request.getfixturevalue(instance.lower())
        rng = np.random.default_rng([seed, len(instance)])
        f = random_function(pair, rng)
        self.check(pair, f, int(rng.integers(0, 5)), rng)

    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_degree_four_corner(self, instance, request):
        pair = request.getfixturevalue(instance.lower())
        dim = pair.dim_p
        label = pair.K.irrep_labels(0)[0]
        poly = {(4,) + (0,) * (dim - 1): 1.0, (1,) * 2 + (0,) * (dim - 2): 0.5j}
        f = TestFunction(pair, [Term(1.0, MatrixCoefficient(label), PolyGaussian(dim, 1.0, poly))])
        self.check(pair, f, 0, np.random.default_rng(0))


class TestClosedFormB:
    """Induced entries against both factors of every entry by quadrature.

    The reference rule is the proven order of the basis.
    """

    POINTS = {  # regular, wall and near-zero points
        "M2": [(1.1,), (0.0,), (1e-7,)],
        "M3": [(0.9,), (0.0,), (1e-7,)],
        "M2xM2": [(0.8, 1.3), (0.0, 0.9), (0.7, 0.0), (0.0, 0.0), (1e-7, 2e-7)],
    }

    def check(self, pair, f, rng, lam_max, so3_at_zero=False):
        """Compare at every point."""
        pairs = []
        for H in self.POINTS[pair.name]:
            labels = stabilizer(pair, H).group.irrep_labels(1)
            mu = labels[int(rng.integers(len(labels)))]
            so3 = so3_at_zero and pair.name == "M3" and H == (0.0,)
            if so3:
                mu = 1  # the stabilizer is SO(3) itself and d_rho = 3
            op = pi_matrix(f, pair, mu, H, lam_max)
            assert not so3 or op.basis.d_rho == 3
            bands = [pair.K.char_band(lam) for lam, _ in op.basis.blocks]
            rule = quadrature(pair.K, proven_order(f, max(bands)))
            pairs.append((op.matrix, pi_entries(f, pair, op.basis, H, rule)))
        # the closed form is exactly zero where quadrature leaves rounding
        # noise, so the scale is the largest entry over all points
        scale = max(np.abs(ref).max() for _, ref in pairs)
        assert scale > 1e-3  # the comparison is not vacuous
        for M, ref in pairs:
            assert np.abs(M - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_random_functions(self, instance, seed, request):
        pair = request.getfixturevalue(instance.lower())
        rng = np.random.default_rng([seed, len(instance), 7])
        f = random_function(pair, rng)
        # lam_max covers the term labels (band <= 3), whose contragredients
        # then sit in the basis when mu is small
        self.check(pair, f, rng, int(rng.integers(3, 5)))

    @pytest.mark.parametrize("kind", ["gaussian", "mixed"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_gaussian_and_mixed_degree_functions(self, instance, seed, kind, request):
        # Gaussian terms alone, or sharing the matrix with terms of degree
        # >= 1 on the same matrix coefficients, which are then live at the
        # same points
        pair = request.getfixturevalue(instance.lower())
        rng = np.random.default_rng([seed, len(instance), 13])
        f = random_function(pair, rng, max_degree=0)
        if kind == "mixed":
            rough = random_function(pair, rng, min_degree=1)
            f = f + TestFunction(pair, [Term(t.coeff, s.u, t.g) for s, t in zip(f.terms, rough.terms)])
        assert any(t.g.max_degree() for t in f.terms) == (kind == "mixed")
        self.check(pair, f, rng, int(rng.integers(3, 5)), so3_at_zero=True)


class TestClosedFormOracle:
    """Closed-form operators against the test-side quadrature route.

    Every flat factor of a function has one degree d in 0-4, and every
    operator is compared at regular and wall points (the zero point
    included) with ``quadrature.pi_entries`` at the proven order of its
    basis.  lambda_max is W + 1, so the rows beyond the window, exact
    zeros of the closed form, are compared with the oracle's too.
    """

    POINTS = {
        "M2": [(1.3,), (-0.8,), (0.0,)],
        "M3": [(0.9,), (2.1,), (0.0,)],
        "M2xM2": [(0.8, 1.3), (0.0, 0.9), (0.7, 0.0), (0.0, 0.0)],
    }

    @pytest.mark.parametrize("degree", range(5))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_matches_quadrature_route(self, instance, degree, request):
        pair = request.getfixturevalue(instance.lower())
        K = pair.K
        rng = np.random.default_rng([degree, len(instance), 31])
        f = random_function(pair, rng, max_label=2, min_degree=degree, max_degree=degree)
        lam_max = f.window + 1
        rule = quadrature(K, proven_order(f, lam_max))
        pairs, beyond = [], 0
        for H in self.POINTS[instance]:
            for mu in stabilizer(pair, H).group.irrep_labels(1):
                op = pi_matrix(f, pair, mu, H, lam_max)
                outside = [K.char_band(b[0]) > f.window for b in op.basis.block_index]
                assert not op.matrix[outside].any()
                beyond += sum(outside)
                pairs.append((op.matrix, pi_entries(f, pair, op.basis, H, rule)))
        scale = max(np.abs(ref).max() for _, ref in pairs)
        assert scale > 1e-3 and beyond  # the comparison is not vacuous
        for M, ref in pairs:
            assert np.abs(M - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
def test_degree_one_families_sum_gaunt_bands_without_tensordot(instance, request, monkeypatch):
    # the degree >= 1 entries add each key's Gaunt band at its indices and
    # read B off the contragredient's units: with tensordot refused in
    # fourier's numpy, families at regular points, on walls and at the zero
    # point equal the quadrature route, and every SO(3) band formed holds
    # at most 2 min(ell, lam) + 1 entries
    pair = request.getfixturevalue(instance.lower())
    K = pair.K
    f = random_function(pair, np.random.default_rng([len(instance), 41]), max_label=2,
                        min_degree=1, max_degree=3)
    lam_max = f.window + 1
    rule = quadrature(K, proven_order(f, lam_max))
    families = {  # points sharing a stabilizer, hence a basis
        "M2": [[(1.3,), (0.4,)], [(0.0,)]],
        "M3": [[(0.9,), (2.1,)], [(0.0,)]],
        "M2xM2": [[(0.8, 1.3), (1.1, 0.5)], [(0.0, 0.9)], [(0.7, 0.0)], [(0.0, 0.0)]],
    }[instance]
    refs = [(Hs, mu, [pi_entries(f, pair, basis, H, rule) for H in Hs], basis)
            for Hs in families for mu in stabilizer(pair, Hs[0]).group.irrep_labels(1)
            for basis in [peter_weyl_basis(pair, mu, Hs[0], lam_max)]]

    def refuse(*args, **kwargs):
        raise AssertionError("tensordot called")

    no_tensordot = types.SimpleNamespace(**{k: getattr(np, k) for k in dir(np) if k != "tensordot"})
    no_tensordot.tensordot = refuse
    monkeypatch.setattr(fourier, "np", no_tensordot)
    monkeypatch.setattr(groups, "_GAUNT", {})
    got = [pw.dense_family(basis, fourier.pi_family(f, pair, basis, Hs)) for Hs, _, _, basis in refs]
    scale = max(np.abs(ref).max() for _, _, stack, _ in refs for ref in stack)
    assert scale > 1e-3  # the comparison is not vacuous
    for M, (Hs, mu, stack, _) in zip(got, refs):
        for m, ref in zip(M, stack):
            assert np.abs(m - ref).max() <= 1e-12 * scale, (Hs, mu)
    assert groups._GAUNT
    for (name, _, label, _, lam), (r, v, b, values) in groups._GAUNT.items():
        assert len(r) == len(b) == len(values) and (values != 0).all()
        if name == "SO(3)":
            assert len(values) <= 2 * min(label, lam) + 1


def test_operators_allocate_with_their_support(m3):
    # tracemalloc sees numpy's buffers: an operator takes memory with the
    # entries it writes, not with its basis.  m3-default's function at
    # lambda_max 32 (N = 1,088, a dense matrix of 18.9 MB) and the degree-3
    # term of ROADMAP's recipe at L = 24 over nine points (N = 625, a dense
    # (9, 625, 625) stack of 56 MB) each peak far below their dense size
    config = load_scenario("m3-default")
    f = config.build_test_function(m3)
    tracemalloc.start()
    try:
        op = pi_matrix(f, m3, 1, (1.0,), 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.size == 1088 and op.op_norm > 0
    assert peak < 1e6, peak
    L = 24
    g = PolyGaussian(3, 1.0, {(1, 1, 1): 1.0, (3, 0, 0): 0.5, (0, 0, 0): 0.2})
    f = TestFunction(m3, [Term(1.0, MatrixCoefficient(L - 3, 0, 0), g)])
    grid = [make_dual_point(m3, 0, (0.3 + 0.25 * i,)) for i in range(9)]
    f.fhat2_sup()  # memoised: its grid search is not the operators' memory
    tracemalloc.start()
    try:
        sample = sample_field(f, m3, grid, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {T.size for T in sample.operators.values()} == {625}
    assert min(T.op_norm for T in sample.operators.values()) > 0
    assert peak < 4e6, peak


def test_src_builds_no_quadrature_rule():
    src = Path(fourier.__file__).parent
    text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
    for name in ("leggauss", "fft", "QuadratureRule", "proven_order", "quadrature("):
        assert name not in text


@pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
def test_k_dual_entries_build_no_quadrature_rule(instance, request, monkeypatch,
                                                 patch_everywhere):
    # a Gaussian flat factor is constant on the orbit, so induced entries are
    # closed forms too, at single points and over a sampled field, and the
    # basis copies drop out of them: no intertwiner is formed, and no Gaunt
    # scatter is reached
    pair = request.getfixturevalue(instance.lower())
    rng = np.random.default_rng([len(instance), 11])
    f = random_function(pair, rng, max_label=2, max_degree=0)  # ghat(0) != 0
    lams = pair.K.irrep_labels(2)
    refs = [table_tau_matrix(f, pair, lam, 6) for lam in lams]
    assert max(np.abs(r).max() for r in refs) > 1e-3
    mu = stabilizer(pair, (1.0,) * pair.rank).group.irrep_labels(0)[0]
    H = (0.9,) * pair.rank
    # the oracle's rules are built before the patch
    grid = [make_dual_point(pair, mu, H), make_dual_point(pair, mu, (0.4,) * pair.rank),
            make_dual_point(pair, lams[1], None)]

    def no_scatter(t, *args):
        raise AssertionError(f"Gaunt entries formed for the term {t}")

    def no_intertwiner(K, lam, stab, mu):
        raise AssertionError(f"intertwiner formed for K-type {lam}")

    assert not hasattr(CompactGroup, "quadrature")
    assert not hasattr(PeterWeylBasis, "intertwiners_of")
    refuse_node_rules(monkeypatch)
    monkeypatch.setattr(fourier, "_gaunt_entries", no_scatter)
    patch_everywhere(induction.intertwiners, no_intertwiner)
    for lam, ref in zip(lams, refs):
        op = tau_matrix(f, pair, lam)
        assert np.abs(op.matrix - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)
    op = pi_mu0_matrix(f, pair, mu, 2)
    assert np.abs(op.matrix).max() > 0
    op = pi_matrix(f, pair, mu, H, 2)
    assert np.abs(op.matrix).max() > 0
    sample = sample_field(f, pair, grid, 2)
    assert all(np.isfinite(sample.operators[p].op_norm) for p in grid)


@pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
def test_gaussian_entries_form_no_schur_tensor(instance, request, monkeypatch, patch_everywhere):
    # a Gaussian term adds its envelope at |H| times a rank-one block of the
    # contragredient: no Schur sum tensor (src has none), no Gaunt band, no
    # g-hat polynomial and no embedded xi, at single points or over a
    # sampled field
    pair = request.getfixturevalue(instance.lower())
    f = random_function(pair, np.random.default_rng([len(instance), 12]), max_label=2,
                        max_degree=0)
    mu = stabilizer(pair, (1.0,) * pair.rank).group.irrep_labels(0)[0]
    H = (0.9,) * pair.rank
    lam = pair.K.irrep_labels(2)[1]
    grid = [make_dual_point(pair, mu, H), make_dual_point(pair, mu, (0.4,) * pair.rank),
            make_dual_point(pair, lam, None)]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on a Gaussian-only path")
        return call

    assert not hasattr(CompactGroup, "schur_sum")
    for cls, attr in [(CompactGroup, "gaunt"), (PolyGaussian, "fourier"),
                      (SymmetricPairDescriptor, "embed_a")]:
        patch_everywhere(vars(cls)[attr], refuse(attr))  # any alias of the function
        monkeypatch.setattr(cls, attr, refuse(attr))
    assert np.abs(pi_matrix(f, pair, mu, H, 2).matrix).max() > 0
    assert np.abs(pi_mu0_matrix(f, pair, mu, 2).matrix).max() > 0
    tau_matrix(f, pair, lam)
    sample = sample_field(f, pair, grid, 2)
    assert all(np.isfinite(sample.operators[p].op_norm) for p in grid)


def dense_schur_blocks(terms, basis, r2):
    """The dense form of ``fourier._schur_blocks``: per term, the rank-one
    J[:, row] J[:, col]^H / d times coeff c_0 envelope, broadcast over the
    points and added to each copy of bar as a whole d x d block."""
    K, cols = basis.K, basis.columns
    M = np.zeros((len(r2), basis.size, basis.size), dtype=complex)
    for t in terms:
        bar, units = K.contragredient(t.u.label)
        if bar in cols:
            J = signed_permutation(units)
            c0, d = t.g._hat_poly[(0,) * t.g.dim], len(J)
            ghat = np.array([c0 * fourier._envelope(t.g, s) for s in r2])
            rank_one = J[:, t.u.row, None] * J[:, t.u.col].conj() / d
            block = (t.coeff * ghat)[:, None, None] * rank_one
            for i in range(cols[bar].start, cols[bar].stop, d):
                M[:, i : i + d, i : i + d] += block
    return M


class TestMatrixUnits:
    """``_schur_blocks`` writes one entry per copy: bit for bit the dense rank-one sum."""

    # (label, row, col, coeff, sigma, constant of g) per term: three terms
    # on one unit (accumulation order), one more on its bar, and a term of
    # band 3, whose bar lies above every basis here
    SHARED = [(0.7 - 0.2j, 0.8, 1.3), (-1.3 + 0.4j, 1.1, 0.6), (0.1 + 0.9j, 0.7, 0.3)]
    TERMS = {
        "M2": [(1, 0, 0, *c) for c in SHARED]
        + [(-1, 0, 0, 0.25j, 0.9, -0.7), (-2, 0, 0, -0.45, 1.2, 1.0), (3, 0, 0, 1.1, 1.0, 1.0)],
        "M3": [(2, 0, 1, *c) for c in SHARED]
        + [(2, 3, 3, 0.25j, 0.9, -0.7), (1, 2, 0, -0.45, 1.2, 1.0), (3, 1, 4, 1.1, 1.0, 1.0)],
        "M2xM2": [((1, -1), 0, 0, *c) for c in SHARED]
        + [((0, 2), 0, 0, 0.25j, 0.9, -0.7), ((3, 0), 0, 0, 1.1, 1.0, 1.0)],
    }

    def function(self, pair):
        dim = pair.dim_p
        return TestFunction(pair, [Term(c, MatrixCoefficient(lam, row, col),
                                        PolyGaussian(dim, sigma, {(0,) * dim: g0}))
                                   for lam, row, col, c, sigma, g0 in self.TERMS[pair.name]])

    @staticmethod
    def points(pair):
        # P = 4, H = 0 first
        return [pair.zero_point(), (0.5,) * pair.rank, (1.25, 0.75)[: pair.rank],
                (3.0,) * pair.rank]

    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_equals_the_dense_blocks_with_repeated_copies(self, instance, request):
        pair = request.getfixturevalue(instance.lower())
        f, K = self.function(pair), pair.K
        bars = {K.contragredient(t.u.label)[0] for t in f.terms}
        # a hand-made layout: two or three copies of each bar of band <= 2
        blocks = [(lam, 2 + (i % 2) if lam in bars else 1)
                  for i, lam in enumerate(K.irrep_labels(2))]
        basis = PeterWeylBasis(pair.name, None, 2, pair.M, K, blocks, 1)
        assert max(c for lam, c in blocks if lam in bars) >= 2
        r2 = [sum(h * h for h in H) for H in self.points(pair)]
        units, _ = fourier._schur_blocks(f.terms, basis, r2)
        M = np.zeros((len(r2), basis.size, basis.size), dtype=complex)
        for (i, j), values in units.items():
            M[:, i, j] = values
        ref = dense_schur_blocks(f.terms, basis, r2)
        assert M.shape == ref.shape == (4, basis.size, basis.size)
        assert np.count_nonzero(ref) > 0
        assert M.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_families_equal_the_dense_blocks(self, instance, request):
        # the Gaussian-only stack of pi_family, on an induced basis and on
        # the K-dual bases of the bars
        pair = request.getfixturevalue(instance.lower())
        f = self.function(pair)
        mu = stabilizer(pair, (1.0,) * pair.rank).group.irrep_labels(0)[0]
        Hs = self.points(pair)
        r2 = [sum(h * h for h in H) for H in Hs]
        bases = [peter_weyl_basis(pair, mu, (1.0,) * pair.rank, 2)]
        bases += [k_type_basis(pair, pair.K.contragredient(t.u.label)[0]) for t in f.terms]
        for basis in bases:
            M = pw.dense_family(basis, fourier.pi_family(f, pair, basis, Hs))
            assert M.tobytes() == dense_schur_blocks(f.terms, basis, r2).tobytes()

    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_a_gaussian_family_forms_no_array_but_the_stack(self, instance, request,
                                                            monkeypatch):
        # with the contragredients uncached and fourier's and groups' numpy
        # cut down to np.zeros, the Gaussian-only blocks of one and four
        # points (H = 0 among them) and their supports are byte for byte
        # those of the real run
        pair = request.getfixturevalue(instance.lower())
        f = self.function(pair)
        mu = stabilizer(pair, (1.0,) * pair.rank).group.irrep_labels(0)[0]
        bases = [peter_weyl_basis(pair, mu, (1.0,) * pair.rank, 2)]
        bases += [k_type_basis(pair, pair.K.contragredient(t.u.label)[0]) for t in f.terms]
        point_sets = [[pair.zero_point()], [(0.5,) * pair.rank], self.points(pair)]

        def stacks():
            return [(rows, cols, block.tobytes())
                    for basis in bases for Hs in point_sets
                    for rows, cols, block, _ in [fourier.pi_family(f, pair, basis, Hs)]]

        expect = stacks()
        monkeypatch.setattr(groups, "_CONTRAGREDIENT", {})
        zeros_only = types.SimpleNamespace(zeros=np.zeros)
        monkeypatch.setattr(fourier, "np", zeros_only)
        monkeypatch.setattr(groups, "np", zeros_only)
        assert stacks() == expect
        assert {(pair.K.name, t.u.label) for t in f.terms} <= set(groups._CONTRAGREDIENT)

    def test_envelope_is_the_closed_form(self):
        for dim, sigma in [(2, 0.8), (3, 1.1), (4, 0.5)]:
            g = PolyGaussian.gaussian(dim, sigma)
            for r2 in (0.0, 0.25, 1.5625, 36.0):
                expect = (2 * np.pi * sigma**2) ** (dim / 2) * np.exp(-sigma**2 * r2 / 2)
                assert fourier._envelope(g, r2) == pytest.approx(expect, rel=1e-15)
            assert fourier._envelope(g, 0.0) == (2 * np.pi * sigma**2) ** (dim / 2)


@pytest.mark.parametrize("Hs", [[(0.5, 1.0)], [(0.5,), ()]], ids=["long", "short"])
def test_a_family_refuses_points_of_another_rank(m3, Hs):
    # M3 has rank 1: a point with two coordinates is not two points
    f = TestFunction(m3, [gauss_term(m3, 1)])
    with pytest.raises(ValueError, match="not all of rank 1"):
        fourier.pi_family(f, m3, peter_weyl_basis(m3, 0, (1.0,), 2), Hs)


def test_a_family_forms_no_intertwiner(m2, m3, m2xm2, monkeypatch, patch_everywhere):
    # degree 1-3 families on all three instances, at regular points, walls
    # and the zero point: each copy is the positions it selects, so no
    # intertwiner is formed, and a family writes only its nonzeros (at H =
    # 0 only the Gaunt keys of degree 0 are left, and the rest is not
    # walked, so there too every entry written is nonzero); its support is
    # the rows and columns of the entries written, which the dense stack's
    # nonzero rows and columns (pw.on_support) match
    def no_intertwiner(K, lam, stab, mu):
        raise AssertionError(f"intertwiner formed for K-type {lam}")

    patch_everywhere(induction.intertwiners, no_intertwiner)
    written, at_zero, scatter = [], [], fourier._gaunt_entries  # (i, j) per entry written

    def recorded(*args):
        i, j, values = scatter(*args)
        written.extend(zip(i.tolist(), j.tolist()))
        at_zero.extend(values[-1].tolist())  # the values at the family's last point
        return i, j, values

    monkeypatch.setattr(fourier, "_gaunt_entries", recorded)
    walls = {"M2xM2": [(0.0, 1.3), (0.7, 0.0)]}
    for pair in (m2, m3, m2xm2):
        rng = np.random.default_rng([len(pair.name), 13])
        f = random_function(pair, rng, max_label=2, max_degree=3, min_degree=1)
        const = (0,) * pair.dim_p  # so that the zero point's entries are not all 0
        f = TestFunction(pair, [Term(t.coeff, t.u, PolyGaussian(t.g.dim, t.g.sigma,
                                                                {**t.g.poly, const: 0.5}))
                                for t in f.terms])
        families = [(window_basis(pair, mu, H, 4, f.window), [H, tuple(2 * h for h in H),
                                                               pair.zero_point()])
                    for H in [(0.8,) * pair.rank] + walls.get(pair.name, [])
                    for mu in stabilizer(pair, H).group.irrep_labels(1)]
        families += [(basis, [pair.zero_point()]) for basis, _ in families]
        families += [(k_type_basis(pair, lam), [pair.zero_point()])
                     for lam in pair.K.irrep_labels(2)]
        nonzero = zero = 0
        for basis, Hs in families:
            del written[:], at_zero[:]
            rows, cols, block, _ = fourier.pi_family(f, pair, basis, Hs)
            at = {(rows[r], cols[c]) for r, c in zip(*np.nonzero(block.any(axis=0)))}
            assert at == set(written)
            assert (rows, cols) == tuple(tuple(sorted({x[n] for x in written})) for n in (0, 1))
            M = pw.dense_family(basis, (rows, cols, block, None))
            assert pw.on_support(M).tobytes() == block.tobytes()
            assert all(at_zero) or len(Hs) > 1  # a family at H = 0 alone writes no 0
            nonzero += len(at)
            zero += np.count_nonzero(block[-1])
        assert nonzero > 0 and zero > 0, pair.name
    # the degree-3 family of one term at lambda_max 24: 15 entries per point
    L = 24
    g = PolyGaussian(3, 1.0, {(1, 1, 1): 1.0, (3, 0, 0): 0.5, (0, 0, 0): 0.2})
    f = TestFunction(m3, [Term(1.0, MatrixCoefficient(L - 3, 0, 0), g)])
    del written[:]
    rows, cols, block, _ = fourier.pi_family(f, m3, peter_weyl_basis(m3, 0, (1.0,), L),
                                             [(0.3 + 0.25 * i,) for i in range(9)])
    assert len(written) == 15 and block.shape == (9, 15, 1)  # one column: its bar's copy
    assert [np.count_nonzero(m) for m in block] == [15] * 9
    # at H = 0 only the Gaunt key of degree 0 is left: one entry, at the
    # zero point and in the K-dual entry of the term's bar, not 15 and 4
    for basis in (peter_weyl_basis(m3, 0, (1.0,), L), k_type_basis(m3, L - 3)):
        del written[:], at_zero[:]
        rows, cols, block, _ = fourier.pi_family(f, m3, basis, [m3.zero_point()])
        assert len(written) == 1 and all(at_zero) and block.shape == (1, 1, 1) and block.all()
    # g = x_1: g-hat vanishes at 0, so no key is left and nothing is written
    f = TestFunction(m3, [Term(1.0, MatrixCoefficient(2), PolyGaussian(3, 1.0, {(1, 0, 0): 1.0}))])
    for basis in (peter_weyl_basis(m3, 0, (1.0,), 4), k_type_basis(m3, 2)):
        del written[:]
        rows, cols, block, _ = fourier.pi_family(f, m3, basis, [m3.zero_point()])
        assert not written and rows == cols == () and block.shape == (1, 0, 0)
    assert tau_matrix(f, m3, 2).op_norm == 0.0


def test_gaussian_entries_that_overflow_are_refused(m3):
    # a Gaussian-only family: 1e308 times the envelope overflows at every point
    f = TestFunction(m3, [gauss_term(m3, 0, coeff=1e308)])
    want = "entries of pi(f) at mu=0, H=(0.5,) overflow a float"
    with pytest.raises(NonFiniteEntries, match=re.escape(want)):
        pi_matrix(f, m3, 0, (0.5,), 2)


class TestTauMatrix:
    # terms differ in u label, row and column, and each lam pairs with one
    # (on the circle factors, with a label of opposite weight); the [3]
    # cases take the oracle's coefficient_sums at order 3, below the exact order, which
    # aliases on purpose: the entry sums taken with that rule must
    # reproduce the product rule itself
    TAU_CASES = [
        ("M2", [(2, 0, 0, 1.0), (-1, 0, 0, 0.3j), (0, 0, 0, 0.5)], [-2, 0, 1]),
        (
            "M3",
            [(0, 0, 0, 1.0), (1, 2, 0, 0.4 - 0.2j), (2, 0, 3, 0.7), (2, 4, 1, 0.2j),
             (5, 3, 8, 1.1), (5, 10, 0, -0.6)],
            [0, 1, 2, 5],
        ),
        ("M2xM2", [((1, 2), 0, 0, 1.0), ((0, -1), 0, 0, 0.5j), ((0, 0), 0, 0, 0.3)],
         [(-1, -2), (0, 1), (0, 0)]),
    ]

    @pytest.mark.parametrize("order", [None, 3])
    @pytest.mark.parametrize("instance, terms, lams", TAU_CASES)
    def test_matches_node_table_reference(self, instance, terms, lams, order, request):
        pair = request.getfixturevalue(instance.lower())
        dim = pair.dim_p
        g = PolyGaussian(dim, 0.9, {(0,) * dim: 1.0, (1,) + (0,) * (dim - 1): 0.5})
        f = TestFunction(
            pair, [Term(c, MatrixCoefficient(lab, row, col), g) for lab, row, col, c in terms]
        )
        for lam in lams:
            if order is None:
                # closed form against the table at an order exact for u tau_lam
                exact = 1 + pair.K.char_band(lam) + max(pair.K.char_band(t[0]) for t in terms)
                M, ref = tau_matrix(f, pair, lam).matrix, table_tau_matrix(f, pair, lam, exact)
            else:
                M, ref = coefficient_sum_tau(f, pair, lam, order), table_tau_matrix(f, pair, lam, order)
            scale = np.abs(ref).max()
            assert scale > 1e-3  # the comparison is not vacuous
            assert np.abs(M - ref).max() <= 1e-12 * scale

    def test_vanishes_beyond_bandlimit(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 2, 0, 1)])
        for lam in (3, 4, 5):
            assert operator_norm(tau_matrix(f, m3, lam)) < 1e-10

    def test_lambda_zero_is_mean(self, m2):
        f = TestFunction(m2, [gauss_term(m2, 0), gauss_term(m2, 2, coeff=0.4)])
        op = tau_matrix(f, m2, 0)
        # only the weight-0 term survives the K-average; ghat(0) = 2 pi
        assert op.matrix[0, 0] == pytest.approx(2 * np.pi, abs=1e-12)

    def test_l1_contraction(self, m2):
        f = TestFunction(m2, [gauss_term(m2, 1), gauss_term(m2, -2, coeff=0.5, sigma=0.7)])
        l1 = l1_norm_estimate(f)
        for lam in range(-3, 4):
            assert operator_norm(tau_matrix(f, m2, lam)) <= l1 * (1 + 1e-8)


class TestPiMu0:
    def test_blocks_mu0(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 1, 0, 0)])
        op = pi_mu0_matrix(f, m3, 0, 3)
        labels = sorted({b[0] for b in op.block_index})
        assert labels == [0, 1, 2, 3]
        # block-diagonality
        for i, bi in enumerate(op.block_index):
            for j, bj in enumerate(op.block_index):
                if bi[:2] != bj[:2]:
                    assert op.matrix[i, j] == 0

    def test_blocks_mu2(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 1, 0, 0)])
        op = pi_mu0_matrix(f, m3, 2, 4)
        assert sorted({b[0] for b in op.block_index}) == [2, 3, 4]

    POINTS = {  # regular, wall and zero points
        "M2": [(1.1,), (0.0,)],
        "M3": [(0.9,), (0.0,)],
        "M2xM2": [(0.8, 1.3), (0.0, 0.9), (0.7, 0.0), (0.0, 0.0)],
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_gaussian_terms_scale_the_zero_point_blocks(self, instance, seed, request):
        # a Gaussian g-hat is constant on the orbit, so each term of pi(f)
        # is g-hat(H) / g-hat(0) times its zero-point operator on the same
        # basis, at every H
        pair = request.getfixturevalue(instance.lower())
        rng = np.random.default_rng([seed, len(instance), 19])
        f = random_function(pair, rng, max_degree=0)
        lam_max = int(rng.integers(3, 5))
        zero = np.zeros((1, pair.dim_p))
        scale, d_rhos = 0.0, set()
        # every stabilizer label of band <= 1: on M3 at H = 0 the stabilizer
        # is SO(3) itself, and mu = 1 has d_rho = 3
        for H in self.POINTS[instance]:
            xi = pair.embed_a(H)[None]
            for mu in stabilizer(pair, H).group.irrep_labels(1):
                op = pi_matrix(f, pair, mu, H, lam_max)
                d_rhos.add(op.basis.d_rho)
                ref = sum(
                    complex(t.g.fourier(xi)[0] / t.g.fourier(zero)[0])
                    * pi_mu0_matrix(TestFunction(pair, [t]), pair, mu, lam_max, op.basis).matrix
                    for t in f.terms
                )
                assert np.abs(op.matrix - ref).max() <= 1e-13 * np.abs(op.matrix).max()
                scale = max(scale, np.abs(op.matrix).max())
        assert scale > 1e-3  # the comparison is not vacuous
        assert instance != "M3" or 3 in d_rhos

    def test_norm_is_max_block(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 1, 0, 0), gauss_term(m3, 2, 1, 1, 0.3)])
        op = pi_mu0_matrix(f, m3, 0, 4)
        blocks = [operator_norm(tau_matrix(f, m3, lam)) for lam in range(5)]
        assert operator_norm(op) == pytest.approx(max(blocks), abs=1e-12)


@st.composite
def monomial_stacks(draw):
    """(values, perm): P x n complex entry values, some zero, and a permutation of range(n)."""
    n, P = draw(st.integers(0, 7)), draw(st.integers(1, 5))
    part = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
    values = [complex(draw(part), draw(part)) for _ in range(n * P)]
    return np.array(values, dtype=complex).reshape(P, n), tuple(draw(st.permutations(range(n))))


class TestNorms:
    def test_identity(self, m3):
        T = pw.dense_operator(np.eye(3, dtype=complex), 1, k_type_basis(m3, 1))
        assert operator_norm(T) == pytest.approx(1.0)
        assert hs_norm(T) == pytest.approx(np.sqrt(3))

    def test_rank_one(self, rng):
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        M = np.outer(u, v.conj())
        expect = np.linalg.norm(u) * np.linalg.norm(v)
        assert operator_norm(M) == pytest.approx(expect)
        assert hs_norm(M) == pytest.approx(expect)

    def test_unitary_invariance(self, rng):
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        Q = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
        assert operator_norm(Q @ M @ Q.conj().T) == pytest.approx(
            operator_norm(M), abs=1e-12
        )
        assert hs_norm(Q @ M @ Q.conj().T) == pytest.approx(hs_norm(M), abs=1e-12)

    @settings(max_examples=200, deadline=None, database=None)
    @given(monomial_stacks())
    def test_monomial_rule_is_the_svd(self, stack):
        # a weighted partial permutation's singular values are the moduli of
        # its entries: the rule, read from the P lists of n entry values,
        # gives the SVD's norms for the (P, n, n) stack and for its
        # differences, which are those of the entry values
        values, perm = stack
        M = np.zeros((*values.shape, len(perm)), dtype=complex)
        M[:, np.arange(len(perm)), list(perm)] = values
        path = range(len(M))
        stacks = (M, *fourier.step_differences(M, path))
        for A, x in zip(stacks, (values.tolist(), *fourier.step_differences(values.tolist(), path))):
            assert list(map(list, fourier._entries(A, perm))) == x
            s = np.linalg.svd(A, compute_uv=False)
            for got, want in zip(fourier.stack_norms(x), (s.max(axis=1, initial=0.0),
                                                          np.linalg.norm(s, axis=1))):
                assert np.all(np.abs(np.array(got) - want) <= 1e-15 * want)

    @pytest.mark.parametrize("terms, shape", [
        # one degree-3 term writes 15 rows of one column
        ([(5, 0, {(1, 1, 1): 1.0, (3, 0, 0): 0.5, (0, 0, 0): 0.2})], (15, 1)),
        # two Gaussian units of one label share its row 0
        ([(1, 0, {(0, 0, 0): 1.0}), (1, 1, {(0, 0, 0): 0.5})], (1, 2)),
    ])
    def test_a_support_not_monomial_takes_the_svd(self, m3, monkeypatch, terms, shape):
        # both supports are rank one, so both norms are the entries' 2-norm
        f = TestFunction(m3, [Term(1.0, MatrixCoefficient(ell, 0, col), PolyGaussian(3, 1.0, poly))
                              for ell, col, poly in terms])
        T = pi_matrix(f, m3, 0, (0.7,), 8)
        assert T.perm is None and T.block.shape == shape
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **k: calls.append(a.shape) or svd(a, **k))
        assert (T.op_norm, T.hs_norm) == pytest.approx((np.linalg.norm(T.block),) * 2, rel=1e-15)
        assert calls == [(1, *shape)]


class TestJsonExport:
    def test_operator_round_trips_through_json(self, m2):
        import json

        f = TestFunction(m2, [gauss_term(m2, 2), gauss_term(m2, -1, sigma=0.8)])
        op = pi_matrix(f, m2, 0, (1.0,), 3)
        doc = json.loads(json.dumps(op.to_dict()))
        restored = np.array(
            [[complex(re, im) for re, im in row] for row in doc["matrix"]]
        )
        assert np.abs(restored - op.matrix).max() == 0.0
        assert doc["lambda_max"] == 3
        assert len(doc["block_index"]) == op.size

    def test_tuple_labels_serialize(self, m2xm2):
        f = TestFunction(m2xm2, [gauss_term(m2xm2, (1, 2))])
        op = tau_matrix(f, m2xm2, (1, 2))
        doc = op.to_dict()
        assert doc["block_index"][0][0] == [1, 2]


class TestSampleField:
    def test_totality(self, m2):
        f = TestFunction(m2, [gauss_term(m2, 2), gauss_term(m2, -1, sigma=0.8)])
        grid = [make_dual_point(m2, 0, (h,)) for h in (0.5, 1.0, 1.5, 2.0, 2.5)]
        sample = sample_field(f, m2, grid, 4)
        assert len(sample.operators) == 5
        for T in sample.operators.values():
            assert np.isfinite(operator_norm(T))

    def test_gamma2_entries_appended(self, m2):
        f = TestFunction(m2, [gauss_term(m2, 2)])
        grid = [make_dual_point(m2, 0, (1.0,))] + [
            make_dual_point(m2, m, None) for m in range(-2, 3)
        ]
        sample = sample_field(f, m2, grid, 3)
        g2 = [p for p in sample.grid if p.stratum == "gamma2"]
        assert len(g2) == 5
        assert all(sample.operators[p].matrix.shape == (1, 1) for p in g2)

    def test_pointwise_triangle_inequality(self, m2):
        f = TestFunction(m2, [gauss_term(m2, 2)])
        g = TestFunction(m2, [gauss_term(m2, -1, sigma=0.7)])
        grid = [make_dual_point(m2, 0, (h,)) for h in (0.5, 1.5)]
        s_f = sample_field(f, m2, grid, 3)
        s_g = sample_field(g, m2, grid, 3)
        s_fg = sample_field(f + g, m2, grid, 3)
        for p in grid:
            assert operator_norm(s_fg.operators[p]) <= (
                operator_norm(s_f.operators[p]) + operator_norm(s_g.operators[p]) + 1e-12
            )


class TestFamilies:
    """The field formed one (mu, stabilizer) family at a time.

    Each grid holds regular points and, on M2xM2, wall points, with several
    flat points per family and several families per stratum piece.
    """

    GRIDS = {
        "M2": [(0, (h,)) for h in (0.4, 0.9, 1.7)],
        "M3": [(mu, (h,)) for mu in (-1, 0, 2) for h in (0.5, 1.1, 1.6)],
        "M2xM2": [((0, 0), H) for H in ((0.5, 1.0), (1.2, 0.3), (0.8, 0.8))]
        + [((0, m), (a, 0.0)) for m in (-1, 2) for a in (0.6, 1.3)]
        + [((1, 0), (0.0, a)) for a in (0.7, 1.4)],
    }
    # (weights, H0) per ladder; the second M2xM2 ladder runs along a wall
    LADDERS = {
        "M2": [([0], (1.3,))],
        "M3": [([-1, 0, 2], (1.2,))],
        "M2xM2": [([(0, 0)], (0.9, 1.1)), ([(0, -1), (0, 2)], (1.1, 0.0))],
    }
    # continuity paths; the M2xM2 paths run in the chamber and along each wall
    PATHS = {
        "M2": [[(0.5 + 0.25 * i,) for i in range(5)]],
        "M3": [[(0.5 + 0.25 * i,) for i in range(5)]],
        "M2xM2": [[(0.5 + 0.25 * i, 1.0) for i in range(5)],
                  [(0.5 + 0.25 * i, 0.0) for i in range(5)],
                  [(0.0, 0.5 + 0.25 * i) for i in range(5)]],
    }
    LAM_MAX = 3

    @staticmethod
    def function(pair, kind, seed):
        """All-Gaussian terms, or those plus terms of degree 1-2 ("mixed") or of degree 3 ("cubic")."""
        rng = np.random.default_rng([seed, len(pair.name), 23])
        f = random_function(pair, rng, max_label=2, max_degree=0)
        if kind == "mixed":
            f = f + random_function(pair, rng, max_label=2, min_degree=1, max_degree=2)
        elif kind == "cubic":
            f = f + random_function(pair, rng, max_label=2, min_degree=3, max_degree=3)
        return f

    def sample(self, pair, f):
        grid = [make_dual_point(pair, mu, H) for mu, H in self.GRIDS[pair.name]]
        grid += [make_dual_point(pair, lam, None) for lam in pair.K.irrep_labels(1)]
        return sample_field(f, pair, grid, self.LAM_MAX)

    @pytest.mark.parametrize("kind", ["gaussian", "mixed"])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_sample_equals_one_point_operators(self, instance, seed, kind, request):
        pair = request.getfixturevalue(instance.lower())
        f = self.function(pair, kind, seed)
        sample = self.sample(pair, f)
        # a family beyond the mu cut-off holds an empty window matrix
        assert max(np.abs(T.matrix).max(initial=0.0) for T in sample.operators.values()) > 1e-3
        for p, T in sample.operators.items():
            if p.stratum == "gamma2":
                one, M = tau_matrix(f, pair, p.label), T.matrix
                assert T.block_index == one.block_index
            else:
                # the sample holds the window; the one-point operator is on
                # the basis cut at lambda_max, the window at its blocks
                cut = min(self.LAM_MAX, f.window)
                if not T.basis.blocks:  # no K-type of the window over mu
                    assert T.basis.size == 0 and T.matrix.shape == (0, 0)
                    with pytest.raises(EmptyBasis):
                        peter_weyl_basis(pair, p.label, p.H, cut)
                else:
                    assert T.basis is peter_weyl_basis(pair, p.label, p.H, cut)
                one = pi_matrix(f, pair, p.label, p.H, self.LAM_MAX)
                assert T.block_index == [
                    b for b in one.block_index if pair.K.char_band(b[0]) <= cut
                ]
                M = placed(pair, T)
            assert np.abs(M - one.matrix).max() <= 1e-13 * np.abs(one.matrix).max()

    @pytest.mark.parametrize("kind", ["gaussian", "mixed", "cubic"])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_recorded_norms_are_those_of_the_operators(self, instance, seed, kind, request):
        # every norm is taken on its family's support: those of the
        # operators, at regular points, walls and K-dual labels, of the
        # path's steps and of the ladder's deltas to the zero point are the
        # norms of the whole matrices
        pair = request.getfixturevalue(instance.lower())
        f = self.function(pair, kind, seed)
        sample = self.sample(pair, f)
        for T in sample.operators.values():
            assert T.op_norm == pytest.approx(operator_norm(T.matrix), rel=1e-12, abs=1e-14)
            assert T.hs_norm == pytest.approx(hs_norm(T.matrix), rel=1e-12, abs=1e-14)
            with pytest.raises(ValueError):  # read-only, so the norms cannot go stale
                T.matrix[0, 0] = 1.0
        ladders, levels = self.LADDERS[instance], 3
        bar = pair.K.contragredient(f.terms[0].u.label)[0]
        for n, Hs in enumerate(self.PATHS[instance]):
            # weight 0, which every K-type holds; on a wall, the first term's bar's
            mu = tuple(b if h == 0.0 else 0 for b, h in zip(bar, Hs[0])) if pair.rank > 1 else 0
            mus, H0 = ladders[n % len(ladders)]
            plan = VerificationPlan(self.LAM_MAX, list(sample.grid),
                                    [make_dual_point(pair, mu, H) for H in Hs], mus, H0, levels)
            out = sample_field(f, pair, plan, self.LAM_MAX)
            ops = [out["path"].operators[p].matrix for p in out["path"].grid]
            fine = [operator_norm(b - a) for a, b in zip(ops, ops[1:])]
            coarse = [operator_norm(b - a) for a, b in zip(ops[::2], ops[2::2])]
            assert max(fine) > 1e-3
            for got, want in zip(out["path"].steps, (fine, coarse)):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            for mu, deltas in out["h_ladder"]:
                zero = pi_mu0_matrix(f, pair, mu, self.LAM_MAX,
                                     basis=peter_weyl_basis(pair, mu, H0, self.LAM_MAX)).matrix
                want = [operator_norm(pi_matrix(f, pair, mu, tuple(c * 2.0 ** (-j) for c in H0),
                                                self.LAM_MAX).matrix - zero)
                        for j in range(levels + 1)]
                assert deltas == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_monomial_families_are_normed_in_one_call(self, monkeypatch):
        # m3-default's main grid: two induced families (9 x 9 and 8 x 8) and
        # two nonzero K-dual entries (3 x 3 and 5 x 5), each normed on its
        # support: the families' supports are 2 x 2 (a unit per term) and
        # the entries' 1 x 1, both monomial, so one stack_norms call takes
        # all their entry values, and no SVD is taken; the four zero
        # entries, of empty supports, add empty lists
        config = load_scenario("m3-default")
        pair = config.build_pair()
        f = config.build_test_function(pair)
        svds, stacks, svd, norms = [], [], np.linalg.svd, fourier.stack_norms
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
        monkeypatch.setattr(fourier, "stack_norms", lambda s: stacks.append(s) or norms(s))
        sample = sample_field(f, pair, config.plan.grid, config.plan.lambda_max)
        assert len(stacks) == 1 and not svds
        assert sorted({len(m) for m in stacks[0]}) == [0, 1, 2]
        assert sum(p.stratum == "gamma2" for p in sample.grid) == 6
        assert sum(T.op_norm == 0.0 for T in sample.operators.values()) == 4

    def test_degree_three_grid_is_normed_on_its_support(self, m3, monkeypatch):
        # nine points of one degree-3 term at lambda_max 16 (N = 289): each
        # operator has 15 nonzero rows, its bar copy's one column, so the
        # pass takes one SVD of (9, 15, 1), not of (9, 289, 289)
        L = 16
        g = PolyGaussian(3, 1.0, {(1, 1, 1): 1.0, (3, 0, 0): 0.5, (0, 0, 0): 0.2})
        f = TestFunction(m3, [Term(1.0, MatrixCoefficient(L - 3, 0, 0), g)])
        grid = [make_dual_point(m3, 0, (0.3 + 0.25 * i,)) for i in range(9)]
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **k: shapes.append(a.shape) or svd(a, **k))
        sample = sample_field(f, m3, grid, L)
        assert shapes and all(n <= 15 and m <= 1 for _, n, m in shapes), shapes
        monkeypatch.undo()
        for T in sample.operators.values():
            assert T.size == 289
            assert T.op_norm == pytest.approx(operator_norm(T.matrix), rel=1e-13)
            assert T.hs_norm == pytest.approx(hs_norm(T.matrix), rel=1e-13)

    @pytest.mark.parametrize("kind", ["gaussian", "mixed"])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_h_ladder_equals_rung_by_rung(self, instance, seed, kind, request):
        pair = request.getfixturevalue(instance.lower())
        f = self.function(pair, kind, seed)
        levels = 4
        for mus, H0 in self.LADDERS[instance]:
            report = check_h_to_zero(f, pair, mus, H0, levels, self.LAM_MAX)
            got = {(w["mu"], w["j"]): w["delta"] for w in report.witnesses}
            assert len(got) == len(mus) * (levels + 1)
            for mu in mus:
                basis = peter_weyl_basis(pair, mu, H0, self.LAM_MAX)
                ref = pi_mu0_matrix(f, pair, mu, self.LAM_MAX, basis=basis).matrix
                for j in range(levels + 1):
                    H = tuple(c * 2.0 ** (-j) for c in H0)
                    op = pi_matrix(f, pair, mu, H, self.LAM_MAX)
                    assert op.basis is basis
                    want = operator_norm(op.matrix - ref)
                    assert got[mu, j] == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_replaced_matrix_takes_its_own_norms(self, m3):
        f = self.function(m3, "gaussian", 0)
        T = next(iter(self.sample(m3, f).operators.values()))
        U = dataclasses.replace(T, block=2.0 * T.block)
        assert U.op_norm == pytest.approx(2.0 * T.op_norm, rel=1e-12)
        assert U.hs_norm == pytest.approx(2.0 * T.hs_norm, rel=1e-12)


class TestOnePass:
    """A plan read in one ``sample_field`` pass equals its readings taken one by one.

    Readings share points: a path point, a weight point and the first two
    rungs of the ladder lie on the main grid, so a family of the pass holds
    rows that several readings read.  Gaussian entries are bitwise equal;
    a degree >= 1 term's may move in the last bits with the size of its
    family (GEMM summation order), within 1e-15 of the largest norm.
    """

    PLANS = {  # grid (mu, H); path (mu, Hs); weight points (H, mus) or None; ladder (mus, H0)
        "M2": ([(0, (h,)) for h in (0.5, 1.0, 1.5)], (0, [(1.0 + 0.125 * i,) for i in range(5)]),
               None, ([0], (1.0,))),
        "M3": ([(mu, (h,)) for mu in (-1, 0, 2) for h in (0.5, 1.0, 1.5)],
               (0, [(1.0 + 0.125 * i,) for i in range(5)]), ((1.0,), range(-3, 4)),
               ([-1, 0, 2], (1.0,))),
        "M2xM2": ([((0, 0), H) for H in ((0.5, 1.0), (1.0, 1.0))]
                  + [((0, m), (a, 0.0)) for m in (-1, 2) for a in (0.5, 1.0)],
                  ((0, 2), [(1.0 + 0.125 * i, 0.0) for i in range(5)]),
                  ((1.0, 0.0), [(0, m) for m in range(-3, 4)]), ([(0, -1), (0, 2)], (1.0, 0.0))),
    }

    def plan(self, pair):
        grid, (path_mu, path), mu_pts, (mus, H0) = self.PLANS[pair.name]
        return VerificationPlan(
            lambda_max=TestFamilies.LAM_MAX,
            grid=[make_dual_point(pair, mu, H) for mu, H in grid]
            + [make_dual_point(pair, lam, None) for lam in pair.K.irrep_labels(1)],
            path=[make_dual_point(pair, path_mu, H) for H in path],
            h_ladder_mus=mus, h_ladder_H0=H0, h_ladder_levels=3,
            mu_points=mu_pts and [make_dual_point(pair, mu, mu_pts[0]) for mu in mu_pts[1]],
        )

    @pytest.mark.parametrize("kind", ["gaussian", "mixed"])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_plan_pass_equals_readings_one_by_one(self, instance, seed, kind, request):
        pair = request.getfixturevalue(instance.lower())
        f, plan = TestFamilies.function(pair, kind, seed), self.plan(pair)
        report, samples = run_verification(f, pair, plan)
        alone = {name: sample_field(f, pair, pts, plan.lambda_max)
                 for name, pts in (("main", plan.grid), ("path", plan.path))}
        if plan.mu_points:
            group = stabilizer(pair, plan.mu_points[0].H).group
            top = max(group.char_band(p.label) for p in plan.mu_points)
            alone["mu"] = sample_field(f, pair, plan.mu_points, max(plan.lambda_max, top + 2))
        # the path's step norms, of its points read alone, on their support
        # by the one rule (from the entries, where the support is monomial)
        path = [alone["path"].operators[p] for p in plan.path]
        ops = fourier._entries(np.stack([T.block for T in path]), path[0].perm)
        steps = [math.dist(a.H, b.H) for a, b in zip(plan.path, plan.path[1:])]
        diffs = fourier.stack_norms(fourier.step_differences(ops, range(len(path)))[0])[0]
        ladder = check_h_to_zero(f, pair, plan.h_ladder_mus, plan.h_ladder_H0,
                                 plan.h_ladder_levels, plan.lambda_max).witnesses
        scale = max(T.op_norm for s in alone.values() for T in s.operators.values())
        assert scale > 1e-3 and len(samples) == len(alone) + (not plan.mu_points)
        tol = 0.0 if kind == "gaussian" else 1e-15 * scale

        def same(a, b):
            assert np.abs(np.asarray(a) - np.asarray(b)).max(initial=0.0) <= tol

        for name, sample in alone.items():
            assert samples[name].grid == sample.grid
            for p in sample.grid:
                T, U = samples[name].operators[p], sample.operators[p]
                assert (T.lambda_max, T.block_index) == (U.lambda_max, U.block_index)
                same(T.matrix, U.matrix)
                same([T.op_norm, T.hs_norm], [U.op_norm, U.hs_norm])
        got = {r.condition: r.witnesses for r in report.reports}
        assert [w["step"] for w in got[2]] == steps
        same([w["difference"] for w in got[2]], diffs)
        assert [(w["mu"], w["j"]) for w in got[4]] == [(w["mu"], w["j"]) for w in ladder]
        same([w["delta"] for w in got[4]], [w["delta"] for w in ladder])


class TestSelectionWindow:
    """The selection-rule window against references that know nothing of it.

    The induced reference is the quadrature oracle ``quadrature.pi_entries``
    on the basis cut at lambda_max, with a rule exact on that whole basis;
    the K-dual reference is ``table_tau_matrix``.  Functions mix terms of
    degree 0-3; points are regular and, on M2xM2, on both walls.
    """

    POINTS = {
        "M2": [(1.1,), (0.6,)],
        "M3": [(0.9,), (1.7,)],
        "M2xM2": [(0.8, 1.3), (0.0, 0.9), (0.7, 0.0)],
    }

    @staticmethod
    def function(pair, seed):
        rng = np.random.default_rng([seed, len(pair.name), 29])
        return random_function(pair, rng, max_label=1 if pair.name == "M2xM2" else 2,
                               max_degree=3)

    @staticmethod
    def reference(f, pair, mu, H, lam_max):
        """The oracle operator on the basis cut at ``lam_max``, and that basis."""
        basis = peter_weyl_basis(pair, mu, H, lam_max)
        top = max(pair.K.char_band(lam) for lam, _ in basis.blocks)
        rule = quadrature(pair.K, proven_order(f, top))
        return pi_entries(f, pair, basis, H, rule), basis

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_support_cut_off_and_rank(self, instance, seed, request):
        pair = request.getfixturevalue(instance.lower())
        K, f = pair.K, self.function(pair, seed)
        lam_max = f.window + 3
        refs = []
        for H in self.POINTS[instance]:
            for mu in stabilizer(pair, H).group.irrep_labels(f.bandlimit + 2):
                refs.append((mu,) + self.reference(f, pair, mu, H, lam_max))
        scale = max(np.abs(M).max() for _, M, _ in refs)
        assert scale > 1e-3  # the comparison is not vacuous
        for mu, M, basis in refs:
            outside = np.array([K.char_band(b[0]) > f.window for b in basis.block_index])
            assert outside.any()
            assert np.abs(M[outside]).max() <= 1e-13 * scale
            assert np.abs(M[:, outside]).max() <= 1e-13 * scale
            if basis.stab.group.char_band(mu) > f.bandlimit:  # the mu cut-off
                assert np.abs(M).max() <= 1e-13 * scale
            copies = dict(basis.blocks)
            bound = sum(basis.d_rho * copies.get(K.contragredient(t.u.label)[0], 0)
                        for t in f.terms)
            s = np.linalg.svd(M, compute_uv=False)
            assert np.count_nonzero(s > 1e-10 * scale) <= bound

    @pytest.mark.parametrize("offset", [-1, 2])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_sample_and_ladder_equal_the_oracle(self, instance, seed, offset, request):
        # lambda_max above the window (offset 2) and below it (offset -1)
        pair = request.getfixturevalue(instance.lower())
        K, f = pair.K, self.function(pair, seed)
        lam_max = max(f.window + offset, 0)
        band = min(f.bandlimit + 2, lam_max)  # weights past the cut-off, none past lambda_max
        grid = [make_dual_point(pair, mu, H) for H in self.POINTS[instance]
                for mu in stabilizer(pair, H).group.irrep_labels(band)]
        lams = K.irrep_labels(f.bandlimit + 1)
        grid += [make_dual_point(pair, lam, None) for lam in lams]
        sample = sample_field(f, pair, grid, lam_max)
        got, want = [], []
        for p, T in sample.operators.items():
            if p.stratum == "gamma2":
                order = 1 + K.char_band(p.label) + f.bandlimit
                got.append(T.matrix)
                want.append(table_tau_matrix(f, pair, p.label, order))
            else:
                got.append(placed(pair, T))
                want.append(self.reference(f, pair, p.label, p.H, lam_max)[0])
            assert T.op_norm == pytest.approx(operator_norm(want[-1]), rel=1e-13, abs=1e-13)
            assert T.hs_norm == pytest.approx(hs_norm(want[-1]), rel=1e-13, abs=1e-13)
        scale = max(np.abs(M).max() for M in want)
        assert scale > 1e-3
        for M, ref in zip(got, want):
            assert np.abs(M - ref).max() <= 1e-13 * scale
        # the ladder, on the last point (a wall on M2xM2), against the
        # oracle minus the block sum of the reference K-dual entries
        H0, levels = self.POINTS[instance][-1], 3
        mus = stabilizer(pair, H0).group.irrep_labels(band)
        report = check_h_to_zero(f, pair, mus, H0, levels, lam_max)
        deltas = {(w["mu"], w["j"]): w["delta"] for w in report.witnesses}
        for mu in mus:
            basis = peter_weyl_basis(pair, mu, H0, lam_max)
            zero = block_diag(*[
                table_tau_matrix(f, pair, lam, 1 + K.char_band(lam) + f.bandlimit)
                for lam, copies in basis.blocks for _ in range(copies)
            ])
            for j in range(levels + 1):
                H = tuple(c * 2.0 ** (-j) for c in H0)
                want = operator_norm(self.reference(f, pair, mu, H, lam_max)[0] - zero)
                assert deltas[mu, j] == pytest.approx(want, rel=1e-13, abs=1e-13 * scale)

    def test_zero_family_and_empty_truncation(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 1, 0, 1)])  # W = 1
        assert f.window == 1
        grid = [make_dual_point(m3, mu, (1.2,)) for mu in (1, 2)]
        sample = sample_field(f, m3, grid, 3)
        zero = sample.operators[grid[1]]  # no K-type of band <= 1 over mu = 2
        assert not zero.basis.blocks and zero.basis.size == 0 and zero.matrix.shape == (0, 0)
        assert (zero.op_norm, zero.hs_norm, zero.lambda_max) == (0.0, 0.0, 3)
        assert sample.operators[grid[0]].basis is peter_weyl_basis(m3, 1, (1.2,), 1)
        one = pi_matrix(f, m3, 2, (1.2,), 3)  # on the lambda_max basis, all zero
        assert one.size == 5 + 7 and not one.matrix.any()
        assert check_h_to_zero(f, m3, [2], (1.2,), 2, 3).witnesses[-1]["delta"] == 0.0
        # a weight past lambda_max itself is still refused
        with pytest.raises(EmptyBasis):
            sample_field(f, m3, [make_dual_point(m3, 4, (1.2,))], 3)
        with pytest.raises(EmptyBasis):
            check_h_to_zero(f, m3, [4], (1.2,), 2, 3)
        # a label that is no weight of the stabilizer is refused by name
        with pytest.raises(ValueError, match="not an irrep"):
            check_h_to_zero(f, m3, [1.5], (1.2,), 2, 3)


class TestConvolution:
    def _convolved_radial(self, m2, f, g):
        """Closed-form group convolution for radial-Gaussian separable terms.

        The K-part convolves characters (diagonal), and the flat parts
        multiply on the transform side: Gaussians with widths adding in
        quadrature.
        """
        terms = []
        for tf in f.terms:
            for tg in g.terms:
                if tf.u.label != tg.u.label:
                    continue
                s1, s2 = tf.g.sigma, tg.g.sigma
                s = float(np.hypot(s1, s2))
                amp = (2 * np.pi * s1**2) * (2 * np.pi * s2**2) / (2 * np.pi * s**2)
                terms.append(
                    Term(
                        tf.coeff * tg.coeff * amp,
                        tf.u,
                        PolyGaussian.gaussian(2, s),
                    )
                )
        return TestFunction(m2, terms)

    def test_radial_homomorphism_exact(self, m2):
        f = TestFunction(m2, [gauss_term(m2, 2), gauss_term(m2, -1, sigma=0.8)])
        g = TestFunction(m2, [gauss_term(m2, 2, sigma=1.3), gauss_term(m2, 1)])
        conv = self._convolved_radial(m2, f, g)
        H = (1.1,)
        lam_max = 4
        op_f = pi_matrix(f, m2, 0, H, lam_max)
        op_g = pi_matrix(g, m2, 0, H, lam_max)
        op_c = pi_matrix(conv, m2, 0, H, lam_max)
        assert op_g.basis is op_f.basis and op_c.basis is op_f.basis
        assert operator_norm(op_c.matrix - op_f.matrix @ op_g.matrix) < 1e-9

    def test_polynomial_homomorphism_under_refinement(self, m2):
        # degree-one flat factors let the product pass through the K-type
        # one past the inner weight; a cutoff below it truncates the
        # intermediate mode and the discrepancy dies once the cutoff clears
        f = TestFunction(m2, [Term(1.0, MatrixCoefficient(2), PolyGaussian(2, 1.0, {(1, 0): 1.0}))])
        g = TestFunction(m2, [Term(1.0, MatrixCoefficient(1), PolyGaussian(2, 1.0, {(0, 1): 1.0}))])
        H = (0.9,)

        def conv_fhat2(k, xi, order=24):
            rule = quadrature(m2.K, order)
            val = 0j
            for w, k0 in zip(rule.weights, rule.nodes):
                xi0 = pw.adjoint(m2, pw.inverse(m2.K, k0), np.asarray(xi))
                val += w * partial_fourier(f, k0, xi) * partial_fourier(
                    g, pw.compose(m2.K, pw.inverse(m2.K, k0), k), xi0
                )
            return val

        discrepancies = []
        for lam_max in (1, 3):
            op_f = pi_matrix(f, m2, 0, H, lam_max)
            op_g = pi_matrix(g, m2, 0, H, lam_max)
            assert op_g.basis is op_f.basis
            rule = quadrature(m2.K, proven_order(f + g, lam_max) + 8)
            Psi = node_table(op_f.basis, rule)
            w, nodes = rule.weights, rule.nodes
            Hp = m2.embed_a(H)
            N = op_f.basis.size
            M = np.zeros((N, N), dtype=complex)
            for a in range(len(w)):
                xi = pw.adjoint(m2, nodes[a], Hp)
                for b in range(len(w)):
                    fh = conv_fhat2(pw.compose(m2.K, nodes[a], pw.inverse(m2.K, nodes[b])), xi)
                    M += w[a] * w[b] * fh * np.einsum(
                        "ia,ja->ij", np.conj(Psi[:, a, :]), Psi[:, b, :]
                    )
            discrepancies.append(operator_norm(M - op_f.matrix @ op_g.matrix))
        assert discrepancies[1] < 1e-9          # cutoff clears the leak
        assert discrepancies[0] > discrepancies[1]  # refinement shrinks the error
