import numpy as np
import pytest

from motionfields import (
    MatrixCoefficient,
    MissingGamma2Data,
    MissingSupBound,
    PathCrossesStrata,
    PolyGaussian,
    Term,
    TestFunction,
    Thresholds,
    check_compactness_proxy,
    check_continuity,
    check_h_to_zero,
    check_lambda_decay,
    check_mu_decay,
    make_dual_point,
    operator_norm,
    peter_weyl_basis,
    pi_mu0_matrix,
    restriction_multiplicity,
    run_verification,
    sample_field,
    tau_matrix,
    verify_membership,
)
from motionfields.errors import SupBoundOverflow
from motionfields import cli
from motionfields.config import ScenarioConfig
from motionfields.fourier import OperatorFieldSample, TruncatedOperator
from motionfields.scenarios import bundled_scenario
from motionfields.verifier import judge_h_ladder, judge_lambda_decay, judge_mu_decay


def gauss_term(pair, label, row=0, col=0, coeff=1.0, sigma=1.0):
    return Term(coeff, MatrixCoefficient(label, row, col),
                PolyGaussian.gaussian(pair.dim_p, sigma))


def m3_field(m3, lam_max=4):
    f = TestFunction(m3, [gauss_term(m3, 2, 1, 3), gauss_term(m3, 1, 0, 0, 0.5, 0.8)])
    grid = [make_dual_point(m3, mu, (h,)) for mu in (0, 1) for h in (0.5, 1.0, 1.5)]
    grid += [make_dual_point(m3, lam, None) for lam in range(lam_max + 1)]
    return f, sample_field(f, m3, grid, lam_max)


def override_sample(sample, new_ops):
    ops = dict(sample.operators)
    ops.update(new_ops)
    return OperatorFieldSample(sample.instance_name, sample.grid, ops, sample.metadata)


def constant_operator(template, value=1.0, pair=None):
    """``value`` times the identity on the template's basis or, with ``pair``,
    on the basis cut at its ``lambda_max``: a sampled template holds only
    its selection-rule window."""
    basis = template.basis
    if pair is not None:
        basis = peter_weyl_basis(pair, template.point.label, template.point.H,
                                 template.lambda_max)
    return TruncatedOperator(
        matrix=np.eye(basis.size, dtype=complex) * value,
        lambda_max=template.lambda_max,
        block_index=basis.block_index,
        basis=basis,
        point=template.point,
    )


class TestCompactness:
    def test_fourier_field_passes(self, m2):
        f = TestFunction(m2, [gauss_term(m2, 2), gauss_term(m2, -1, sigma=0.8)])
        grid = [make_dual_point(m2, 0, (h,)) for h in (0.5, 1.0, 1.5, 2.0, 2.5)]
        sample = sample_field(f, m2, grid, 5)
        assert check_compactness_proxy(m2, sample).passed

    def test_identity_field_fails_by_tail(self, m3):
        _, sample = m3_field(m3)
        bad = {
            p: constant_operator(T, pair=m3)
            for p, T in sample.operators.items()
            if p.stratum != "gamma2"
        }
        sample2 = override_sample(sample, bad)
        sample2.metadata = dict(sample.metadata, fhat2_sup=100.0)
        report = check_compactness_proxy(m3, sample2)
        assert not report.passed
        # the failure is the tail fraction, not the HS budget
        assert all(w["hs_sq"] <= w["hs_bound"] for w in report.witnesses)
        assert any(w["tail_fraction"] > 1e-3 for w in report.witnesses)

    def test_zero_field_passes(self, m3):
        _, sample = m3_field(m3)
        zeros = {
            p: constant_operator(T, 0.0)
            for p, T in sample.operators.items()
            if p.stratum != "gamma2"
        }
        assert check_compactness_proxy(m3, override_sample(sample, zeros)).passed

    def test_sample_without_sup_is_refused(self, m3):
        # without a sup the HS budget is vacuous: refused, not passed
        _, sample = m3_field(m3)
        assert "fhat2_sup" in sample.metadata
        bare = OperatorFieldSample(
            sample.instance_name, sample.grid, sample.operators,
            {k: v for k, v in sample.metadata.items() if k != "fhat2_sup"},
        )
        with pytest.raises(MissingSupBound, match="fhat2_sup"):
            check_compactness_proxy(m3, bare)

    def test_sup_bound_overflow_names_the_term(self):
        # a function built without the parser: its bound, 3.8e217 at degree
        # 200, squared overflows a float, refused by the parser's own check
        cfg = ScenarioConfig.from_dict(bundled_scenario("m2-default"))
        pair = cfg.build_pair()
        t = cfg.terms[0]
        huge = Term(t.coeff, t.u, PolyGaussian(2, 1.0, {(200, 0): 1.0}))
        f = TestFunction(pair, (huge,) + cfg.terms[1:])
        with pytest.raises(SupBoundOverflow, match="term 0 .*flat degree 200"):
            run_verification(f, pair, cfg.plan, cfg.thresholds)


def test_poisoned_sample_is_judged_on_its_own_norms(m3):
    # operators rebuilt from a sample's matrices carry no recorded norms; the
    # checks and the norms rows read the norms of the new matrices
    f, sample = m3_field(m3)
    mu_pts = [make_dual_point(m3, mu, (1.0,)) for mu in range(-3, 4)]
    mu_sample = sample_field(f, m3, mu_pts, 4)
    scaled = {}
    for s in (sample, mu_sample):
        scaled[s] = override_sample(s, {
            p: TruncatedOperator(3.0 * T.matrix, T.lambda_max, T.block_index, T.basis, T.point)
            for p, T in s.operators.items()
        })
    induced = [p for p in sample.grid if p.stratum != "gamma2"]
    for w, p in zip(check_compactness_proxy(m3, scaled[sample]).witnesses, induced):
        assert w["hs_sq"] == pytest.approx(9.0 * sample.operators[p].hs_norm ** 2, rel=1e-12)
    for w, p in zip(check_mu_decay(m3, scaled[mu_sample]).witnesses, mu_pts):
        assert w["norm"] == pytest.approx(3.0 * mu_sample.operators[p].op_norm, rel=1e-12)
    k_dual = [p for p in sample.grid if p.stratum == "gamma2"]
    for w, p in zip(check_lambda_decay(m3, scaled[sample]).witnesses, k_dual):
        assert w["norm"] == pytest.approx(3.0 * sample.operators[p].op_norm, rel=1e-12)
    rows = cli._norms_rows({"main": scaled[sample]})
    want = cli._norms_rows({"main": sample})
    for row, ref in zip(rows, want):
        assert float(row[4]) == pytest.approx(3.0 * float(ref[4]), rel=1e-10)
        assert float(row[5]) == pytest.approx(3.0 * float(ref[5]), rel=1e-10)


class TestContinuity:
    def _path_sample(self, m3, poison=None):
        f = TestFunction(m3, [gauss_term(m3, 1, 0, 0)])
        pts = [make_dual_point(m3, 1, (1.0 + 0.125 * i,)) for i in range(9)]
        sample = sample_field(f, m3, pts, 3)
        if poison is not None:
            p = pts[poison]
            sample = override_sample(
                sample, {p: constant_operator(sample.operators[p], 5.0)}
            )
        return sample

    def test_gaussian_path_passes(self, m3):
        assert check_continuity(m3, self._path_sample(m3)).passed

    def test_jump_fails(self, m3):
        assert not check_continuity(m3, self._path_sample(m3, poison=4)).passed

    def test_crossing_zero_guarded(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 1, 0, 0)])
        pts = [make_dual_point(m3, 0, (h,)) for h in (1.0, 0.5, 1e-12, 0.5, 1.0)]
        with pytest.raises(PathCrossesStrata):
            check_continuity(m3, sample_field(f, m3, pts, 2))

    def test_wall_path_on_product(self, m2xm2):
        f = TestFunction(
            m2xm2, [gauss_term(m2xm2, (1, 2)), gauss_term(m2xm2, (0, 1), coeff=0.5)]
        )
        pts = [make_dual_point(m2xm2, (0, 2), (1.0 + 0.125 * i, 0.0)) for i in range(9)]
        sample = sample_field(f, m2xm2, pts, 4)
        assert check_continuity(m2xm2, sample).passed


class TestMuDecay:
    def test_bandlimited_vanishing(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 3, 2, 4)])
        pts = [make_dual_point(m3, mu, (1.0,)) for mu in range(-6, 7)]
        sample = sample_field(f, m3, pts, 8)
        report = check_mu_decay(m3, sample)
        assert report.passed
        for w in report.witnesses:
            if abs(w["mu"]) > 3:
                assert w["norm"] <= 1e-9

    def test_trivial_stabilizer_vacuous(self, m2):
        f = TestFunction(m2, [gauss_term(m2, 2)])
        pts = [make_dual_point(m2, 0, (h,)) for h in (0.5, 1.0)]
        report = check_mu_decay(m2, sample_field(f, m2, pts, 3))
        assert report.passed and "vacuous" in report.notes

    def test_constant_field_fails(self):
        assert not judge_mu_decay({k: 1.0 for k in range(7)})[0]

    def test_judge_records_mu_star(self):
        ok, mu_star, _ = judge_mu_decay({0: 1.0, 1: 0.5, 2: 1e-4, 3: 1e-5})
        assert ok and mu_star == 2


class TestHToZero:
    def test_gaussian_ladder_passes(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 2, 1, 1), gauss_term(m3, 1, 0, 0, 0.4)])
        report = check_h_to_zero(f, m3, [0, 1, 2], (1.0,), 8, 4)
        assert report.passed
        deltas = [w["delta"] for w in report.witnesses if w["mu"] == 0]
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 1e-2

    def test_sharp_bump_fails(self):
        # a field frozen away from its zero-point operator: the ladder
        # never descends
        assert not judge_h_ladder({0: [1.0] * 9, 1: [1.0] * 9})

    def test_zero_function_trivial(self):
        assert judge_h_ladder({0: [0.0] * 9})


class TestLambdaDecay:
    def test_bandlimited_exact(self, m3):
        f, sample = m3_field(m3)
        report = check_lambda_decay(m3, sample)
        assert report.passed
        for w in report.witnesses:
            if w["lambda"] > f.bandlimit:
                assert w["norm"] <= 1e-10

    def test_constant_field_fails(self):
        assert not judge_lambda_decay({k: 0.5 for k in range(6)}, bandlimit=None)
        assert not judge_lambda_decay({k: 0.5 for k in range(6)}, bandlimit=2)

    def test_general_reading_passes_on_decay(self):
        assert judge_lambda_decay(
            {0: 1.0, 1: 0.3, 2: 0.01, 3: 1e-4}, bandlimit=None
        )

    def test_missing_gamma2(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 1, 0, 0)])
        pts = [make_dual_point(m3, 0, (1.0,))]
        with pytest.raises(MissingGamma2Data):
            check_lambda_decay(m3, sample_field(f, m3, pts, 2))


class TestFieldAtZero:
    # the zero-point operator is the block sum of the K-dual entries that
    # branch over mu, each repeated per copy: its norm is their largest norm
    def test_mu_zero_sup_over_all(self, m3):
        f, sample = m3_field(m3)
        expect = max(
            operator_norm(sample.operators[p])
            for p in sample.grid
            if p.stratum == "gamma2"
        )
        assert operator_norm(pi_mu0_matrix(f, m3, 0, 4)) == pytest.approx(expect, abs=1e-12)

    def test_mu_beyond_bandlimit_vanishes(self, m3):
        # f lives in K-types of band <= 2: beyond the mu cut-off every block is 0
        f, _ = m3_field(m3)
        for mu in (3, 4):
            assert not np.any(pi_mu0_matrix(f, m3, mu, 4).matrix)

    def test_matches_zero_point_operator(self, m3):
        f, sample = m3_field(m3)
        gamma2 = [p for p in sample.grid if p.stratum == "gamma2"]
        for mu in range(5):
            branching = [
                sample.operators[p].op_norm
                for p in gamma2
                if restriction_multiplicity(m3.K, p.label, m3.M, mu) > 0
            ]
            direct = operator_norm(pi_mu0_matrix(f, m3, mu, 4))
            assert abs(max(branching) - direct) < 1e-10

    def test_single_block_field(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 2, 0, 0)])
        pts = [make_dual_point(m3, 2, None)]
        sample = sample_field(f, m3, pts, 2)
        block = operator_norm(sample.operators[pts[0]])
        norm0 = operator_norm(pi_mu0_matrix(f, m3, 0, 2))
        assert norm0 == pytest.approx(block, abs=1e-12)
        assert operator_norm(pi_mu0_matrix(f, m3, 3, 3)) == 0.0


def k_dual_norms(sample):
    return [T.op_norm for p, T in sample.operators.items() if p.stratum == "gamma2"]


class TestD0:
    # the ideal with zero boundary data: every K-dual entry vanishes
    def test_bandlimited_field_not_in_ideal(self, m3):
        _, sample = m3_field(m3)
        assert max(k_dual_norms(sample)) >= 1e-10

    def test_zero_mass_flat_factor_in_ideal(self, m3):
        # ghat(0) = 0 kills every K-dual block
        g = PolyGaussian.radial_poly(3, 1.0, [-3.0, 1.0])  # <r^2> = 3 at sigma 1
        zero_mass = complex(g.fourier(np.zeros((1, 3)))[0])
        assert abs(zero_mass) < 1e-12
        f = TestFunction(m3, [Term(1.0, MatrixCoefficient(1, 0, 0), g)])
        pts = [make_dual_point(m3, lam, None) for lam in range(4)]
        assert all(n < 1e-10 for n in k_dual_norms(sample_field(f, m3, pts, 3)))

    def test_quotient_compatibility(self, m3):
        # two functions with identical K-dual data: the difference lies in
        # the vanishing ideal
        g = PolyGaussian.radial_poly(3, 1.0, [-3.0, 1.0])
        f1 = TestFunction(m3, [gauss_term(m3, 2, 1, 1)])
        f2 = f1 + TestFunction(m3, [Term(0.7, MatrixCoefficient(1, 0, 0), g)])
        pts = [make_dual_point(m3, lam, None) for lam in range(4)]
        s1 = sample_field(f1, m3, pts, 3)
        s2 = sample_field(f2, m3, pts, 3)
        for p in pts:
            d = s2.operators[p].matrix - s1.operators[p].matrix
            assert operator_norm(d) < 1e-10


def bundled_plan(name):
    return ScenarioConfig.from_dict(bundled_scenario(name)).plan


class TestMembership:
    def test_m3_default_plan_passes(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 2, 1, 3), gauss_term(m3, 1, 0, 0, 0.5, 0.8)])
        report = verify_membership(f, m3, bundled_plan("m3-default"))
        assert report.overall
        assert [r.condition for r in report.reports] == [1, 2, 3, 4, 5]

    def test_m2xm2_wall_plan_passes(self, m2xm2):
        f = TestFunction(
            m2xm2, [gauss_term(m2xm2, (1, 2)), gauss_term(m2xm2, (0, 1), coeff=0.5, sigma=0.9)]
        )
        report = verify_membership(f, m2xm2, bundled_plan("m2xm2-gamma1"))
        assert report.overall

    def test_adversarial_injection_fails_condition_two(self, m3):
        f = TestFunction(m3, [gauss_term(m3, 1, 0, 0)])
        pts = [make_dual_point(m3, 1, (1.0 + 0.125 * i,)) for i in range(9)]
        sample = sample_field(f, m3, pts, 3)
        p = pts[4]
        poisoned = override_sample(
            sample, {p: constant_operator(sample.operators[p], 7.0)}
        )
        assert check_continuity(m3, sample).passed
        assert not check_continuity(m3, poisoned).passed
