"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a PASS/FAIL line (visible under ``pytest -s`` or in the
captured output) and asserts both the property and its runtime budget.
"""

import time

import numpy as np
import pointwise as pw
from quadrature import quadrature
from scipy.optimize import minimize
from test_dual import neighborhood_cross_check
from test_fourier import kernel
from test_pairs import project_a

from motionfields import (
    MatrixCoefficient,
    PolyGaussian,
    Term,
    TestFunction,
    build_instance,
    check_compactness_proxy,
    check_h_to_zero,
    check_lambda_decay,
    check_mu_decay,
    converges,
    dominant_representative,
    hs_norm,
    make_dual_point,
    operator_norm,
    peter_weyl_basis,
    pi_matrix,
    run_verification,
    sample_field,
    transport_label,
)
from motionfields.config import ScenarioConfig
from motionfields.fourier import OperatorFieldSample
from motionfields.scenarios import BUNDLED_NAMES, bundled_scenario
from motionfields.verifier import judge_h_ladder


def report(num, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}"
    print(line)
    assert ok, line


def gauss_term(pair, label, row=0, col=0, coeff=1.0, sigma=1.0):
    return Term(coeff, MatrixCoefficient(label, row, col),
                PolyGaussian.gaussian(pair.dim_p, sigma))


def geometric_points(pair, label, start, target, n=28):
    return [
        make_dual_point(
            pair, label, tuple(t + (s - t) * 2.0 ** (-k) for s, t in zip(start, target))
        )
        for k in range(n)
    ]


def test_01_orbit_chamber_uniqueness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for name in ("M2", "M3", "M2xM2"):
        pair = build_instance(name)
        for _ in range(1000):
            H = rng.normal(size=pair.rank)
            dominant = [
                o
                for o in {w.apply(H) for w in pair.weyl_group}
                if np.all(pw.root_values(pair, o) >= -1e-12)
            ]
            assert len(dominant) == 1, (name, H)
    dt = time.perf_counter() - t0
    report(1, dt < 1.0, f"3000 orbits, unique dominant point each; {dt:.2f}s < 1s")


def test_02_adjoint_orbit_section():
    t0 = time.perf_counter()
    pair = build_instance("M3")
    rng = np.random.default_rng(12)
    chamber_dir = pair.embed_a((1.0,))
    coarse = quadrature(pair.K, 4)
    coarse_angles = list(zip(*coarse.params))

    def dist(angles, X):
        img = pw.adjoint(pair, pw.from_euler(*angles), X)
        t = max(0.0, float(img @ chamber_dir))
        return float(np.linalg.norm(img - t * chamber_dir))

    worst = 0.0
    for _ in range(200):
        X = rng.normal(size=3)
        best = min(coarse_angles, key=lambda a: dist(a, X))
        res = minimize(
            dist, x0=np.array(best), args=(X,), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 500},
        )
        worst = max(worst, res.fun)
        reached, _ = project_a(
            pair, pw.adjoint(pair, pw.from_euler(*res.x), X)
        )
        dom, _ = dominant_representative(pair, (float(np.linalg.norm(X)),))
        assert abs(reached[0] - dom[0]) < 1e-6
    dt = time.perf_counter() - t0
    report(2, worst < 1e-8 and dt < 10.0,
           f"200 orbit minimizations, worst distance {worst:.2e} < 1e-8; {dt:.1f}s < 10s")


def test_03_plancherel_engine():
    from motionfields.groups import CircleGroup, RotationGroup3

    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for group, band in ((CircleGroup(), 4), (RotationGroup3(), 3)):
        for _ in range(10):
            coeffs = []
            for lab in group.irrep_labels(band):
                d = group.irrep_dim(lab)
                i, j = rng.integers(0, d, size=2)
                coeffs.append((rng.normal() + 1j * rng.normal(), lab, int(i), int(j)))
            rule = quadrature(group, 4 * band + 4)
            tabs = {
                lab: pw.irrep_table(group, lab, rule.params)
                for lab in group.irrep_labels(2 * band)
            }
            vals = np.zeros(len(rule), dtype=complex)
            for c, lab, i, j in coeffs:
                vals += c * tabs[lab][:, i, j]
            l2 = float(np.sum(rule.weights * np.abs(vals) ** 2))
            mass = sum(
                group.irrep_dim(lab)
                * np.linalg.norm(np.einsum("n,nab->ab", rule.weights * vals, tabs[lab]))
                ** 2
                for lab in group.irrep_labels(2 * band)
            )
            worst = max(worst, abs(l2 - mass))
    dt = time.perf_counter() - t0
    report(3, worst < 1e-8 and dt < 10.0,
           f"20 trig polynomials, worst defect {worst:.2e} < 1e-8; {dt:.1f}s < 10s")


def _bandlimit3_m3():
    pair = build_instance("M3")
    f = TestFunction(pair, [
        gauss_term(pair, 3, 2, 4),
        gauss_term(pair, 1, 0, 0, 0.5, 0.8),
    ])
    return pair, f


def test_04_hs_bound_default_grids():
    t0 = time.perf_counter()
    pair, f = _bandlimit3_m3()
    sup = f.fhat2_sup()
    grid = [make_dual_point(pair, mu, (h,)) for mu in (0, 1, 2) for h in (0.5, 1.0, 1.5)]
    sample = sample_field(f, pair, grid, 8)
    worst = 0.0
    for p, T in sample.operators.items():
        d_mu = 1  # circle stabilizer: one-dimensional weights
        ratio = hs_norm(T) ** 2 / (d_mu * sup**2)
        worst = max(worst, ratio)
        assert hs_norm(T) ** 2 <= d_mu * sup**2 * (1 + 1e-6)
    dt = time.perf_counter() - t0
    report(4, dt < 60.0,
           f"9 operators at cutoff 8, max HS^2/bound = {worst:.3f}; {dt:.1f}s < 60s")


def test_05_kernel_bound():
    t0 = time.perf_counter()
    pair = build_instance("M3")
    # single separable term: the sup norm factorizes exactly
    f = TestFunction(pair, [gauss_term(pair, 2, 4, 4)])
    sup = abs(1.0) * 1.0 * (2 * np.pi) ** 1.5  # |c| sup|u| sup|ghat|
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(100):
        h, k = pw.random(pair.K, rng), pw.random(pair.K, rng)
        mu = int(rng.integers(-3, 4))
        H = (float(rng.uniform(0.1, 2.0)),)
        val = operator_norm(kernel(f, pair, mu, H, h, k))
        worst = max(worst, val - sup)
        assert val <= sup + 1e-9
    dt = time.perf_counter() - t0
    report(5, True, f"100 kernel norms, max excess over sup {worst:.2e} <= 1e-9; {dt:.1f}s")


def test_06_mu_decay_exact():
    t0 = time.perf_counter()
    pair, f = _bandlimit3_m3()
    worst = 0.0
    for mu in (-6, -5, -4, 4, 5, 6):
        op = pi_matrix(f, pair, mu, (1.0,), 8)
        worst = max(worst, operator_norm(op))
        assert operator_norm(op) <= 1e-9
    dt = time.perf_counter() - t0
    report(6, True, f"bandlimit-3 field: max norm beyond weight 3 is {worst:.2e} <= 1e-9; {dt:.1f}s")


def test_07_h_to_zero_uniform():
    t0 = time.perf_counter()
    pair = build_instance("M3")
    f = TestFunction(pair, [
        gauss_term(pair, 2, 1, 1),
        gauss_term(pair, 1, 0, 0, 0.4),
    ])
    rep = check_h_to_zero(f, pair, [0, 1, 2], (1.0,), 8, 5)
    finals = {}
    for w in rep.witnesses:
        finals.setdefault(w["mu"], []).append(w["delta"])
    for mu, ds in finals.items():
        assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:])), mu
        assert ds[-1] < 1e-2
    dt = time.perf_counter() - t0
    report(7, rep.passed and dt < 300.0,
           f"deltas non-increasing, final max {max(d[-1] for d in finals.values()):.2e} < 1e-2; {dt:.1f}s < 5min")


def _fell_fixture_sequences():
    """200 decisively converging/diverging sequences with expected verdicts."""
    out = []
    m3 = build_instance("M3")
    m22 = build_instance("M2xM2")
    rng = np.random.default_rng(18)

    # M3: regular-to-regular, constant weight (converges)
    for _ in range(30):
        mu = int(rng.integers(-3, 4))
        h = float(rng.uniform(0.7, 2.0))
        seq = geometric_points(m3, mu, (h + 1.0,), (h,))
        out.append((m3, seq, make_dual_point(m3, mu, (h,)), True))
    # M3: into the K-dual, branching satisfied (converges)
    for _ in range(15):
        mu = int(rng.integers(-2, 3))
        lam = abs(mu) + int(rng.integers(0, 3))
        seq = geometric_points(m3, mu, (1.0,), (0.0,))
        out.append((m3, seq, make_dual_point(m3, lam, None), True))
    # M3: into the K-dual, weight absent (diverges)
    for _ in range(10):
        lam = int(rng.integers(0, 3))
        mu = lam + 1 + int(rng.integers(0, 2))
        seq = geometric_points(m3, mu, (1.0,), (0.0,))
        out.append((m3, seq, make_dual_point(m3, lam, None), False))
    # M3: weight flips forever (diverges)
    for _ in range(20):
        mu = int(rng.integers(0, 3))
        h = float(rng.uniform(0.7, 1.8))
        seq = [
            make_dual_point(m3, mu + (k % 2), (h + 2.0 ** (-k),)) for k in range(28)
        ]
        out.append((m3, seq, make_dual_point(m3, mu, (h,)), False))
    # M3: distance pinned far outside every radius (diverges)
    for _ in range(15):
        h = float(rng.uniform(0.7, 1.5))
        seq = [make_dual_point(m3, 1, (h + 0.8,))] * 24
        out.append((m3, seq, make_dual_point(m3, 1, (h,)), False))
    # M3: K-dual tails (eventually constant converge, wandering diverge)
    for lam in range(5):
        seq = [make_dual_point(m3, (lam + 1) % 5, None)] * 4 + [
            make_dual_point(m3, lam, None)
        ] * 20
        out.append((m3, seq, make_dual_point(m3, lam, None), True))
        wander = [make_dual_point(m3, (lam + k) % 5, None) for k in range(24)]
        out.append((m3, wander, make_dual_point(m3, lam, None), False))

    # product instance: bulk to wall (always converges: trivial centralizer)
    for _ in range(25):
        m2v = int(rng.integers(-3, 4))
        a = float(rng.uniform(0.8, 1.6))
        seq = geometric_points(m22, (0, 0), (a + 0.5, 0.5), (a, 0.0))
        out.append((m22, seq, make_dual_point(m22, (0, m2v), (a, 0.0)), True))
    # wall to wall, matching second weight (converges)
    for _ in range(15):
        m2v = int(rng.integers(-3, 4))
        a = float(rng.uniform(0.8, 1.6))
        seq = geometric_points(m22, (0, m2v), (a + 0.5, 0.0), (a, 0.0))
        out.append((m22, seq, make_dual_point(m22, (0, m2v), (a, 0.0)), True))
    # wall to wall, wrong second weight (diverges)
    for _ in range(20):
        m2v = int(rng.integers(-3, 4))
        a = float(rng.uniform(0.8, 1.6))
        seq = geometric_points(m22, (0, m2v + 1), (a + 0.5, 0.0), (a, 0.0))
        out.append((m22, seq, make_dual_point(m22, (0, m2v), (a, 0.0)), False))
    # regular-to-regular on the product (converges)
    for _ in range(20):
        a, b = (float(rng.uniform(0.8, 1.6)), float(rng.uniform(0.8, 1.6)))
        seq = geometric_points(m22, (0, 0), (a + 1.0, b + 1.0), (a, b))
        out.append((m22, seq, make_dual_point(m22, (0, 0), (a, b)), True))
    # regular sequences stuck at distance 0.8 (diverges)
    for _ in range(20):
        a = float(rng.uniform(0.8, 1.6))
        seq = [make_dual_point(m22, (0, 0), (a + 0.8, 1.0))] * 24
        out.append((m22, seq, make_dual_point(m22, (0, 0), (a, 1.0)), False))
    return out


def test_08_fell_predicates_agree_with_neighborhoods():
    t0 = time.perf_counter()
    fixtures = _fell_fixture_sequences()
    assert len(fixtures) == 200
    agree = 0
    for pair, seq, limit, expect in fixtures:
        cert = converges(pair, seq, limit)
        brute = neighborhood_cross_check(pair, seq, limit)
        assert cert.verdict == expect, (pair.name, limit, expect)
        assert brute == expect
        agree += 1
    dt = time.perf_counter() - t0
    report(8, agree == 200 and dt < 30.0,
           f"{agree}/200 sequences: certificate and neighborhood brute force agree; {dt:.1f}s < 30s")


def test_09_gamma2_discreteness_exhaustive():
    t0 = time.perf_counter()
    pair = build_instance("M3")
    checked = 0
    for lam in range(7):
        limit = make_dual_point(pair, lam, None)
        # distinct weights never converge
        for other in range(7):
            if other == lam:
                continue
            seq = [make_dual_point(pair, other, None)] * 16
            assert not converges(pair, seq, limit).verdict
            checked += 1
        rotating = [make_dual_point(pair, k % 7, None) for k in range(21)]
        assert not converges(pair, rotating, limit).verdict
        # eventually constant converges
        seq = [make_dual_point(pair, (lam + 1) % 7, None)] * 5 + [
            make_dual_point(pair, lam, None)
        ] * 16
        assert converges(pair, seq, limit).verdict
        checked += 2
    dt = time.perf_counter() - t0
    report(9, True, f"{checked} K-dual sequences, discreteness exact; {dt:.1f}s")


def _identity_fixture(pair, sample):
    ops = {}
    for p, T in sample.operators.items():
        if p.stratum != "gamma2":
            # identity on the space cut at lambda_max; T holds its window only
            B = peter_weyl_basis(pair, p.label, p.H, T.lambda_max)
            ops[p] = pw.dense_operator(np.eye(B.size, dtype=complex), T.lambda_max, B, T.point)
    merged = dict(sample.operators)
    merged.update(ops)
    return OperatorFieldSample(
        sample.instance_name, sample.grid, merged,
        dict(sample.metadata, fhat2_sup=100.0),
    )


def test_10_verifier_discrimination_and_membership(jump_at, monkeypatch):
    t0 = time.perf_counter()
    pair = build_instance("M3")
    f = TestFunction(pair, [gauss_term(pair, 2, 1, 3), gauss_term(pair, 1, 0, 0, 0.5, 0.8)])

    # (a) every bundled test function passes end to end on its instance
    for name in BUNDLED_NAMES:
        cfg = ScenarioConfig.from_dict(bundled_scenario(name))
        p = cfg.build_pair()
        rep = run_verification(cfg.build_test_function(p), p, cfg.plan)[0]
        assert rep.overall, name

    # (b) adversarial fixtures, one per condition; each trips only its own
    # checker among those runnable on its grid shape
    grid = [make_dual_point(pair, mu, (h,)) for mu in (0, 1) for h in (0.5, 1.0, 1.5)]
    grid += [make_dual_point(pair, lam, None) for lam in range(5)]
    good = sample_field(f, pair, grid, 4)

    # 1: identity field fails compactness, keeps the K-dual decay green
    fx1 = _identity_fixture(pair, good)
    assert not check_compactness_proxy(pair, fx1).passed
    assert check_lambda_decay(pair, fx1).passed

    # 2: jump along a path fails continuity; the run's pass forms the jump
    # at H = 1.375, a point of m3-default's path that no other reading
    # holds, so the HS budget, the top-band tail and the rest stay green
    jump_at((1.375,), 1.5)
    plan = ScenarioConfig.from_dict(bundled_scenario("m3-default")).plan
    fx2 = run_verification(f, pair, plan)[0]
    assert [r.passed for r in fx2.reports] == [True, False, True, True, True]
    monkeypatch.undo()

    # 3: constant-in-weight field fails the weight decay; compactness green
    mu_pts = [make_dual_point(pair, mu, (1.0,)) for mu in range(-4, 5)]
    mu_sample = sample_field(f, pair, mu_pts, 6)
    const_ops = {}
    for p in mu_pts:
        T = mu_sample.operators[p]
        B = peter_weyl_basis(pair, p.label, p.H, T.lambda_max)  # beyond T's window
        M = np.zeros((B.size, B.size), dtype=complex)
        M[0, 0] = 1.0
        const_ops[p] = pw.dense_operator(M, T.lambda_max, B, T.point)
    fx3 = OperatorFieldSample(
        mu_sample.instance_name, mu_sample.grid, const_ops, mu_sample.metadata
    )
    assert not check_mu_decay(pair, fx3).passed
    assert check_compactness_proxy(pair, fx3).passed

    # 4: a field frozen away from its zero-point block form
    assert not judge_h_ladder({0: [1.0] * 9, 1: [1.0] * 9, 2: [1.0] * 9})
    assert check_h_to_zero(f, pair, [0, 1, 2], (1.0,), 8, 4).passed

    # 5: constant-in-lambda field fails the K-dual decay; compactness green
    const_g2 = {}
    for p in good.grid:
        T = good.operators[p]
        if p.stratum == "gamma2":
            const_g2[p] = pw.dense_operator(np.eye(T.size, dtype=complex) * 0.5, T.lambda_max,
                                            T.basis, T.point)
    merged = dict(good.operators)
    merged.update(const_g2)
    fx5 = OperatorFieldSample(good.instance_name, good.grid, merged, good.metadata)
    assert not check_lambda_decay(pair, fx5).passed
    assert check_compactness_proxy(pair, fx5).passed

    dt = time.perf_counter() - t0
    report(10, dt < 600.0,
           f"3 bundled fields pass end to end; 5 fixtures trip exactly their checker; {dt:.1f}s < 10min")


def test_11_equivalence_invariance_singular_values():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    cases = 0
    worst = 0.0

    m3 = build_instance("M3")
    f3 = TestFunction(m3, [gauss_term(m3, 2, 1, 0), gauss_term(m3, 1, 0, 0, 0.4)])
    for _ in range(25):
        mu = int(rng.integers(-2, 3))
        H = (float(rng.uniform(0.3, 2.0)),)
        w = m3.weyl_group[int(rng.integers(0, 2))]
        a = pi_matrix(f3, m3, mu, H, 4)
        b = pi_matrix(f3, m3, transport_label(m3, w, H, mu), w.apply(H), 4)
        s1 = np.linalg.svd(a.matrix, compute_uv=False)
        s2 = np.linalg.svd(b.matrix, compute_uv=False)
        worst = max(worst, float(np.abs(s1 - s2).max()))
        cases += 1

    m2 = build_instance("M2")
    f2 = TestFunction(m2, [gauss_term(m2, 2), gauss_term(m2, -1, sigma=0.8)])
    for _ in range(10):
        H = (float(rng.uniform(0.3, 2.5)),)
        w = m2.weyl_group[1]
        a = pi_matrix(f2, m2, 0, H, 4)
        b = pi_matrix(f2, m2, 0, w.apply(H), 4)
        s1 = np.linalg.svd(a.matrix, compute_uv=False)
        s2 = np.linalg.svd(b.matrix, compute_uv=False)
        worst = max(worst, float(np.abs(s1 - s2).max()))
        cases += 1

    m22 = build_instance("M2xM2")
    f22 = TestFunction(m22, [gauss_term(m22, (1, 2)), gauss_term(m22, (0, 1), coeff=0.5)])
    for _ in range(15):
        H = (float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0)))
        w = m22.weyl_group[int(rng.integers(0, 4))]
        a = pi_matrix(f22, m22, (0, 0), H, 3)
        b = pi_matrix(f22, m22, transport_label(m22, w, H, (0, 0)), w.apply(H), 3)
        s1 = np.linalg.svd(a.matrix, compute_uv=False)
        s2 = np.linalg.svd(b.matrix, compute_uv=False)
        worst = max(worst, float(np.abs(s1 - s2).max()))
        cases += 1

    assert worst < 1e-8
    dt = time.perf_counter() - t0
    report(11, cases == 50,
           f"50 Weyl-translated operators, max singular-value gap {worst:.2e} < 1e-8; {dt:.1f}s")
