"""Numerical certification of the defining operator-field conditions.

Five checks mirror the membership conditions of the operator-field algebra:
(1) a compactness proxy (Hilbert-Schmidt bound against the closed-form sup
bound of the partial Fourier transform, plus top-band tail mass),
(2) norm continuity along paths inside one stratum, (3) decay in the
stabilizer weight at fixed flat parameter, (4) convergence to the
block-diagonal zero-point operator along rays into the origin (uniformly
over a finite weight list), and (5) decay along the K-dual.  Each check
separates the measurement from the verdict: ``judge_*`` functions decide on
plain witness data, so adversarial fixtures can exercise them directly.

All verdict thresholds live in one configuration block for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dual import GAMMA2
from .errors import MissingGamma2Data, MissingSupBound, PathCrossesStrata
from .fourier import pi_family, pi_mu0_matrix, sample_field
from .induction import branches_between, window_basis
from .pairs import as_coords, stabilizer


@dataclass(frozen=True)
class Thresholds:
    """Verdict thresholds; defaults are the documented desk-scale values."""

    hs_slack: float = 1e-6  # multiplicative slack on the HS bound
    tail_mass: float = 1e-3  # top K-type band fraction of total HS mass
    lipschitz_slack: float = 1.5  # slack on the coarse-pair Lipschitz estimate
    halving_factor: float = 1.5  # step halving must shrink differences this well
    mu_decay_norm: float = 1e-3  # ceiling beyond the recorded cutoff weight
    h_zero_delta: float = 1e-2  # final-rung distance to the zero-point operator
    lambda_exact: float = 1e-6  # ceiling beyond the bandlimit (bandlimited case)
    lambda_general: float = 1e-3  # ceiling for the general decay reading
    monotone_slack: float = 1e-12


@dataclass
class ConditionReport:
    condition: int
    name: str
    passed: bool
    witnesses: list
    thresholds: dict
    notes: str = ""

    def to_dict(self):
        """The fields by name; shallow, as ``dump_json`` reads the witnesses as they are."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class MembershipReport:
    reports: list
    overall: bool
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "overall": self.overall,
            "reports": [r.to_dict() for r in self.reports],
            "metadata": self.metadata,
        }


def _d_mu(pair, point):
    return stabilizer(pair, point.H).group.irrep_dim(point.label)


# ---------------------------------------------------------------------------
# condition 1: compactness proxy


def check_compactness_proxy(pair, sample, thresholds=Thresholds()):
    """HS bound and top-band tail mass on every induced-stratum operator.

    The bound is hs^2 <= d_mu * sup^2 * (1 + hs_slack), with sup the
    closed-form bound ``TestFunction.fhat2_sup`` on |f-hat| over (k, xi)
    that the sample records.  It lies above the true sup, so the check
    cannot fail a function that meets the bound at the true sup.  A sample
    without it raises MissingSupBound: without a sup the check is vacuous.
    The top band is that of the ``lambda_max`` truncation: when it lies
    above a sampled operator's window, the tail fraction is exactly 0.
    ``notes`` states W and whether lambda_max >= W (the truncation is exact).
    """
    if "fhat2_sup" not in sample.metadata:
        raise MissingSupBound("the sample metadata has no 'fhat2_sup' bound")
    sup = float(sample.metadata["fhat2_sup"])
    W, lam_max = (sample.metadata.get(k) for k in ("window", "lambda_max"))
    exact = None not in (W, lam_max) and lam_max >= W
    witnesses = []
    ok = True
    for p, T in sample.operators.items():
        if p.stratum == GAMMA2:
            continue
        d_mu = _d_mu(pair, p)
        hs2 = T.hs_norm**2
        bound = d_mu * sup**2 * (1.0 + thresholds.hs_slack)
        bands = [pair.K.char_band(lam) for lam, _, _ in T.block_index]
        B = T.basis  # a top band above a sampled operator's window holds no entry
        above = branches_between(pair.K, B.stab, B.mu, B.lambda_max, T.lambda_max)
        top = None if above else max(bands, default=None)
        idx = [i for i, b in enumerate(bands) if b == top]
        tail2 = float(
            np.linalg.norm(T.matrix[idx, :]) ** 2
            + np.linalg.norm(T.matrix[:, idx]) ** 2
            - np.linalg.norm(T.matrix[np.ix_(idx, idx)]) ** 2
        )
        frac = tail2 / hs2 if hs2 > 0 else 0.0
        good = hs2 <= bound and frac < thresholds.tail_mass
        ok = ok and good
        witnesses.append({"point": _point_key(p), "hs_sq": hs2, "hs_bound": bound,
                          "tail_fraction": frac, "passed": good})
    limits = {"hs_slack": thresholds.hs_slack, "tail_mass": thresholds.tail_mass}
    return ConditionReport(
        1, "compactness-proxy", bool(ok), witnesses, limits,
        notes="sup is the closed-form bound sum_t |c_t| sup|g_t-hat|; window W="
        f"{W}, lambda_max={lam_max}: truncation {'exact' if exact else 'not exact'}",
    )


# ---------------------------------------------------------------------------
# condition 2: continuity along a path


def judge_continuity(diffs_fine, diffs_coarse, steps_fine, steps_coarse,
                     thresholds=Thresholds()):
    """Verdict on consecutive-difference norms at two path resolutions."""
    atol = 1e-12
    if not diffs_coarse:
        return True, []
    L = max(d / h for d, h in zip(diffs_coarse, steps_coarse))
    lip_ok = all(
        d <= thresholds.lipschitz_slack * L * h + atol
        for d, h in zip(diffs_fine, steps_fine)
    )
    halve_ok = max(diffs_fine) <= (
        thresholds.halving_factor * max(diffs_coarse) / 2.0 + atol
    )
    detail = [
        {"step": h, "difference": d, "lipschitz_budget": L * h}
        for d, h in zip(diffs_fine, steps_fine)
    ]
    return bool(lip_ok and halve_ok), detail


def path_break(pair, pts):
    """(i, reason) for the first point of a continuity path off its stratum, or None.

    A point's stratum is its stratum tag, wall set and label (points are
    canonical: their H is dominant already), and every point must share
    that of the first, which must be an induced stratum.  The scenario
    parser refuses such a path, and ``check_continuity`` raises on it.
    """

    def stratum_key(p):
        walls = () if p.stratum == GAMMA2 else pair.wall_set(p.H)
        return (p.stratum, walls, p.label)

    first = stratum_key(pts[0])
    for i, p in enumerate(pts):
        if stratum_key(p) != first:
            return i, f"path leaves the stratum {first} of its first point at {p}"
    if first[0] == GAMMA2:
        return 0, "continuity paths live in the induced strata"
    return None


def check_continuity(pair, sample, thresholds=Thresholds()):
    """Norm continuity along a discretized path inside one stratum.

    The grid order of the sample is the path order; the point count must be
    odd so the half-resolution path is well-defined.  PathCrossesStrata is
    raised when the stratum tag, wall set or label changes along the path
    (``path_break``).
    """
    pts = list(sample.grid)
    if len(pts) < 3 or len(pts) % 2 == 0:
        raise ValueError("continuity path needs an odd number (>= 3) of points")
    broken = path_break(pair, pts)
    if broken:
        raise PathCrossesStrata(broken[1])
    # the step differences, in one buffer normed by one batched SVD; a
    # stride-2 difference is the sum of two steps, formed in place after
    ops = [sample.operators[p].matrix for p in pts]
    diff = np.empty((len(pts) - 1,) + ops[0].shape, dtype=complex)
    for i, buf in enumerate(diff):
        np.subtract(ops[i + 1], ops[i], out=buf)
    fine = np.linalg.svd(diff, compute_uv=False).max(axis=1, initial=0.0).tolist()
    for a, b in zip(diff[0::2], diff[1::2]):  # matrix by matrix: no overlap copy
        a += b
    coarse = np.linalg.svd(diff[0::2], compute_uv=False).max(axis=1, initial=0.0).tolist()
    steps_fine = [math.dist(a.H, b.H) for a, b in zip(pts, pts[1:])]
    steps_coarse = [math.dist(a.H, b.H) for a, b in zip(pts[0::2], pts[2::2])]
    ok, detail = judge_continuity(fine, coarse, steps_fine, steps_coarse, thresholds)
    return ConditionReport(
        2,
        "stratum-continuity",
        ok,
        detail,
        {
            "lipschitz_slack": thresholds.lipschitz_slack,
            "halving_factor": thresholds.halving_factor,
        },
    )


# ---------------------------------------------------------------------------
# condition 3: decay in the stabilizer weight


def judge_mu_decay(norms_by_abs_mu, thresholds=Thresholds()):
    """Verdict on sup norms indexed by |mu| (max over signs already taken)."""
    keys = sorted(norms_by_abs_mu)
    vals = [norms_by_abs_mu[k] for k in keys]
    peak = int(np.argmax(vals))
    monotone = all(
        b <= a + thresholds.monotone_slack
        for a, b in zip(vals[peak:], vals[peak + 1:])
    )
    mu_star = None
    for i, k in enumerate(keys):
        if all(v <= thresholds.mu_decay_norm for v in vals[i:]):
            mu_star = k
            break
    return bool(monotone and mu_star is not None), mu_star, peak


def check_mu_decay(pair, sample, thresholds=Thresholds()):
    """Operator-norm decay over the stabilizer dual at fixed flat parameter."""
    pts = [p for p in sample.grid if p.stratum != GAMMA2]
    if not pts:
        raise ValueError("mu-decay check needs induced-stratum points")
    stab = stabilizer(pair, pts[0].H)
    if len(stab.group.irrep_labels(10)) <= 1:
        return ConditionReport(
            3,
            "mu-decay",
            True,
            [],
            {"mu_decay_norm": thresholds.mu_decay_norm},
            notes="vacuous: the stabilizer has a single irrep on this grid",
        )
    by_abs = {}
    witnesses = []
    for p in pts:
        n = sample.operators[p].op_norm
        k = stab.group.char_band(p.label)
        by_abs[k] = max(by_abs.get(k, 0.0), n)
        witnesses.append({"mu": p.label, "norm": n})
    ok, mu_star, peak = judge_mu_decay(by_abs, thresholds)
    return ConditionReport(
        3,
        "mu-decay",
        ok,
        witnesses,
        {"mu_decay_norm": thresholds.mu_decay_norm},
        notes=f"mu_star={mu_star}, peak_at={sorted(by_abs)[peak]}",
    )


# ---------------------------------------------------------------------------
# condition 4: convergence to the zero-point operator


def judge_h_ladder(deltas_by_mu, thresholds=Thresholds()):
    """Verdict on difference norms delta[mu][j] along a dyadic ray to zero."""
    ok = True
    for mu, deltas in deltas_by_mu.items():
        mono = all(
            b <= a + thresholds.monotone_slack for a, b in zip(deltas, deltas[1:])
        )
        ok = ok and mono and deltas[-1] < thresholds.h_zero_delta
    finals = [d[-1] for d in deltas_by_mu.values()]
    ok = ok and max(finals) < thresholds.h_zero_delta
    return bool(ok)


def _distances(stack, ref):
    """Operator norms of each matrix of ``stack`` minus ``ref``; ``stack`` is overwritten."""
    for m in stack:  # in place and matrix by matrix: a broadcast would buffer
        m -= ref
    return np.linalg.svd(stack, compute_uv=False).max(axis=1, initial=0.0).tolist()


def check_h_to_zero(f, pair, mu_list, H0, levels, lambda_max, thresholds=Thresholds()):
    """Distance from the induced operator to its zero-point block form.

    Rays are H0 * 2^{-j}, j = 0..levels; the covariant basis is built once
    per weight, cut at the window of ``f`` (outside it both operators are
    zero), and shared across the ray, so differences are entrywise
    meaningful.  Each weight's ladder is one family: one ``pi_family``
    stack, the zero-point operator subtracted in place and one batched SVD;
    beyond the mu cut-off the basis is empty and the distances are 0, with
    no operator formed.  The uniformity proxy aggregates the final rung over
    the supplied weight list.
    """
    H0 = as_coords(H0)
    rungs = [tuple(c * 2.0 ** (-j) for c in H0) for j in range(levels + 1)]
    deltas = {}
    witnesses = []
    for mu in mu_list:
        basis = window_basis(pair, mu, H0, lambda_max, f.window)
        if basis.blocks:
            ref = pi_mu0_matrix(f, pair, mu, lambda_max, basis=basis)
            deltas[mu] = _distances(pi_family(f, pair, basis, rungs), ref.matrix)
        else:  # beyond the mu cut-off both operators are 0 x 0
            deltas[mu] = [0.0] * len(rungs)
        witnesses.extend({"mu": mu, "j": j, "delta": d} for j, d in enumerate(deltas[mu]))
    ok = judge_h_ladder(deltas, thresholds)
    return ConditionReport(
        4, "zero-point-convergence", ok, witnesses, {"h_zero_delta": thresholds.h_zero_delta},
        notes=f"max final delta = {max(d[-1] for d in deltas.values()):.3g}",
    )


# ---------------------------------------------------------------------------
# condition 5: decay along the K-dual


def judge_lambda_decay(norms_by_band, bandlimit=None, thresholds=Thresholds()):
    keys = sorted(norms_by_band)
    vals = [norms_by_band[k] for k in keys]
    if bandlimit is not None:
        beyond = [v for k, v in zip(keys, vals) if k > bandlimit]
        return bool(all(v < thresholds.lambda_exact for v in beyond))
    peak = int(np.argmax(vals))
    monotone = all(
        b <= a + thresholds.monotone_slack
        for a, b in zip(vals[peak:], vals[peak + 1:])
    )
    return bool(monotone and vals[-1] < thresholds.lambda_general)


def check_lambda_decay(pair, sample, thresholds=Thresholds()):
    """Norm decay over the K-dual entries of the sample."""
    pts = [p for p in sample.grid if p.stratum == GAMMA2]
    if not pts:
        raise MissingGamma2Data("no K-dual entries in the sample")
    by_band = {}
    witnesses = []
    for p in pts:
        n = sample.operators[p].op_norm
        b = pair.K.char_band(p.label)
        by_band[b] = max(by_band.get(b, 0.0), n)
        witnesses.append({"lambda": p.label, "norm": n})
    bandlimit = sample.metadata.get("bandlimit")
    ok = judge_lambda_decay(by_band, bandlimit, thresholds)
    return ConditionReport(
        5,
        "k-dual-decay",
        ok,
        witnesses,
        {
            "lambda_exact": thresholds.lambda_exact,
            "lambda_general": thresholds.lambda_general,
        },
        notes=f"bandlimit={'unknown' if bandlimit is None else bandlimit}",
    )


# ---------------------------------------------------------------------------
# aggregated membership verification


@dataclass
class VerificationPlan:
    """Grids for the five condition checks on one instance."""

    lambda_max: int
    grid: list  # DualPoints for conditions 1 and 5
    path: list  # DualPoints along the continuity path, odd count
    h_ladder_mus: list  # labels at h_ladder_H0, as given
    h_ladder_H0: object
    h_ladder_levels: int
    mu_points: list | None = None  # DualPoints at one H for condition 3


def run_verification(f, pair, plan, thresholds=Thresholds()):
    """Run conditions 1-5 on the Fourier field of ``f`` over ``plan``'s grids.

    Returns the aggregated report together with the computed samples
    (keys "main", "path", "mu") so callers can export per-point norms.
    Plans come from scenarios: ``ScenarioConfig.from_dict(doc).plan``.
    """
    reports = []
    samples = {}

    sample = sample_field(f, pair, plan.grid, plan.lambda_max)
    samples["main"] = sample
    reports.append(check_compactness_proxy(pair, sample, thresholds))

    path_sample = sample_field(f, pair, plan.path, plan.lambda_max)
    samples["path"] = path_sample
    reports.append(check_continuity(pair, path_sample, thresholds))

    if plan.mu_points:
        stab = stabilizer(pair, plan.mu_points[0].H)
        band = max(stab.group.char_band(p.label) for p in plan.mu_points)
        mu_sample = sample_field(f, pair, plan.mu_points, max(plan.lambda_max, band + 2))
        samples["mu"] = mu_sample
        reports.append(check_mu_decay(pair, mu_sample, thresholds))
    else:
        samples["mu"] = sample  # trivial-stabilizer family: vacuous by design
        reports.append(check_mu_decay(pair, sample, thresholds))

    reports.append(
        check_h_to_zero(
            f,
            pair,
            plan.h_ladder_mus,
            plan.h_ladder_H0,
            plan.h_ladder_levels,
            plan.lambda_max,
            thresholds=thresholds,
        )
    )
    reports.append(check_lambda_decay(pair, sample, thresholds))

    overall = all(r.passed for r in reports)
    report = MembershipReport(
        reports=reports,
        overall=overall,
        metadata={
            "instance": pair.name,
            "lambda_max": plan.lambda_max,
            "function": f.describe(),
        },
    )
    return report, samples


def verify_membership(f, pair, plan, thresholds=Thresholds()):
    """Run conditions 1-5 on the Fourier field of ``f`` and aggregate."""
    report, _ = run_verification(f, pair, plan, thresholds)
    return report


def _point_key(p):
    return {
        "stratum": p.stratum,
        "label": list(p.label) if isinstance(p.label, tuple) else p.label,
        "H": list(p.H) if p.H is not None else None,
    }
