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
``run_verification`` measures once: ``fourier.sample_field`` reads the
whole plan in one pass (one ``pi_family`` block per family; its norms
with no SVD where the support is monomial, as in every bundled scenario,
else one batched SVD per matrix shape), and each check judges what that
pass returns.
Condition 2 reads only that pass: the path's step norms exist on its path
sample alone.

All verdict thresholds live in one configuration block for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dual import GAMMA2
from .errors import MissingGamma2Data, MissingSupBound
from .fourier import VerificationPlan, sample_field
from .induction import branches_between
from .pairs import stabilizer


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
    without it (a float >= 0 with a finite square) raises MissingSupBound.
    The top band is that of the ``lambda_max`` truncation: when it lies
    above a sampled operator's window, the tail fraction is exactly 0.
    ``notes`` states W and whether lambda_max >= W (the truncation is exact).
    """
    sup = sample.metadata.get("fhat2_sup")
    if not (isinstance(sup, float) and 0.0 <= sup and sup * sup < math.inf):
        raise MissingSupBound(f"no 'fhat2_sup' bound (a float >= 0, finite squared), got {sup!r}")
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
        B = T.basis  # a top band above a sampled operator's window holds no entry
        above = branches_between(pair.K, B.stab, B.mu, B.lambda_max, T.lambda_max)
        bands = {lam: pair.K.char_band(lam) for lam in B.columns}
        top = None if above else max(bands.values(), default=None)
        spans = [range(s.start, s.stop) for lam, s in B.columns.items() if bands[lam] == top]
        # the block's rows and columns in the top band: outside them every entry is 0
        rows = [n for n, i in enumerate(T.rows) if any(i in r for r in spans)]
        cols = [n for n, j in enumerate(T.cols) if any(j in r for r in spans)]
        tail2 = 0.0  # no support in the top band: exactly 0, with no norm taken
        if rows or cols:
            tail2 = float(
                np.linalg.norm(T.block[rows, :]) ** 2
                + np.linalg.norm(T.block[:, cols]) ** 2
                - np.linalg.norm(T.block[np.ix_(rows, cols)]) ** 2
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


def _continuity_report(sample, thresholds):
    """Condition 2's report on the path sample of a plan's ``sample_field`` pass.

    The pass has checked the path (``fourier.check_path``: an odd count, one
    stratum, no step of length 0) and normed its step differences at both
    resolutions, the sample's ``steps``; this judges them against the step
    lengths.
    """
    pts = list(sample.grid)
    fine, coarse = sample.steps
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
    peak = vals.index(max(vals))  # the first maximum
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


def check_h_to_zero(f, pair, mu_list, H0, levels, lambda_max, thresholds=Thresholds()):
    """Distance from the induced operator to its zero-point block form.

    Rays are H0 * 2^{-j}, j = 0..levels; the covariant basis is built once
    per weight, cut at the window of ``f`` (outside it both operators are
    zero), and shared across the ray, so differences are entrywise
    meaningful.  The ladder is ``sample_field``'s pass over a plan with
    this ladder alone: each weight's rungs and the zero point are one
    family, its deltas to the zero-point operator are formed in a new
    buffer, and they are 0 x 0 beyond the mu cut-off.  The uniformity proxy
    aggregates the final rung over the supplied weight list.
    """
    plan = VerificationPlan(lambda_max, [], [], list(mu_list), H0, levels)
    return _zero_point_report(sample_field(f, pair, plan, lambda_max)["h_ladder"], thresholds)


def _zero_point_report(ladder, thresholds):
    """Condition 4's report on ``sample_field``'s (mu, deltas) per ladder weight."""
    deltas = dict(ladder)
    witnesses = [{"mu": mu, "j": j, "delta": d} for mu, ds in ladder for j, d in enumerate(ds)]
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
    peak = vals.index(max(vals))  # the first maximum
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


def run_verification(f, pair, plan, thresholds=Thresholds()):
    """Run conditions 1-5 on the Fourier field of ``f`` over ``plan``'s grids.

    The field is read in one pass, ``sample_field`` over the whole plan,
    and each check judges what it returns; the path is checked once, by
    ``fourier.check_path`` in that pass, and ValueError is raised first for
    a plan with no path.  Returns the aggregated report
    together with the computed samples (keys "main", "path", "mu") so
    callers can export per-point norms.  Plans come from scenarios:
    ``ScenarioConfig.from_dict(doc).plan``.
    """
    if not plan.path:  # sample_field checks the rest of the path rule
        raise ValueError("continuity path needs an odd number (>= 3) of points, got none")
    samples = sample_field(f, pair, plan, plan.lambda_max)
    ladder = samples.pop("h_ladder")
    samples.setdefault("mu", samples["main"])  # trivial-stabilizer family: vacuous by design
    reports = [
        check_compactness_proxy(pair, samples["main"], thresholds),
        _continuity_report(samples["path"], thresholds),
        check_mu_decay(pair, samples["mu"], thresholds),
        _zero_point_report(ladder, thresholds),
        check_lambda_decay(pair, samples["main"], thresholds),
    ]

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


def _point_key(p):
    return {
        "stratum": p.stratum,
        "label": list(p.label) if isinstance(p.label, tuple) else p.label,
        "H": list(p.H) if p.H is not None else None,
    }
