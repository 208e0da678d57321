"""Golden outputs of the benchmark workloads, and the check against them.

Scenario workloads: the verdicts in ``reports.json`` and ``convergence.json``
must match exactly; ``norms.csv`` and the four curve files must match cell
by cell, text exactly and numbers at relative tolerance 1e-9 with an
absolute floor of 1e-12 times the largest magnitude in the golden file
(round-off entries of order 1e-15 and below would fail a pure relative
test).  Sweep: basis size exactly, operator and HS norm per lambda_max at
relative tolerance 1e-9.

    python3 perfbench/golden.py     # rewrite perfbench/golden/ from ./src

Rewriting is for a change that is meant to alter the numbers; say why in
the change that does it.
"""

import json
import math
import shutil
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CSV_FILES = (
    "norms.csv",
    "mu_decay.csv",
    "lambda_decay.csv",
    "h_ladder.csv",
    "continuity.csv",
)
SCENARIO_FILES = ("reports.json", "convergence.json") + CSV_FILES
RTOL = 1e-9
FLOOR = 1e-12


def _number(cell):
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _close(a, b, atol):
    return abs(a - b) <= max(RTOL * abs(b), atol)


def compare_csv(got_text, want_text):
    got = [line.split(",") for line in got_text.splitlines()]
    want = [line.split(",") for line in want_text.splitlines()]
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"{len(got)} lines or header {got[:1]} != {len(want)} lines, {want[:1]}"]
    numbers = [_number(c) for row in want[1:] for c in row]
    atol = FLOOR * max([abs(x) for x in numbers if x is not None], default=0.0)
    problems = []
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            problems.append(f"line {i + 1}: {g_row} != {w_row}")
            continue
        for g, w in zip(g_row, w_row):
            gx, wx = _number(g), _number(w)
            if wx is None or gx is None:
                ok = g == w
            else:
                ok = _close(gx, wx, atol)
            if not ok:
                problems.append(f"line {i + 1}: {g} != {w}")
    return problems


def _verdicts(reports, convergence):
    return {
        "overall": reports["overall"],
        "conditions": [(r["condition"], r["name"], r["passed"]) for r in reports["reports"]],
        "queries": [(c["name"], c["limit"], c["verdict"]) for c in convergence],
    }


def check_scenario(outdir, workload):
    """Problems found comparing a run's artifact directory with the golden one."""
    outdir, want_dir = Path(outdir), GOLDEN_DIR / workload
    missing = [n for n in SCENARIO_FILES if not (outdir / n).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]

    def load(d, name):
        return json.loads((d / name).read_text())

    got = _verdicts(load(outdir, "reports.json"), load(outdir, "convergence.json"))
    want = _verdicts(load(want_dir, "reports.json"), load(want_dir, "convergence.json"))
    problems = [] if got == want else [f"verdicts {got} != {want}"]
    for name in CSV_FILES:
        found = compare_csv((outdir / name).read_text(), (want_dir / name).read_text())
        problems.extend(f"{name}: {p}" for p in found)
    return problems


def check_sweep(norms, workload):
    want = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
    if [n["lambda_max"] for n in norms] != [n["lambda_max"] for n in want] or [
        n["N"] for n in norms
    ] != [n["N"] for n in want]:
        return [f"sweep shape {norms} != {want}"]
    problems = []
    for g, w in zip(norms, want):
        for key in ("op_norm", "hs_norm"):
            if not _close(g[key], w[key], 0.0):
                problems.append(f"lambda_max={w['lambda_max']} {key}: {g[key]!r} != {w[key]!r}")
    return problems


def main():
    import run

    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, (kind, _) in run.WORKLOADS.items():
        result, outdir = run.run_once(workload, tag="golden", trace=False)
        if kind == "scenario":
            dest = GOLDEN_DIR / workload
            dest.mkdir(exist_ok=True)
            for name in SCENARIO_FILES:
                shutil.copyfile(outdir / name, dest / name)
        else:
            (GOLDEN_DIR / f"{workload}.json").write_text(
                json.dumps(result["norms"], indent=1) + "\n"
            )
        shutil.rmtree(outdir)
        print(f"{workload}: golden written")
    shutil.rmtree(run.TMP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
