"""Configuration-driven entry point.

``motionfields run --scenario m3-default --output-dir out`` builds the
instance, runs the five-condition verification plan and the bundled
convergence queries, and writes:

* ``reports.json``      -- condition reports and the overall verdict
* ``convergence.json``  -- one certificate per convergence query
* ``norms.csv``         -- operator and HS norms per sampled dual point
* ``mu_decay.csv``, ``lambda_decay.csv``, ``h_ladder.csv``,
  ``continuity.csv``    -- two-column curve data extracted from witnesses

Exit status: 0 overall pass, 1 overall fail, 2 invalid scenario document
or tolerance override (refused before any work), 3 a module's error, an
array too large to allocate, numpy's or Python's error on a value too
large for them or an unwritable artifact, told in one line.  Outputs are
deterministic for a fixed scenario: floats are printed at 12 significant
digits, and the JSON files are written by ``config.dump_json``, whose
bytes are fixed.  Each file is written under a temporary name beside it
and moved into place, so a failed run leaves no partial file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ScenarioConfig, dump_json
from .dual import converges
from .errors import ConfigError, MotionFieldsError
from .scenarios import BUNDLED_NAMES, bundled_scenario
from .verifier import run_verification

OUTPUT_DIR_ENV = "MOTIONFIELDS_OUTDIR"


def _fmt(x):
    return f"{float(x):.12g}"


def _write_text(path, text):
    """Write ``text`` under a temporary name beside ``path``, then move it there.

    A failure leaves no partial file and keeps any previous ``path`` intact;
    after a success the temporary name is gone with the move.  The bytes go
    through ``os.write`` on one descriptor, with no text layer.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _write_csv(path, header, rows):
    lines = (",".join(str(c) for c in row) + "\n" for row in [header, *rows])
    _write_text(path, "".join(lines))


def _label_str(label):
    if isinstance(label, tuple):
        return "(" + ";".join(str(x) for x in label) + ")"
    return str(label)


def _norms_rows(samples):
    rows = []
    for name, sample in samples.items():
        for p in sample.grid:
            T = sample.operators[p]
            rows.append(
                (
                    name,
                    p.stratum,
                    _label_str(p.label),
                    "(" + ";".join(_fmt(h) for h in p.H) + ")" if p.H else "0",
                    _fmt(T.op_norm),
                    _fmt(T.hs_norm),
                )
            )
    return rows


# curve file -> (condition, header, witness -> row)
_PLOT_FILES = {
    "mu_decay.csv": (3, ["mu", "op_norm"], lambda w: (_label_str(w["mu"]), _fmt(w["norm"]))),
    "lambda_decay.csv": (
        5, ["lambda", "op_norm"], lambda w: (_label_str(w["lambda"]), _fmt(w["norm"]))
    ),
    "h_ladder.csv": (
        4,
        ["mu", "level", "delta_op_norm"],
        lambda w: (_label_str(w["mu"]), w["j"], _fmt(w["delta"])),
    ),
    "continuity.csv": (
        2, ["step", "difference_op_norm"], lambda w: (_fmt(w["step"]), _fmt(w["difference"]))
    ),
}


def emit_plot_data(report, outdir):
    """Two-column CSV per decay/continuity curve, from the check witnesses."""
    by_cond = {r.condition: r for r in report.reports}
    for name, (condition, header, row) in _PLOT_FILES.items():
        _write_csv(outdir / name, header, [row(w) for w in by_cond[condition].witnesses])


def run_convergence_queries(pair, queries):
    """One certificate per parsed query (see ``ScenarioConfig.queries``)."""
    out = []
    for name, limit, sequence in queries:
        cert = converges(pair, sequence, limit)
        out.append(
            {
                "name": name,
                "limit": {"stratum": limit.stratum, "label": _label_str(limit.label)},
                "verdict": "converges" if cert.verdict else "diverges",
                "tail_index": cert.tail_index,
                "evidence": cert.evidence,
            }
        )
    return out


def run_scenario(config: ScenarioConfig, outdir):
    """Execute a scenario and write all artifact files; returns the report."""
    pair = config.build_pair()
    f = config.build_test_function(pair)
    report, samples = run_verification(f, pair, config.plan, config.thresholds)
    certificates = run_convergence_queries(pair, config.queries)

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_text(outdir / "reports.json", dump_json(report.to_dict()))
    _write_text(outdir / "convergence.json", dump_json(certificates))
    _write_csv(
        outdir / "norms.csv",
        ["grid", "stratum", "label", "H", "op_norm", "hs_norm"],
        _norms_rows(samples),
    )
    emit_plot_data(report, outdir)
    return report, certificates


def load_scenario(spec):
    """A bundled name or a path to a JSON scenario document."""
    if spec in BUNDLED_NAMES:
        return ScenarioConfig.from_dict(bundled_scenario(spec))
    path = Path(spec)
    if not path.exists():
        raise ConfigError(
            "scenario",
            f"{spec!r} is neither a bundled scenario ({', '.join(BUNDLED_NAMES)}) "
            "nor an existing file",
        )
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError("scenario", f"cannot read {spec!r}: {e}") from None
    return ScenarioConfig.from_json(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="motionfields",
        description="Operator fields over motion-group duals: verification runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write artifacts")
    run_p.add_argument(
        "--scenario", required=True, help="bundled name or path to scenario JSON"
    )
    run_p.add_argument(
        "--output-dir",
        default=None,
        help=f"artifact directory (default: scenario value, then ${OUTPUT_DIR_ENV}, then ./out)",
    )
    run_p.add_argument(
        "--override-tolerance",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a verdict threshold (repeatable)",
    )
    sub.add_parser("list-scenarios", help="print bundled scenario names")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        for name in BUNDLED_NAMES:
            print(name)
        return 0
    try:
        config = load_scenario(args.scenario)
        overrides = {}
        for item in args.override_tolerance:
            name, sep, value = item.partition("=")
            if not sep:
                raise ConfigError("override-tolerance", f"expected NAME=VALUE, got {item!r}")
            overrides[name] = value
        config.override_tolerances(overrides)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2

    outdir = (
        args.output_dir
        or config.output_dir
        or os.environ.get(OUTPUT_DIR_ENV)
        or "out"
    )
    try:
        report, certificates = run_scenario(config, outdir)
    except (MotionFieldsError, ValueError, OverflowError) as e:  # the last two: a huge label
        print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # numpy raises a private subclass of it
        print(f"run failed: MemoryError: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # the artifact writes are the run's only file access
        print(f"run failed: cannot write artifacts to {outdir}: {e}", file=sys.stderr)
        return 3
    for r in report.reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"condition {r.condition} ({r.name}): {status}")
    for c in certificates:
        print(f"convergence {c['name']}: {c['verdict']}")
    print(f"overall: {'PASS' if report.overall else 'FAIL'}  (artifacts in {outdir})")
    return 0 if report.overall else 1


if __name__ == "__main__":
    sys.exit(main())
