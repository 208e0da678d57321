"""One iteration of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --kind scenario --input perfbench/workloads/m3-default.json \
        --outdir OUT --result RESULT.json --spawn-ns NS [--trace] [--setup-only]

Run from the root of a checkout: ``motionfields`` is imported from ``./src``.
``--spawn-ns`` is the CLOCK_MONOTONIC reading the parent took just before it
started this process, so ``setup_s`` covers interpreter start-up, the
import and parsing the input into an instance and a test function.
``wall_s`` then covers ``run_scenario`` (artifact files included) or, for a
sweep, the ``pi_matrix`` calls.  The result file holds the timings, the
peak resident set, the exit code the CLI would return, the sweep norms and,
with ``--trace``, the span statistics of the timed region.
"""

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path


def now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def import_motionfields():
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import motionfields

    if Path(motionfields.__file__).resolve().parent.parent != src:
        raise SystemExit(f"motionfields came from {motionfields.__file__}, not {src}")
    return motionfields


def versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--kind", choices=("scenario", "sweep"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawn-ns", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_motionfields()
    from motionfields import cli, fourier

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()

    doc_path = Path(args.input)
    if args.kind == "scenario":
        config = cli.load_scenario(str(doc_path))
    else:
        sweep = json.loads(doc_path.read_text())
        config = cli.load_scenario(str(doc_path.parent / sweep["scenario"]))
    pair = config.build_pair()
    f = config.build_test_function(pair)
    setup_s = (now_ns() - args.spawn_ns) / 1e9

    result = {"setup_s": setup_s}
    if not args.setup_only:
        if tracer:
            tracer.reset()
        norms = []
        if args.kind == "scenario":
            t0 = now_ns()
            report, _ = cli.run_scenario(config, args.outdir)
            wall_ns = now_ns() - t0
            exit_code = 0 if report.overall else 1
        else:
            wall_ns = 0
            for lam in sweep["lambda_max"]:
                t0 = now_ns()
                op = fourier.pi_matrix(f, pair, sweep["mu"], tuple(sweep["H"]), lam)
                wall_ns += now_ns() - t0
                norms.append(
                    {
                        "lambda_max": lam,
                        "N": op.size,
                        "op_norm": fourier.operator_norm(op),
                        "hs_norm": fourier.hs_norm(op),
                    }
                )
                del op
            exit_code = 0
        result.update(
            wall_s=wall_ns / 1e9,
            exit_code=exit_code,
            norms=norms,
            trace=tracer.snapshot() if tracer else None,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
