"""The motionfields benchmark: end-to-end metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload m3-default --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It imports ``motionfields`` from
``./src`` and writes only under ``./.perfbench_tmp``, which it removes.
Each iteration runs the workload in a fresh interpreter
(``perfbench/worker.py``), because the CLI pays every cache cold on each
invocation, and checks the outputs against ``perfbench/golden``.
Iterations repeat while the next one is expected to end within
``--seconds``, and at least ``MIN_ITERATIONS`` times per mode.

``--trace 0`` prints ``setup_s``, ``wall_s`` and ``peak_rss_mb``, each the
median over the iterations.  ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer metrics of the traced ones (medians),
and ``trace_overhead``: median traced ``wall_s`` over median untraced
``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An iteration fails
when its process exits non-zero, its verdict would make the CLI exit
non-zero, its outputs differ from the golden ones or, traced, its span self
times add up to more than its ``wall_s``; ``failed / attempted`` is the
error rate.  The inputs are the frozen files in ``perfbench/workloads``:
``--seed`` only names the iteration directories, so every seed gives the
same inputs.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden

HERE = Path(__file__).resolve().parent
TMP = Path(".perfbench_tmp")

# name -> (kind, input document under perfbench/workloads).  BENCHMARK.json
# gates the first and the last; m2xm2-gamma1 runs by name only (see README).
WORKLOADS = {
    "m3-default": ("scenario", "m3-default.json"),
    "m2xm2-gamma1": ("scenario", "m2xm2-gamma1.json"),
    "m3-lambda-sweep": ("sweep", "m3-lambda-sweep.json"),
}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# span -> statistics reported as "<span>.<stat>"
LAYERS = {
    "groups.irrep_node_table": ("calls", "self_s", "distinct"),
    "groups.irrep_matrix": ("calls", "self_s"),
    "groups.quadrature": ("calls", "self_s"),
    "induction.intertwiners": ("calls", "self_s", "distinct"),
    "induction.peter_weyl_basis": ("calls", "total_s"),
    "induction.node_table": ("calls", "self_s", "distinct", "psi_bytes_max"),
    "pairs.ad_orbit_table": ("self_s",),
    "testfunctions.fhat2_sup": ("calls", "total_s"),
    "testfunctions.PolyGaussian.fourier": ("self_s",),
    "fourier.pi_matrix": (
        "calls", "self_s", "nodes", "max_N", "lam8.s", "lam10.s", "lam12.s",
    ),
    "fourier.tau_matrix": ("calls", "self_s"),
    "fourier.pi_mu0_matrix": ("total_s",),
    "fourier.sample_field": ("total_s",),
    "verifier.check_h_to_zero": ("total_s",),
    "verifier.run_verification": ("total_s",),
    "dual.converges": ("calls", "self_s"),
    "cli.run_scenario": ("self_s",),
}
STAT_UNITS = {
    "calls": "count",
    "distinct": "count",
    "nodes": "count",
    "max_N": "count",
    "psi_bytes_max": "bytes",
}
TRACE_TOTALS = (("trace_overhead", "ratio"), ("trace.wall_s", "s"), ("trace.remainder_s", "s"))
# one process and one BLAS thread per iteration, whatever the machine offers
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
DEADLINE_S = 170.0  # the whole run ends within 180 s


def per_layer_metrics():
    out = [
        (f"{span}.{stat}", STAT_UNITS.get(stat, "s"))
        for span, stats in LAYERS.items()
        for stat in stats
    ]
    return out + list(TRACE_TOTALS)


def now_s():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) / 1e9


class IterationFailed(Exception):
    pass


def run_once(workload, tag, trace, setup_only=False, timeout=DEADLINE_S):
    """Run one worker process; returns its result and its artifact directory."""
    kind, doc = WORKLOADS[workload]
    outdir = TMP / tag
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    result_path = outdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--kind", kind,
        "--input", str(HERE / "workloads" / doc),
        "--outdir", str(outdir),
        "--result", str(result_path),
    ]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    cmd += ["--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise IterationFailed(f"{workload}: worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-5:]
        raise IterationFailed(f"{workload}: worker exited {proc.returncode}: {tail}")
    return json.loads(result_path.read_text()), outdir


def iteration(workload, tag, trace, timeout):
    """One checked iteration: (result, list of problems)."""
    result, outdir = run_once(workload, tag, trace, timeout=timeout)
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"verdict gives exit code {result['exit_code']}")
    if WORKLOADS[workload][0] == "scenario":
        problems += golden.check_scenario(outdir, workload)
    else:
        problems += golden.check_sweep(result["norms"], workload)
    if trace:
        self_sum = sum(s["self_s"] for s in result["trace"].values())
        if self_sum > result["wall_s"] + 1e-9:
            problems.append(f"span self times {self_sum} s exceed wall_s {result['wall_s']} s")
    shutil.rmtree(outdir)
    return result, problems


def setup_probe(workload, tag):
    """setup_s of one process that only imports and parses, then exits."""
    result, outdir = run_once(workload, tag, False, setup_only=True)
    shutil.rmtree(outdir)
    return result["setup_s"]


def measure(workload, seed, seconds, trace):
    """Iterate until the time is up.

    Returns the results per mode (False untraced, True traced), the setup_s
    samples, and the attempted and failed counts.  An untraced run follows
    each iteration with a setup-only process, so setup_s has twice the
    samples for little extra time.
    """
    modes = (False, True) if trace else (False,)
    wanted = MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS
    samples = {m: [] for m in modes}
    setups = []
    attempts = {m: 0 for m in modes}
    failed = 0
    start = now_s()
    # fills the bytecode and file caches; users do not pay this on every run
    setup_probe(workload, f"{workload}-s{seed}-warmup")
    durations = []
    while True:
        elapsed = now_s() - start
        expected = statistics.median(durations) if durations else 0.0
        if min(attempts.values()) >= wanted and elapsed + expected > seconds:
            break
        if elapsed + expected > DEADLINE_S:
            break
        mode = modes[sum(attempts.values()) % len(modes)]
        attempts[mode] += 1
        tag = f"{workload}-s{seed}-{sum(attempts.values())}"
        t0 = now_s()
        try:
            result, problems = iteration(workload, tag, mode, DEADLINE_S - elapsed)
            if not trace:
                setups.append(setup_probe(workload, f"{tag}-setup"))
        except IterationFailed as e:
            result, problems = None, [str(e)]
        durations.append(now_s() - t0)
        if problems:
            failed += 1
            print(f"FAILED {tag}: " + "; ".join(problems[:5]), file=sys.stderr)
        else:
            samples[mode].append(result)
            setups.append(result["setup_s"])
    return samples, setups, sum(attempts.values()), failed


def end_to_end(samples, setups):
    """Every sample of each end-to-end metric: name -> (values, unit)."""
    runs = samples[False]
    out = {name: ([r[name] for r in runs], unit) for name, unit in END_TO_END}
    out["setup_s"] = (setups, "s")
    return out


def per_layer(samples):
    """Every traced sample of each per-layer metric: name -> (values, unit)."""
    plain, traced = samples[False], samples[True]
    out = {}
    for span, stats in LAYERS.items():
        for stat in stats:
            values = [r["trace"].get(span, {}).get(stat, 0) for r in traced]
            out[f"{span}.{stat}"] = (values, STAT_UNITS.get(stat, "s"))
    walls = [r["wall_s"] for r in traced]
    overhead = statistics.median(walls) / statistics.median([r["wall_s"] for r in plain])
    out["trace_overhead"] = ([overhead], "ratio")
    out["trace.wall_s"] = (walls, "s")
    remainder = [r["wall_s"] - sum(s["self_s"] for s in r["trace"].values()) for r in traced]
    out["trace.remainder_s"] = (remainder, "s")
    return out


def environment(samples):
    any_run = next(r for runs in samples.values() for r in runs)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **any_run["versions"],
        "threads": {"cli": 1, **THREAD_ENV},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not Path("src/motionfields/__init__.py").is_file():
        print("run from the root of a motionfields checkout: ./src/motionfields is missing",
              file=sys.stderr)
        return 2
    try:
        samples, setups, attempted, failed = measure(
            args.workload, args.seed, args.seconds, args.trace
        )
    except IterationFailed as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    if not all(samples.values()):
        print(f"no successful iteration in some mode ({failed}/{attempted} failed)", file=sys.stderr)
        return 1

    values = per_layer(samples) if args.trace else end_to_end(samples, setups)
    metrics = {name: (statistics.median(v), unit) for name, (v, unit) in values.items()}
    counts = ", ".join(f"{len(v)} {'traced' if m else 'untraced'}" for m, v in samples.items())
    print(f"workload {args.workload}, seed {args.seed}: {attempted} iterations ({counts})")
    print("env " + json.dumps(environment(samples), sort_keys=True))
    for name, (value, unit) in metrics.items():
        v = values[name][0]
        print(f"{name:44s} {value:.6g} {unit}  (median of {len(v)}; mean {statistics.fmean(v):.6g}, "
              f"min {min(v):.6g}, max {max(v):.6g})")
    print(f"{'error_rate':44s} {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
