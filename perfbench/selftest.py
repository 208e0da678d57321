"""Self-test of the benchmark harness; run from the root of a checkout.

    python3 perfbench/selftest.py

Checks that the tracer reaches every namespace a traced function is
imported into, that nested spans split self time without double counting,
that span self times never add up to more than the time around them, that
the golden comparison has the tolerances it documents, and that
BENCHMARK.json names exactly the metrics run.py prints and only
workloads run.py knows.
"""

import json
import sys
import time
from pathlib import Path

import golden
import run
import tracer as tracing
from worker import import_motionfields


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_every_namespace_wrapped(tr):
    import motionfields
    from motionfields import cli, config, fourier, groups, induction, verifier

    for holder, attr in [
        (fourier, "pi_matrix"), (verifier, "pi_matrix"), (motionfields, "pi_matrix"),
        (verifier, "sample_field"), (verifier, "tau_matrix"), (verifier, "pi_mu0_matrix"),
        (fourier, "peter_weyl_basis"), (verifier, "peter_weyl_basis"),
        (cli, "converges"), (cli, "run_verification"), (cli, "run_scenario"),
        (config, "build_instance"), (induction.PeterWeylBasis, "node_table"),
    ]:
        check(hasattr(getattr(holder, attr), "__perfbench_span__"), f"{holder.__name__}.{attr}")
    for cls in tracing._subclasses(groups.CompactGroup):
        for attr in ("irrep_node_table", "irrep_matrix", "quadrature"):
            check(hasattr(getattr(cls, attr), "__perfbench_span__"), f"{cls.__name__}.{attr}")
    check(not tracing.unwrapped_references(tr, tracing.package_modules()), "stale references")


def test_h_ladder_counted(tr):
    from motionfields import config, verifier
    from motionfields.testfunctions import MatrixCoefficient, PolyGaussian, Term, TestFunction

    pair = config.build_instance("M3")
    check(hasattr(pair.ad_orbit_table, "__perfbench_span__"), "pair.ad_orbit_table")
    f = TestFunction(pair, [Term(1.0, MatrixCoefficient(1, 0, 0), PolyGaussian.gaussian(3))])
    tr.reset()
    t0 = time.perf_counter()
    verifier.check_h_to_zero(f, pair, [0], (1.0,), levels=2, lambda_max=2)
    elapsed = time.perf_counter() - t0
    snap = tr.snapshot()
    # check_h_to_zero reaches pi_matrix through its own namespace
    check(snap["fourier.pi_matrix"]["calls"] == 3, snap["fourier.pi_matrix"])
    check(snap["fourier.pi_matrix"]["lam2.s"] > 0, "per-cutoff time")
    check(snap["induction.node_table"]["distinct"] == 1, snap["induction.node_table"])
    self_sum = sum(s["self_s"] for s in snap.values())
    root = snap["verifier.check_h_to_zero"]["total_s"]
    check(abs(self_sum - root) < 1e-6, f"self times {self_sum} != root span {root}")
    check(self_sum <= elapsed, f"self times {self_sum} > elapsed {elapsed}")


def test_nested_spans(tr):
    from motionfields import config

    pair = config.build_instance("M2xM2")
    tr.reset()
    pair.K.irrep_matrix((1, 2), (0.1, 0.2))
    st = tr.snapshot()["groups.irrep_matrix"]
    # the product call and its two circle factors, each once
    check(st["calls"] == 3, st)
    check(st["self_s"] <= st["total_s"], st)
    rule = pair.K.quadrature(4)
    tr.reset()
    pair.K.irrep_node_table((1, 2), rule)
    pair.K.irrep_node_table((1, 2), rule)
    st = tr.snapshot()["groups.irrep_node_table"]
    check(st["calls"] == 6 and st["distinct"] == 3, st)


def test_golden_tolerances():
    want = "lambda,op_norm\n0,2.97231869004e-17\n2,3.14992198914\n"
    check(not golden.compare_csv(want.replace("2.97231869004e-17", "-1.1e-15"), want), "floor")
    check(not golden.compare_csv(want.replace("3.14992198914", "3.14992198915"), want), "rtol")
    check(golden.compare_csv(want.replace("3.14992198914", "3.14992498914"), want), "drift")
    check(golden.compare_csv(want.replace("2,", "3,"), want), "label")
    check(golden.compare_csv(want + "4,1.0\n", want), "row count")


def test_benchmark_json_matches():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(e2e == list(run.END_TO_END), f"end_to_end {e2e}")
    check(layers == run.per_layer_metrics(), "per_layer differs from run.py")
    names = [w["name"] for w in spec["workloads"]]
    check(set(names) <= set(run.WORKLOADS), f"workloads {names}")


def main():
    import_motionfields()
    tr = tracing.install()
    for test in (test_every_namespace_wrapped, test_h_ladder_counted, test_nested_spans):
        test(tr)
    test_golden_tolerances()
    test_benchmark_json_matches()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
