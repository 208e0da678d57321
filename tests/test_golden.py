"""Golden numbers of the benchmark workloads, checked in the test suite.

The frozen inputs under ``perfbench/workloads`` are run here as the
benchmark runs them, and compared with ``perfbench/golden`` by the
benchmark's own rules (``perfbench/golden.py``: verdicts exact, CSV cells
at relative tolerance 1e-9 with a floor of 1e-12 times the largest value,
sweep norms at relative tolerance 1e-9).  The bundled m2-default scenario,
which no workload runs, is compared by the same rules with its artifacts
under ``tests/golden``, and so are two scenarios with flat factors of
degree 1-3 (``m3-poly``; ``m2xm2-poly``, whose degree-2 term is also read
at wall points), whose inputs sit beside their artifacts: their goldens
were recorded when such entries were node sums of a quadrature rule, so
they pin the closed forms that replaced them.  A change that moves a
number beyond those tolerances fails here.  The ``convergence.json`` of
each scenario workload is also compared byte for byte with
``tests/golden``, as the benchmark's rules compare only its verdicts, not
its evidence distances.  Every artifact of those five scenarios is
pinned byte for byte as well, by its SHA-256 in
``tests/golden/artifacts.sha256``: a change meant to leave the numbers
alone must leave that manifest alone.  One traced benchmark iteration of
each kind (scenario and sweep) runs too, so the names the trace wraps stay
in place.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from motionfields import fourier, induction
from motionfields.cli import load_scenario, run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads"
TESTS_GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = {  # name -> the spec load_scenario reads
    "m2-default": "m2-default",
    "m3-default": str(WORKLOADS / "m3-default.json"),
    "m2xm2-gamma1": str(WORKLOADS / "m2xm2-gamma1.json"),
    "m3-poly": str(TESTS_GOLDEN / "m3-poly" / "scenario.json"),
    "m2xm2-poly": str(TESTS_GOLDEN / "m2xm2-poly" / "scenario.json"),
}


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", PERFBENCH / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["m3-default", "m2xm2-gamma1"])
def test_scenario_matches_golden(workload, golden, tmp_path):
    config = load_scenario(str(WORKLOADS / f"{workload}.json"))
    report, _ = run_scenario(config, tmp_path)
    assert report.overall
    assert golden.check_scenario(tmp_path, workload) == []
    want = TESTS_GOLDEN / workload / "convergence.json"
    assert (tmp_path / "convergence.json").read_bytes() == want.read_bytes()


def test_bundled_m2_default_matches_golden(golden, tmp_path, monkeypatch):
    report, _ = run_scenario(load_scenario("m2-default"), tmp_path)
    assert report.overall
    monkeypatch.setattr(golden, "GOLDEN_DIR", TESTS_GOLDEN)
    assert golden.check_scenario(tmp_path, "m2-default") == []


@pytest.mark.parametrize("name", ["m3-poly", "m2xm2-poly"])
def test_degree_one_scenario_matches_golden(name, golden, tmp_path, monkeypatch):
    report, _ = run_scenario(load_scenario(str(TESTS_GOLDEN / name / "scenario.json")), tmp_path)
    assert report.overall
    monkeypatch.setattr(golden, "GOLDEN_DIR", TESTS_GOLDEN)
    assert golden.check_scenario(tmp_path, name) == []


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_artifacts_match_manifest(name, tmp_path):
    run_scenario(load_scenario(SCENARIOS[name]), tmp_path)
    want = {}
    for line in (TESTS_GOLDEN / "artifacts.sha256").read_text().splitlines():
        digest, path = line.split()
        scenario, artifact = path.split("/")
        if scenario == name:
            want[artifact] = digest
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert len(want) == 7 and got == want


def test_m3_default_bases_are_cut_at_the_window(patch_everywhere, tmp_path):
    # the field is formed on bases cut at the selection-rule window W = 2,
    # not at lambda_max 5 (7 for the weight sample)
    config = load_scenario(SCENARIOS["m3-default"])
    assert config.build_test_function(config.build_pair()).window == 2 < config.plan.lambda_max
    cuts, build = [], induction.peter_weyl_basis

    def spy(pair, mu, H, lambda_max):
        cuts.append(lambda_max)
        return build(pair, mu, H, lambda_max)

    patch_everywhere(build, spy)
    assert run_scenario(config, tmp_path)[0].overall
    assert cuts and max(cuts) <= 2


def test_m3_default_run_forms_each_family_once(patch_everywhere, monkeypatch, tmp_path):
    # one field pass over the plan: five induced families with a K-type in
    # the window (mu = -2..2; the ladder and the path join them) and the two
    # nonzero K-dual entries, one pi_family call each; one SVD per shape of
    # the matrices on their families' supports, 2 x 2 and 1 x 1 (whole
    # families made 5); no norm beside stack_norms', as lambda_max > W
    # leaves condition 1 no top-band row (separate passes made 19, 25, 43)
    calls = dict.fromkeys(["pi_family", "svd", "norm"], 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    patch_everywhere(fourier.pi_family, counted("pi_family", fourier.pi_family))
    for name in ("svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    assert run_scenario(load_scenario(SCENARIOS["m3-default"]), tmp_path)[0].overall
    assert calls["pi_family"] <= 7 and calls["svd"] <= 2 and calls["norm"] <= 2, calls


def test_lambda_sweep_matches_golden(golden):
    sweep = json.loads((WORKLOADS / "m3-lambda-sweep.json").read_text())
    config = load_scenario(str(WORKLOADS / sweep["scenario"]))
    pair = config.build_pair()
    f = config.build_test_function(pair)
    norms = []
    for lam in sweep["lambda_max"]:
        op = fourier.pi_matrix(f, pair, sweep["mu"], tuple(sweep["H"]), lam)
        norms.append(
            {
                "lambda_max": lam,
                "N": op.size,
                "op_norm": fourier.operator_norm(op),
                "hs_norm": fourier.hs_norm(op),
            }
        )
    assert golden.check_sweep(norms, "m3-lambda-sweep") == []


def test_pi_matrix_records_the_norms_of_its_window_rows(monkeypatch):
    # on the sweep input only the rows of band <= W = 2 of the N x N matrix
    # are nonzero; the norms pi_matrix records on its support on the first
    # read (outside the sweep's timed region) are those of the whole matrix
    sweep = json.loads((WORKLOADS / "m3-lambda-sweep.json").read_text())
    assert sweep["lambda_max"] == [8, 10, 12]
    config = load_scenario(str(WORKLOADS / sweep["scenario"]))
    pair = config.build_pair()
    f = config.build_test_function(pair)
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for lam in sweep["lambda_max"]:
        calls.clear()
        op = fourier.pi_matrix(f, pair, sweep["mu"], tuple(sweep["H"]), lam)
        assert not calls  # no SVD inside the call the sweep times
        with pytest.raises(ValueError):  # read-only, so the norms cannot go stale
            op.matrix[0, 0] = 1.0
        assert 0 < op.matrix.any(axis=1).sum() < op.size
        norms = op.op_norm, op.hs_norm
        assert len(calls) == 1  # one SVD, on the first read
        assert norms[0] == pytest.approx(fourier.operator_norm(op.matrix), rel=1e-12)
        assert norms[1] == pytest.approx(fourier.hs_norm(op.matrix), rel=1e-12)


def traced_worker(tmp_path, kind, workload):
    """The result of one traced worker iteration of ``workload``, in a fresh interpreter."""
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [
            sys.executable, "perfbench/worker.py", "--kind", kind,
            "--input", f"perfbench/workloads/{workload}.json", "--trace",
            "--outdir", str(tmp_path / "out"), "--result", str(result),
            "--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
        ],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_traced_benchmark_iteration(tmp_path):
    # one traced iteration as the benchmark runs it, so that a rename of a
    # traced name breaks here rather than in the benchmark's trace mode
    run = traced_worker(tmp_path, "scenario", "m3-default")
    assert run["exit_code"] == 0
    # the field is formed one (mu, stabilizer) family at a time: no
    # one-point operator, and one sample_field pass for the whole plan,
    # the h-ladder included, so check_h_to_zero is not called
    assert run["trace"]["fourier.pi_matrix"]["calls"] == 0
    assert run["trace"]["fourier.sample_field"]["calls"] == 1
    assert run["trace"]["verifier.check_h_to_zero"]["calls"] == 0
    # the zero-point operators are rows of the ladders' families and the
    # K-dual entries one-point families of the same pass, with no
    # pi_mu0_matrix or tau_matrix call; the entries zero by the selection
    # rule (labels 0, 3, 4, 5 of the six) are formed by no pi_family call
    assert run["trace"]["fourier.pi_mu0_matrix"]["calls"] == 0
    assert run["trace"]["fourier.tau_matrix"]["calls"] == 0
    # no rule at all: src has no rule builder left for the trace to wrap;
    # and no element model, so no irrep is evaluated at a group element
    assert "groups.quadrature" not in run["trace"]
    assert "groups.irrep_matrix" not in run["trace"]
    # a basis holds branching counts and its copies' positions, so no run
    # forms an intertwiner (the cut of its bases:
    # test_m3_default_bases_are_cut_at_the_window)
    assert run["trace"]["induction.intertwiners"]["calls"] == 0
    assert run["trace"]["induction.peter_weyl_basis"]["calls"] > 0


def test_traced_sweep_iteration(tmp_path, golden):
    # the sweep's three pi_matrix calls, traced: its Gaussian field forms
    # no intertwiner and evaluates no g-hat polynomial
    run = traced_worker(tmp_path, "sweep", "m3-lambda-sweep")
    assert golden.check_sweep(run["norms"], "m3-lambda-sweep") == []
    trace = run["trace"]
    assert trace["fourier.pi_matrix"]["calls"] == 3
    assert trace["fourier.pi_matrix"]["max_N"] == 168
    for name in ("induction.intertwiners", "testfunctions.PolyGaussian.fourier"):
        assert trace[name]["calls"] == 0
