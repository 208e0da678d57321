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
its evidence distances.  One traced benchmark iteration runs too, so the
names the trace wraps stay in place.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from motionfields import fourier
from motionfields.cli import load_scenario, run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads"
TESTS_GOLDEN = Path(__file__).resolve().parent / "golden"


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


def test_pi_matrix_records_the_norms_of_its_window_rows():
    # on the sweep input only the rows of band <= W = 2 of the N x N matrix
    # are nonzero; the norms pi_matrix records from them on the first read
    # (outside the sweep's timed region) are those of the whole matrix
    sweep = json.loads((WORKLOADS / "m3-lambda-sweep.json").read_text())
    assert sweep["lambda_max"] == [8, 10, 12]
    config = load_scenario(str(WORKLOADS / sweep["scenario"]))
    pair = config.build_pair()
    f = config.build_test_function(pair)
    for lam in sweep["lambda_max"]:
        op = fourier.pi_matrix(f, pair, sweep["mu"], tuple(sweep["H"]), lam)
        with pytest.raises(ValueError):  # read-only, so the norms cannot go stale
            op.matrix[0, 0] = 1.0
        assert 0 < op.matrix.any(axis=1).sum() < op.size
        assert op.op_norm == pytest.approx(fourier.operator_norm(op.matrix), rel=1e-12)
        assert op._norms is not None  # recorded by that read
        assert op.hs_norm == pytest.approx(fourier.hs_norm(op.matrix), rel=1e-12)


def test_traced_benchmark_iteration(tmp_path):
    # one traced iteration as the benchmark runs it, so that a rename of a
    # traced name breaks here rather than in the benchmark's trace mode
    root = PERFBENCH.parent
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [
            sys.executable, "perfbench/worker.py", "--kind", "scenario",
            "--input", "perfbench/workloads/m3-default.json", "--trace",
            "--outdir", str(tmp_path / "out"), "--result", str(result),
            "--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
        ],
        cwd=root, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(result.read_text())
    assert run["exit_code"] == 0
    # the field is formed one (mu, stabilizer) family at a time: no
    # one-point operator, one sample_field per sample
    assert run["trace"]["fourier.pi_matrix"]["calls"] == 0
    assert run["trace"]["fourier.sample_field"]["calls"] == 3
    # the zero-point operators build their blocks without tau_matrix, and
    # the K-dual entries zero by the selection rule (labels 0, 3, 4, 5 of
    # the six) are built directly: one call per nonzero entry
    assert run["trace"]["fourier.tau_matrix"]["calls"] == 2
    # no rule at all: src has no rule builder left for the trace to wrap;
    # and no element model, so no irrep is evaluated at a group element
    assert "groups.quadrature" not in run["trace"]
    assert "groups.irrep_matrix" not in run["trace"]
    # bases are built up to the selection-rule window W = 2, not to
    # lambda_max 5 (7 for the weight sample): 106 calls before the window;
    # and none for the weights |mu| >= 3 of the weight sample, whose window
    # is empty by weight counts: 33 calls before
    assert run["trace"]["induction.intertwiners"]["calls"] == 15
