import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_config_property import REPLACEMENTS, _mutate, _paths

import motionfields
from motionfields import cli, config, dual, pairs
from motionfields.cli import main, run_scenario
from motionfields.config import ScenarioConfig, dump_json
from motionfields.errors import ConfigError
from motionfields.scenarios import BUNDLED_NAMES, bundled_scenario


def _query(doc):
    return doc["convergence_queries"][0]


def _term(doc):
    return doc["test_function"]["terms"][0]


# malformed documents by case: (bundled scenario, edit); the parser refuses each
BAD_DOCUMENTS = {
    "limit": ("m2-default", lambda d: _query(d).pop("limit")),
    "sequence": ("m2-default", lambda d: _query(d).pop("sequence")),
    "query_nan": ("m2-default", lambda d: _query(d)["sequence"][3].update(H=[float("nan")])),
    "gamma0_nan": ("m2-default", lambda d: d["grids"]["gamma0"][0].update(H=[float("inf")])),
    "gamma0_no_mu": ("m3-default", lambda d: d["grids"]["gamma0"][0].pop("mu")),
    "h_ladder_no_H0": ("m3-default", lambda d: d["grids"]["h_ladder"].pop("H0")),
    # a ladder on the zero point has every rung at zero: condition 4 is vacuous
    "h_ladder_H0_zero": ("m3-default", lambda d: d["grids"]["h_ladder"].update(H0=[0.0])),
    # condition 3 reads stabilizer weights of the induced strata; at zero there are none
    "mu_decay_H_zero": ("m3-default", lambda d: d["grids"].update(
        mu_decay={"H": [0.0], "mu_values": [0, 1, 2]})),
    "gamma0_label_x": ("m3-default", lambda d: d["grids"]["gamma0"][0].update(mu="x")),
    "gamma2_label_x": ("m3-default", lambda d: d["grids"]["gamma2"].__setitem__(2, "x")),
    "cutoffs_list": ("m3-default", lambda d: d.update(cutoffs=[5])),
    "sigma_negative": ("m2-default", lambda d: _term(d)["g"].update(sigma=-1)),
    "label_pair_on_m2": ("m2-default", lambda d: _term(d)["u"].update(label=[1, 2])),
    "tolerance_inf": ("m2-default", lambda d: d.update(tolerances={"tail_mass": float("inf")})),
    # no check reads a K-dual norm floor: the name is unknown
    "tolerance_d0_norm": ("m2-default", lambda d: d.update(tolerances={"d0_norm": 1e-10})),
    # M2's regular stabilizer is trivial: its only irrep label is 0
    "gamma0_label_not_in_stabilizer": ("m2-default", lambda d: d["grids"]["gamma0"][0].update(mu=1)),
    # entries are closed forms with no quadrature order; the setting is gone
    "cutoffs_order": ("m2-default", lambda d: d["cutoffs"].update(order=7)),
    # an int too large for a float overflows every float conversion of it
    "h_ladder_H0_huge_int": ("m2-default", lambda d: d["grids"]["h_ladder"].update(H0=[10**400])),
    "coeff_huge_int": ("m2-default", lambda d: _term(d).update(coeff=10**400)),
    "sigma_huge_int": ("m2-default", lambda d: _term(d)["g"].update(sigma=10**400)),
    # sigma^2 overflows a float; e sigma^2 underflows to 0 in the sup bound
    "sigma_square_overflows": ("m2-default", lambda d: _term(d)["g"].update(sigma=1e200)),
    "sigma_square_underflows": ("m2-default", lambda d: _term(d)["g"].update(sigma=1e-200)),
    # fhat2_sup is 3.8e217 at degree 200, and condition 1 squares it
    "sup_bound_square_overflows": ("m2-default", lambda d: _term(d).update(
        g={"sigma": 1.0, "poly": {"200,0": 1}, "radial": False})),
    "tolerance_huge_int": ("m2-default", lambda d: d.update(tolerances={"hs_slack": 10**400})),
    # the flip carries path[0]'s label 1 to -1, off the label of the rest of the path
    "path_label_flips": ("m3-default", lambda d: d["grids"]["continuity"]["path"].__setitem__(
        0, [-1.0])),
    # a path on the zero point lies in no induced stratum
    "path_on_zero": ("m3-default", lambda d: d["grids"]["continuity"].update(
        path=[[0.0]] * 3)),
    # star() is exact only for radial flat factors, so the flag is checked
    "radial_not_r2": ("m2-default", lambda d: _term(d)["g"].update(poly={"1,0": [1.0, 0.0]})),
}


class TestConfig:
    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_round_trip(self, name):
        doc = bundled_scenario(name)
        cfg = ScenarioConfig.from_dict(doc)
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert cfg.to_dict() == again.to_dict()

    def test_order_null_accepted_and_not_written(self):
        # documents written before orders were proven carry "order": null
        doc = bundled_scenario("m3-default")
        doc["cutoffs"]["order"] = None
        cfg = ScenarioConfig.from_dict(doc)
        assert cfg.to_dict()["cutoffs"] == {"lambda_max": 5}
        doc["cutoffs"]["order"] = 7
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "cutoffs.order"

    def test_invalid_instance(self):
        doc = bundled_scenario("m2-default")
        doc["instance"] = "M7"
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "instance"

    def test_schema_version_required(self):
        doc = bundled_scenario("m2-default")
        doc["schema"] = 99
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "schema"

    def test_bad_tolerance_name(self):
        doc = bundled_scenario("m2-default")
        doc["tolerances"] = {"not_a_threshold": 1.0}
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(doc)

    def test_even_path_rejected(self):
        doc = bundled_scenario("m2-default")
        doc["grids"]["continuity"]["path"] = [[1.0], [1.5]]
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(doc)

    def test_query_errors_are_field_scoped(self):
        doc = bundled_scenario("m2-default")
        doc["convergence_queries"][0]["sequence"][2]["H"] = [float("nan")]
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "convergence_queries[0].sequence[2].H"
        doc = bundled_scenario("m2-default")
        del doc["convergence_queries"][0]["limit"]
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "convergence_queries[0].limit"

    def test_test_function_errors_are_field_scoped(self):
        doc = bundled_scenario("m2-default")
        doc["test_function"]["terms"][0]["g"]["sigma"] = -1.0
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert "terms[0]" in err.value.field
        doc = bundled_scenario("m2-default")
        doc["test_function"]["terms"][1]["g"]["poly"] = {"1,0": [1.0, 0.0]}  # radial: true
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "test_function.terms[1].g.radial"
        name, edit = BAD_DOCUMENTS["sup_bound_square_overflows"]
        doc = bundled_scenario(name)
        edit(doc)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "test_function.terms"

    def test_grid_errors_are_field_scoped(self):
        doc = bundled_scenario("m3-default")
        del doc["grids"]["gamma0"][0]["mu"]
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "grids.gamma0[0].mu"
        doc = bundled_scenario("m2xm2-gamma1")
        doc["grids"]["continuity"]["path"][4] = [1.5]
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "grids.continuity.path[4]"

    @pytest.mark.parametrize("case,field", [
        ("path_label_flips", "grids.continuity.path[1]"),
        ("path_on_zero", "grids.continuity.path[0]"),
    ])
    def test_path_off_one_stratum_is_field_scoped(self, case, field):
        # the check condition 2 makes, at parse time: the document to_dict
        # would write from a path read under its first point's label is
        # never written
        name, edit = BAD_DOCUMENTS[case]
        doc = bundled_scenario(name)
        edit(doc)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == field

    def test_stabilizer_label_errors_are_field_scoped(self):
        doc = bundled_scenario("m2-default")
        doc["grids"]["gamma0"][0]["mu"] = 1
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "grids.gamma0[0].mu"
        assert "stabilizer Trivial" in str(err.value)
        doc = bundled_scenario("m3-default")
        doc["convergence_queries"][0]["sequence"][1]["label"] = [0, 1]
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "convergence_queries[0].sequence[1].label"
        doc = bundled_scenario("m3-default")
        doc["grids"]["gamma2"][0] = -1  # not an SO(3) irrep
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.field == "grids.gamma2[0]"


ARTIFACTS = (
    "reports.json",
    "convergence.json",
    "norms.csv",
    "mu_decay.csv",
    "lambda_decay.csv",
    "h_ladder.csv",
    "continuity.csv",
)


class TestRun:
    def test_m2_run_emits_artifacts(self, tmp_path):
        cfg = ScenarioConfig.from_dict(bundled_scenario("m2-default"))
        report, certs = run_scenario(cfg, tmp_path)
        assert report.overall
        for fname in ARTIFACTS:
            assert (tmp_path / fname).exists()
        # trivial-stabilizer instance: the weight-decay grid is empty and
        # its curve file carries only the header
        assert (tmp_path / "mu_decay.csv").read_text() == "mu,op_norm\n"
        # ladder rows: levels + 1 per weight
        ladder = (tmp_path / "h_ladder.csv").read_text().strip().splitlines()
        plan = cfg.plan
        assert len(ladder) == 1 + (plan.h_ladder_levels + 1) * len(plan.h_ladder_mus)

    def test_determinism(self, tmp_path):
        cfg = ScenarioConfig.from_dict(bundled_scenario("m2-default"))
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for fname in ("reports.json", "convergence.json", "norms.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()

    @pytest.mark.parametrize("failure", ["rows", "replace"])
    def test_failed_write_leaves_no_partial_file(self, failure, tmp_path, monkeypatch):
        # a run into a directory holding a previous run's artifacts, and one
        # into a fresh directory, each failing while writing: every file
        # left is complete (a previous artifact intact) and no temp remains
        cfg = ScenarioConfig.from_dict(bundled_scenario("m2-default"))
        old = tmp_path / "old"
        run_scenario(cfg, old)
        before = {p.name: p.read_bytes() for p in old.iterdir()}
        if failure == "rows":  # norms.csv fails after its first row
            real = cli._norms_rows

            def rows_then_fail(samples):
                yield real(samples)[0]
                raise RuntimeError("writer failed")

            monkeypatch.setattr(cli, "_norms_rows", rows_then_fail)
        else:  # the first move into place fails

            def no_replace(src, dst):
                raise OSError("replace failed")

            monkeypatch.setattr(cli.os, "replace", no_replace)
        for outdir in (old, tmp_path / "new"):
            with pytest.raises((RuntimeError, OSError)):
                run_scenario(cfg, outdir)
            for path in outdir.iterdir():
                assert path.read_bytes() == before[path.name]
        assert {p.name: p.read_bytes() for p in old.iterdir()} == before

    def test_successful_run_leaves_only_the_artifacts(self, tmp_path, monkeypatch):
        # every temp is moved into place, so none is left and none is unlinked
        unlinked = []
        monkeypatch.setattr(
            cli.Path, "unlink", lambda path, missing_ok=False: unlinked.append(path)
        )
        run_scenario(ScenarioConfig.from_dict(bundled_scenario("m2-default")), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACTS)
        assert unlinked == []

    def test_gamma1_certificates_present(self, tmp_path):
        cfg = ScenarioConfig.from_dict(bundled_scenario("m2xm2-gamma1"))
        report, certs = run_scenario(cfg, tmp_path)
        assert report.overall
        doc = json.loads((tmp_path / "convergence.json").read_text())
        wall = [c for c in doc if c["limit"]["stratum"] == "gamma1"]
        assert wall and any(c["verdict"] == "converges" for c in wall)
        assert any(c["verdict"] == "diverges" for c in doc)


class TestMain:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(BUNDLED_NAMES)

    def test_invalid_scenario_path(self, capsys):
        assert main(["run", "--scenario", "no-such-scenario"]) == 2

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        doc = bundled_scenario("m2-default")
        doc["instance"] = "M9"
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        assert main(["run", "--scenario", str(path)]) == 2

    def test_run_bundled(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--scenario",
                "m2-default",
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_tolerance_override_roundtrip(self, tmp_path):
        code = main(
            [
                "run",
                "--scenario",
                "m2-default",
                "--output-dir",
                str(tmp_path / "out"),
                "--override-tolerance",
                "h_zero_delta=0.5",
            ]
        )
        assert code == 0

    def test_bad_override_exits_2(self, tmp_path):
        assert (
            main(
                [
                    "run",
                    "--scenario",
                    "m2-default",
                    "--override-tolerance",
                    "nope=1.0",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize("field", list(BAD_DOCUMENTS))
    def test_bad_query_or_point_exits_2_before_work(self, field, tmp_path, capsys):
        name, edit = BAD_DOCUMENTS[field]
        doc = bundled_scenario(name)
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--output-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    def test_non_finite_entries_exit_3(self, tmp_path, capsys):
        # at |H| = 1e6 a degree-60 flat factor overflows and meets its Gaussian
        # factor 0: inf * 0 entries, named by their family's mu and H
        doc = bundled_scenario("m2-default")
        _term(doc)["g"] = {"sigma": 1.0, "poly": {"60,0": 1}, "radial": False}
        doc["grids"]["gamma0"].append({"mu": 0, "H": [1e6]})
        path = tmp_path / "doc.json"
        path.write_text(dump_json(doc))
        assert main(["run", "--scenario", str(path), "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "run failed: NonFiniteEntries: entries of pi(f) at mu=0, H=(1000000.0,) "
            "overflow a float"
        ]

    @pytest.mark.parametrize("kind", ["file", "below-file"])
    def test_unwritable_output_dir_exits_3(self, kind, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile if kind == "file" else afile / "out"
        assert main(["run", "--scenario", "m2-default", "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"run failed: cannot write artifacts to {out}" in err
        assert "Traceback" not in err

    def test_deeply_nested_document_exits_2(self, tmp_path, capsys):
        # json.loads recurses once per bracket, so 200,000 of them raise
        # RecursionError, not a JSONDecodeError
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--output-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "configuration error: <json>" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_scenario_exits_2(self, kind, tmp_path, capsys):
        path = tmp_path / "scenario"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--output-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf"])
    def test_bad_override_value_exits_2_before_work(self, value, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--scenario", "m2-default", "--output-dir", str(out),
                "--override-tolerance", f"h_zero_delta={value}"]
        assert main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "override-tolerance.h_zero_delta" in err and "Traceback" not in err

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        from motionfields.cli import OUTPUT_DIR_ENV

        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        assert main(["run", "--scenario", "m2-default"]) == 0
        assert (tmp_path / "envout" / "reports.json").exists()


def _fuzzed_m2_default(rng):
    """The m2-default document with one seeded mutation.

    Mostly a number is replaced by another number of its type, so that most
    documents parse and run (integers stay below 6, which caps lambda_max);
    otherwise any key is dropped or its value replaced by a wrong type.
    """
    doc = bundled_scenario("m2-default")
    paths = list(_paths(doc))

    def value(path):
        v = doc
        for k in path:
            v = v[k]
        return v

    numbers = [p for p in paths if type(value(p)) in (int, float)]
    if rng.random() < 0.7:
        path = numbers[int(rng.integers(len(numbers)))]
        if isinstance(value(path), int):
            new = int(rng.integers(-2, 6))
        else:
            new = float(np.round(rng.normal(0.0, 2.0), 3))
    else:
        path = paths[int(rng.integers(len(paths)))]
        choices = (None,) + REPLACEMENTS
        new = choices[int(rng.integers(len(choices)))]
    _mutate(doc, path, new)
    return doc, path, new


def test_main_keeps_exit_code_contract_on_mutated_documents(tmp_path, capsys):
    # every mutated document runs end to end through main(): it exits 0,
    # 1, 2 or 3 and never ends in an uncaught exception
    rng = np.random.default_rng(6)
    codes = []
    for i in range(30):
        doc, path, new = _fuzzed_m2_default(rng)
        scenario = tmp_path / f"doc{i}.json"
        scenario.write_text(json.dumps(doc))
        argv = ["run", "--scenario", str(scenario), "--output-dir", str(tmp_path / f"out{i}")]
        codes.append(main(argv))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 1, 2, 3), (path, new, err)
        assert "Traceback" not in err, (path, new, err)
    assert {0, 2} <= set(codes)  # the mutations reach past the parser


class TestGoldenRegression:
    """Bundled scenarios keep their verdict structure."""

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_verdicts(self, name, tmp_path):
        cfg = ScenarioConfig.from_dict(bundled_scenario(name))
        report, certs = run_scenario(cfg, tmp_path)
        doc = json.loads((tmp_path / "reports.json").read_text())
        assert doc["overall"] is True
        assert [r["condition"] for r in doc["reports"]] == [1, 2, 3, 4, 5]
        assert all(r["passed"] for r in doc["reports"])
        golden = {
            "m2-default": {"gamma0-to-gamma0": "converges", "gamma2-discrete": "converges"},
            "m3-default": {
                "gamma0-to-gamma0": "converges",
                "gamma0-to-gamma2": "converges",
                "diverging-weight": "diverges",
            },
            "m2xm2-gamma1": {
                "wall-approach": "converges",
                "wall-to-wall": "converges",
                "wall-wrong-label": "diverges",
            },
        }[name]
        got = {c["name"]: c["verdict"] for c in certs}
        assert got == golden


def test_run_time_imports_no_scipy(tmp_path):
    # numpy is the only run-time dependency: importing the package and the
    # CLI, computing one M3 induced entry and one K-dual entry, and running
    # the m3-default scenario must not import scipy, lazily or otherwise;
    # nor numpy.random, as no run-time result rests on random samples
    code = """
import sys
import motionfields, motionfields.cli
from motionfields import (
    MatrixCoefficient, PolyGaussian, Term, TestFunction, build_instance,
    pi_matrix, tau_matrix,
)
m3 = build_instance("M3")
f = TestFunction(m3, [Term(1.0, MatrixCoefficient(2, 0, 1), PolyGaussian.gaussian(3))])
pi_matrix(f, m3, 1, (1.0,), 2)
tau_matrix(f, m3, 2)
cli = motionfields.cli
cli.run_scenario(cli.load_scenario("m3-default"), sys.argv[1])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.random"))
"""
    src = str(Path(motionfields.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_readme_library_tour_runs(tmp_path):
    # the README's "Library tour" block runs as written, so a name it
    # imports cannot leave the package while the README still shows it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(motionfields.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", tour], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[1] == "True"  # the m3-default plan passes


def _loaded_after_run(scenario, outdir):
    """The modules of ``HEAVY_MODULES`` a fresh interpreter holds after one run."""
    code = """
import json, sys
from motionfields import cli
cli.run_scenario(cli.load_scenario(sys.argv[1]), sys.argv[2])
print(json.dumps([m for m in sys.argv[3:] if m in sys.modules]))
"""
    src = str(Path(motionfields.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, scenario, str(outdir), *HEAVY_MODULES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


# no run path needs them: node rules, symbolic or exact-rational arithmetic
HEAVY_MODULES = ("numpy.polynomial", "numpy.fft", "scipy", "sympy", "fractions", "decimal")


def test_all_gaussian_run_builds_no_k_rule(tmp_path):
    # condition 1 bounds the sup in closed form, so a run whose terms are all
    # Gaussian integrates nothing over K; and labels are transported by
    # closed-form maps: a run builds no rule, nor loads what one needs
    assert not hasattr(motionfields.groups, "_RULES")
    assert _loaded_after_run("m3-default", tmp_path / "out") == []


def test_degree_one_run_loads_no_heavy_modules(tmp_path):
    # degree >= 1 entries are Gaunt sums whose Clebsch-Gordan coefficients
    # are formed in integers: no rule, no fractions, no scipy or sympy
    scenario = Path(__file__).resolve().parent / "golden" / "m3-poly" / "scenario.json"
    assert _loaded_after_run(str(scenario), tmp_path / "out") == []


def test_run_locates_no_point_again(tmp_path, monkeypatch):
    # the parser locates every grid and query point, and the plan and the
    # queries hold them: the run makes, dominantises and transports none
    scenario = cli.load_scenario("m3-default")
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in [
        (dual, "dominant_representative"),
        (pairs, "dominant_representative"),
        (dual, "_transport"),
    ] + [(m, "make_dual_point") for m in (dual, config, motionfields)]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    report, _ = run_scenario(scenario, tmp_path)
    assert report.overall
    assert calls == []
