import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from rational_logit import CompetitionParams, CompetitionUtility, DynamicConfig, Grid
from rational_logit.cli import main
from rational_logit.dataio import load_run_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

COARSE = {
    "grid": {"n": 50},
    "dynamic": {"kappa": 1.0, "eta": 0.05, "dt": 0.01, "delta": 1e-8,
                "max_steps": 100000},
    "utility": {"a": 0.27, "b": 0.23, "c": 1.0, "d": 1.0, "alpha": 0.2},
    "record_times": [0.5, 1.0],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(COARSE))
    return path


def write_config(tmp_path, overrides, name="config.json"):
    doc = json.loads(json.dumps(COARSE))
    for dotted, value in overrides.items():
        node = doc
        parts = dotted.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestSimulate:
    def test_produces_trajectory_and_manifest(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "time,x_mid,pdf"
        assert len(lines) == 1 + 3 * 50  # t=0, 0.5, 1.0
        manifest = read_manifest(out)
        assert manifest["status"] == "ok"
        assert manifest["subcommand"] == "simulate"
        assert manifest["duration_seconds"] >= 0.0

    def test_invalid_config_exits_1_with_manifest(self, tmp_path):
        bad = write_config(tmp_path, {"dynamic.kappa": 0.0, "dynamic.eta": "limit"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
        assert read_manifest(out)["status"] == "config-error"

    def test_missing_config_exits_3(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)])
        assert code == 3
        assert read_manifest(out)["status"] == "io-error"

    def test_out_below_a_file_exits_3(self, tmp_path, config_path, capsys):
        # no directory can be made there, so not even the manifest is written
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        assert main(["stationary", "--config", str(config_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unexpected_exception_exits_4_with_manifest(self, tmp_path, config_path,
                                                        monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("injected")

        monkeypatch.setattr("rational_logit.cli.run_until", broken)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 4
        manifest = read_manifest(out)
        assert manifest["status"] == "internal-error"
        assert "KeyError" in manifest["error"] and "injected" in manifest["error"]


FIT = {"bounds": {"a": [0.2, 0.3]}, "levels": 0, "points_per_dim": 2}


class TestConfigErrors:
    @pytest.mark.parametrize("subcommand, overrides", [
        ("stationary", {"dynamic.eta": float("inf")}),
        ("stationary", {"utility.a": float("inf")}),
        ("simulate", {"record_times": [0.005]}),  # off the dt = 0.01 lattice
        ("simulate", {"record_times": [0.5, 0.5000000001]}),  # both on step 50
        ("simulate", {"record_times": [1e-12, 0.5]}),  # a positive time on step 0
        ("simulate", {"record_times": 1.0}),
        ("stationary", {"dynamic.max_steps": True}),
        ("fit", {"fit": {**FIT, "levels": 1.5}}),
        ("fit", {"fit": {**FIT, "points_per_dim": 2.5}}),
        ("fit", {"fit": {**FIT, "bounds": [0.2, 0.3]}}),
        ("fit", {"fit": 5}),
        ("stationary", {"grid": 5}),
        ("stationary", {"utility": None}),
        ("fit", {"dynamic.eta": "limit",
                 "fit": {"bounds": {"kappa": [0.0, 1.0]}, "levels": 0}}),
    ], ids=["eta-infinity", "a-infinity", "record-time-off-lattice", "record-times-one-step",
            "record-time-on-step-0", "record-times-not-list", "max-steps-bool",
            "fit-levels-fraction", "fit-points-fraction", "fit-bounds-list",
            "fit-not-object", "grid-not-object", "utility-null",
            "limit-fit-kappa-from-zero"])
    def test_exits_1_with_manifest(self, tmp_path, subcommand, overrides):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
        assert read_manifest(out)["status"] == "config-error"

    @pytest.mark.parametrize("subcommand, overrides, path", [
        ("stationary", {"typo": 1}, "typo"),
        ("stationary", {"grid.m": 50}, "grid.m"),
        ("stationary", {"dynamic.detla": 1e-3}, "dynamic.detla"),
        ("stationary", {"utility.alpah": 0.5}, "utility.alpah"),
        ("fit", {"fit": {**FIT, "max_steps": 10}}, "fit.max_steps"),
        ("fit", {"fit": {**FIT, "bounds": {"a": [0.2, 0.3], "c": [0.5, 1.0]}}},
         "fit.bounds.c"),
        ("stationary", {"init": "uniform"}, "init"),
        ("fit", {"fit": {**FIT, "free": ["a"]}}, "fit.free"),
    ], ids=["top-level", "grid", "dynamic", "utility", "fit-max-steps", "fit-bounds", "init",
            "fit-free"])
    def test_unknown_key_named_by_path(self, tmp_path, subcommand, overrides, path):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
        manifest = read_manifest(out)
        assert manifest["status"] == "config-error"
        assert f"{path}: unknown key" in manifest["error"]

    def test_unknown_keys_reported_with_other_problems(self, tmp_path):
        doc = json.loads((CONFIGS / "fitted.json").read_text())
        doc["dynamic"]["detla"] = 1e-3
        doc["utility"]["alpah"] = 0.5
        doc["fit_"] = {}
        doc["dynamic"]["dt"] = 3.0
        cfg = tmp_path / "typos.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(cfg), "--out", str(out)]) == 1
        error = read_manifest(out)["error"]
        for problem in ("dynamic.detla: unknown key", "utility.alpah: unknown key",
                        "fit_: unknown key", "dynamic.dt: number in (0, 1] required"):
            assert problem in error
        assert not (out / "stationary_pdf.csv").exists()

    @pytest.mark.parametrize("subcommand, option", [
        ("convergence-eta", "--etas"),
        ("convergence-eta", "--times"),
        ("sweep-kappa", "--kappas"),
    ])
    def test_non_numeric_list_option(self, tmp_path, config_path, subcommand, option):
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(config_path), "--out", str(out),
                     option, "abc"]) == 1
        manifest = read_manifest(out)
        assert manifest["status"] == "config-error"
        assert option in manifest["error"]

    @pytest.mark.parametrize("option, value", [
        ("--times", "0.005"),  # off the dt = 0.01 lattice
        ("--times", "0"),
        ("--times", "-1,1"),
        ("--etas", "0"),
        ("--etas", "-0.1"),
        ("--etas", "0.1,0.1"),
        ("--times", "1,1"),
        ("--times", "0.5,0.5000000001"),
        ("--times", "1e-12,0.5"),
    ])
    def test_convergence_eta_list_rules(self, tmp_path, config_path, option, value):
        out = tmp_path / "out"
        assert main(["convergence-eta", "--config", str(config_path), "--out", str(out),
                     f"{option}={value}"]) == 1
        manifest = read_manifest(out)
        assert manifest["status"] == "config-error"
        assert option in manifest["error"]
        assert "limit" not in manifest["error"]  # no option can give the limit

    # 0.1234567 and 0.1234568 differ but share the column name pdf_kappa_0.123457
    @pytest.mark.parametrize("value", ["0.5,0.5", "0.5,0.5,-0", "0,-0", "1,2,2",
                                       "0.1234567,0.1234568"])
    def test_sweep_kappa_repeated(self, tmp_path, config_path, value):
        out = tmp_path / "out"
        assert main(["sweep-kappa", "--config", str(config_path), "--out", str(out),
                     f"--kappas={value}"]) == 1
        manifest = read_manifest(out)
        assert manifest["status"] == "config-error"
        assert "--kappas" in manifest["error"]

    def test_repeated_etas_in_the_users_words(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["convergence-eta", "--config", str(config_path), "--out", str(out),
                     "--etas", "0.01,0.1,0.01"]) == 1
        error = read_manifest(out)["error"]
        assert "--etas: distinct numbers required (got '0.01,0.1,0.01')" in error
        assert "order" not in error

    def test_sweep_kappa_repeat_and_range_in_one_error(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["sweep-kappa", "--config", str(config_path), "--out", str(out),
                     "--kappas", "2,2"]) == 1
        error = read_manifest(out)["error"]
        assert "--kappas: numbers distinct in 6 significant digits required" in error
        assert error.count("--kappas: kappa: number in [0, 1] required (got 2.0)") == 1

    def test_convergence_eta_repeat_and_range_in_one_error(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["convergence-eta", "--config", str(config_path), "--out", str(out),
                     "--etas", "0,0"]) == 1
        error = read_manifest(out)["error"]
        assert "--etas: distinct numbers required (got '0,0')" in error
        assert error.count("--etas: eta: positive number required (got 0.0)") == 1

    @pytest.mark.parametrize("value", ["0,2,1", "2", "-0.5"])
    def test_sweep_kappa_out_of_range(self, tmp_path, config_path, value):
        out = tmp_path / "out"
        assert main(["sweep-kappa", "--config", str(config_path), "--out", str(out),
                     f"--kappas={value}"]) == 1
        manifest = read_manifest(out)
        assert manifest["status"] == "config-error"
        assert "--kappas" in manifest["error"]
        assert not (out / "kappa_sweep_pdf.csv").exists()

    @pytest.mark.parametrize("bounds", [
        {"a": 0.2}, {"a": [0.2]}, {"a": [0.1, 0.2, 0.3]}, {"a": ["lo", 0.3]},
        {"a": [0.2, 0.3], "b": 0.5},
    ], ids=["scalar", "one-value", "three-values", "not-numbers", "extra-scalar"])
    def test_fit_bound_pair_required(self, tmp_path, bounds):
        cfg = write_config(tmp_path, {"fit": {**FIT, "bounds": bounds}})
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = read_manifest(out)
        assert manifest["status"] == "config-error"
        name = "b" if "b" in bounds else "a"
        assert f"fit.bounds.{name}: [lo, hi] pair required" in manifest["error"]

    @pytest.mark.parametrize("overrides, problem", [
        ({"fit": {**FIT, "bounds": {"a": [-0.1, 0.3]}}},
         "fit.bounds.a: number >= 0 required (got -0.1)"),
        ({"fit": {**FIT, "bounds": {"kappa": [0.5, 1.5]}}},
         "fit.bounds.kappa: number in [0, 1] required (got 1.5)"),
        ({"fit": {**FIT, "bounds": {"eta": [0.0, 0.1]}}},
         "fit.bounds.eta: positive number required (got 0.0)"),
        ({"dynamic.eta": "limit",
          "fit": {**FIT, "bounds": {"kappa": [0.0, 1.0]}}},
         "fit.bounds.kappa: number in (0, 1] required by the vanishing-noise limit (got 0.0)"),
    ], ids=["a-lower", "kappa-upper", "eta-lower", "limit-kappa-from-zero"])
    def test_fit_box_corners_keep_the_types_ranges(self, tmp_path, overrides, problem):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = read_manifest(out)
        assert manifest["status"] == "config-error"
        assert problem in manifest["error"]
        assert not (out / "fit.json").exists()

    def test_fit_bounds_not_an_object(self, tmp_path):
        cfg = write_config(tmp_path, {"fit": {**FIT, "bounds": [0.2, 0.3]}})
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        assert read_manifest(out)["error"].count("fit.bounds") == 1

    @pytest.mark.parametrize("text", ["5", "null", b"\xff\xfe"],
                             ids=["number", "null", "not-utf8"])
    def test_config_not_a_json_object(self, tmp_path, text):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(cfg), "--out", str(out)]) == 1
        assert read_manifest(out)["status"] == "config-error"

    @pytest.mark.parametrize("data_text, code, status", [
        ("yr,catch\n2000,1\n", 1, "config-error"),
        (None, 3, "io-error"),
        ("year,catch\n", 1, "config-error"),
    ], ids=["malformed", "missing", "no-records"])
    def test_data_file(self, tmp_path, data_text, code, status):
        data = tmp_path / "data.csv"
        if data_text is not None:
            data.write_text(data_text)
        cfg = write_config(tmp_path, {"fit": {"bounds": {}, "levels": 0}})
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out),
                     "--data", str(data)]) == code
        manifest = read_manifest(out)
        assert manifest["status"] == status
        if code == 1:
            assert "--data" in manifest["error"]


class TestStationary:
    def test_outputs(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(config_path), "--out", str(out)]) == 0
        moments = json.loads((out / "moments.json").read_text())
        assert moments["stationary"] is True
        assert moments["solver"] == "anderson" and moments["steps"] > 0
        assert 0.0 <= moments["mean"] <= 1.0
        assert (out / "stationary_pdf.csv").exists()
        manifest = read_manifest(out)
        assert manifest["termination"] == "stationary"
        assert manifest["solver"] == "anderson" and manifest["fallback"] is None

    def test_budget_exhausted_exits_0_with_warning(self, tmp_path):
        cfg = write_config(tmp_path, {"dynamic.max_steps": 5})
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(cfg), "--out", str(out)]) == 0
        moments = json.loads((out / "moments.json").read_text())
        assert moments["stationary"] is False
        assert moments["solver"] == "euler" and moments["steps"] == 5
        manifest = read_manifest(out)
        assert manifest["status"] == "ok"
        assert manifest["termination"] == "max_steps"
        assert "5 steps" in manifest["warning"]
        assert "missed delta within 5 iterations" in manifest["fallback"]

    def test_deterministic_outputs(self, tmp_path, config_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["stationary", "--config", str(config_path), "--out", str(out1)])
        main(["stationary", "--config", str(config_path), "--out", str(out2)])
        assert ((out1 / "stationary_pdf.csv").read_bytes()
                == (out2 / "stationary_pdf.csv").read_bytes())

    def test_degenerate_limit_exits_2(self, tmp_path):
        # pure cost utility is strictly negative at every midpoint
        bad = write_config(tmp_path, {"dynamic.eta": "limit", "utility.b": 0.0,
                                      "utility.d": 0.0, "utility.a": 1.0})
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(bad), "--out", str(out)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "solver-error"
        assert "nonpositive" in manifest["error"]

    def test_overflowing_weights_exit_2_naming_eta(self, tmp_path):
        cfg = write_config(tmp_path, {"dynamic.eta": 1e-310})
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "solver-error"
        assert "eta is too small" in manifest["error"]


class TestFit:
    def test_fit_document(self, tmp_path):
        cfg = write_config(tmp_path, {"fit": {"bounds": {}, "levels": 0}})
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["evaluation_count"] == 1
        assert doc["target_mean"] == pytest.approx(0.32471, abs=5e-5)
        assert doc["target_std"] == pytest.approx(0.30352, abs=5e-4)
        assert doc["fitted_parameters"]["a"] == 0.27

    def test_run_budget_reaches_every_point(self, tmp_path):
        cfg = write_config(tmp_path, {"dynamic.max_steps": 5, "fit": FIT})
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "solver-error"
        assert "every evaluation failed" in manifest["error"]

    def test_fit_requires_section(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config_path), "--out", str(out)]) == 1

    def test_limit_fit_parameters_load_back(self, tmp_path):
        # fit.json spells the limit as a config does, so its values make a config
        cfg = write_config(tmp_path, {"dynamic.eta": "limit", "dynamic.kappa": 1.0,
                                      "fit": {"bounds": {"a": [0.2, 0.35]}, "levels": 0,
                                              "points_per_dim": 2}})
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        best = json.loads((out / "fit.json").read_text())["fitted_parameters"]
        assert best["eta"] == "limit"
        path = tmp_path / "fitted.json"
        path.write_text(json.dumps({"grid": {"n": 50},
                                    "dynamic": {"kappa": best["kappa"], "eta": best["eta"]},
                                    "utility": {"a": best["a"], "b": best["b"]}}))
        run_config = load_run_config(path)
        assert run_config.dynamic.eta is None
        assert (run_config.utility.a, run_config.utility.b) == (best["a"], best["b"])

    def test_fit_with_custom_data(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("year,catch\n2000,1\n2000,2\n2000,4\n")
        cfg = write_config(tmp_path, {"fit": {"bounds": {}, "levels": 0}})
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out),
                     "--data", str(data)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["target_mean"] == pytest.approx((0.25 + 0.5 + 1.0) / 3)


class TestConvergenceEta:
    def test_table_shape(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["convergence-eta", "--config", str(config_path),
                     "--out", str(out), "--etas", "0.1,0.05", "--times", "0.5,1"]) == 0
        lines = (out / "convergence_eta.csv").read_text().splitlines()
        assert lines[0] == "eta,time,error,rate"
        assert len(lines) == 5
        assert lines[1].endswith(",")  # largest eta has no rate

    def test_manifest_records_the_options(self, tmp_path, config_path):
        manifests = []
        for args in ([], ["--etas", "0.0001,0.001,0.01,0.1"], ["--etas", "0,0.1"]):
            out = tmp_path / f"out{len(manifests)}"
            main(["convergence-eta", "--config", str(config_path), "--out", str(out), *args])
            manifests.append(read_manifest(out))
        assert manifests[0]["options"] == {"--etas": "0.1,0.01,0.001,0.0001", "--times": "1,10"}
        assert manifests[1]["options"] == {"--etas": "0.0001,0.001,0.01,0.1", "--times": "1,10"}
        # a run stopped by a bad list still says which list it got
        assert manifests[2]["status"] == "config-error"
        assert manifests[2]["options"]["--etas"] == "0,0.1"
        out = tmp_path / "stationary"
        assert main(["stationary", "--config", str(config_path), "--out", str(out)]) == 0
        assert read_manifest(out)["options"] == {}

    def test_rejects_kappa_zero(self, tmp_path):
        # the limit reference needs kappa > 0: an input mistake, not a solver failure
        cfg = write_config(tmp_path, {"dynamic.kappa": 0.0})
        out = tmp_path / "out"
        code = main(["convergence-eta", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        manifest = read_manifest(out)
        assert manifest["status"] == "config-error"
        assert "dynamic.kappa" in manifest["error"]


class TestSweepKappa:
    def test_columns(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["sweep-kappa", "--config", str(config_path), "--out", str(out),
                     "--kappas", "0,0.5,1"]) == 0
        lines = (out / "kappa_sweep_pdf.csv").read_text().splitlines()
        assert lines[0] == "x_mid,pdf_kappa_0,pdf_kappa_0.5,pdf_kappa_1"
        assert len(lines) == 1 + 50

    def test_matches_stationary_bit_exactly(self, tmp_path, config_path):
        limit_path = write_config(tmp_path, {"dynamic.eta": "limit"}, name="limit.json")
        for cfg in (config_path, limit_path):
            out_sweep, out_stat = tmp_path / cfg.stem / "sweep", tmp_path / cfg.stem / "stat"
            assert main(["sweep-kappa", "--config", str(cfg), "--out", str(out_sweep),
                         "--kappas", "1"]) == 0
            assert main(["stationary", "--config", str(cfg), "--out", str(out_stat)]) == 0
            sweep_pdf = [line.split(",")[1] for line in
                         (out_sweep / "kappa_sweep_pdf.csv").read_text().splitlines()[1:]]
            stat_pdf = [line.split(",")[2] for line in
                        (out_stat / "stationary_pdf.csv").read_text().splitlines()[1:]]
            assert sweep_pdf == stat_pdf, cfg.name

    def test_per_kappa_solver_recorded(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["sweep-kappa", "--config", str(config_path), "--out", str(out),
                     "--kappas", "0,1"]) == 0
        solvers = read_manifest(out)["solvers"]
        assert list(solvers) == ["0", "1"]
        for record in solvers.values():
            assert record["solver"] == "anderson" and record["fallback"] is None
            assert record["stationary"] is True and record["steps"] > 0

    def test_per_kappa_fallback_recorded(self, tmp_path):
        cfg = write_config(tmp_path, {"dynamic.max_steps": 5})
        out = tmp_path / "out"
        assert main(["sweep-kappa", "--config", str(cfg), "--out", str(out),
                     "--kappas", "0.5"]) == 0
        record = read_manifest(out)["solvers"]["0.5"]
        assert record["solver"] == "euler" and record["stationary"] is False
        assert record["steps"] == 5 and "missed delta" in record["fallback"]

    def test_negative_zero_column_name(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["sweep-kappa", "--config", str(config_path), "--out", str(out),
                     "--kappas=-0,1"]) == 0
        lines = (out / "kappa_sweep_pdf.csv").read_text().splitlines()
        assert lines[0] == "x_mid,pdf_kappa_0,pdf_kappa_1"

    def test_limit_mode_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"dynamic.eta": "limit"})
        out = tmp_path / "out"
        assert main(["sweep-kappa", "--config", str(cfg), "--out", str(out)]) == 1
        # the default kappas include 0, which the vanishing-noise limit excludes
        error = read_manifest(out)["error"]
        assert "--kappas" in error and "vanishing-noise limit" in error


class TestManifest:
    def test_outputs_relative_to_out(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(config_path), "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["outputs"] == ["stationary_pdf.csv", "moments.json"]
        assert manifest["inputs"] == [str(config_path)]

    @pytest.mark.parametrize("source", [
        CONFIGS / "fitted.json",
        CONFIGS / "fit_ab.json",
        {"dynamic": {"kappa": 0.5, "eta": "limit"}, "utility": {"epsilon": 0.01}},
    ], ids=["fitted", "fit_ab", "sparse"])
    def test_config_round_trip(self, tmp_path, source):
        # The manifest records the config before the run starts, so a run
        # stopped by a bad --etas list records it too and keeps this fast.
        if isinstance(source, dict):
            path = tmp_path / "sparse.json"
            path.write_text(json.dumps(source))
        else:
            path = source
        out = tmp_path / "out"
        main(["convergence-eta", "--config", str(path), "--out", str(out), "--etas", "0"])
        recorded = read_manifest(out)["config"]
        again = tmp_path / "again.json"
        again.write_text(json.dumps(recorded))
        assert load_run_config(again) == load_run_config(path)
        assert load_run_config(again).resolved == recorded
        if isinstance(source, dict):
            assert recorded["dynamic"]["eta"] == "limit"
            assert recorded["utility"]["epsilon"] == 0.01
            assert recorded["grid"]["n"] == 500
        else:
            assert "epsilon" not in recorded["utility"]


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_import():
    # each script imports the package's names when it loads; main is not run
    for path in sorted((ROOT / "scripts").glob("*.py")):
        assert callable(load_script(path).main), path.name


def test_refinement_table_reads_solver_results(tmp_path, monkeypatch):
    # the exhibit script's own use of StationarySolution, on two small grids
    module = load_script(ROOT / "scripts" / "reproduce_exhibits.py")
    monkeypatch.setattr(module, "REFINEMENT_N", (50, 100))
    path = tmp_path / "limit_gap_refinement.csv"
    module.limit_gap_refinement(path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert header == ["n_cells", "iterations_eta_0.01", "iterations_limit", "max_norm_gap",
                      "variational_gap"]
    assert [int(r[0]) for r in rows] == [50, 100]
    for _, small_steps, limit_steps, max_gap, variational_gap in rows:
        assert int(small_steps) > 0 and int(limit_steps) > 0
        assert float(max_gap) > 0.0 and 0.0 < float(variational_gap) <= 2.0


def test_empirical_vs_model_table(tmp_path):
    # the exhibit script's own use of load_catches and empirical_pdf
    module = load_script(ROOT / "scripts" / "reproduce_exhibits.py")
    path = tmp_path / "empirical_vs_model_pdf.csv"
    module.empirical_vs_model(path)
    header, *rows = path.read_text().splitlines()
    assert header == "x_mid,pdf_empirical,pdf_model"
    assert len(rows) == 20
    empirical, model = np.array([[float(v) for v in row.split(",")[1:]] for row in rows]).T
    assert empirical.sum() == pytest.approx(20.0, abs=1e-12)
    assert model.sum() == pytest.approx(20.0, abs=1e-12)


@pytest.mark.parametrize("codes, expected", [
    ([0] * 7, 0),
    ([0, 1, 0, 2, 0, 0, 0], 1),  # OR-ing them would read 3, an I/O error
    ([2, 0, 1, 0, 0, 0, 0], 2),
    ([0, 0, 0, 0, 0, 0, 2], 2),
])
def test_exhibits_return_the_first_failure(tmp_path, monkeypatch, codes, expected):
    module = load_script(ROOT / "scripts" / "reproduce_exhibits.py")
    calls = []

    def fake_cli_main(argv):
        calls.append(argv[0])
        return codes[len(calls) - 1]

    monkeypatch.setattr(module, "cli_main", fake_cli_main)
    monkeypatch.setattr(module, "OUT", tmp_path)
    monkeypatch.setattr(module, "empirical_vs_model", lambda path: None)
    monkeypatch.setattr(module, "limit_gap_refinement", lambda path: None)
    assert module.main() == expected
    assert calls == ["stationary", "convergence-eta", "sweep-kappa"] + ["simulate"] * 4


def test_layer_timing_per_size(monkeypatch):
    # the timing script's own use of both stationary solvers, DynamicBatch,
    # weights and euler_step, each timed by a single call
    module = load_script(ROOT / "scripts" / "time_layers.py")

    def one_call(fn, samples=7, sample_seconds=0.1):
        fn()
        return 1.0

    monkeypatch.setattr(module, "median_us", one_call)
    row = module.time_size(50)
    assert row["stationary_solver"] == "anderson" and row["stationary_iterations"] > 0
    assert row["anderson_iteration_us"] > 0.0
    assert row["euler_steps"] > row["stationary_iterations"]
    assert all(row[key] == 1.0 for key in ("values_us", "weights_us", "limit_weights_us",
                                           "euler_step_us", "batched_step_us", "measure_csv_us"))


def test_layer_timing_writes_both_tables():
    # the timing script's own use of run_until and the CSV writers, on one small grid
    module = load_script(ROOT / "scripts" / "time_layers.py")
    grid = Grid(50)
    row = module.time_writers(DynamicConfig(1.0, 0.01, grid),
                              CompetitionUtility(grid, CompetitionParams()))
    assert set(row) == {"trajectory_csv_s", "trajectory_csv_bytes", "trajectory_csv_peak_bytes",
                        "measure_csv_us", "measure_csv_bytes"}
    assert all(value > 0 for value in row.values())
