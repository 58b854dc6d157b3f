import codecs
import hashlib
import json
from pathlib import Path
from dataclasses import MISSING, fields

import numpy as np
import pytest

from oracles import run_row
from rational_logit.calibration import FitSpec
from rational_logit.dataio import (RunConfig, bundled_catches_path, load_catches,
                                   load_run_config, write_table, write_trajectory_csv)
from rational_logit.dynamics import DynamicConfig
from rational_logit.measures import ConfigError, Grid, GridMeasure, pdf_values, uniform
from rational_logit.utility import CompetitionParams, CompetitionUtility

ASSET_SHA256 = "2c6c23642492e5060d55e06dc2a6697a0209d009bf10a5114847bf41d4cd90aa"
# the bundled file's years in row order: (records, maximum catch) of each
ASSET_YEARS = {"2016": (16, 43), "2017": (13, 42), "2018": (10, 53), "2019": (15, 41),
               "2023": (15, 82)}


def write_measure_table(path, mu: GridMeasure) -> None:
    """A measure's `x_mid,mass,pdf` table, as the stationary subcommand writes it."""
    write_table(path, {"x_mid": mu.grid.midpoints, "mass": mu.mass, "pdf": pdf_values(mu)})


class TestBundledAsset:
    def test_checksum_pinned(self):
        digest = hashlib.sha256(bundled_catches_path().read_bytes()).hexdigest()
        assert digest == ASSET_SHA256

    def test_total_records(self):
        assert load_catches(bundled_catches_path()).shape == (69,)

    def test_year_maxima(self):
        # each year's block holds its maximum catch once, as 1.0
        values = load_catches(bundled_catches_path())
        ends = np.cumsum([count for count, _ in ASSET_YEARS.values()])
        for block in np.split(values, ends[:-1]):
            assert (block == 1.0).sum() == 1


class TestLoadCatches:
    def test_round_trip(self):
        # each year's values times its maximum give back the file's catches
        values = iter(load_catches(bundled_catches_path()))
        lines = ["year,catch"]
        for year, (count, year_max) in ASSET_YEARS.items():
            lines += [f"{year},{round(next(values) * year_max)}" for _ in range(count)]
        assert "\n".join(lines) + "\n" == bundled_catches_path().read_text()

    def test_rejects_negative(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,catch\n2016,5\n2016,-1\n")
        with pytest.raises(ValueError, match=":3"):
            load_catches(path)

    def test_rejects_noninteger(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,catch\n2016,abc\n")
        with pytest.raises(ValueError, match="not an integer"):
            load_catches(path)

    def test_rejects_three_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,catch\n2016,5\n2016,3,1\n")
        with pytest.raises(ValueError, match=":3: expected 2 fields, got 3"):
            load_catches(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("year,catch\n2016,2\n\n   \n2016,4\n")
        np.testing.assert_array_equal(load_catches(path), [0.5, 1.0])

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + bundled_catches_path().read_bytes())
        np.testing.assert_array_equal(load_catches(path), load_catches(bundled_catches_path()))

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n2016,5\n")
        with pytest.raises(ValueError, match="header"):
            load_catches(path)

    def test_rejects_zero_max_year(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,catch\n2016,0\n2016,0\n")
        with pytest.raises(ValueError, match="maximum"):
            load_catches(path)


class TestNormalize:
    def test_known_values(self):
        values = load_catches(bundled_catches_path())
        assert 1.0 / 43.0 in values  # smallest 2016 catch over its max
        assert (values == 1.0).sum() == 5  # one per year

    def test_range_and_yearly_max(self):
        values = load_catches(bundled_catches_path())
        assert values.min() == 0.0 and values.max() == 1.0

    def test_singleton_year(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("year,catch\ny,5\n")
        np.testing.assert_array_equal(load_catches(path), [1.0])

    def test_row_order(self, tmp_path):
        # interleaved years: each catch over its own year's maximum, in row order
        path = tmp_path / "mixed.csv"
        path.write_text("year,catch\n2016,2\n2017,3\n2016,4\n2017,6\n2017,0\n")
        np.testing.assert_array_equal(load_catches(path), [0.5, 0.5, 1.0, 1.0, 0.0])


class TestRunConfig:
    def test_valid_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "grid": {"n": 100},
            "dynamic": {"kappa": 1.0, "eta": 0.01, "dt": 0.01, "delta": 1e-9,
                        "max_steps": 1000},
            "utility": {"a": 0.27, "b": 0.23},
            "record_times": [1.0],
        }))
        rc = load_run_config(path)
        assert rc.dynamic.grid.n == 100
        assert rc.dynamic.eta == 0.01
        assert rc.utility.a == 0.27
        assert rc.utility.alpha == 0.2  # default
        assert rc.dynamic.max_steps == 1000

    def test_limit_noise(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dynamic": {"kappa": 0.5, "eta": "limit"}}))
        rc = load_run_config(path)
        assert rc.dynamic.eta is None

    @pytest.mark.parametrize("eta", [None, "Limit", "0.01"])
    def test_eta_neither_number_nor_limit_names_the_spelling(self, tmp_path, eta):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dynamic": {"kappa": 0.5, "eta": eta}}))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert err.value.problems == [
            f'dynamic.eta: positive number or "limit" required (got {eta!r})']

    def test_limit_with_kappa_zero_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dynamic": {"kappa": 0.0, "eta": "limit"}}))
        with pytest.raises(ConfigError, match="limit"):
            load_run_config(path)

    def test_problems_collected_field_by_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "grid": {"n": 1},
            "dynamic": {"kappa": 2.0, "eta": -1.0, "dt": 3.0},
            "utility": {"alpha": 1.5},
            "init": "dirac",
        }))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        joined = "\n".join(err.value.problems)
        for field in ("grid.n", "dynamic.kappa", "dynamic.eta", "dynamic.dt",
                      "utility.alpha", "init"):
            assert field in joined

    def test_bad_grid_is_reported_once(self, tmp_path):
        # the failed grid section is not reported again under dynamic.grid
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"n": 1},
                                    "dynamic": {"kappa": 1.0, "eta": 0.01, "dt": 3.0}}))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert err.value.problems == ["grid.n: integer >= 2 required (got 1)",
                                      "dynamic.dt: number in (0, 1] required (got 3.0)"]

    @pytest.mark.parametrize("dt", [0.01, 3.0], ids=["dt-valid", "dt-out-of-range"])
    def test_record_time_problems_that_need_no_dt(self, tmp_path, dt):
        # a negative time and no positive one are reported whether or not dt is valid
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dynamic": {"kappa": 1.0, "eta": 0.01, "dt": dt},
                                    "record_times": [-1.0]}))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert err.value.problems[-2:] == [
            "record_times: record times must be >= 0 (got -1.0)",
            "record_times: record times need a positive maximum (got [-1.0])"]
        assert ("dynamic.dt: number in (0, 1] required (got 3.0)" in err.value.problems) == (
            dt == 3.0)

    def test_record_times_checked_against_a_valid_dt_when_dynamic_fails(self, tmp_path):
        # kappa breaks its rule, but dt = 0.001 is valid, so the lattice rule still applies
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"n": 50}, "dynamic": {"kappa": 2.0, "eta": 0.01},
                                    "record_times": [0.0005]}))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert err.value.problems == [
            "dynamic.kappa: number in [0, 1] required (got 2.0)",
            "record_times: record time 0.0005 is not a multiple of dt=0.001"]

    def test_missing_kappa_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dynamic": {"eta": 0.01}}))
        with pytest.raises(ConfigError, match="kappa"):
            load_run_config(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(path)

    def test_byte_order_mark(self, tmp_path):
        shipped = Path(__file__).resolve().parents[1] / "configs" / "fit_ab.json"
        path = tmp_path / "bom.json"
        path.write_bytes(codecs.BOM_UTF8 + shipped.read_bytes())
        assert load_run_config(path) == load_run_config(shipped)

    def test_defaults_are_the_types_defaults(self, tmp_path):
        doc = {"dynamic": {"kappa": 1.0, "eta": 0.01}, "fit": {"bounds": {}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        run_config = load_run_config(path)
        resolved = run_config.resolved
        for section, cls in [("grid", Grid), ("dynamic", DynamicConfig),
                             ("utility", CompetitionParams), ("fit", FitSpec)]:
            defaults = {f.name: f.default for f in fields(cls)
                        if f.default not in (MISSING, None) and f.name not in doc.get(section, {})}
            assert defaults
            assert {key: resolved[section][key] for key in defaults} == defaults
        default_times = next(f.default for f in fields(RunConfig) if f.name == "record_times")
        assert run_config.record_times == tuple(resolved["record_times"]) == default_times

    def test_fit_section(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "dynamic": {"kappa": 1.0, "eta": 0.01},
            "fit": {"bounds": {"b": [0.2, 0.3], "a": [0.1, 0.5]}, "levels": 1},
        }))
        rc = load_run_config(path)
        assert rc.fit is not None
        assert list(rc.fit.bounds) == ["a", "b"]  # the free parameters, in FREE_PARAM_ORDER
        assert rc.fit.bounds["a"] == (0.1, 0.5)

    def test_shipped_configs_and_readme_schema_load(self, tmp_path):
        # a key the loader no longer accepts cannot stay in a config or the docs
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text().split("## Configuration schema", 1)[1]
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        (tmp_path / "readme.json").write_text(block)
        paths = [*sorted((root / "configs").glob("*.json")), tmp_path / "readme.json"]
        assert len(paths) >= 3
        for path in paths:
            load_run_config(path)


class TestCsvEmission:
    def test_measure_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        write_measure_table(path, uniform(Grid(4)))
        lines = path.read_text().splitlines()
        assert lines[0] == "x_mid,mass,pdf"
        assert len(lines) == 5
        assert lines[1].split(",") == ["0.125", "0.25", "1.0"]

    def test_measure_csv_round_trips_floats(self, tmp_path):
        g = Grid(5)
        mu = GridMeasure(g, np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
        path = tmp_path / "m.csv"
        write_measure_table(path, mu)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        np.testing.assert_array_equal([float(r[1]) for r in rows], mu.mass)

    def test_pdf_table_single_series(self, tmp_path):
        path = tmp_path / "p.csv"
        write_table(path, {"x_mid": Grid(4).midpoints, "pdf": np.ones(4)})
        lines = path.read_text().splitlines()
        assert lines[0] == "x_mid,pdf"
        assert len(lines) == 5
        assert all(line.endswith(",1.0") for line in lines[1:])

    def test_pdf_table_two_series(self, tmp_path):
        path = tmp_path / "p.csv"
        write_table(path, {"x_mid": [0.25, 0.75], "pdf_empirical": [1.0, 2.0],
                           "pdf_model": [3.0, 4.0]})
        lines = path.read_text().splitlines()
        assert lines[0] == "x_mid,pdf_empirical,pdf_model"
        assert lines[1] == "0.25,1.0,3.0"

    def test_pdf_table_length_mismatch(self, tmp_path):
        path = tmp_path / "p.csv"
        with pytest.raises(ValueError, match=r"of one length required \(got lengths \[1, 2\]\)"):
            write_table(path, {"x_mid": [0.5], "pdf": [1.0, 2.0]})
        with pytest.raises(ValueError, match=r"\(got lengths \[2, 2, 1\]\)"):
            write_table(path, {"n_cells": [50, 100], "gap": [0.5, 0.25], "rate": [None]})
        assert not path.exists()

    def test_pdf_table_needs_a_series(self, tmp_path):
        with pytest.raises(ValueError, match="one or more columns"):
            write_table(tmp_path / "p.csv", {})

    def test_trajectory_csv(self, tmp_path):
        g = Grid(4)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.5)
        model = CompetitionUtility(g, CompetitionParams())
        snapshots = run_row(cfg, model, [0.5, 1.0])
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, snapshots)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,x_mid,pdf"
        assert len(lines) == 1 + 3 * 4
        assert {line.split(",")[0] for line in lines[1:]} == {"0.0", "0.5", "1.0"}

    def test_convergence_csv_rate_blank_for_largest_eta(self, tmp_path):
        path = tmp_path / "c.csv"
        write_table(path, {"eta": [0.1, 0.01], "time": [1.0, 1.0], "error": [0.5, 0.05],
                           "rate": [None, 1.0]})
        lines = path.read_text().splitlines()
        assert lines[0] == "eta,time,error,rate"
        assert lines[1] == "0.1,1.0,0.5,"
        assert lines[2] == "0.01,1.0,0.05,1.0"
        # an int column is written bare, a float as its shortest round trip
        write_table(path, {"n_cells": np.array([250, 4000]), "gap": [np.float64(0.1), 1e-300],
                           "rate": [None, np.float64(2.0)]})
        assert path.read_bytes() == b"n_cells,gap,rate\n250,0.1,\n4000,1e-300,2.0\n"

    def test_emission_bit_identical(self, tmp_path):
        g = Grid(8)
        mu = GridMeasure(g, np.full(8, 0.125))
        write_measure_table(tmp_path / "a.csv", mu)
        write_measure_table(tmp_path / "b.csv", mu)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert b"\r" not in (tmp_path / "a.csv").read_bytes()


# Line-at-a-time reference writers: each field is repr(float(v)), each row one
# line, the file one LF-joined string. The library writers stream blocks of
# columns formatted once; these pin the bytes they must produce.

def _ref_fmt(value) -> str:
    return repr(float(value))


def _ref_write(path, lines) -> None:
    path.write_bytes(("\n".join(lines) + "\n").encode())


def ref_measure_csv(path, mu):
    lines = ["x_mid,mass,pdf"]
    for x, m, p in zip(mu.grid.midpoints, mu.mass, pdf_values(mu)):
        lines.append(f"{_ref_fmt(x)},{_ref_fmt(m)},{_ref_fmt(p)}")
    _ref_write(path, lines)


def ref_trajectory_csv(path, snapshots):
    lines = ["time,x_mid,pdf"]
    for t, mu in snapshots:
        for x, p in zip(mu.grid.midpoints, pdf_values(mu)):
            lines.append(f"{_ref_fmt(t)},{_ref_fmt(x)},{_ref_fmt(p)}")
    _ref_write(path, lines)


def ref_convergence_csv(path, table):
    lines = ["eta,time,error,rate"]
    for eta, t, error, rate in zip(table["eta"], table["time"], table["error"], table["rate"]):
        rate = "" if rate is None else _ref_fmt(rate)
        lines.append(f"{_ref_fmt(eta)},{_ref_fmt(t)},{_ref_fmt(error)},{rate}")
    _ref_write(path, lines)


def ref_pdf_table(path, x_mid, series, names):
    lines = ["x_mid," + ",".join(names)]
    for i, x in enumerate(x_mid):
        lines.append(_ref_fmt(x) + "," + ",".join(_ref_fmt(s[i]) for s in series))
    _ref_write(path, lines)


def random_measure(rng, n: int) -> GridMeasure:
    """Random masses spanning many decades, with a zero cell and a 1e-300
    cell, so fields take both positional and exponent forms."""
    mass = rng.random(n) * 10.0 ** rng.integers(-12, 1, n)
    mass[0], mass[-1] = 0.0, 1e-300
    return GridMeasure(Grid(n), mass / mass.sum())


@pytest.mark.parametrize("n", [7, 1001])
class TestWritersMatchReference:
    def test_measure_csv(self, tmp_path, n):
        mu = random_measure(np.random.default_rng(n), n)
        write_measure_table(tmp_path / "lib.csv", mu)
        ref_measure_csv(tmp_path / "ref.csv", mu)
        assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_trajectory_csv(self, tmp_path, n):
        rng = np.random.default_rng(n + 1)
        times = (0.0, 0.001, 0.003, 0.1, 1.7, 10.0)
        snapshots = tuple((t, random_measure(rng, n)) for t in times)
        write_trajectory_csv(tmp_path / "lib.csv", snapshots)
        ref_trajectory_csv(tmp_path / "ref.csv", snapshots)
        data = (tmp_path / "lib.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        rows = [line.split(",") for line in data.decode().splitlines()[1:]]
        assert [float(r[0]) for r in rows[::n]] == list(times)
        np.testing.assert_array_equal([float(r[2]) for r in rows],
                                      np.concatenate([pdf_values(mu) for _, mu in snapshots]))

    def test_pdf_table(self, tmp_path, n):
        rng = np.random.default_rng(n + 2)
        x_mid = Grid(n).midpoints
        series = [random_measure(rng, n).mass * n for _ in range(3)]
        series[1] = list(series[1])  # a plain list of numpy floats
        for names in (["pdf", "pdf2", "pdf3"], ["pdf_kappa_0", "pdf_kappa_0.5", "pdf_kappa_1"]):
            write_table(tmp_path / "lib.csv", {"x_mid": x_mid, **dict(zip(names, series))})
            ref_pdf_table(tmp_path / "ref.csv", x_mid, series, names)
            assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_convergence_csv_matches_reference(tmp_path):
    rng = np.random.default_rng(3)
    etas = [eta for eta in (0.1, 0.01, 1e-3, 1e-4) for _ in range(2)]  # times 1 and 10 each
    table = {"eta": etas, "time": [1.0, 10.0] * 4,
             "error": [float(rng.random()) * eta for eta in etas],
             "rate": [None, None, *(np.float64(rate) for rate in rng.random(6) * 2)]}
    write_table(tmp_path / "lib.csv", table)
    ref_convergence_csv(tmp_path / "ref.csv", table)
    data = (tmp_path / "lib.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.splitlines()[1].endswith(b",")
