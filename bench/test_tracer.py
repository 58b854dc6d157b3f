"""Checks on the benchmark's tracer: self times add up, and wrapping the
library leaves its outputs bit-identical.

    python3 -m pytest bench/test_tracer.py
"""

import json
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SMALL = {"grid": {"n": 60}, "dynamic": {"kappa": 1.0, "eta": 0.01, "dt": 0.001},
         "utility": {"a": 0.27, "b": 0.23}, "record_times": [0.005, 0.01, 0.02]}


def _simulate(tmp_path, mode):
    """Run `simulate` on SMALL in a fresh process; mode None runs the CLI
    with nothing wrapped. Returns the CSV bytes and the spans file."""
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / f"out-{mode}"
    spans = tmp_path / f"spans-{mode}.json"
    cli_args = ["simulate", "--config", str(config), "--out", str(out)]
    if mode is None:
        cmd = [sys.executable, "-c",
               "import sys; sys.path.insert(0, sys.argv[1]);"
               "from rational_logit.cli import main; sys.exit(main(sys.argv[2:]))",
               str(ROOT / "src"), *cli_args]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), "run", mode, str(spans), "--", *cli_args]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    return (out / "trajectory.csv").read_bytes(), spans


def test_self_times_sum_to_root_duration(tmp_path):
    _, spans_file = _simulate(tmp_path, "trace")
    names, spans, _ = tracer.load(spans_file)
    roots = [s for s in spans if s[3] < 0]
    assert [names[r[0]] for r in roots] == ["cli.main"]
    root_ns = roots[0][2] - roots[0][1]
    rows = tracer.summarize(names, spans)
    assert sum(r["self_ns"] for r in rows.values()) == root_ns
    assert all(r["self_ns"] >= 0 for r in rows.values())
    assert rows["dynamics.euler_step"]["calls"] == 20


def test_wrapping_leaves_output_bit_identical(tmp_path):
    plain, _ = _simulate(tmp_path, None)
    counted, _ = _simulate(tmp_path, "count")
    traced, _ = _simulate(tmp_path, "trace")
    assert plain == counted == traced
