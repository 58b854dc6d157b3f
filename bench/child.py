"""One benchmark operation in a fresh interpreter.

    python3 bench/child.py setup CONFIG
        import rational_logit, parse CONFIG and build its CompetitionUtility;
        the parent times the whole process.

    python3 bench/child.py run {count,trace} SPANS_FILE -- CLI_ARGS...
        run one CLI subcommand through rational_logit.cli.main with the
        tracer installed, and print one JSON line: exit code, wall and CPU
        seconds of the subcommand, peak RSS of this process, exact counts.
        In trace mode the spans go to SPANS_FILE.

The checkout's src/ comes first on sys.path, so the code under test is the
code in the checkout, not an installed copy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def setup(config_path: str) -> None:
    from rational_logit.dataio import load_run_config
    from rational_logit.utility import CompetitionUtility

    run_config = load_run_config(config_path)
    CompetitionUtility(run_config.dynamic.grid, run_config.utility)


def run(mode: str, spans_file: str, cli_args: list[str]) -> dict:
    import rational_logit
    from rational_logit import cli
    from tracer import Tracer

    tracer = Tracer(mode)
    tracer.install(rational_logit)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    tracer.uninstall()
    if mode == "trace":
        tracer.write(spans_file)
    return {"exit": code, "wall_s": wall,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            "counts": tracer.counts()}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        setup(argv[1])
        return 0
    if len(argv) >= 4 and argv[0] == "run" and argv[3] == "--":
        print(json.dumps(run(argv[1], argv[2], argv[4:])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
