"""One hctrial CLI invocation in a fresh interpreter, with timestamps.

    python3 bench/child.py --src SRC --stats STATS.json [--spans SPANS.npz]
                           [--setup-only] --config CONFIG -- CLI_ARGS...

Set-up ends once ``hctrial.cli`` is imported and CONFIG is parsed; the rest
is ``hctrial.cli.main(CLI_ARGS)``.  Timestamps come from CLOCK_MONOTONIC, which
the parent process shares, so the parent can add the interpreter's own start.
CPU time includes the worker processes, which the CLI reaps before it
returns; peak RSS is the largest of this process and its workers.  With
``--spans`` the public functions are wrapped (see ``tracing.py``) after
set-up and the spans are written when ``main`` returns.
"""

from __future__ import annotations

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _own_peak_rss_kb() -> int:
    """High-water RSS of this program image.  RUSAGE_SELF's ru_maxrss is not
    used: Linux carries the forking parent's RSS over into it at exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _replicates(config) -> int:
    """Replicates one invocation runs: adaptive trial plus paired comparator
    per scenario replicate, or stage-1 draw plus interim assessment per
    calibration draw (a gamma of 0 skips the borrowing-probability draws)."""
    if config.mode != "calibrate":
        return sum(s.replications for s in config.scenarios)
    grid = config.calibration.grid
    cells = len(grid.t_values) * len(grid.gamma_values)
    borrowing_cells = len(grid.t_values) * sum(1 for g in grid.gamma_values if g != 0.0)
    draws_per_rep = cells + borrowing_cells * (1 + len(grid.table_delta_stars))
    return grid.replications * draws_per_rep


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--stats", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--config", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    import hctrial.cli as cli

    t_imported = _now()
    config = cli.parse_config(Path(args.config).read_text(encoding="utf-8"))
    t_setup = _now()
    cpu0 = _cpu_s()
    stats = {
        "t_start": T_START,
        "t_imported": t_imported,
        "t_setup": t_setup,
        "hctrial_file": cli.__file__,
        "replicates": _replicates(config),
    }
    if not args.setup_only:
        instr = None
        if args.spans:
            from hctrial import (adaptive_design, calibration, distributions, ess, similarity,
                                 trial_engine)

            from tracing import Instrumentation

            instr = Instrumentation({
                "cli": cli, "trial_engine": trial_engine, "similarity": similarity,
                "distributions": distributions, "ess": ess,
                "adaptive_design": adaptive_design, "calibration": calibration,
            })
        rc = cli.main(cli_args)
        stats["t_end"] = _now()
        stats["cpu_s"] = _cpu_s() - cpu0
        stats["exit_code"] = rc
        if instr is not None:
            instr.tracer.dump(Path(args.spans))
            stats["counters"] = instr.counters()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    stats["peak_rss_kb"] = max(_own_peak_rss_kb(), kids)
    Path(args.stats).write_text(json.dumps(stats), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
