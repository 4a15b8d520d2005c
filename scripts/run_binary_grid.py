#!/usr/bin/env python3
"""Run the binary-endpoint reference grid.

Each trial's credible interval convolves the two beta posteriors on a
4096-bin lattice, a few milliseconds per trial; at the configured 5000
replicates the grid is still the slowest bundled campaign, so start with
--reps 500.
"""

import argparse
import sys
from pathlib import Path

from hctrial.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/binary_main")
    ap.add_argument("--reps", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    argv = [
        "--config", str(ROOT / "configs" / "binary_main.yaml"),
        "--out", args.out,
        "--workers", str(args.workers),
    ]
    if args.reps is not None:
        argv += ["--reps-override", str(args.reps)]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
