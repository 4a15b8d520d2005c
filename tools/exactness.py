"""Byte-identity gate: run one fixed list of campaigns from two source trees
and compare every report file they write.

    python3 tools/exactness.py --parent DIR --change DIR

Each tree runs ``PYTHONPATH=<tree>/src python3 -m hctrial`` on the same
inputs, the config files of the ``--change`` tree, so only the program
differs.  The list:

- every ``bench/configs/*.yaml`` at ``--seed 3`` and ``--seed 11``, and
  ``continuous_single`` and ``binary_single`` also at ``--workers 2``;
- ``configs/case_study.yaml`` at ``--reps-override 200``;
- ``configs/continuous_main.yaml`` in simulate and compare mode at
  ``--reps-override 20``;
- ``configs/binary_main.yaml`` in compare mode at ``--reps-override 20``, and
  in simulate mode at ``--reps-override 20 --workers 2``;
- ``configs/binary_mixture.yaml`` in compare mode at ``--reps-override 20``.

The ``--workers 2`` runs cover the worker processes, each of which keeps its
own cache of binary analyses.

Every file under each run's ``--out`` directory is compared byte for byte;
stderr is kept beside it but not compared, because notices name source
lines.  One line is printed per differing file or failed run, then a count;
the exit status is 1 on any difference or failure, else 0.  A differing
``.csv`` or ``.json`` report present on both sides also gets the size of its
difference: the largest absolute and relative move among its numeric fields,
and the name of every other field that differs or exists on one side only.
The largest moves over all reports are printed before the count.  The
reports stay in a new temporary directory, whose path is printed last.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def campaigns(tree: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments other than --out) for every run of the gate."""
    runs = []
    for config in sorted((tree / "bench" / "configs").glob("*.yaml")):
        for seed in ("3", "11"):
            args = ["--config", str(config), "--seed", seed]
            runs.append((f"{config.stem}_s{seed}", args))
            if config.stem in ("continuous_single", "binary_single"):
                runs.append((f"{config.stem}_s{seed}_w2", args + ["--workers", "2"]))
    configs = tree / "configs"
    runs.append(("case_study", ["--config", str(configs / "case_study.yaml"),
                                "--reps-override", "200"]))
    for mode in ("simulate", "compare"):
        runs.append((f"continuous_main_{mode}",
                     ["--config", str(configs / "continuous_main.yaml"),
                      "--mode", mode, "--reps-override", "20"]))
    runs.append(("binary_main_compare", ["--config", str(configs / "binary_main.yaml"),
                                         "--mode", "compare", "--reps-override", "20"]))
    runs.append(("binary_main_simulate_w2", ["--config", str(configs / "binary_main.yaml"),
                                             "--mode", "simulate", "--reps-override", "20",
                                             "--workers", "2"]))
    runs.append(("binary_mixture_compare", ["--config", str(configs / "binary_mixture.yaml"),
                                            "--mode", "compare", "--reps-override", "20"]))
    return runs


def run_tree(tree: Path, out: Path, runs: list[tuple[str, list[str]]]) -> list[str]:
    """Run every campaign from ``tree``'s sources; return one line per failed run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    failures = []
    for name, args in runs:
        out_dir = out / name
        with open(out / f"{name}.stderr", "w") as err:
            rc = subprocess.run([sys.executable, "-m", "hctrial", *args, "--out", str(out_dir)],
                                env=env, stdout=subprocess.DEVNULL, stderr=err).returncode
        if rc != 0:
            failures.append(f"{name}: exit {rc} from {tree} (see {out}/{name}.stderr)")
    return failures


def differing_files(parent: Path, change: Path) -> list[str]:
    """Relative paths of files that differ or exist on one side only."""
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.suffix != ".stderr"}

    a, b = files(parent), files(change)
    return sorted([str(p) + " (one side only)" for p in a ^ b]
                  + [str(p) for p in a & b
                     if not filecmp.cmp(parent / p, change / p, shallow=False)])


def _fields(path: Path) -> dict[str, object]:
    """Every field of a ``.json`` or ``.csv`` report by its path: a JSON leaf
    by its keys and list indices, a CSV cell by its row index and column."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        out: dict[str, object] = {}

        def walk(value: object, key: str) -> None:
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, f"{key}.{k}" if key else str(k))
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    walk(v, f"{key}[{i}]")
            else:
                out[key] = value

        walk(json.loads(text), "")
        return out
    header, *rows = list(csv.reader(text.splitlines())) or [[]]
    return {f"[{i}].{col}": cell for i, row in enumerate(rows) for col, cell in zip(header, row)}


def _as_float(value: object) -> float | None:
    if isinstance(value, bool):
        return None
    try:  # a JSON number or a CSV cell
        return float(value)
    except (TypeError, ValueError):
        return None


def difference_size(parent: Path, change: Path) -> tuple[float, float, list[str]]:
    """(largest absolute move, largest relative move) among the numeric
    fields of two ``.csv`` or ``.json`` reports, and the sorted paths of the
    fields that differ otherwise: a value that is not a finite number on
    either side, or a field on one side only."""
    a, b = _fields(parent), _fields(change)
    largest_abs = largest_rel = 0.0
    named = set(a) ^ set(b)
    for key in a.keys() & b.keys():
        if a[key] == b[key]:
            continue
        x, y = _as_float(a[key]), _as_float(b[key])
        move = abs(x - y) if x is not None and y is not None else math.nan
        if not math.isfinite(move):
            named.add(key)
        elif move:
            largest_abs = max(largest_abs, move)
            largest_rel = max(largest_rel, move / max(abs(x), abs(y)))
    return largest_abs, largest_rel, sorted(named)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="reference source tree")
    parser.add_argument("--change", type=Path, required=True, help="source tree under test")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="hctrial-exactness-"))
    runs = campaigns(args.change.resolve())
    failures = []
    for side, tree in (("parent", args.parent), ("change", args.change)):
        (work / side).mkdir(parents=True)
        failures += run_tree(tree.resolve(), work / side, runs)
    for line in failures:
        print(line)
    differing = differing_files(work / "parent", work / "change")
    largest_abs = largest_rel = 0.0
    for rel in differing:
        if rel.endswith(" (one side only)") or Path(rel).suffix not in (".csv", ".json"):
            print(rel)
            continue
        move_abs, move_rel, named = difference_size(work / "parent" / rel, work / "change" / rel)
        largest_abs, largest_rel = max(largest_abs, move_abs), max(largest_rel, move_rel)
        print(f"{rel}: largest move {move_abs:.3g} absolute, {move_rel:.3g} relative"
              + (f"; other fields differ: {', '.join(named)}" if named else ""))
    if differing:
        print(f"largest numeric move over all reports: {largest_abs:.3g} absolute, "
              f"{largest_rel:.3g} relative")
    problems = len(failures) + len(differing)
    print(f"{len(runs)} runs, {problems} differing files or failed runs; reports in {work}")
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
