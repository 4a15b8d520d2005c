"""The byte-identity gate in ``tools/exactness.py``: its file comparison on
temporary trees and its list of campaigns; no campaign is run."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import exactness  # noqa: E402


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


REPORTS = {"run_a/results.csv": b"d,t\n0.1,0.3\n", "run_a/summary.json": b"{}\n",
           "run_b/calibration.csv": b"quantity\n"}


class TestDifferingFiles:
    def test_equal_trees(self, tmp_path):
        parent = _tree(tmp_path / "parent", REPORTS)
        change = _tree(tmp_path / "change", REPORTS)
        assert exactness.differing_files(parent, change) == []

    def test_one_changed_byte_names_its_path(self, tmp_path):
        parent = _tree(tmp_path / "parent", REPORTS)
        change = _tree(tmp_path / "change", {**REPORTS, "run_a/results.csv": b"d,t\n0.1,0.4\n"})
        assert exactness.differing_files(parent, change) == ["run_a/results.csv"]

    def test_file_on_one_side_only(self, tmp_path):
        parent = _tree(tmp_path / "parent", REPORTS)
        change = _tree(tmp_path / "change", {**REPORTS, "run_b/rates.csv": b"d\n"})
        assert exactness.differing_files(parent, change) == ["run_b/rates.csv (one side only)"]
        assert exactness.differing_files(change, parent) == ["run_b/rates.csv (one side only)"]

    def test_stderr_files_are_ignored(self, tmp_path):
        parent = _tree(tmp_path / "parent", {**REPORTS, "run_a.stderr": b"line 10\n"})
        change = _tree(tmp_path / "change", {**REPORTS, "run_a.stderr": b"line 11\n",
                                             "run_b.stderr": b""})
        assert exactness.differing_files(parent, change) == []


def test_campaigns_cover_every_bench_config_at_both_seeds():
    runs = dict(exactness.campaigns(ROOT))
    bench_configs = sorted((ROOT / "bench" / "configs").glob("*.yaml"))
    assert bench_configs
    for config in bench_configs:
        for seed in ("3", "11"):
            args = runs[f"{config.stem}_s{seed}"]
            assert args == ["--config", str(config), "--seed", seed]
            w2 = runs.get(f"{config.stem}_s{seed}_w2")
            if config.stem in ("continuous_single", "binary_single"):
                assert w2 == args + ["--workers", "2"]
            else:
                assert w2 is None
    # the bench runs, then case_study and two runs each of continuous_main and binary_main
    assert len(runs) == 2 * len(bench_configs) + 4 + 5
