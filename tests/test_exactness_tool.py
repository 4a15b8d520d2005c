"""The byte-identity gate in ``tools/exactness.py``: its file comparison and
the size of each difference on temporary trees, and its list of campaigns;
no campaign is run."""

import json
import sys
from pathlib import Path

import pytest

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


class TestDifferenceSize:
    def test_csv_moves_are_sized(self, tmp_path):
        parent = _tree(tmp_path / "parent", {"r.csv": b"d,t,label\n0.1,0.3,null\n2,0,x\n"})
        change = _tree(tmp_path / "change", {"r.csv": b"d,t,label\n0.1,0.3000003,null\n2,0,x\n"})
        move_abs, move_rel, named = exactness.difference_size(parent / "r.csv", change / "r.csv")
        assert move_abs == pytest.approx(3e-7, rel=1e-6)
        assert move_rel == pytest.approx(1e-6, rel=1e-6)
        assert named == []

    def test_csv_fields_that_are_not_numbers_are_named(self, tmp_path):
        parent = _tree(tmp_path / "parent", {"r.csv": b"d,label,se\n0.1,null,nan\n"})
        change = _tree(tmp_path / "change",
                       {"r.csv": b"d,label,se\n0.2,alternative,0.5\n0.3,null,1\n"})
        move_abs, move_rel, named = exactness.difference_size(parent / "r.csv", change / "r.csv")
        assert move_abs == pytest.approx(0.1)
        assert move_rel == pytest.approx(0.5)
        assert named == ["[0].label", "[0].se", "[1].d", "[1].label", "[1].se"]

    def test_json_leaves_by_path(self, tmp_path):
        parent = _tree(tmp_path / "parent", {"s.json": json.dumps(
            {"scenarios": [{"power": 0.5, "n": 3, "ok": True}, {"power": 0.25}]}).encode()})
        change = _tree(tmp_path / "change", {"s.json": json.dumps(
            {"scenarios": [{"power": 0.5, "n": 3, "ok": False}, {"power": 0.2500000001}],
             "extra": None}).encode()})
        move_abs, move_rel, named = exactness.difference_size(parent / "s.json", change / "s.json")
        assert move_abs == pytest.approx(1e-10, rel=1e-5)
        assert move_rel == pytest.approx(4e-10, rel=1e-5)
        assert named == ["extra", "scenarios[0].ok"]

    def test_equal_reports_move_nothing(self, tmp_path):
        parent = _tree(tmp_path / "parent", REPORTS)
        for name in ("run_a/results.csv", "run_a/summary.json"):
            assert exactness.difference_size(parent / name, parent / name) == (0.0, 0.0, [])


@pytest.mark.parametrize("change_csv, status", [
    (b"d,t\n0.1,0.3\n", 0),
    (b"d,t\n0.1,0.3000003\n", 1),
], ids=["equal", "moved"])
def test_main_prints_the_size_and_keeps_its_exit_status(tmp_path, monkeypatch, capsys,
                                                         change_csv, status):
    def fake_run_tree(tree, out, runs):
        csv = change_csv if tree.name == "change" else REPORTS["run_a/results.csv"]
        _tree(out, {**REPORTS, "run_a/results.csv": csv})
        return []

    monkeypatch.setattr(exactness, "run_tree", fake_run_tree)
    monkeypatch.setattr(exactness.tempfile, "mkdtemp", lambda prefix: str(tmp_path / "work"))
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    rc = exactness.main(["--parent", str(tmp_path / "parent"),
                         "--change", str(tmp_path / "change")])
    assert rc == status
    out = capsys.readouterr().out
    if status:
        assert "run_a/results.csv: largest move 3e-07 absolute, 1e-06 relative\n" in out
        assert "largest numeric move over all reports: 3e-07 absolute, 1e-06 relative" in out
    else:
        assert "largest" not in out


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
    # the bench runs, then case_study, two runs each of continuous_main,
    # binary_main, continuous_variants (simulate and calibrate) and
    # binary_fallback, and one each of binary_mixture and binary_calibrate
    assert len(runs) == 2 * len(bench_configs) + 4 + 11
    configs = ROOT / "configs"
    for name in ("binary_calibrate", "continuous_variants", "binary_fallback"):
        assert runs[name][:2] == ["--config", str(configs / f"{name}.yaml")]
    assert runs["continuous_variants_calibrate"] == [
        "--config", str(configs / "continuous_variants.yaml"), "--mode", "calibrate",
        "--reps-override", "200"]
    assert runs["binary_fallback_w2"] == runs["binary_fallback"] + ["--workers", "2"]
