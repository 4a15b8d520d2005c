"""The names the benchmark harness in ``bench/`` looks up on the live package.

A traced run (``bench/run.py --trace 1``) wraps every ``tracing.WRAPPED``
attribute by name, the minimal-Hellinger check calls ``minimal_hellinger``
positionally, and ``child.py`` counts replicates from the fields of
``parse_config``'s result; a rename would surface only when the benchmark
runs.
"""

import csv
import importlib
import sys
from pathlib import Path

import pytest

import hctrial.cli as cli
from hctrial import OutcomeModel, PriorSpec, minimal_hellinger

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import child  # noqa: E402
import tracing  # noqa: E402

BENCH_CONFIGS = sorted(BENCH.glob("configs/*.yaml"))


@pytest.mark.parametrize("module, attr, span", tracing.WRAPPED)
def test_wrapped_attribute_is_callable(module, attr, span):
    live = importlib.import_module(f"hctrial.{module}")
    assert callable(getattr(live, attr, None)), f"hctrial.{module}.{attr} ({span})"


def test_minimal_hellinger_takes_three_positional_arguments():
    # a mixture prior, as in the benchmark's continuous_mixture check
    prior = PriorSpec.mixture("normal", [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)])
    h = minimal_hellinger(prior, PriorSpec.normal(0.0, 0.2), OutcomeModel("continuous"))
    assert 0.0 <= h < 1.0


@pytest.mark.parametrize("path", BENCH_CONFIGS, ids=lambda p: p.stem)
def test_parsed_bench_config_has_the_fields_child_counts(path):
    config = cli.parse_config(path.read_text(encoding="utf-8"))
    assert config.mode in cli.MODES
    if config.mode == "calibrate":
        grid = config.calibration.grid
        for field in (grid.t_values, grid.gamma_values, grid.table_delta_stars):
            assert all(isinstance(v, float) for v in field)
        assert isinstance(grid.replications, int)
    else:
        assert config.scenarios
        assert all(isinstance(s.replications, int) for s in config.scenarios)
    assert child._replicates(config) > 0


@pytest.mark.parametrize("name", ["continuous_single", "calibrate_case_study"])
def test_run_parses_its_config_once(tmp_path, monkeypatch, name):
    # the traced run times cli.parse_ms through this name
    calls = []
    parse = cli.parse_config
    monkeypatch.setattr(cli, "parse_config", lambda source: calls.append(1) or parse(source))
    cli.run(cli.RunManifest(config_path=BENCH / "configs" / f"{name}.yaml",
                            output_dir=tmp_path, reps_override=5))
    assert len(calls) == 1


def test_calibrate_estimates_each_reported_cell_once(tmp_path, monkeypatch):
    # the three names bench/run.py sums into cells_evaluated_per_reported;
    # the table row at the maximum acceptable drift reuses the selection's
    # estimate, so the sum is one per distinct cell of calibration.csv:
    # the 6 table drifts other than the MAD at 12 (t, gamma) cells, plus the
    # MAD probability and the saved count of each cell
    from hctrial import calibration

    calls = {}
    for module, attr in ((cli, "borrowing_probability"),
                         (calibration, "borrowing_probability"),
                         (calibration, "expected_saved")):
        def counted(*args, _fn=getattr(module, attr), _key=(module.__name__, attr), **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    cli.run(cli.RunManifest(config_path=BENCH / "configs" / "calibrate_case_study.yaml",
                            output_dir=tmp_path, reps_override=5))
    assert calls == {("hctrial.cli", "borrowing_probability"): 72,
                     ("hctrial.calibration", "borrowing_probability"): 12,
                     ("hctrial.calibration", "expected_saved"): 12}
    with open(tmp_path / "calibration.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    reported = {(r["quantity"].replace("_at_mad", ""), float(r["delta_star"]), r["t"], r["gamma"])
                for r in rows}
    assert sum(calls.values()) == len(reported) == 96
