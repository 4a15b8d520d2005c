"""Campaign benchmark for hctrial.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/hctrial`` and
``BENCHMARK.json``.  Every measured unit is one invocation of the public CLI
(``hctrial.cli.main``) in a fresh interpreter, on a workload config kept in
``bench/configs/`` with the master seed set to ``--seed``.  Invocations are
repeated (closed loop, one at a time) until ``--seconds`` of wall time are
used, with at least two per run; each metric is the median over them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs two
untraced and two traced invocations at ``--workers 1``, alternating, and
prints the per-layer metrics from the first traced invocation's spans (see
``tracing.py``); ``trace.overhead`` compares the median rates.  Either way each
invocation's reports are checked (see ``checks.py``) and must be
byte-identical to the run's first invocation; the last stdout line is the
JSON result.

``failed`` counts operations (scenarios, or calibration.csv rows) that missed
any check, so ``failed / attempted`` is the failed fraction; it is printed
with the metrics but kept out of BENCHMARK.json's metric list because it is
0 on most workloads.  ``correct`` is false when a report file is wrong: an
exit that is not 0, bytes that differ between invocations, or a miss on a
check of the reported values.  A miss of the dense-grid check on
``minimal_hellinger``, which the reports do not contain, counts in
``failed`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_INVOCATIONS = 2
MIN_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen, and which layer it loads, is recorded
    in BENCHMARK.json."""

    config: str
    workers: int
    # The same slice at this worker count must give byte-identical reports.
    reference_workers: int | None = None


WORKLOADS = {
    "continuous_single": Workload("continuous_single.yaml", 1),
    "continuous_single_w2": Workload("continuous_single.yaml", 2, reference_workers=1),
    "binary_single": Workload("binary_single.yaml", 1),
    "continuous_mixture": Workload("continuous_mixture.yaml", 1),
    "calibrate_case_study": Workload("calibrate_case_study.yaml", 1),
}

TRACE_SCALING = ("continuous_single", "continuous_single_w2")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Invocations
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    returncode: int | None
    stats: dict | None
    stderr: str
    out_dir: Path
    t_spawn: float
    spans: Path | None = None

    @property
    def ok(self) -> bool:
        return (self.returncode == 0 and self.stats is not None
                and self.stats.get("exit_code", 0) == 0)

    @property
    def setup_s(self) -> float:
        return self.stats["t_setup"] - self.t_spawn

    @property
    def run_s(self) -> float:
        return self.stats["t_end"] - self.stats["t_setup"]

    @property
    def reps_per_s(self) -> float:
        return self.stats["replicates"] / self.run_s


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(config: Path, seed: int, workers: int, out_dir: Path,
           trace: bool = False, setup_only: bool = False) -> Invocation:
    stats_path = out_dir.with_name(out_dir.name + ".stats.json")
    spans = out_dir.with_name(out_dir.name + ".spans.npz") if trace else None
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--stats", str(stats_path), "--config", str(config)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", "--config", str(config), "--out", str(out_dir),
            "--seed", str(seed), "--workers", str(workers)]
    t_spawn = _monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        rc: int | None = proc.returncode
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        _, err = proc.communicate()
        rc = None
    stats = json.loads(stats_path.read_text()) if rc == 0 and stats_path.exists() else None
    if stats is not None and Path(stats["hctrial_file"]).resolve().parent.parent != SRC:
        raise BenchError(f"imported hctrial from {stats['hctrial_file']}, not {SRC}")
    return Invocation(rc, stats, err.decode(errors="replace"), out_dir, t_spawn, spans)


# ---------------------------------------------------------------------------
# Checks and operation accounting
# ---------------------------------------------------------------------------


@dataclass
class Verdicts:
    """Failed-operation bookkeeping over every invocation of a run."""

    hmin_program: object = None
    reference: dict | None = None
    reference_problems: list | None = None
    attempted: int = 0
    failed: int = 0
    reports_ok: bool = True
    notes: list[str] = field(default_factory=list)

    def _check(self, out_dir: Path) -> list[list[str]]:
        import checks

        summary = json.loads((out_dir / "summary.json").read_text())
        if summary["mode"] == "calibrate":
            return checks.check_calibrate(summary,
                                          (out_dir / "calibration.csv").read_text())
        return checks.check_simulate(summary, self.hmin_program)

    def record(self, inv: Invocation, n_ops: int, label: str) -> None:
        import checks

        self.attempted += n_ops
        if not inv.ok:
            self.failed += n_ops
            self.reports_ok = False
            tail = inv.stderr.strip().splitlines()[-3:]
            self.notes.append(f"{label}: exit {inv.returncode}: {' | '.join(tail)}")
            return
        files = checks.read_outputs(inv.out_dir)
        if self.reference is None:
            self.reference = files
            self.reference_problems = self._check(inv.out_dir)
            for i, problems in enumerate(self.reference_problems):
                for p in problems:
                    self.notes.append(f"operation {i}: {p}")
        if files != self.reference:
            self.failed += n_ops
            self.reports_ok = False
            self.notes.append(f"{label}: reports differ from the run's first invocation")
            return
        bad = [p for p in self.reference_problems if p]
        self.failed += len(bad)
        if any(not m.startswith(checks.HMIN_MISS) for p in bad for m in p):
            self.reports_ok = False


def _operation_count(config: Path) -> int:
    import yaml

    cfg = yaml.safe_load(config.read_text())
    if cfg["mode"] == "calibrate":
        cal = cfg["calibration"]
        cells = len(cal["t_values"]) * len(cal["gamma_values"])
        return cells * (len(cal.get("table_delta_stars", [])) + 2)
    t = cfg["design"]["t"]
    return (len(t) if isinstance(t, list) else 1) * len(cfg["truth"]["drift_grid"]) * \
        len(cfg["truth"]["hypotheses"])


def _hmin_program(config: Path):
    """The program's exact-mode minimal distance to a mixture prior, or None
    when the historical prior is a single component (closed form)."""
    import yaml

    cfg = yaml.safe_load(config.read_text())
    comps = cfg["priors"]["historical_control"]["components"]
    if cfg["model"]["kind"] != "continuous" or len(comps) == 1:
        return None
    sys.path.insert(0, str(SRC))
    from hctrial import OutcomeModel, PriorSpec, minimal_hellinger

    sd = float(cfg["model"].get("known_sd", 1.0))
    prior = PriorSpec.mixture("normal", [(c.get("weight", 1.0), c["mean"] / sd, c["sd"] / sd)
                                         for c in comps])
    model = OutcomeModel("continuous")
    return lambda interim_sd: minimal_hellinger(prior, PriorSpec.normal(0.0, interim_sd), model)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


class Run:
    def __init__(self, name: str, seed: int) -> None:
        self.wl = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.config = BENCH / "configs" / self.wl.config
        self.work = WORK / f"{name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.n_ops = _operation_count(self.config)
        self.verdicts = Verdicts(hmin_program=_hmin_program(self.config))
        self._count = 0

    def call(self, workers: int, trace: bool = False, setup_only: bool = False,
             check: bool = True) -> Invocation:
        self._count += 1
        out = self.work / f"inv{self._count:03d}"
        inv = invoke(self.config, self.seed, workers, out, trace=trace, setup_only=setup_only)
        if check:
            self.verdicts.record(inv, self.n_ops, f"invocation {self._count} "
                                 f"(workers {workers}{', traced' if trace else ''})")
        return inv

    def end_to_end(self, seconds: float) -> dict[str, float]:
        if self.wl.reference_workers is not None:
            self.call(self.wl.reference_workers)
        timed: list[Invocation] = []
        t0 = _monotonic()
        while True:
            timed.append(self.call(self.wl.workers))
            elapsed = _monotonic() - t0
            # stop once another invocation would end more than half of one
            # past the budget
            if len(timed) >= MIN_INVOCATIONS and elapsed * (1 + 0.5 / len(timed)) > seconds:
                break
        good = [inv for inv in timed if inv.ok]
        if not good:
            return {}
        setup = [inv.setup_s for inv in good]
        while len(setup) < MIN_SETUP_SAMPLES:
            probe = self.call(self.wl.workers, setup_only=True, check=False)
            if not probe.ok:
                raise BenchError(f"set-up probe failed: {probe.stderr.strip()[-500:]}")
            setup.append(probe.setup_s)
        return {
            "setup_s": _median(setup),
            "reps_per_s": _median([inv.reps_per_s for inv in good]),
            "cpu_ms_per_rep": _median([1e3 * inv.stats["cpu_s"] / inv.stats["replicates"]
                                       for inv in good]),
            "peak_rss_mb": _median([inv.stats["peak_rss_kb"] / 1024.0 for inv in good]),
        }

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        import numpy as np

        import tracing

        # two untraced/traced pairs: one invocation's speed moves by ~10% on
        # a shared machine, which is comparable to the overhead itself
        untraced_runs = [self.call(1)]
        w2 = self.call(2) if self.name in TRACE_SCALING else None
        traced_runs = [self.call(1, trace=True)]
        untraced_runs.append(self.call(1))
        traced_runs.append(self.call(1, trace=True))
        if not all(inv.ok for inv in untraced_runs + traced_runs + ([w2] if w2 else [])):
            return {}, []
        untraced_rate = _median([inv.reps_per_s for inv in untraced_runs])
        traced_rate = _median([inv.reps_per_s for inv in traced_runs])
        traced = traced_runs[0]
        spans = tracing.load_spans(traced.spans)
        counters = traced.stats["counters"]
        reps = traced.stats["replicates"]
        table = tracing.span_table(spans)
        own = tracing.self_ns_by_name(spans)
        layers = tracing.layer_self_ns(spans)
        run_ns = float(table["cli.run"].sum())
        notes: list[str] = []

        def durations(name: str) -> np.ndarray:
            return table.get(name, np.zeros(0, dtype=np.int64))

        def count(name: str) -> int:
            return len(durations(name))

        def absent(metric: str, why: str) -> float:
            notes.append(f"{metric}: not measured on this workload, reported as 0 ({why})")
            return 0.0

        def pct_us(metric: str, span: str, q: float) -> float:
            d = durations(span)
            if not len(d):
                return absent(metric, f"no {span} call")
            if q > 50:
                notes.append(f"{metric}: {len(d)} samples")
            return float(np.percentile(d, q)) / 1e3

        def total_s(metric: str, span: str) -> float:
            d = durations(span)
            return float(d.sum()) / 1e9 if len(d) else absent(metric, f"no {span} call")

        def ratio(metric: str, num: float, den: float, why: str) -> float:
            return num / den if den else absent(metric, why)

        hmin_calls = counters["hmin_cache_hits"] + counters["hmin_cache_misses"]
        rescales = counters["rescale_calls"]
        evaluated = sum(count(n) for n in ("calibration.table_cell",
                                           "calibration.borrowing_probability",
                                           "calibration.expected_saved"))
        m: dict[str, float] = {
            "cli.import_s": _median([i.stats["t_imported"] - i.stats["t_start"]
                                     for i in untraced_runs + traced_runs]),
            "cli.parse_ms": 1e3 * total_s("cli.parse_ms", "cli.parse_config"),
            "cli.emit_ms": 1e3 * total_s("cli.emit_ms", "cli.emit_reports"),
            "trial_engine.self_ms_per_rep": (
                own["trial_engine.run_campaign"] / 1e6 / reps if count("trial_engine.run_campaign")
                else absent("trial_engine.self_ms_per_rep", "calibrate mode")),
            "trial_engine.scaling_eff": (
                w2.reps_per_s / (2.0 * untraced_rate) if w2 is not None
                else absent("trial_engine.scaling_eff",
                            "defined on the continuous_single slice only")),
            "similarity.assess_calls_per_rep": count("similarity.assess_similarity") / reps,
            "similarity.assess_us_p50": pct_us("similarity.assess_us_p50",
                                               "similarity.assess_similarity", 50),
            "similarity.assess_us_p99": pct_us("similarity.assess_us_p99",
                                               "similarity.assess_similarity", 99),
            "similarity.hmin_cache_hit_ratio": ratio(
                "similarity.hmin_cache_hit_ratio", counters["hmin_cache_hits"], hmin_calls,
                "no minimal_hellinger call"),
            "similarity.hellinger_numeric_calls_per_rep":
                count("distributions.hellinger_numeric") / reps,
            "distributions.interval_us_p50": pct_us(
                "distributions.interval_us_p50", "distributions.delta_point_and_interval", 50),
            "distributions.interval_us_p99": pct_us(
                "distributions.interval_us_p99", "distributions.delta_point_and_interval", 99),
            "distributions.interval_useful_ratio": ratio(
                "distributions.interval_useful_ratio", reps,
                count("distributions.delta_point_and_interval"), "no credible interval"),
            "distributions.prob_positive_us_p50": pct_us(
                "distributions.prob_positive_us_p50", "distributions.prob_delta_positive", 50),
            "distributions.posterior_update_us_p50": pct_us(
                "distributions.posterior_update_us_p50", "distributions.posterior_update", 50),
            "distributions.hellinger_numeric_us_p50": pct_us(
                "distributions.hellinger_numeric_us_p50", "distributions.hellinger_numeric", 50),
            "distributions.quad_calls_per_rep": counters["quad_calls"] / reps,
            "distributions.quad_neval_per_rep": counters["quad_neval"] / reps,
            "ess.rescale_us_p50": pct_us("ess.rescale_us_p50", "ess.rescale_to_ess", 50),
            "ess.rescale_calls_per_rep": rescales / reps,
            "ess.elir_calls_per_rescale": ratio(
                "ess.elir_calls_per_rescale", count("ess.elir_ess"), rescales,
                "no rescale_to_ess call"),
            "ess.rescale_distinct_ratio": ratio(
                "ess.rescale_distinct_ratio", counters["rescale_distinct"], rescales,
                "no rescale_to_ess call"),
            "ess.low_ess_warnings": float(counters["low_ess_warnings"]),
            "adaptive_design.self_us_per_rep": layers["adaptive_design"] / 1e3 / reps,
            "calibration.select_s": total_s("calibration.select_s",
                                            "calibration.select_design_params"),
            "calibration.table_s": total_s("calibration.table_s", "calibration.table_cell"),
            "calibration.cells_evaluated_per_reported": ratio(
                "calibration.cells_evaluated_per_reported", evaluated,
                self._reported_cells(traced.out_dir) if evaluated else 0, "simulate mode"),
            "trace.overhead": traced_rate / untraced_rate - 1.0,
        }
        for layer, ns in layers.items():
            m[f"{layer}.share"] = ns / run_ns
        return m, notes

    @staticmethod
    def _reported_cells(out_dir: Path) -> int:
        """Distinct (quantity, delta, t, gamma) values in calibration.csv; the
        probability at the maximum acceptable drift repeats a table cell."""
        import csv

        with open(out_dir / "calibration.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return len({(r["quantity"].replace("_at_mad", ""), float(r["delta_star"]),
                     r["t"], r["gamma"]) for r in rows})


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (SRC / "hctrial" / "__init__.py").is_file():
        print(f"error: no hctrial sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = spec["per_layer" if args.trace else "end_to_end"]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)

    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            values, notes = run.per_layer()
        else:
            values, notes = run.end_to_end(args.seconds), []
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its directory there
    v = run.verdicts
    if not values:
        print("error: no invocation completed", file=sys.stderr)
        for note in v.notes:
            print(f"  {note}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} (seed {args.seed}): {why}")
    for spec in specs:
        print(f"  {spec['name']:<44} {values[spec['name']]:.6g} {spec['unit']}")
    print(f"  {'failed_frac':<44} {v.failed / v.attempted:.6g} ratio "
          f"({v.failed} of {v.attempted} operations)")
    for note in notes + v.notes[:20]:
        print(f"  note: {note}")
    result = {
        "correct": v.reports_ok,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
