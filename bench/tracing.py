"""Spans and counters recorded around hctrial's public functions, from outside.

The benchmark never edits ``src/``.  Instead, a traced CLI invocation replaces
each public function by a timing wrapper *as it is bound in the calling
module* (``from x import f`` copies the binding, so ``trial_engine.
assess_similarity`` and ``calibration.assess_similarity`` are wrapped
separately).  Spans stay in memory and are written once, when the
invocation ends.

A span is (name, parent, start_ns, end_ns).  Its name is ``<layer>.<what>``
and the layer is the module that implements the callee.  A layer's self time
is the summed duration of its spans minus the time their direct child spans
cover; spans are strictly nested because the traced run is single-threaded.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = (
    "cli",
    "trial_engine",
    "similarity",
    "distributions",
    "ess",
    "adaptive_design",
    "calibration",
)

# (module, attribute, span name): every call site the traced run wraps.
WRAPPED = (
    ("cli", "run", "cli.run"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "emit_reports", "cli.emit_reports"),
    ("cli", "run_campaign", "trial_engine.run_campaign"),
    ("cli", "select_design_params", "calibration.select_design_params"),
    # the reporting table that cli walks after select_design_params
    ("cli", "borrowing_probability", "calibration.table_cell"),
    ("calibration", "borrowing_probability", "calibration.borrowing_probability"),
    ("calibration", "expected_saved", "calibration.expected_saved"),
    ("calibration", "assess_similarity", "similarity.assess_similarity"),
    ("calibration", "stage2_sizes", "adaptive_design.stage2_sizes"),
    ("trial_engine", "assess_similarity", "similarity.assess_similarity"),
    ("trial_engine", "stage2_sizes", "adaptive_design.stage2_sizes"),
    ("trial_engine", "adjust_control_prior", "adaptive_design.adjust_control_prior"),
    ("trial_engine", "final_decision", "adaptive_design.final_decision"),
    ("trial_engine", "posterior_update", "distributions.posterior_update"),
    ("trial_engine", "delta_point_and_interval", "distributions.delta_point_and_interval"),
    ("similarity", "hellinger_numeric", "distributions.hellinger_numeric"),
    ("adaptive_design", "prob_delta_positive", "distributions.prob_delta_positive"),
    ("adaptive_design", "rescale_to_ess", "ess.rescale_to_ess"),
    ("ess", "elir_ess", "ess.elir_ess"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder.  ``wrap`` installs a span around a callable."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def dump(self, path: Path) -> None:
        """Write every span: name, parent index (-1 for a root), start, end."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


class _QuadCounter:
    """Stands in for ``scipy.integrate`` inside ``hctrial.distributions`` and
    counts every ``quad`` call with QUADPACK's ``neval``."""

    def __init__(self, real) -> None:
        self._real = real
        self.calls = 0
        self.neval = 0

    def quad(self, *args, **kwargs):
        res = self._real.quad(*args, **kwargs)
        self.calls += 1
        if kwargs.get("full_output"):
            self.neval += int(res[2]["neval"])
        return res

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class _WarnCounter:
    """Stands in for the ``warnings`` module inside ``hctrial.ess``."""

    def __init__(self, real) -> None:
        self._real = real
        self.count = 0

    def warn(self, *args, **kwargs):
        self.count += 1
        return self._real.warn(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Instrumentation:
    """Spans plus the counters that ratios need, installed on a live hctrial."""

    def __init__(self, hctrial_modules: dict) -> None:
        self.tracer = Tracer()
        self.modules = hctrial_modules
        self.rescale_keys: list = []

        for mod, attr, name in WRAPPED:
            module = hctrial_modules[mod]
            setattr(module, attr, self.tracer.wrap(getattr(module, attr), name))

        ad = hctrial_modules["adaptive_design"]
        traced_rescale = ad.rescale_to_ess
        keys = self.rescale_keys

        @functools.wraps(traced_rescale)
        def keyed_rescale(prior, target, model):
            keys.append((prior, target.value, model))
            return traced_rescale(prior, target, model)

        ad.rescale_to_ess = keyed_rescale

        dist = hctrial_modules["distributions"]
        self.quad = _QuadCounter(dist.integrate)
        dist.integrate = self.quad
        ess = hctrial_modules["ess"]
        self.warns = _WarnCounter(ess.warnings)
        ess.warnings = self.warns

    def counters(self) -> dict:
        info = self.modules["similarity"]._minimal_hellinger_cached.cache_info()
        return {
            "quad_calls": self.quad.calls,
            "quad_neval": self.quad.neval,
            "hmin_cache_hits": info.hits,
            "hmin_cache_misses": info.misses,
            "rescale_calls": len(self.rescale_keys),
            "rescale_distinct": len(set(self.rescale_keys)),
            "low_ess_warnings": self.warns.count,
        }


# ---------------------------------------------------------------------------
# Analysis (parent side)
# ---------------------------------------------------------------------------


def load_spans(path: Path) -> dict:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed duration of its direct children."""
    dur = (end - start).astype(np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered.astype(np.int64)


def span_table(spans: dict) -> dict[str, np.ndarray]:
    """Durations in ns grouped by span name."""
    names = spans["names"]
    dur = spans["end"] - spans["start"]
    return {str(names[i]): dur[spans["name_id"] == i] for i in range(len(names))}


def self_ns_by_name(spans: dict) -> dict[str, int]:
    """Summed self time in ns of every span name."""
    names = spans["names"]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    per_name = np.bincount(spans["name_id"], weights=own, minlength=len(names))
    return {str(names[i]): int(per_name[i]) for i in range(len(names))}


def layer_self_ns(spans: dict) -> dict[str, int]:
    out = {layer: 0 for layer in LAYERS}
    for name, ns in self_ns_by_name(spans).items():
        out[layer_of(name)] += ns
    return out
