"""The names the benchmark harness in ``bench/`` looks up on the live package.

A traced run (``bench/run.py --trace 1``) wraps every ``tracing.WRAPPED``
attribute by name, and the minimal-Hellinger check calls
``minimal_hellinger`` positionally; a rename would surface only when the
benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

from hctrial import OutcomeModel, PriorSpec, minimal_hellinger

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("module, attr, span", tracing.WRAPPED)
def test_wrapped_attribute_is_callable(module, attr, span):
    live = importlib.import_module(f"hctrial.{module}")
    assert callable(getattr(live, attr, None)), f"hctrial.{module}.{attr} ({span})"


def test_minimal_hellinger_takes_three_positional_arguments():
    # a mixture prior, as in the benchmark's continuous_mixture check
    prior = PriorSpec.mixture("normal", [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)])
    h = minimal_hellinger(prior, PriorSpec.normal(0.0, 0.2), OutcomeModel("continuous"))
    assert 0.0 <= h < 1.0
