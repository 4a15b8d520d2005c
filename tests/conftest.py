"""Shared fixtures for the test suite."""

import pytest

import hctrial.distributions as distributions
from hctrial import OutcomeModel, PriorSpec


@pytest.fixture(scope="session")
def continuous_model() -> OutcomeModel:
    return OutcomeModel("continuous")


@pytest.fixture(scope="session")
def binary_model() -> OutcomeModel:
    return OutcomeModel("binary")


@pytest.fixture(scope="session")
def two_normal_mixture() -> PriorSpec:
    """Two nearly-centered normal components jointly worth ~70 patients."""
    return PriorSpec.mixture(
        "normal", [(0.539, 0.00027, 0.2006), (0.461, -0.00031, 0.0672)]
    )


@pytest.fixture
def disagreeing_fixed_rule(monkeypatch):
    """Scale the 12-node weights of the fixed rule, which serves every
    integral without a closed form, by 1.001, so that its convergence check
    fails on any integral that is not tiny."""
    nodes, weights = distributions._gauss_legendre()
    monkeypatch.setattr(distributions, "_gauss_legendre",
                        lambda: (nodes, weights * [1.0, 1.001]))
