"""Shared fixtures for the test suite."""

import pytest

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
