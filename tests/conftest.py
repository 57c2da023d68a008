import hypothesis
import numpy as np
import pytest

from levylab.grid import gaussian_state
from oracles import default_grid

hypothesis.settings.register_profile(
    "numerics", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("numerics")


@pytest.fixture(scope="session")
def grid():
    return default_grid(1024)


@pytest.fixture(scope="session")
def small_grid():
    return default_grid(512)


@pytest.fixture(scope="session")
def psi(grid):
    return gaussian_state(grid, 0.0, 1.0, 0.0)


@pytest.fixture(scope="session")
def moving_psi(grid):
    return gaussian_state(grid, -1.0, 1.2, 0.8)


@pytest.fixture(autouse=True)
def _no_nan_leaks():
    with np.errstate(invalid="warn", divide="warn"):
        yield
