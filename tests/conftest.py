import importlib

import numpy as np
import pytest

from emdenlab import ProblemParams, connecting_orbit, derive_constants
from emdenlab.acceptance import CONFIG_A, CONFIG_B, Lab

# config C: singular at the origin (sobolev1 < p), used by the
# from_origin crossing tests
CONFIG_C = ProblemParams(n=5, p=2.5, q=3.0, l1=0.0, l2=-0.5)

_acceptance_lines: list = []


def one_lane(fun):
    """fun(t, v, vdot) on arrays as a fun(t, y) on the floats of one
    lane, for the tests' float reference runs and checks of the
    array right-hand side."""
    def one(t, y):
        dv, dw = fun(np.array([t]), np.array([y[0]]), np.array([y[1]]))
        return float(dv[0]), float(dw[0])
    return one


@pytest.fixture(scope="session")
def config_a():
    return CONFIG_A


@pytest.fixture(scope="session")
def dc_a():
    return derive_constants(CONFIG_A)


@pytest.fixture(scope="session")
def config_b():
    return CONFIG_B


@pytest.fixture(scope="session")
def dc_b():
    return derive_constants(CONFIG_B)


@pytest.fixture(scope="session")
def config_c():
    return CONFIG_C


@pytest.fixture(scope="session")
def dc_c():
    return derive_constants(CONFIG_C)


@pytest.fixture(scope="session")
def lab():
    """Shared acceptance artifacts (orbits, scans, envelope runs)."""
    return Lab()


@pytest.fixture(scope="session")
def orbit_a(lab):
    return lab.orbit_a


@pytest.fixture(scope="session")
def orbit_c(dc_c):
    return connecting_orbit(dc_c, "from_origin")


@pytest.fixture
def lane_batches(monkeypatch):
    """The size of each batch integrate_many runs on the lane core, one
    entry per dop853.solve_lanes call."""
    module = importlib.import_module("emdenlab.integrate")
    sizes, solve_lanes = [], module.solve_lanes

    def counted(fun, t0, *args):
        sizes.append(len(t0))
        return solve_lanes(fun, t0, *args)

    monkeypatch.setattr(module, "solve_lanes", counted)
    return sizes


@pytest.fixture(scope="session")
def record_criterion():
    def _record(line: str):
        _acceptance_lines.append(line)
    return _record


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
