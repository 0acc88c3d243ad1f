import pytest

from madelung.grid import make_grid
from madelung.harness import builtin_scenarios, run_scenarios
from madelung.states import PhysicalConstants


@pytest.fixture(scope="session")
def natural_units():
    return PhysicalConstants()


@pytest.fixture(scope="session")
def desk_grid():
    """The grid every acceptance-level check runs on."""
    return make_grid(512, -20.0, 20.0)


@pytest.fixture(scope="session")
def suite_reports():
    """Full builtin verification suite, run once per session, in worker
    processes as `madelung verify --all` runs it."""
    return {r.scenario: r for r in run_scenarios(builtin_scenarios())}
