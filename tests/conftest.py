import pytest

from madelung.grid import make_grid
from madelung.harness import builtin_scenarios, run_scenarios
from madelung.potentials import PotentialSpec, evaluate_potential
from madelung.states import PhysicalConstants


@pytest.fixture(scope="session")
def natural_units():
    return PhysicalConstants()


@pytest.fixture(scope="session")
def desk_grid():
    """The grid every acceptance-level check runs on."""
    return make_grid(512, -20.0, 20.0)


@pytest.fixture(params=[(512, -10.0, 10.0), (256, -20.0, 20.0)], ids=["span", "n"])
def foreign_harmonic_U(request, natural_units):
    """A harmonic potential sampled on a grid other than desk_grid: same n
    over another span, and another n over the same span."""
    grid = make_grid(*request.param)
    return evaluate_potential(PotentialSpec("harmonic", omega=1.0), grid, natural_units)


@pytest.fixture(scope="session")
def suite_reports():
    """Full builtin verification suite, run once per session, in worker
    processes as `madelung verify --all` runs it."""
    return {r.scenario: r for r in run_scenarios(builtin_scenarios())}
