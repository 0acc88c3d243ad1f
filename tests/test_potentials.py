import numpy as np
import pytest

from madelung.grid import RealField, make_grid
from madelung.potentials import PotentialSpec, evaluate_potential, load_potential_table
from madelung.states import PhysicalConstants


@pytest.fixture
def grid():
    # dx = 0.125, so x = 1.0 and x = 2.0 are grid points
    return make_grid(256, -16.0, 16.0)


def test_free_is_zero(grid, natural_units):
    U = evaluate_potential(PotentialSpec("free"), grid, natural_units)
    assert np.count_nonzero(U.values) == 0


def test_harmonic_value(grid, natural_units):
    U = evaluate_potential(PotentialSpec("harmonic", omega=1.0), grid, natural_units)
    j = int(np.flatnonzero(grid.x == 1.0)[0])
    assert U.values[j] == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(U.values, 0.5 * grid.x**2)


def test_linear_value(grid):
    c = PhysicalConstants(mass=1.0)
    U = evaluate_potential(PotentialSpec("linear", g=1.0), grid, c)
    j = int(np.flatnonzero(grid.x == 2.0)[0])
    assert U.values[j] == pytest.approx(2.0, abs=1e-15)


def test_linear_scales_with_mass(grid):
    c = PhysicalConstants(mass=3.0)
    U = evaluate_potential(PotentialSpec("linear", g=2.0), grid, c)
    assert np.allclose(U.values, 6.0 * grid.x)


def test_abs_linear_value(desk_grid, natural_units):
    U = evaluate_potential(PotentialSpec("abs_linear", g=2.0), desk_grid, natural_units)
    assert np.allclose(U.values, 2.0 * np.abs(desk_grid.x))


def test_linear_zero_slope_reduces_to_free(grid, natural_units):
    U = evaluate_potential(PotentialSpec("linear", g=0.0), grid, natural_units)
    assert np.count_nonzero(U.values) == 0


def test_harmonic_requires_positive_omega(grid, natural_units):
    with pytest.raises(ValueError):
        evaluate_potential(PotentialSpec("harmonic", omega=0.0), grid, natural_units)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PotentialSpec("quartic")


@pytest.mark.parametrize("kind, param, value", [
    ("free", "g", 1.0), ("harmonic", "g", 1.0), ("free", "omega", 1.0),
    ("linear", "omega", 1.0), ("abs_linear", "omega", float("nan")), ("harmonic", "table", 0),
])
def test_a_parameter_the_kind_does_not_read_is_rejected(grid, kind, param, value):
    if param == "table":
        value = RealField(np.zeros(grid.n), grid)
    with pytest.raises(ValueError, match=f"kind {kind!r} does not read potential.{param}"):
        PotentialSpec(kind, **{param: value})


def test_tabulated_copy(grid, natural_units):
    table = RealField(np.abs(grid.x), grid)
    U = evaluate_potential(PotentialSpec("tabulated", table=table), grid, natural_units)
    assert np.array_equal(U.values, table.values)
    assert U.values is not table.values


def test_tabulated_requires_table(grid, natural_units):
    with pytest.raises(ValueError):
        evaluate_potential(PotentialSpec("tabulated"), grid, natural_units)


def test_tabulated_grid_mismatch(grid, natural_units):
    other = make_grid(256, -16.0 + 1e-6, 16.0 + 1e-6)
    table = RealField(np.zeros(256), other)
    with pytest.raises(ValueError):
        evaluate_potential(PotentialSpec("tabulated", table=table), grid, natural_units)


def test_load_table_roundtrip(grid, natural_units, tmp_path):
    path = tmp_path / "potential.txt"
    u = 0.5 * grid.x**2
    np.savetxt(path, np.column_stack([grid.x, u]))
    spec = load_potential_table(path, grid)
    U = evaluate_potential(spec, grid, natural_units)
    assert np.max(np.abs(U.values - u)) < 1e-12


def test_load_table_x_mismatch(grid, tmp_path):
    path = tmp_path / "potential.txt"
    np.savetxt(path, np.column_stack([grid.x + 1e-6, np.zeros(grid.n)]))
    with pytest.raises(ValueError):
        load_potential_table(path, grid)


def test_load_table_wrong_shape(grid, tmp_path):
    path = tmp_path / "potential.txt"
    np.savetxt(path, np.column_stack([grid.x, np.zeros(grid.n), np.zeros(grid.n)]))
    with pytest.raises(ValueError):
        load_potential_table(path, grid)
