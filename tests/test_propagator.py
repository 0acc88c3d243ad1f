import math

import numpy as np
import pytest

from madelung import grid
from madelung.grid import RealField, make_grid
from madelung.potentials import PotentialSpec, evaluate_potential
from madelung.propagator import PropagatorConfig, evolve, step
from madelung.states import gaussian_packet, harmonic_ground_state, plane_wave


@pytest.fixture
def free_potential(desk_grid):
    return RealField(np.zeros(desk_grid.n), desk_grid)


@pytest.fixture
def harmonic_potential(desk_grid, natural_units):
    return evaluate_potential(PotentialSpec("harmonic", omega=1.0), desk_grid, natural_units)


def test_config_validation():
    with pytest.raises(ValueError):
        PropagatorConfig(dt=0.0, n_steps=10)
    with pytest.raises(ValueError):
        PropagatorConfig(dt=1e-3, n_steps=-1)
    with pytest.raises(ValueError):
        PropagatorConfig(dt=1e-3, n_steps=10, snapshot_every=0)
    for n_steps, snapshot_every in [(1.5, 1), (True, 1), (10, 2.5), (10, True), (10.0, 1)]:
        with pytest.raises(ValueError, match="must be an integer"):
            PropagatorConfig(1e-3, n_steps, snapshot_every)


@pytest.mark.parametrize("dt", [np.inf, np.nan, -1e-3, True])
def test_config_rejects_a_step_that_is_not_finite_and_positive(dt):
    with pytest.raises(ValueError, match=f"^dt must be finite and > 0, got {dt!r}$"):
        PropagatorConfig(dt, 10)


def test_plane_wave_kinetic_phase(desk_grid, natural_units, free_potential):
    wf = plane_wave(desk_grid, natural_units, 8)
    k = 2.0 * np.pi * 8 / desk_grid.length
    dt = 1e-3
    out = step(wf, free_potential, dt)
    expected = wf.psi.values * np.exp(-0.5j * k * k * dt)
    assert np.max(np.abs(out.psi.values - expected)) < 1e-14
    assert np.max(np.abs(np.abs(out.psi.values) - np.abs(wf.psi.values))) < 1e-14


def test_stationary_state_density_frozen(desk_grid, natural_units, harmonic_potential):
    wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
    out = step(wf, harmonic_potential, 1e-3)
    assert np.max(np.abs(out.density().values - wf.density().values)) < 1e-10
    # global phase advances by -E0 dt / hbar with E0 = 1/2, up to the
    # O(dt^3) splitting truncation of a single step
    on = wf.density().values > 1e-6 * wf.density().values.max()
    phase = np.angle(out.psi.values[on] / wf.psi.values[on])
    assert np.max(np.abs(phase + 0.5 * 1e-3)) < 1e-8


def test_zero_dt_is_identity(desk_grid, natural_units, free_potential):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    out = step(wf, free_potential, 0.0)
    assert out is wf


def test_step_rejects_negative_dt(desk_grid, natural_units, free_potential):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        step(wf, free_potential, -1e-3)


def test_step_rejects_potential_on_another_grid(desk_grid, natural_units,
                                                foreign_harmonic_U):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="different grids"):
        step(wf, foreign_harmonic_U, 1e-3)


def test_evolve_rejects_potential_on_another_grid(desk_grid, natural_units,
                                                  foreign_harmonic_U):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="different grids"):
        evolve(wf, foreign_harmonic_U, PropagatorConfig(1e-3, 10, 10))


def test_kinetic_phase_bound(natural_units):
    # negative control: mode 1000 turns by 12.3 rad per step at dt = 1e-3
    g = make_grid(4096, -20.0, 20.0)
    wf = plane_wave(g, natural_units, 1000)
    U = RealField(np.zeros(g.n), g)
    with pytest.raises(ValueError, match="exceeds pi"):
        step(wf, U, 1e-3)
    with pytest.raises(ValueError, match="exceeds pi"):
        evolve(wf, U, PropagatorConfig(1e-3, 10), [])
    assert np.all(np.isfinite(step(wf, U, 2e-4).psi.values))


def test_kinetic_phase_bound_reads_the_state_not_the_grid(natural_units):
    # the grid's Nyquist phase is 51.7 at dt = 1e-3, but mode 8 occupies
    # only k = 1.26, and the kinetic factor is exact for it
    g = make_grid(4096, -20.0, 20.0)
    wf = plane_wave(g, natural_units, 8)
    U = RealField(np.zeros(g.n), g)
    k = 2.0 * np.pi * 8 / g.length
    dt = 1e-3
    out = step(wf, U, dt)
    expected = wf.psi.values * np.exp(-0.5j * k * k * dt)
    assert np.max(np.abs(out.psi.values - expected)) < 1e-13
    assert abs(out.norm() - 1.0) < 1e-13


def _free_gaussian(x, t, x0, sigma0, k0):
    """Exact free evolution (hbar = m = 1) of gaussian_packet(x0, sigma0, k0)."""
    a = 1.0 + 1j * t / (2.0 * sigma0**2)
    return ((2.0 * math.pi * sigma0**2) ** -0.25 / np.sqrt(a)
            * np.exp(-(x - x0 - k0 * t) ** 2 / (4.0 * sigma0**2 * a)
                     + 1j * (k0 * x - 0.5 * k0**2 * t)))


def test_wide_domain_packet_is_accepted(natural_units):
    # a moving packet on the 65536-point wide domain, dt = 1e-3
    g = make_grid(65536, -1536.0, 1536.0)
    wf = gaussian_packet(g, natural_units, 4.0, 1.0, 2.5)
    U = RealField(np.zeros(g.n), g)
    out = evolve(wf, U, PropagatorConfig(1e-3, 200), [])
    exact = _free_gaussian(g.x, 0.2, 4.0, 1.0, 2.5)
    assert np.sqrt(np.sum(np.abs(out.psi.values - exact) ** 2) * g.dx) < 1e-10
    assert abs(out.norm() - 1.0) < 1e-12


# Grids at and above the blocked-transform threshold: 32768 is the
# non-square (128, 256) split, the others are square.
BLOCKED_NS = [8192, 16384, 32768, 65536]


def _large_case(n, kind, natural_units):
    g = make_grid(n, -0.025 * n, 0.025 * n)
    wf = gaussian_packet(g, natural_units, 1.0, 1.0, 2.0)
    if kind == "harmonic":
        U = evaluate_potential(PotentialSpec("harmonic", omega=0.02), g, natural_units)
    else:
        table = RealField(0.5 * np.cos(0.3 * g.x), g)
        U = evaluate_potential(PotentialSpec("tabulated", table=table), g, natural_units)
    return wf, U


def _plain_steps(wf, U, dt, n_steps):
    """The unblocked Strang step, built here from the natural-order wavenumbers."""
    half_v = np.exp(-0.5j * U.values * dt)
    k = 2.0 * np.pi * np.fft.fftfreq(wf.grid.n, wf.grid.dx)
    kinetic = np.exp(-0.5j * k**2 * dt)
    values = wf.psi.values
    for _ in range(n_steps):
        values = half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * values))
    return values


def test_blocked_threshold_lies_between_the_tested_sizes():
    # the sizes below stand on both sides of the threshold
    assert 4096 < grid._BLOCKED_MIN_N <= 8192
    assert grid._block_shape(32768) == (128, 256)
    assert grid._block_shape(65536) == (256, 256)


@pytest.mark.parametrize("kind", ["harmonic", "cosine_table"])
@pytest.mark.parametrize("n", BLOCKED_NS)
def test_blocked_transform_matches_plain_transforms(n, kind, natural_units):
    wf, U = _large_case(n, kind, natural_units)
    dt = 1e-3
    one = step(wf, U, dt).psi.values
    assert np.max(np.abs(one - _plain_steps(wf, U, dt, 1))) < 1e-13
    fifty = evolve(wf, U, PropagatorConfig(dt, 50, 50)).psi.values
    assert np.max(np.abs(fifty - _plain_steps(wf, U, dt, 50))) < 1e-13


@pytest.mark.parametrize("n", [512, 4096, 8192, 32768])
def test_step_equals_one_step_evolve_bitwise(n, natural_units):
    wf, U = _large_case(n, "cosine_table", natural_units)
    one = step(wf, U, 1e-3).psi.values
    assert np.array_equal(one, evolve(wf, U, PropagatorConfig(1e-3, 1)).psi.values)


@pytest.mark.parametrize("n", [512, 4096])
def test_apply_below_threshold_is_the_plain_expression(n):
    rng = np.random.default_rng(n)
    values, half_v, kinetic = np.exp(2j * np.pi * rng.random((3, n)))
    plain = half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * values))
    assert np.array_equal(grid._apply(values, half_v, kinetic), plain)


def test_snapshots_own_their_arrays_on_a_blocked_grid(natural_units):
    g = make_grid(65536, -1536.0, 1536.0)
    wf = gaussian_packet(g, natural_units, 4.0, 1.0, 2.5)
    before = wf.psi.values.copy()
    U = RealField(np.zeros(g.n), g)
    kept = []
    out = evolve(wf, U, PropagatorConfig(1e-3, 5, 2), [lambda t, w: kept.append(w.psi.values)])
    assert len(kept) == 3 and kept[0] is wf.psi.values
    arrays = kept + [out.psi.values]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(wf.psi.values, before)
    assert not np.array_equal(kept[1], kept[2])
    assert not np.shares_memory(step(wf, U, 1e-3).psi.values, wf.psi.values)
    assert np.array_equal(wf.psi.values, before)


def test_evolve_zero_steps_notifies_once(desk_grid, natural_units, free_potential):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    seen = []
    out = evolve(wf, free_potential, PropagatorConfig(1e-3, 0), [lambda t, w: seen.append(t)])
    assert seen == [0.0]
    assert out is wf


def test_evolve_snapshot_cadence(desk_grid, natural_units, free_potential):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    seen = []
    evolve(wf, free_potential, PropagatorConfig(1e-3, 10, 4), [lambda t, w: seen.append(round(t, 9))])
    assert seen == [0.0, 0.004, 0.008]


@pytest.mark.parametrize("n_steps", [10, 12])
def test_evolve_returns_the_last_step_between_snapshots(desk_grid, natural_units,
                                                        harmonic_potential, n_steps):
    wf = gaussian_packet(desk_grid, natural_units, 0.5, 1.0, 1.0)
    seen = []
    out = evolve(wf, harmonic_potential, PropagatorConfig(1e-3, n_steps, 4),
                 [lambda t, w: seen.append(w)])
    stepped = wf
    for _ in range(n_steps):
        stepped = step(stepped, harmonic_potential, 1e-3)
    assert np.array_equal(out.psi.values, stepped.psi.values)
    # the last step is the last snapshot only when snapshot_every divides n_steps
    assert (out is seen[-1]) == (n_steps % 4 == 0)


def test_observer_failure_aborts(desk_grid, natural_units, free_potential):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)

    def bad_observer(t, w):
        if t > 0:
            raise RuntimeError("observer exploded")

    with pytest.raises(RuntimeError, match="observer exploded"):
        evolve(wf, free_potential, PropagatorConfig(1e-3, 5, 1), [bad_observer])


def test_free_gaussian_spreading_law(desk_grid, natural_units, free_potential):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    out = evolve(wf, free_potential, PropagatorConfig(1e-3, 2000, 2000), [])
    rho = out.density().values
    x = desk_grid.x
    var = np.sum(rho * x * x) * desk_grid.dx
    assert abs(np.sqrt(var) - np.sqrt(2.0)) < 1e-4 * np.sqrt(2.0)


def test_kicked_gaussian_drifts(desk_grid, natural_units, free_potential):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 2.0)
    out = evolve(wf, free_potential, PropagatorConfig(1e-3, 1000, 1000), [])
    rho = out.density().values
    mean = np.sum(rho * desk_grid.x) * desk_grid.dx
    assert abs(mean - 2.0) < 1e-6


def test_unitarity_over_long_run(desk_grid, natural_units, harmonic_potential):
    wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
    norms = []
    evolve(
        wf, harmonic_potential, PropagatorConfig(1e-3, 1000, 100),
        [lambda t, w: norms.append(w.norm())],
    )
    assert max(abs(n - 1.0) for n in norms) < 1e-10


def test_energy_conservation(desk_grid, natural_units, harmonic_potential):
    from madelung.diagnostics import expectations

    wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
    energies = []
    evolve(
        wf, harmonic_potential, PropagatorConfig(1e-3, 1000, 200),
        [lambda t, w: energies.append(expectations(w, harmonic_potential).E)],
    )
    drift = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
    assert drift < 1e-8


def test_second_order_convergence(desk_grid, natural_units, harmonic_potential):
    # error against each step size's own dt/4 reference shrinks 4x per halving
    wf = gaussian_packet(desk_grid, natural_units, 1.0, 2.0**-0.5, 0.0)
    T = 0.5

    def final(dt):
        n = int(round(T / dt))
        return evolve(wf, harmonic_potential, PropagatorConfig(dt, n, n), []).psi.values

    def err(dt):
        return np.sqrt(np.sum(np.abs(final(dt) - final(dt / 4.0)) ** 2) * desk_grid.dx)

    ratio = err(1e-3) / err(5e-4)
    assert 3.5 <= ratio <= 4.5
