import math

import numpy as np
import pytest

from madelung.diagnostics import madelung_fields, velocity
from madelung.grid import RealField, make_grid
from madelung.harness import (
    CheckSpec,
    ScenarioRun,
    apply_overrides,
    collect_flow,
    scenario_by_name,
)
from madelung.propagator import PropagatorConfig, evolve
from madelung.potentials import PotentialSpec, evaluate_potential
from madelung.states import gaussian_packet, harmonic_ground_state, plane_wave
from madelung.trajectories import (
    BranchMismatchError,
    DensityCdf,
    FlowHistory,
    FlowSample,
    ProviderGapError,
    _interp_cubic,
    action_check,
    advect,
    continuity_residual,
    seed_parcels,
    track,
    write_trajectory_csv,
)


def gaussian_quantile_oracle(p):
    """Invert the standard normal CDF by bisection on math.erf."""
    lo, hi = -8.0, 8.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def free_U(desk_grid):
    return RealField(np.zeros(desk_grid.n), desk_grid)


def _track(wf, U, dt, n_steps, n_parcels):
    """The product route: parcels seeded at the density quantiles of wf,
    then tracked through its flow."""
    return track(wf, U, dt, n_steps, seed_parcels(wf.density(), n_parcels))[1]


class TestSeeding:
    def test_uniform_density_equal_spacing(self, desk_grid, natural_units):
        wf = plane_wave(desk_grid, natural_units, 0)
        ens = seed_parcels(wf.density(), 4)
        gaps = np.diff(ens.positions)
        assert np.allclose(gaps, desk_grid.length / 4.0, atol=1e-9)

    def test_gaussian_quartiles(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        ens = seed_parcels(wf.density(), 2)
        expected = gaussian_quantile_oracle(0.75)
        assert abs(expected - 0.6744897501960817) < 1e-12
        assert np.max(np.abs(ens.positions - [-expected, expected])) < 1e-6

    def test_single_parcel_at_median(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, -3.0, 1.0, 0.0)
        ens = seed_parcels(wf.density(), 1)
        assert abs(ens.positions[0] - (-3.0)) < 1e-6

    def test_rejects_zero_parcels(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            seed_parcels(wf.density(), 0)

    def test_ten_thousand_parcels_sit_at_their_levels(self, desk_grid, natural_units):
        rho = gaussian_packet(desk_grid, natural_units, 0.7, 1.0, -0.4).density()
        ens = seed_parcels(rho, 10_000)
        assert np.all(np.diff(ens.positions) > 0.0)
        cdf = DensityCdf(rho)
        assert np.max(np.abs(cdf.value(ens.positions) / cdf.total - ens.quantiles)) < 1e-9


def test_the_flow_bank_names_live_in_trajectories_alone():
    import madelung
    from madelung import trajectories

    for name in ("FlowHistory", "FlowSample", "ProviderGapError", "advect"):
        assert not hasattr(madelung, name) and hasattr(trajectories, name)


class TestDensityCdf:
    def test_total_mass(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        cdf = DensityCdf(wf.density())
        assert abs(cdf.total - 1.0) < 1e-12

    def test_value_against_erf(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        cdf = DensityCdf(wf.density())
        for x in (-1.3, 0.0, 0.4, 2.2):
            exact = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            assert abs(cdf.value(x) - exact) < 1e-7

    def test_quantile_inverts_value(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        cdf = DensityCdf(wf.density())
        for p in (0.1, 0.5, 0.9):
            assert abs(cdf.value(cdf.quantile(p)) - p) < 1e-9

    @pytest.mark.parametrize("n", [512, 4096])
    def test_nodes_are_the_plain_antiderivative(self, n, natural_units):
        g = make_grid(n, -20.0, 20.0)
        rho = gaussian_packet(g, natural_units, 1.0, 0.8, 3.0).density()
        # the node values as they were written before the transform pair
        rhohat = np.fft.fft(rho.values)
        k = 2.0 * np.pi * np.fft.fftfreq(n, g.dx)
        k[0] = 1.0
        coef = rhohat / (1j * k)
        coef[0] = 0.0
        coef[n // 2] = 0.0
        anti = np.fft.ifft(coef).real
        mean = rhohat[0].real / n
        F = mean * (g.x - g.x[0]) + (anti - anti[0])
        assert np.array_equal(DensityCdf(rho).F, F)

    def test_quantile_bounds(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        cdf = DensityCdf(wf.density())
        with pytest.raises(ValueError):
            cdf.quantile(0.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.0)
        with pytest.raises(ValueError):
            cdf.quantile(np.array([0.5, 1.0]))

    def test_arrays_give_the_per_element_values(self, desk_grid, natural_units):
        cdf = DensityCdf(gaussian_packet(desk_grid, natural_units, 1.0, 0.8, 3.0).density())
        # both seam sides, the last cell, outside the domain both ways, a NaN
        xs = np.concatenate([np.linspace(-1.5 * desk_grid.length, 1.5 * desk_grid.length, 2001),
                             desk_grid.x[[0, -1]], [desk_grid.x_max, np.nan]])
        values = cdf.value(xs)
        assert type(cdf.value(0.3)) is float
        assert np.array_equal(values, [cdf.value(x) for x in xs], equal_nan=True)
        assert np.isnan(values[-1])
        levels = np.concatenate([np.linspace(1e-9, 1.0 - 1e-9, 2001), [0.5]])
        positions = cdf.quantile(levels.reshape(-1, 1))
        assert positions.shape == (levels.size, 1) and type(cdf.quantile(0.3)) is float
        assert np.array_equal(positions[:, 0], [cdf.quantile(p) for p in levels])


class TestAdvection:
    def test_plane_wave_uniform_drift(self, desk_grid, natural_units, free_U):
        wf = plane_wave(desk_grid, natural_units, 8)
        k = 2.0 * np.pi * 8 / desk_grid.length
        adv = _track(wf, free_U, 1e-3, 200, 4)
        disp = np.mod(adv.x_records[-1, :] - adv.x_records[0, :], desk_grid.length)
        assert np.max(np.abs(disp - k * 0.2)) < 1e-10

    def test_harmonic_parcels_stationary(self, desk_grid, natural_units):
        U = evaluate_potential(
            PotentialSpec("harmonic", omega=1.0), desk_grid,
            harmonic_ground_state(desk_grid, natural_units, 1.0).constants,
        )
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        adv = _track(wf, U, 1e-3, 200, 8)
        assert np.max(np.abs(adv.x_records - adv.x_records[0:1, :])) < 1e-7

    def test_free_gaussian_follows_self_similar_map(self, desk_grid, natural_units, free_U):
        # oracle: parcels ride the similarity flow x(t) = x(0) sigma(t)/sigma0
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        T, dt = 0.5, 1e-3
        adv = _track(wf, free_U, dt, int(T / dt), 8)
        stretch = math.sqrt(1.0 + (T / 2.0) ** 2)
        assert np.max(np.abs(adv.x_records[-1, :] - adv.x_records[0, :] * stretch)) < 1e-6

    def test_record_shapes(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        adv = _track(wf, free_U, 1e-3, 50, 3)
        assert adv.times.shape == (51,)
        for rec in (adv.x_records, adv.u_records, adv.ln_rho_records,
                    adv.div_u_records, adv.S_records, adv.action_records):
            assert rec.shape == (51, 3)

    def test_positions_stay_in_domain(self, desk_grid, natural_units, free_U):
        wf = plane_wave(desk_grid, natural_units, 12)
        adv = _track(wf, free_U, 1e-3, 300, 4)
        assert np.all(adv.x_records >= desk_grid.x_min)
        assert np.all(adv.x_records < desk_grid.x_max)

    def test_provider_gap_aborts(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        flow = collect_flow(wf, free_U, 1e-3, 10)
        ens = seed_parcels(wf.density(), 2)
        with pytest.raises(ProviderGapError):
            advect(ens, flow, 1e-3, 20)  # asks for times past the history


class TestContinuity:
    def test_plane_wave_floor(self, desk_grid, natural_units, free_U):
        wf = plane_wave(desk_grid, natural_units, 8)
        adv = _track(wf, free_U, 1e-3, 100, 4)
        assert continuity_residual(adv).max() < 1e-10
        # incompressible flow conserves density along every parcel
        assert np.max(np.ptp(adv.ln_rho_records, axis=0)) < 1e-6

    def test_free_gaussian_second_order(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)

        def residual(dt):
            adv = _track(wf, free_U, dt, int(round(0.25 / dt)), 8)
            return continuity_residual(adv).max()

        coarse = residual(1e-3)
        assert coarse < 1e-4
        assert coarse / residual(5e-4) > 3.5

    def test_needs_three_records(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        adv = _track(wf, free_U, 1e-3, 1, 2)
        with pytest.raises(ValueError):
            continuity_residual(adv)


class TestAction:
    def test_plane_wave_closed_form(self, desk_grid, natural_units, free_U):
        # Delta S~ along the drift equals hbar^2 k^2 T / (2 m^2)
        wf = plane_wave(desk_grid, natural_units, 8)
        k = 2.0 * np.pi * 8 / desk_grid.length
        T, dt = 0.5, 1e-3
        adv = _track(wf, free_U, dt, int(T / dt), 4)
        d_s = adv.S_records[-1, :] - adv.S_records[0, :]
        assert np.max(np.abs(d_s - 0.5 * k * k * T)) < 1e-10
        assert action_check(adv).max() < 1e-10

    def test_harmonic_phase_rate(self, desk_grid, natural_units):
        U = evaluate_potential(
            PotentialSpec("harmonic", omega=1.0), desk_grid,
            harmonic_ground_state(desk_grid, natural_units, 1.0).constants,
        )
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        T, dt = 0.5, 1e-3
        adv = _track(wf, U, dt, int(T / dt), 4)
        d_s = adv.S_records[-1, :] - adv.S_records[0, :]
        assert np.max(np.abs(d_s + 0.5 * T)) < 1e-7
        assert action_check(adv).max() < 1e-7

    def test_zero_steps_trivial(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        adv = _track(wf, free_U, 1e-3, 0, 2)
        assert np.all(action_check(adv) == 0.0)

    def test_branch_mismatch_detected(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        adv = _track(wf, free_U, 1e-3, 2, 2)
        adv.S_records[1, :] += 0.6 * adv.branch_period  # corrupt one sample
        with pytest.raises(BranchMismatchError):
            action_check(adv)


def test_flow_history_ordering(desk_grid, natural_units):
    flow = FlowHistory(desk_grid, natural_units)
    u = RealField(np.zeros(desk_grid.n), desk_grid)
    flow.add(FlowSample(t=0.0, u=u))
    with pytest.raises(ValueError):
        flow.add(FlowSample(t=0.0, u=u))
    flow.add(FlowSample(t=0.5, u=u))
    assert flow.velocity_at(0.5) is u
    with pytest.raises(ProviderGapError):
        flow.velocity_at(0.25)


def test_trajectory_csv_roundtrip(tmp_path, desk_grid, natural_units):
    import csv

    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    adv = _track(wf, RealField(np.zeros(desk_grid.n), desk_grid), 1e-3, 5, 2)
    path = tmp_path / "trajectories.csv"
    write_trajectory_csv(adv, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["parcel_id", "t", "x", "u", "ln_rho", "div_u", "action", "S_sampled"]
    assert len(rows) == 1 + 2 * 6
    # full-precision round trip
    x_back = np.array([float(r[2]) for r in rows[1:7]])
    assert np.array_equal(x_back, adv.x_records[:, 0])


class TestFlowLookup:
    @pytest.fixture
    def long_history(self, desk_grid, natural_units):
        half = 0.5e-3  # the dt/2 lattice collect_flow fills at dt = 1e-3
        flow = FlowHistory(desk_grid, natural_units)
        samples = []
        for k in range(1200):
            smp = FlowSample(t=k * half, u=RealField(np.full(desk_grid.n, float(k)), desk_grid))
            flow.add(smp)
            samples.append(smp)
        return flow, samples, half

    def test_stored_times_return_their_sample(self, long_history):
        flow, samples, _ = long_history
        for k in (0, 1, 2, 599, 600, 1000, 1198, 1199):
            t = samples[k].t
            for probe in (t - 1e-10, t, t + 1e-10):
                assert flow.sample_at(probe) is samples[k]
                assert flow.velocity_at(probe) is samples[k].u

    def test_off_lattice_times_are_gaps(self, long_history):
        flow, samples, half = long_history
        last = samples[-1].t
        for probe in (-half, -1e-8, 0.5 * half, 600.5 * half, 1198.5 * half,
                      last + 1e-8, last + half, float("inf"), -float("inf"), float("nan")):
            with pytest.raises(ProviderGapError):
                flow.sample_at(probe)
            with pytest.raises(ProviderGapError):
                flow.velocity_at(probe)


def test_advect_records_match_per_field_interpolation(desk_grid, natural_units, free_U):
    wf = gaussian_packet(desk_grid, natural_units, -1.0, 1.0, 1.5)
    dt, n = 1e-3, 40
    flow = collect_flow(wf, free_U, dt, n)
    adv = advect(seed_parcels(wf.density(), 5), flow, dt, n)
    action = np.zeros(5)
    lag_prev = None
    for i, t in enumerate(adv.times):
        smp = flow.sample_at(t)
        x = adv.x_records[i]
        assert np.array_equal(adv.u_records[i], _interp_cubic(smp.u.values, desk_grid, x))
        assert np.array_equal(adv.div_u_records[i],
                              _interp_cubic(smp.div_u.values, desk_grid, x))
        assert np.array_equal(adv.ln_rho_records[i],
                              _interp_cubic(smp.ln_rho.values, desk_grid, x))
        S = _interp_cubic(smp.S_tilde.values, desk_grid, x)
        if i > 0:
            S = S + adv.branch_period * np.round((adv.S_records[i - 1] - S) / adv.branch_period)
        assert np.array_equal(adv.S_records[i], S)
        lag = _interp_cubic(smp.lagrangian.values, desk_grid, x)
        if lag_prev is not None:
            action = action + 0.5 * dt * (lag_prev + lag)
        assert np.array_equal(adv.action_records[i], action)
        lag_prev = lag


def _interp_by_index(values, grid, xq, period=None):
    """_interp_cubic with its stencil gathered as values[..., stencil % n]."""
    pos = (xq - grid.x_min) / grid.dx
    j = np.floor(pos)
    s = pos - j
    powers = np.stack([np.ones_like(s), s, s * s, s * s * s], axis=-1)
    stencil = j.astype(int)[..., None] + np.arange(-1, 3)
    g = values[..., stencil % grid.n]
    if period is not None:
        laps = stencil // grid.n
        winding = period * np.round((values[-1, -1] - values[-1, 0]) / period)
        np.add(g[-1], winding * laps, out=g[-1], where=laps != 0)
    lagrange = np.array([[0.0, 1.0, 0.0, 0.0],
                         [-1.0 / 3.0, -0.5, 1.0, -1.0 / 6.0],
                         [0.5, -1.0, 0.5, 0.0],
                         [-1.0 / 6.0, 0.5, -0.5, 1.0 / 6.0]])
    return (g * (powers @ lagrange)).sum(-1)


def test_the_wrapping_gather_has_the_bits_of_the_index_mod_n(desk_grid):
    g, period = desk_grid, 2.0 * np.pi
    rng = np.random.default_rng(7)
    # up to four laps either side of the domain, and on the seam's nodes
    xq = np.concatenate([g.x_min + g.length * rng.uniform(-4.0, 5.0, 200),
                         g.x_min + g.length * np.arange(-4, 5), [g.x_max - 0.5 * g.dx]])
    one = rng.standard_normal(g.n)
    assert np.array_equal(_interp_cubic(one, g, xq), _interp_by_index(one, g, xq))
    stack = np.concatenate([rng.standard_normal((4, g.n)),
                            [3.0 * period * (g.x - g.x_min) / g.length]])  # 3 windings
    assert np.array_equal(_interp_cubic(stack, g, xq, period),
                          _interp_by_index(stack, g, xq, period))


@pytest.mark.parametrize("mode", [8, 179])  # 179 turns the phase by 0.7 pi a cell
def test_the_phase_is_interpolated_on_one_branch_across_the_seam(desk_grid, mode):
    # the unwrapped phase of a plane wave: k x from x_min, which jumps back
    # by `mode` periods at the periodic seam
    g, period = desk_grid, 2.0 * np.pi
    k = period * mode / g.length
    phase = np.stack([np.zeros(g.n), k * (g.x - g.x_min)])  # a field, then the phase
    near = np.concatenate([g.x_max - np.array([0.1, 0.5, 1.2, 1.9, 2.5]) * g.dx,
                           g.x_min + np.array([0.0, 0.4, 0.9]) * g.dx])
    got = _interp_cubic(phase, g, near, period)[1]
    off = np.mod(got - k * (near - g.x_min) + 0.5 * period, period) - 0.5 * period
    assert np.max(np.abs(off)) < 1e-10  # the cubic is exact on a line, within a branch
    assert np.max(np.abs(np.mod(_interp_cubic(phase, g, near)[1] - got + 0.5 * period, period)
                         - 0.5 * period)) > 1.0  # without the period, it is not
    # a stencil that does not reach the seam keeps its bits
    far = np.linspace(g.x_min + 1.01 * g.dx, g.x_max - 2.01 * g.dx, 97)
    assert np.array_equal(_interp_cubic(phase, g, far, period), _interp_cubic(phase, g, far))


@pytest.mark.parametrize("mode, n_parcels", [(8, 20), (179, 4)])
def test_a_plane_wave_parcel_crossing_the_seam_keeps_the_action_identity(mode, n_parcels):
    scenario = apply_overrides(scenario_by_name("plane_wave"), {
        "state.mode_index": mode, "trajectories.n_parcels": n_parcels})
    run = ScenarioRun(scenario)
    traj = run.trajectory()
    assert np.any(np.diff(traj.x_records[:, -1]) < 0)  # the last parcel wrapped through the seam
    [result] = run._judge([CheckSpec("action_identity", 1e-4)])
    assert result.passed and result.measured < 1e-10


class TestCollectFlow:
    def test_half_steps_store_the_bundle_velocity(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, -1.0, 1.0, 1.5)
        dt, n = 1e-3, 6
        flow = collect_flow(wf, free_U, dt, n)
        states = []
        evolve(wf, free_U, PropagatorConfig(dt / 2.0, 2 * n, 1),
               [lambda t, w: states.append((t, w))])
        halves = states[1::2]
        assert len(halves) == n
        for t, w in halves:
            smp = flow.sample_at(t)
            assert smp.div_u is None and smp.rho is None
            assert np.array_equal(smp.u.values, madelung_fields(w).u.values)
        for t, w in states[::2]:
            f = madelung_fields(w)
            smp = flow.sample_at(t)
            assert np.array_equal(smp.u.values, f.u.values)
            assert np.array_equal(smp.rho.values, f.rho.values)
            assert np.array_equal(smp.S_tilde.values, f.S.values / natural_units.mass)

    @pytest.mark.parametrize("n_steps", [0, 1, 7, 8, 9, 15, 16, 17, 19, 33])
    def test_chunked_samples_match_the_single_state_routes(
        self, desk_grid, natural_units, n_steps
    ):
        # chunk boundaries and the final partial chunk, sample by sample,
        # against the public one-state routes on an independent evolution
        U = evaluate_potential(PotentialSpec("harmonic", omega=1.0), desk_grid, natural_units)
        wf = gaussian_packet(desk_grid, natural_units, -1.0, 1.0, 1.5)
        dt, m = 1e-3, natural_units.mass
        flow = collect_flow(wf, U, dt, n_steps)
        states = []
        evolve(wf, U, PropagatorConfig(dt / 2.0, 2 * n_steps, 1),
               [lambda t, w: states.append((t, w))])
        assert [smp.t for smp in flow._samples] == [t for t, _ in states]
        for k, ((t, w), smp) in enumerate(zip(states, flow._samples)):
            if k % 2:
                assert smp.div_u is None and smp.rho is None
                assert np.array_equal(smp.u.values, velocity(w).values)
                continue
            f = madelung_fields(w)
            rho = f.rho.values
            expected = {
                "u": f.u.values,
                "div_u": f.div_u.values,
                "ln_rho": np.log(np.maximum(rho, 1e-12 * rho.max())),
                "S_tilde": f.S.values / m,
                "lagrangian": f.kinetic_density.values - f.Q_tilde.values - U.values / m,
                "rho": rho,
            }
            for name, values in expected.items():
                assert np.array_equal(getattr(smp, name).values, values), (name, k)

    def test_zero_steps_hold_one_sample(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        flow = collect_flow(wf, free_U, 1e-3, 0)
        assert len(flow._samples) == 1
        smp = flow.sample_at(0.0)
        assert np.array_equal(smp.rho.values, wf.density().values)
        with pytest.raises(ProviderGapError):
            flow.sample_at(0.5e-3)


def _interp_cubic_reference(values, grid, xq):
    """Periodic 4-point Lagrange cubic with one gather per stencil point."""
    pos = (xq - grid.x_min) / grid.dx
    j = np.floor(pos).astype(int)
    s = pos - j
    jm1, j0, j1, j2 = (np.mod(j + o, grid.n) for o in (-1, 0, 1, 2))
    wm1 = -s * (s - 1.0) * (s - 2.0) / 6.0
    w0 = (s * s - 1.0) * (s - 2.0) / 2.0
    w1 = -s * (s + 1.0) * (s - 2.0) / 2.0
    w2 = s * (s * s - 1.0) / 6.0
    return (wm1 * values[..., jm1] + w0 * values[..., j0]
            + w1 * values[..., j1] + w2 * values[..., j2])


def _advect_reference(ensemble, flow, dt, n_steps):
    """RK4 with five interpolations per step: k1 is interpolated afresh
    instead of read from the velocity record at the same time and place."""
    grid = ensemble.grid
    period = 2.0 * np.pi * flow.constants.hbar / flow.constants.mass
    x = ensemble.positions.copy()

    def wrap(y):
        return grid.x_min + np.mod(y - grid.x_min, grid.length)

    def record_at(t, x_now, prev_S):
        smp = flow.sample_at(t)
        fields = np.stack([smp.u.values, smp.div_u.values, smp.ln_rho.values,
                           smp.lagrangian.values, smp.S_tilde.values])
        u_p, div_p, ln_p, lag_p, S_p = _interp_cubic_reference(fields, grid, x_now)
        if prev_S is not None:
            S_p = S_p + period * np.round((prev_S - S_p) / period)
        return u_p, div_p, ln_p, lag_p, S_p

    u0, div0, ln0, lag0, S0 = record_at(0.0, x, None)
    xs, us, divs, lns, Ss, acts = [x.copy()], [u0], [div0], [ln0], [S0], [np.zeros_like(x)]
    lag_prev = lag0
    for k in range(n_steps):
        t = k * dt
        u_a = flow.velocity_at(t).values
        u_m = flow.velocity_at(t + 0.5 * dt).values
        u_b = flow.velocity_at(t + dt).values
        k1 = _interp_cubic_reference(u_a, grid, x)
        k2 = _interp_cubic_reference(u_m, grid, wrap(x + 0.5 * dt * k1))
        k3 = _interp_cubic_reference(u_m, grid, wrap(x + 0.5 * dt * k2))
        k4 = _interp_cubic_reference(u_b, grid, wrap(x + dt * k3))
        x = wrap(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        u_p, div_p, ln_p, lag_p, S_p = record_at((k + 1) * dt, x, Ss[-1])
        xs.append(x.copy())
        us.append(u_p)
        divs.append(div_p)
        lns.append(ln_p)
        Ss.append(S_p)
        acts.append(acts[-1] + 0.5 * dt * (lag_prev + lag_p))
        lag_prev = lag_p
    return {"x_records": np.vstack(xs), "u_records": np.vstack(us),
            "div_u_records": np.vstack(divs), "ln_rho_records": np.vstack(lns),
            "S_records": np.vstack(Ss), "action_records": np.vstack(acts), "positions": x}


@pytest.mark.parametrize("case", ["free_gaussian", "moving_gaussian", "airy_region_seeded"])
def test_advect_matches_the_five_interpolation_reference(case, desk_grid, natural_units,
                                                         free_U):
    from madelung.harness import ScenarioRun, scenario_by_name

    dt, n = 1e-3, 60
    if case == "airy_region_seeded":
        # windowed Airy packet, parcels seeded inside [seed_lo, seed_hi] only
        run = ScenarioRun(scenario_by_name("airy_packet"))
        flow = collect_flow(run.wf0, run.U, dt, n, floor_rel=run.scenario.floor_rel,
                            bohm_form=run.scenario.bohm_form)
        ens = seed_parcels(run._seed_density(), run.scenario.trajectories.n_parcels)
    else:
        x0, k0 = (0.0, 0.0) if case == "free_gaussian" else (-2.0, 2.0)
        wf = gaussian_packet(desk_grid, natural_units, x0, 1.0, k0)
        flow = collect_flow(wf, free_U, dt, n)
        ens = seed_parcels(wf.density(), 7)
    adv = advect(ens, flow, dt, n)
    ref = _advect_reference(ens, flow, dt, n)
    # the weights are summed in another order than the reference's, so the
    # records agree to roundoff: positions within 1e-13 of the domain length,
    # each sampled record within 1e-13 of the largest |value| of the field
    # it samples at its time
    grid = ens.grid
    for name in ("x_records", "positions"):
        assert np.max(np.abs(getattr(adv, name) - ref[name])) <= 1e-13 * grid.length, name
    for name, field in (("u_records", "u"), ("div_u_records", "div_u"),
                        ("ln_rho_records", "ln_rho"), ("S_records", "S_tilde"),
                        ("action_records", "lagrangian")):
        scale = np.array([np.max(np.abs(getattr(flow.sample_at(t), field).values))
                          for t in adv.times])
        assert np.all(np.abs(getattr(adv, name) - ref[name]) <= 1e-13 * scale[:, None]), name
    assert np.array_equal(adv.times, dt * np.arange(n + 1))


def test_interp_cubic_matches_the_reference_stencil(desk_grid):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((3, desk_grid.n))
    nodes = np.concatenate([desk_grid.x[:4], desk_grid.x[-4:], [desk_grid.x_min]])
    # points a rounding step off a node, and anywhere in the domain
    xq = np.concatenate([np.nextafter(desk_grid.x[100], np.inf, dtype=float)[None],
                         np.nextafter(desk_grid.x[200], -np.inf, dtype=float)[None],
                         rng.uniform(desk_grid.x_min, desk_grid.x_min + desk_grid.length, 50)])
    for v in (values, values[0]):
        # at a node the weights are exactly [0, 1, 0, 0]
        assert np.array_equal(_interp_cubic(v, desk_grid, nodes),
                              _interp_cubic_reference(v, desk_grid, nodes))
        assert np.array_equal(_interp_cubic(v, desk_grid, nodes[:-1]), v[..., [0, 1, 2, 3,
                                                                              -4, -3, -2, -1]])
        scale = np.max(np.abs(v), axis=-1, keepdims=True)
        assert np.all(np.abs(_interp_cubic(v, desk_grid, xq)
                             - _interp_cubic_reference(v, desk_grid, xq)) <= 1e-13 * scale)


def test_interp_cubic_reproduces_a_cubic_at_interior_points(desk_grid):
    rng = np.random.default_rng(11)
    x = desk_grid.x
    # away from the seam, where the periodic stencil would mix both ends
    xq = rng.uniform(x[2], x[-3], 200)
    for coef in rng.standard_normal((4, 4)):
        scale = np.max(np.abs(np.polyval(coef, x)))
        err = np.abs(_interp_cubic(np.polyval(coef, x), desk_grid, xq) - np.polyval(coef, xq))
        assert np.all(err <= 1e-13 * scale)


def test_interp_cubic_needs_no_wrapped_position(desk_grid):
    # RK4 stage positions are not wrapped into the domain: a position and its
    # images a domain length away give the same values to roundoff
    # smooth periodic fields, as the flow is: a shift by L moves a position
    # by the rounding of x + L, and the values by that times their slope
    rng = np.random.default_rng(13)
    x_max, L = desk_grid.x_min + desk_grid.length, desk_grid.length
    phase = 2.0 * np.pi * np.outer(np.arange(1, 6), desk_grid.x - desk_grid.x_min) / L
    values = (rng.standard_normal((2, 5)) @ np.cos(phase)
              + rng.standard_normal((2, 5)) @ np.sin(phase))
    xq = np.concatenate([[x_max, np.nextafter(desk_grid.x_min, -np.inf, dtype=float),
                          desk_grid.x_min],
                         rng.uniform(desk_grid.x_min, x_max, 50)])
    at = _interp_cubic(values, desk_grid, xq)
    scale = np.max(np.abs(values), axis=-1, keepdims=True)
    for shift in (-L, L):
        assert np.all(np.abs(_interp_cubic(values, desk_grid, xq + shift) - at) <= 1e-13 * scale)
    # x_max is the node x_min, seen from the other end of the domain
    assert np.array_equal(at[:, 0], values[:, 0])
