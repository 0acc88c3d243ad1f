"""The flow stream behind `trajectories.track`: advection reads it once, in
time order, so the flow is evolved and evaluated a chunk at a time as
advection reaches it, and the track keeps only what `quantile_preservation`
reads: the seam flux rho[0] u[0] at every whole step and rho at a few."""

import tracemalloc

import numpy as np
import pytest

from madelung import grid, harness, trajectories
from madelung.grid import NonFiniteFieldError, make_grid
from madelung.harness import (
    ScenarioRun,
    TrajectoryConfig,
    apply_overrides,
    collect_flow,
    scenario_by_name,
)
from madelung.potentials import PotentialSpec, evaluate_potential
from madelung.states import PhysicalConstants, gaussian_packet
from madelung.trajectories import advect, seed_parcels

RECORDS = ("times", "positions", "quantiles", "x_records", "u_records", "ln_rho_records",
           "div_u_records", "S_records", "action_records")

# the benchmark's trajectory run: 1600 whole steps of 16 parcels
BENCH_FREE_GAUSSIAN = {"trajectories.duration": 1.6, "trajectories.n_parcels": 16,
                       "state.x0": 0.7, "state.k0": -0.4}
# plane_wave's last parcel of 20 starts at x = 19 and crosses the periodic
# seam at t = 0.8 of the track's 1.0; the last of its own 4 parcels ends at 16.3
SEAM_CROSSING = {"trajectories.n_parcels": 20}
CHUNK = trajectories._FLOW_CHUNK  # whole steps per batched kernel call on the desk grid


def _seeded(run):
    cfg = run.scenario.trajectories or TrajectoryConfig()
    return seed_parcels(run._seed_density(), cfg.n_parcels)


def _eager_track(run, dt, duration):
    """The whole flow banked first, then advection through it."""
    n = int(round(duration / dt))
    flow = collect_flow(run.wf0, run.U, dt, n, floor_rel=run.scenario.floor_rel,
                        bohm_form=run.scenario.bohm_form)
    return flow, advect(_seeded(run), flow, dt, n)


def _assert_kept(flow, full, times):
    """The track kept the banked rho[0] u[0] at every whole step, and the
    banked rho at every max(1, n_steps // 8)-th one."""
    banked = [full.sample_at(t) for t in times]
    assert np.array_equal(flow.seam_flux, [smp.rho.values[0] * smp.u.values[0] for smp in banked])
    n = times.size - 1
    assert flow.cdf_steps == range(0, n + 1, max(1, n // 8))
    assert len(flow.rho) == len(flow.cdf_steps)
    for k, rho in zip(flow.cdf_steps, flow.rho):
        assert np.array_equal(rho.values, banked[k].rho.values)


def _assert_same_track(run, dt, duration):
    flow, ens = trajectories.track(run.wf0, run.U, dt, int(round(duration / dt)), _seeded(run),
                                   run.scenario.floor_rel, run.scenario.bohm_form)
    full, expected = _eager_track(run, dt, duration)
    for name in RECORDS:
        assert np.array_equal(getattr(ens, name), getattr(expected, name)), name
    assert ens.branch_period == expected.branch_period
    _assert_kept(flow, full, expected.times)


@pytest.mark.parametrize("name, overrides", [
    ("free_gaussian", BENCH_FREE_GAUSSIAN),
    ("plane_wave", SEAM_CROSSING),
    ("airy_packet", {}),  # region-seeded, wavefunction form
])
def test_track_equals_advection_through_the_banked_flow(name, overrides):
    run = ScenarioRun(apply_overrides(scenario_by_name(name), overrides))
    _assert_same_track(run, run.scenario.propagation.dt, run.scenario.trajectories.duration)


def test_the_half_step_track_equals_the_banked_one():
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    _assert_same_track(run, run.scenario.propagation.dt / 2.0, 0.25)


@pytest.mark.parametrize("n_steps", [1, 7, 8, 9, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_tracks_ending_at_chunk_edges(n_steps):
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    dt = run.scenario.propagation.dt
    _assert_same_track(run, dt, n_steps * dt)


def test_the_stream_is_evaluated_as_advection_reaches_it(monkeypatch):
    events = []
    real_kernel, real_interp = trajectories._Kernel, trajectories._interp_cubic

    def kernel(*args, **kwargs):
        events.append("kernel")
        return real_kernel(*args, **kwargs)

    def interp(*args, **kwargs):
        events.append("interp")
        return real_interp(*args, **kwargs)

    monkeypatch.setattr(trajectories, "_Kernel", kernel)
    monkeypatch.setattr(trajectories, "_interp_cubic", interp)
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    dt, chunk = 1e-3, trajectories._FLOW_CHUNK
    run.track(dt, 3 * chunk * dt)
    # two kernel calls per chunk, its half steps then its whole steps; the
    # whole step at 3 chunk dt ends the stream as a chunk of its own
    assert events.count("kernel") == 3 * 2 + 1
    first_step = 1 + 4  # the record at 0, then k2, k3, k4 and the record at dt
    assert events[:2 + first_step] == ["kernel"] * 2 + ["interp"] * first_step
    # the second chunk is evaluated when the step to its first record row,
    # at chunk dt, needs it: after the 1 + 4 (chunk - 1) interpolations of the steps before
    assert events.index("kernel", 2) == 2 + 1 + 4 * (chunk - 1)


@pytest.mark.parametrize("n_steps, batches", [
    (0, [("records", 1)]),
    (1, [("u", 1), ("records", 2)]),
    (CHUNK, [("u", CHUNK), ("records", CHUNK), ("records", 1)]),
    (CHUNK + 1, [("u", CHUNK), ("records", CHUNK), ("u", 1), ("records", 2)]),
    (2 * CHUNK + 1, [("u", CHUNK), ("records", CHUNK)] * 2 + [("u", 1), ("records", 2)]),
])
def test_the_stream_evaluates_chunks_of_thirty_two_dt2_states(monkeypatch, n_steps, batches):
    assert 2 * CHUNK == 32
    real_kernel, seen = trajectories._Kernel, []

    def kernel(psi, *args, **kwargs):
        seen.append((real_kernel(psi, *args, **kwargs), psi.shape[0]))
        return seen[-1][0]

    monkeypatch.setattr(trajectories, "_Kernel", kernel)
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    pairs = list(trajectories._flow_stream(run.wf0, run.U, 1e-3, n_steps, run.scenario.floor_rel,
                                           run.scenario.bohm_form))
    # a call on the half steps reads u alone; one on the whole steps, the records
    assert [("records" if "S" in vars(wk) else "u", rows) for wk, rows in seen] == batches
    # and no field the rows do not hold: no pressure, osmotic velocity or internal density
    assert all(not {"Pi", "v_i", "internal"} & set(vars(wk)) for wk, _ in seen)
    # one pair per whole step: its record row, and the velocity half a step
    # on, which the last step has not
    row_shape = (len(trajectories._ROW), run.grid.n)
    assert [row.shape for row, _ in pairs] == [row_shape] * (n_steps + 1)
    assert [u is None for _, u in pairs] == [k == n_steps for k in range(n_steps + 1)]
    assert all(u.shape == (run.grid.n,) for _, u in pairs[:-1])


@pytest.mark.parametrize("scenario, overrides", [
    ("plane_wave", SEAM_CROSSING),
    ("airy_packet", {}),  # region-seeded
])
def test_the_chunk_size_leaves_every_record_as_it_is(monkeypatch, scenario, overrides):
    # kernel rows are independent, so chunks of 8 and of 16 whole steps give the same bits
    run = ScenarioRun(apply_overrides(scenario_by_name(scenario), overrides))
    dt = run.scenario.propagation.dt
    n = int(round(run.scenario.trajectories.duration / dt))
    ens = {}
    for chunk in (8, 16):
        monkeypatch.setattr(trajectories, "_FLOW_CHUNK", chunk)
        ens[chunk] = trajectories.track(run.wf0, run.U, dt, n, _seeded(run),
                                        run.scenario.floor_rel, run.scenario.bohm_form)[1]
    for name in RECORDS:
        assert np.array_equal(getattr(ens[8], name), getattr(ens[16], name)), name
    jumps = np.abs(np.diff(ens[16].x_records, axis=0)) > run.grid.length / 2
    assert np.any(jumps) == (overrides is SEAM_CROSSING)


@pytest.mark.parametrize("n, chunk", [(2048, 16), (4096, 8), (8192, 4), (65536, 1)])
def test_a_large_grid_takes_fewer_steps_per_chunk(monkeypatch, n, chunk):
    real_kernel, rows = trajectories._Kernel, []

    def kernel(psi, *args, **kwargs):
        rows.append(psi.shape[0])
        return real_kernel(psi, *args, **kwargs)

    monkeypatch.setattr(trajectories, "_Kernel", kernel)
    grid, constants = make_grid(n, -0.025 * n, 0.025 * n), PhysicalConstants()
    wf0 = gaussian_packet(grid, constants, 0.7, 1.0, -0.4)
    U = evaluate_potential(PotentialSpec("free"), grid, constants)
    for _ in trajectories._flow_stream(wf0, U, 1e-3, chunk, 1e-12, "amplitude"):
        pass
    # a chunk's half steps and its whole steps, then the final whole step alone
    assert rows == [chunk, chunk, 1]


def test_the_library_track_is_the_scenario_runs():
    # built from the library alone, with the scenario's floor and Bohm form
    # overridden, so the run has to hand both on
    overrides = {**BENCH_FREE_GAUSSIAN, "floor_rel": 1e-10, "bohm_form": "wavefunction"}
    run = ScenarioRun(apply_overrides(scenario_by_name("free_gaussian"), overrides))
    grid, constants = make_grid(512, -20.0, 20.0), PhysicalConstants()
    wf0 = gaussian_packet(grid, constants, 0.7, 1.0, -0.4)
    U = evaluate_potential(PotentialSpec("free"), grid, constants)
    dt, n = 1e-3, 50
    flow, ens = trajectories.track(wf0, U, dt, n, seed_parcels(wf0.density(), 16),
                                   floor_rel=1e-10, bohm_form="wavefunction")
    run_flow, run_ens = run.track(dt, n * dt)
    for name in RECORDS:
        assert np.array_equal(getattr(ens, name), getattr(run_ens, name)), name
    assert np.array_equal(flow.seam_flux, run_flow.seam_flux)
    assert flow.cdf_steps == run_flow.cdf_steps
    for rho, run_rho in zip(flow.rho, run_flow.rho, strict=True):
        assert np.array_equal(rho.values, run_rho.values)


def test_the_returned_flow_holds_the_seam_flux_and_rho_at_the_cdf_steps():
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    dt, n = 1e-3, 50
    flow, ens = run.track(dt, n * dt)
    full = collect_flow(run.wf0, run.U, dt, n)
    assert flow.seam_flux.shape == (n + 1,)
    assert list(flow.cdf_steps) == [0, 6, 12, 18, 24, 30, 36, 42, 48]
    _assert_kept(flow, full, ens.times)


def test_the_returned_flow_holds_nothing_else():
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    flow, _ = run.track(1e-3, 0.05)
    assert flow._fields == ("seam_flux", "cdf_steps", "rho")
    # each kept rho is a copy, so no chunk of the stream outlives its samples
    for rho in flow.rho:
        assert rho.values.base is None and rho.values.shape == (run.grid.n,)


# the free_gaussian checks whose record reads a parcel track
TRACK_CHECKS = tuple(c.id for c in scenario_by_name("free_gaussian").checks
                     if harness._CHECKS[c.id].reads in ("track", "own tracks"))


def _payload_with(monkeypatch, track):
    monkeypatch.setattr(ScenarioRun, "track", track)
    return harness.run_scenario(scenario_by_name("free_gaussian")).payload()


def test_a_kernel_failing_in_the_third_chunk_gives_the_banked_flows_verdicts(monkeypatch):
    real_kernel = trajectories._Kernel
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 4:  # two calls per chunk: half steps, then whole steps
            raise RuntimeError("kernel broke")
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(trajectories, "_Kernel", failing)
    streamed = _payload_with(monkeypatch, ScenarioRun.track)
    calls.clear()
    banked = _payload_with(monkeypatch, _eager_track)
    assert streamed == banked
    checks = {c["id"]: c for c in streamed["checks"]}
    for cid in TRACK_CHECKS:
        assert checks[cid]["error"] == "RuntimeError: kernel broke", cid
    assert checks["norm_drift"]["pass"]


def test_a_non_finite_state_in_the_stream_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(grid, "_apply", lambda values, half_v, kinetic: values * np.nan)
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    with pytest.raises(NonFiniteFieldError, match="field contains non-finite entries"):
        run.track(1e-3, 0.05)
    checks = {c.id: c for c in run.verify().checks}
    for cid in TRACK_CHECKS:
        assert checks[cid].error == (
            "NonFiniteFieldError: field contains non-finite entries"), cid


def _track_peak(run, duration):
    """The tracemalloc peak of run.track(1e-3, duration), and its ensemble."""
    tracemalloc.start()
    try:
        ens = run.track(1e-3, duration)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, ens


def _bench_run():
    return ScenarioRun(apply_overrides(scenario_by_name("free_gaussian"), BENCH_FREE_GAUSSIAN))


def test_a_long_track_keeps_its_memory_flat():
    peak, _ = _track_peak(_bench_run(), 1.6)
    # the records are 6 x 1601 x 16 floats, 1.2 MiB; keeping u and rho at
    # every whole step took 12.5 MiB more, banking every sample about 51 MiB
    assert peak < 4 * 2**20


def test_a_longer_track_grows_by_its_records_alone():
    run = _bench_run()
    run.track(1e-3, 0.01)  # the spectral and Strang factors are cached from here on
    short_peak, short = _track_peak(run, 0.4)
    long_peak, long = _track_peak(run, 1.6)

    def records(ens):
        return sum(getattr(ens, name).nbytes for name in RECORDS)

    # 1200 more whole steps: 0.88 MiB of records; keeping u and rho at each grew it 10.9 MiB
    assert long_peak - short_peak <= records(long) - records(short) + 0.5 * 2**20
