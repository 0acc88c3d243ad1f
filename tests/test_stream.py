"""The flow stream behind `ScenarioRun.track`: flow samples are evolved and
evaluated a chunk at a time as advection reaches them, and the samples it has
passed keep only u and rho."""

import tracemalloc

import numpy as np
import pytest

from madelung import harness, propagator
from madelung.grid import NonFiniteFieldError
from madelung.harness import (
    ScenarioRun,
    TrajectoryConfig,
    apply_overrides,
    collect_flow,
    scenario_by_name,
)
from madelung.trajectories import ProviderGapError, _StreamedFlow, advect, seed_parcels

RECORDS = ("times", "positions", "quantiles", "x_records", "u_records", "ln_rho_records",
           "div_u_records", "S_records", "action_records")

# the benchmark's trajectory run: 1600 whole steps of 16 parcels
BENCH_FREE_GAUSSIAN = {"trajectories.duration": 1.6, "trajectories.n_parcels": 16,
                       "state.x0": 0.7, "state.k0": -0.4}


def _eager_track(run, dt, duration):
    """The whole flow banked first, then advection through it."""
    n = int(round(duration / dt))
    cfg = run.scenario.trajectories or TrajectoryConfig()
    ens = seed_parcels(run._seed_density(), cfg.n_parcels)
    flow = collect_flow(run.wf0, run.U, dt, n, floor_rel=run.scenario.floor_rel,
                        bohm_form=run.scenario.bohm_form)
    return flow, advect(ens, flow, dt, n)


def _assert_same_track(run, dt, duration):
    flow, ens = run.track(dt, duration)
    full, expected = _eager_track(run, dt, duration)
    for name in RECORDS:
        assert np.array_equal(getattr(ens, name), getattr(expected, name)), name
    assert ens.branch_period == expected.branch_period
    # what the track keeps: u and rho at every whole step, nothing else
    assert [smp.t for smp in flow._samples] == list(expected.times)
    for smp in flow._samples:
        kept = full.sample_at(smp.t)
        assert np.array_equal(smp.u.values, kept.u.values)
        assert np.array_equal(smp.rho.values, kept.rho.values)
        assert smp.div_u is smp.ln_rho is smp.S_tilde is smp.lagrangian is None


@pytest.mark.parametrize("name, overrides", [
    ("free_gaussian", BENCH_FREE_GAUSSIAN),
    ("plane_wave", {}),  # parcels cross the periodic seam
    ("airy_packet", {}),  # region-seeded, wavefunction form
])
def test_track_equals_advection_through_the_banked_flow(name, overrides):
    run = ScenarioRun(apply_overrides(scenario_by_name(name), overrides))
    _assert_same_track(run, run.scenario.propagation.dt, run.scenario.trajectories.duration)


def test_the_half_step_track_equals_the_banked_one():
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    _assert_same_track(run, run.scenario.propagation.dt / 2.0, 0.25)


@pytest.mark.parametrize("n_steps", [1, 7, 8, 9, 17])
def test_tracks_ending_at_chunk_edges(n_steps):
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    dt = run.scenario.propagation.dt
    _assert_same_track(run, dt, n_steps * dt)


def _stream(run, dt, n):
    chunks = harness._flow_chunks(run.wf0, run.U, dt, n, run.scenario.floor_rel,
                                  run.scenario.bohm_form)
    return _StreamedFlow(run.grid, run.constants, chunks, n + 1)


def test_chunks_arrive_as_lookups_pass_the_last_sample():
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    dt, chunk = 1e-3, harness._FLOW_CHUNK
    flow = _stream(run, dt, 3 * chunk)
    assert flow._samples == []
    assert flow.sample_at(0.0).div_u is not None
    assert len(flow._samples) == 2 * chunk  # 8 whole steps and their 8 half steps
    flow.velocity_at((chunk - 0.5) * dt)  # the first chunk's last sample
    assert len(flow._samples) == 2 * chunk
    assert flow.sample_at(chunk * dt).div_u is not None
    # the first chunk kept its 8 whole steps, slimmed; the second is whole
    assert len(flow._samples) == chunk + 2 * chunk
    assert flow.sample_at((chunk - 1) * dt).div_u is None


def test_a_lookup_behind_the_slimmed_samples_is_a_gap():
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    dt, chunk = 1e-3, harness._FLOW_CHUNK
    flow = _stream(run, dt, 3 * chunk)
    flow.velocity_at((2 * chunk + 0.5) * dt)  # the third chunk arrives
    held = list(flow._samples)
    full = collect_flow(run.wf0, run.U, dt, 3 * chunk)
    for k in (0, chunk - 1, chunk, 2 * chunk - 1):
        with pytest.raises(ProviderGapError):
            flow.velocity_at((k + 0.5) * dt)
        smp = flow.sample_at(k * dt)
        assert smp.div_u is None and smp.ln_rho is None
        assert np.array_equal(smp.u.values, full.sample_at(k * dt).u.values)
        assert np.array_equal(smp.rho.values, full.sample_at(k * dt).rho.values)
    assert [id(s) for s in flow._samples] == [id(s) for s in held]  # nothing pulled
    # advection from the start needs the record fields the samples dropped
    ens = seed_parcels(run.wf0.density(), 2)
    with pytest.raises(ProviderGapError, match="lacks record fields"):
        advect(ens, flow, dt, 1)
    # past the last sample of a finished stream
    flow.sample_at(3 * chunk * dt)
    with pytest.raises(ProviderGapError):
        flow.velocity_at((3 * chunk + 0.5) * dt)


def test_a_finished_track_holds_only_u_and_rho():
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    flow, _ = run.track(1e-3, 0.05)
    assert flow._chunks is None
    assert flow._kept.shape == (51, 2, run.grid.n)
    with pytest.raises(ProviderGapError):
        flow.velocity_at(0.0495)


TRACK_CHECKS = ("continuity_max", "continuity_order", "quantile_preservation",
                "action_identity")


def _payload_with(monkeypatch, track):
    monkeypatch.setattr(ScenarioRun, "track", track)
    return harness.run_scenario(scenario_by_name("free_gaussian")).payload()


def test_a_kernel_failing_in_the_third_chunk_gives_the_banked_flows_verdicts(monkeypatch):
    real_kernel = harness._kernel
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 4:  # two calls per chunk: half steps, then whole steps
            raise RuntimeError("kernel broke")
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(harness, "_kernel", failing)
    streamed = _payload_with(monkeypatch, ScenarioRun.track)
    calls.clear()
    banked = _payload_with(monkeypatch, _eager_track)
    assert streamed == banked
    checks = {c["id"]: c for c in streamed["checks"]}
    for cid in TRACK_CHECKS:
        assert checks[cid]["error"] == "RuntimeError: kernel broke", cid
    assert checks["norm_drift"]["pass"]


def test_a_non_finite_state_in_the_stream_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(propagator, "_apply", lambda values, half_v, kinetic: values * np.nan)
    run = ScenarioRun(scenario_by_name("free_gaussian"))
    with pytest.raises(NonFiniteFieldError, match="field contains non-finite entries"):
        run.track(1e-3, 0.05)
    checks = {c.id: c for c in run.verify().checks}
    for cid in TRACK_CHECKS:
        assert checks[cid].error == (
            "NonFiniteFieldError: field contains non-finite entries"), cid


def test_a_long_track_keeps_its_memory_flat():
    run = ScenarioRun(apply_overrides(scenario_by_name("free_gaussian"),
                                      BENCH_FREE_GAUSSIAN))
    tracemalloc.start()
    try:
        run.track(1e-3, 1.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kept u and rho rows are 1601 x 2 x 512 floats, 12.5 MiB; banking
    # every sample of the run took about 51 MiB
    assert peak < 20 * 2**20
