import re
from dataclasses import replace

import numpy as np
import pytest

from madelung import harness, trajectories
from madelung.harness import (
    CheckSpec,
    RegionSpec,
    Scenario,
    ScenarioRun,
    StateSpec,
    apply_overrides,
    builtin_scenarios,
    format_report,
    run_scenario,
    scenario_by_name,
)
from madelung.potentials import PotentialSpec
from madelung.propagator import PropagatorConfig

EXPECTED_NAMES = [
    "plane_wave",
    "free_gaussian",
    "moving_gaussian",
    "harmonic_ground",
    "airy_packet",
    "quantum_bouncer",
    "spreading_negative_control",
]


def test_builtin_names_and_order():
    names = [s.name for s in builtin_scenarios()]
    assert names == EXPECTED_NAMES
    assert len(set(names)) == len(names)


def test_bouncer_is_diagnostic_only():
    assert scenario_by_name("quantum_bouncer").propagation is None


def test_airy_flagged_non_normalizable():
    s = scenario_by_name("airy_packet")
    assert not s.state.build(s.grid.build(), s.constants).normalizable


def test_unknown_scenario():
    with pytest.raises(KeyError):
        scenario_by_name("does_not_exist")


def test_every_check_is_registered():
    from madelung.harness import _CHECKS

    for s in builtin_scenarios():
        for c in s.checks:
            assert c.id in _CHECKS


def test_every_record_reads_one_known_source():
    # a misspelt source would judge a main-track check in the child, or
    # refuse a snapshot check its times
    sources = {record.reads for record in harness._CHECKS.values()}
    assert sources == {"snapshots", "track", "own tracks", "own evolutions"}


def test_empty_check_list_trivially_passes():
    s = Scenario(
        name="empty",
        state=StateSpec("gaussian", {"x0": 0.0, "sigma0": 1.0, "k0": 0.0}),
    )
    report = run_scenario(s)
    assert report.passed
    assert report.checks == ()


def test_duplicate_check_ids_rejected():
    with pytest.raises(ValueError):
        Scenario(
            name="bad",
            state=StateSpec("gaussian", {"x0": 0.0, "sigma0": 1.0, "k0": 0.0}),
            checks=(CheckSpec("norm_drift", 1e-10), CheckSpec("norm_drift", 1e-8)),
        )


def test_unregistered_check_id_raises():
    with pytest.raises(ValueError):
        s = Scenario(
            name="bad",
            state=StateSpec("gaussian", {"x0": 0.0, "sigma0": 1.0, "k0": 0.0}),
            checks=(CheckSpec("not_a_check", 1.0),),
        )
        run_scenario(s)


def test_determinism_bit_identical_payloads():
    s = scenario_by_name("quantum_bouncer")
    a = run_scenario(s).payload()
    b = run_scenario(s).payload()
    assert a == b


def test_format_report_mentions_every_check(suite_reports):
    report = suite_reports["harmonic_ground"]
    text = format_report(report)
    for c in report.checks:
        assert c.id in text


def test_suite_reports_list_each_check_once(suite_reports):
    for name, report in suite_reports.items():
        ids = [c.id for c in report.checks]
        assert len(ids) == len(set(ids))
        configured = [c.id for c in scenario_by_name(name).checks]
        assert ids == configured


def test_full_suite_passes(suite_reports):
    failures = [
        (name, c.id)
        for name, report in suite_reports.items()
        for c in report.checks
        if not c.passed
    ]
    assert failures == []


def test_region_spec_window_and_exclude(desk_grid):
    win = RegionSpec("window", -1.0, 1.0).build(desk_grid)
    assert np.all(np.abs(desk_grid.x[win]) <= 1.0)
    exc = RegionSpec("exclude", -1.0, 1.0).build(desk_grid)
    assert not np.any((desk_grid.x[exc] > -1.0) & (desk_grid.x[exc] < 1.0))


@pytest.mark.parametrize("make, limit", [
    (lambda: RegionSpec("window", 10.0, -10.0), r"lo < hi, got \[10.0, -10.0\]"),
    (lambda: RegionSpec("exclude", 1.0, 1.0), r"lo < hi, got \[1.0, 1.0\]"),
    (lambda: RegionSpec("window", -np.inf, 1.0), "region bounds must be finite"),
    (lambda: RegionSpec("window", 0.0, np.nan), "region bounds must be finite"),
    (lambda: RegionSpec("interior", -1.0, 1.0), "unknown region kind 'interior'"),
    (lambda: StateSpec("gausian", {"x0": 0.0}), "unknown state factory 'gausian'"),
])
def test_region_and_state_specs_are_checked_when_built(make, limit):
    with pytest.raises(ValueError, match=limit):
        make()


class TestOverrides:
    def test_grid_override(self):
        s = apply_overrides(scenario_by_name("harmonic_ground"), {"grid.n": 1024})
        assert s.grid.n == 1024

    def test_propagation_override(self):
        s = apply_overrides(
            scenario_by_name("harmonic_ground"),
            {"propagation.dt": 5e-4, "propagation.n_steps": 2000},
        )
        assert s.propagation.dt == 5e-4
        assert s.propagation.n_steps == 2000

    def test_state_param_override(self):
        s = apply_overrides(scenario_by_name("free_gaussian"), {"state.sigma0": 2.0})
        assert s.state.params["sigma0"] == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(scenario_by_name("free_gaussian"), {"grid.shape": 3})

    def test_unknown_state_param_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(scenario_by_name("free_gaussian"), {"state.nope": 1.0})

    def test_propagation_override_without_propagation(self):
        with pytest.raises(ValueError):
            apply_overrides(scenario_by_name("quantum_bouncer"), {"propagation.dt": 1e-3})

    CASTS = [
        ("grid.n", 1024.0, int),
        ("grid.x_min", -30, float),
        ("grid.x_max", 30, float),
        ("propagation.dt", 1, float),
        ("propagation.n_steps", 20.0, int),
        ("propagation.snapshot_every", 5.0, int),
        ("potential.g", 2, float),
        ("potential.omega", 2, float),
        ("constants.hbar", 2, float),
        ("constants.mass", 2, float),
        ("trajectories.n_parcels", 4.0, int),
        ("trajectories.duration", 1, float),
        ("floor_rel", 1, float),
        ("pointwise_floor_rel", 1, float),
        ("bohm_form", "wavefunction", str),
    ]

    def test_every_settable_key_has_a_cast_test(self):
        assert sorted(key for key, _, _ in self.CASTS) == sorted(harness._OVERRIDES)

    @pytest.mark.parametrize("key, value, cast", CASTS)
    def test_every_key_takes_its_cast(self, key, value, cast):
        # a potential parameter is set on a kind that reads it
        name = {"potential.g": "quantum_bouncer",
                "potential.omega": "harmonic_ground"}.get(key, "free_gaussian")
        s = apply_overrides(scenario_by_name(name), {key: value})
        head, _, tail = key.partition(".")
        got = getattr(getattr(s, head), tail) if tail else getattr(s, head)
        assert type(got) is cast and got == cast(value)

    @pytest.mark.parametrize("name, param, value, cast", [
        ("plane_wave", "mode_index", 4.0, int),
        ("free_gaussian", "sigma0", 2, float),
    ])
    def test_state_param_keeps_its_type(self, name, param, value, cast):
        s = apply_overrides(scenario_by_name(name), {f"state.{param}": value})
        got = s.state.params[param]
        assert type(got) is cast and got == value

    @pytest.mark.parametrize("name, key, value", [
        ("free_gaussian", "propagation.n_steps", None),
        ("free_gaussian", "grid.x_min", None),
        ("free_gaussian", "bohm_form", None),
        ("free_gaussian", "propagation.n_steps", True),
        ("free_gaussian", "state.sigma0", True),
        ("free_gaussian", "grid.n", [1024]),
        ("free_gaussian", "constants.mass", {"value": 1.0}),
        ("free_gaussian", "grid.n", 1024.5),
        ("free_gaussian", "trajectories.n_parcels", float("inf")),
        ("plane_wave", "state.mode_index", 4.7),
        ("free_gaussian", "grid.n", "abc"),
    ])
    def test_values_the_cast_would_change_are_rejected(self, name, key, value):
        with pytest.raises(ValueError, match=f"override '{key}' takes"):
            apply_overrides(scenario_by_name(name), {key: value})

    @pytest.mark.parametrize("name, key, value, message", [
        ("free_gaussian", "state.x0", float("nan"), "x0 must be finite, got nan"),
        ("moving_gaussian", "state.k0", float("nan"), "k0 must be finite, got nan"),
        ("quantum_bouncer", "potential.g", float("nan"), "potential.g must be finite, got nan"),
        ("quantum_bouncer", "potential.g", float("inf"), "potential.g must be finite, got inf"),
        ("harmonic_ground", "potential.omega", "-inf",
         "potential.omega must be finite and > 0, got -inf"),
    ])
    def test_a_non_finite_parameter_is_refused_by_its_spec(self, name, key, value, message):
        # the cast keeps the number; the factory or spec it lands in refuses it
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioRun(apply_overrides(scenario_by_name(name), {key: value}))

    @pytest.mark.parametrize("name, key, reason", [
        ("free_gaussian", "grid.shape", "unknown override key"),
        ("free_gaussian", "potential.kind", "unknown override key"),
        ("free_gaussian", "trajectories.seed_lo", "unknown override key"),
        ("free_gaussian", "region.lo", "unknown override key"),
        ("free_gaussian", "name", "unknown override key"),
        ("free_gaussian", "grid", "unknown override key"),
        ("free_gaussian", "state.nope", "state parameter 'nope' not in"),
        ("quantum_bouncer", "propagation.n_steps", "has no propagation"),
        ("moving_gaussian", "trajectories.duration", "has no trajectories"),
    ])
    def test_rejected_keys(self, name, key, reason):
        with pytest.raises(ValueError, match=reason):
            apply_overrides(scenario_by_name(name), {key: 1})

    @pytest.mark.parametrize("name, key, reason", [
        ("free_gaussian", "potential.omega", "potential kind 'free' does not read potential.omega"),
        ("free_gaussian", "potential.g", "potential kind 'free' does not read potential.g"),
        ("harmonic_ground", "potential.g", "kind 'harmonic' does not read potential.g"),
        ("quantum_bouncer", "potential.omega", "kind 'abs_linear' does not read potential.omega"),
    ])
    def test_a_potential_parameter_its_kind_does_not_read_is_rejected(self, name, key, reason):
        with pytest.raises(ValueError, match=reason):
            apply_overrides(scenario_by_name(name), {key: 2.0})
        # zero is the unset value, which every kind accepts
        assert apply_overrides(scenario_by_name(name), {key: 0.0}) is not None


class TestWholeStepDurations:
    @pytest.mark.parametrize("overrides", [
        {"propagation.dt": 1.5e-3, "trajectories.duration": 0.003},
        {"trajectories.duration": 0.003, "propagation.dt": 1.5e-3},
    ])
    def test_the_check_reads_the_overridden_pair_in_any_order(self, overrides):
        run = ScenarioRun(apply_overrides(scenario_by_name("free_gaussian"), overrides))
        assert run.scenario.trajectories.duration == 0.003

    @pytest.mark.parametrize("overrides, nearest", [
        ({"trajectories.duration": 0.0015}, "0.001 and 0.002"),
        ({"trajectories.duration": 0.0004}, "0.001 and 0.002"),
        ({"propagation.dt": 1.5e-3}, "0.4995 and 0.501"),  # duration 0.5 stays
    ])
    def test_a_duration_off_the_step_grid_is_rejected_before_evolving(
            self, monkeypatch, overrides, nearest):
        def no_evolution(*args, **kwargs):
            raise AssertionError("the scenario was evolved")

        monkeypatch.setattr(trajectories, "_states", no_evolution)
        monkeypatch.setattr(harness, "evolve", no_evolution)
        scenario = apply_overrides(scenario_by_name("free_gaussian"), overrides)
        with pytest.raises(ValueError, match="is not a whole number of steps of dt") as info:
            ScenarioRun(scenario)
        assert str(info.value).endswith(f"the nearest whole-step durations are {nearest}")

    def test_builtin_and_benchmark_durations_are_whole_steps(self):
        # 1.6 / 1e-3 is 1600.0000000000002 in floating point
        assert harness._whole_steps(1.6, 1e-3) == 1600
        for s in builtin_scenarios():
            ScenarioRun(s)

    @pytest.mark.parametrize("name, check, message", [
        # rounded, the order study's dt run would end at 0.501 and its dt/4 run
        # at 0.50025, and the second-order step measured 2.0007
        ("harmonic_ground", "propagator_order",
         "duration 0.5 is not a whole number of steps of dt 0.003; "
         "the nearest whole-step durations are 0.498 and 0.501"),
        ("free_gaussian", "continuity_order",
         "duration 0.25 is not a whole number of steps of dt 0.003; "
         "the nearest whole-step durations are 0.249 and 0.252"),
    ])
    def test_an_order_study_off_the_step_grid_is_an_error_verdict(self, name, check, message):
        scenario = apply_overrides(scenario_by_name(name),
                                   {"propagation.dt": 3e-3, "trajectories.duration": 0.6})
        checks = tuple(c for c in scenario.checks if c.id == check)
        (result,) = run_scenario(replace(scenario, checks=checks)).checks
        assert result.measured is None and not result.passed
        assert result.error == f"ValueError: {message}"


# Each of these overrides changes the state or grid a closed-form check reads
# (the packet width, the group drift, a plane wave's parcel speed).
STATE_OVERRIDES = [
    ("free_gaussian", {"state.sigma0": 1.5}),
    ("moving_gaussian", {"state.k0": 1.0}),
    ("plane_wave", {"state.mode_index": 4}),
    ("plane_wave", {"grid.x_min": -30.0, "grid.x_max": 30.0}),
]


@pytest.mark.parametrize("name, overrides", STATE_OVERRIDES)
def test_closed_forms_judge_the_overridden_state(name, overrides):
    report = run_scenario(apply_overrides(scenario_by_name(name), overrides))
    assert [(c.id, c.measured, c.error) for c in report.checks if not c.passed] == []


@pytest.mark.parametrize("check, times", [
    ("spreading_law", (0.5,)),
    ("drift_law", (1.0,)),
])
def test_a_closed_form_without_its_state_parameter_is_an_error(check, times):
    report = run_scenario(Scenario(
        name="harmonic", state=StateSpec("harmonic_ground", {"omega": 1.0}),
        potential=PotentialSpec("harmonic", omega=1.0),
        propagation=PropagatorConfig(1e-3, 1000, 500),
        checks=(CheckSpec(check, 1.0, times=times),)))
    (c,) = report.checks
    assert not c.passed and c.error.startswith("KeyError")


def test_a_key_error_verdict_carries_its_message_unquoted():
    scenario = replace(scenario_by_name("moving_gaussian"),
                       checks=(CheckSpec("drift_law", 1e-6, times=(0.75,)),))
    report = run_scenario(scenario)
    (c,) = report.checks
    message = "no snapshot at t = 0.75 in scenario 'moving_gaussian'"
    assert c.error == f"KeyError: {message}"
    assert report.payload()["checks"][0]["error"] == c.error
    assert f"KeyError: {message}" in format_report(report)


@pytest.mark.slow
def test_tolerance_monotonic_under_refinement(suite_reports):
    """Doubling resolution and halving dt must not flip a passing check."""
    base = suite_reports["harmonic_ground"]
    refined = apply_overrides(
        scenario_by_name("harmonic_ground"),
        {
            "grid.n": 1024,
            "propagation.dt": 5e-4,
            "propagation.n_steps": 2000,
            "propagation.snapshot_every": 200,
        },
    )
    report = run_scenario(refined)
    passed_before = {c.id for c in base.checks if c.passed}
    passed_after = {c.id for c in report.checks if c.passed}
    assert passed_before <= passed_after


@pytest.mark.parametrize("n", [1024, 2048])
def test_propagator_order_on_refined_grids_at_desk_dt(n):
    # the refinement guard reads the state's bandwidth, so finer grids keep
    # the desk dt = 1e-3 and the Strang step keeps its second order
    from madelung.harness import ScenarioRun, _check_propagator_order

    scenario = apply_overrides(scenario_by_name("harmonic_ground"), {"grid.n": n})
    assert scenario.propagation.dt == 1e-3
    assert 3.5 <= _check_propagator_order(ScenarioRun(scenario)) <= 4.5


RECORD_FIELDS = ("times", "positions", "x_records", "u_records", "ln_rho_records",
                 "div_u_records", "S_records", "action_records")


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestContinuityOrderTracks:
    SPEC = CheckSpec("continuity_order", 3.5, mode="above")

    @staticmethod
    def fresh_value(run, dt):
        from madelung.trajectories import continuity_residual

        coarse = continuity_residual(run.track(dt, 0.25)[1]).max()
        fine = continuity_residual(run.track(dt / 2.0, 0.25)[1]).max()
        return float(coarse / fine)

    def test_coarse_track_is_the_main_trajectory_prefix(self, monkeypatch):
        from madelung import harness

        run = harness.ScenarioRun(scenario_by_name("free_gaussian"))
        dt = run.scenario.propagation.dt
        fresh = run.track(dt, 0.25)[1]
        head = harness._head(run.trajectory(), fresh.times.size)
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(head, name), getattr(fresh, name)), name
        calls = _counting(monkeypatch, trajectories, "_flow_stream")
        measured = harness._CHECKS["continuity_order"].measure(run, self.SPEC)
        assert len(calls) == 1  # only the dt/2 track; the dt track is sliced
        monkeypatch.undo()
        assert measured == self.fresh_value(run, dt)

    def test_falls_back_to_a_fresh_track_past_the_main_duration(self, monkeypatch):
        from madelung import harness

        scenario = apply_overrides(scenario_by_name("free_gaussian"),
                                   {"trajectories.duration": 0.1})
        run = harness.ScenarioRun(scenario)
        run.trajectory()
        calls = _counting(monkeypatch, trajectories, "_flow_stream")
        measured = harness._CHECKS["continuity_order"].measure(run, self.SPEC)
        assert len(calls) == 2
        monkeypatch.undo()
        assert measured == self.fresh_value(run, run.scenario.propagation.dt)


# the free_gaussian checks whose record reads a parcel track
TRACK_CHECKS = tuple(c.id for c in scenario_by_name("free_gaussian").checks
                     if harness._CHECKS[c.id].reads in ("track", "own tracks"))


def test_a_failed_main_track_fails_once_with_one_message(monkeypatch, one_cpu):
    from madelung import harness

    calls = []

    def broken_flow(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("flow broke")

    monkeypatch.setattr(trajectories, "_flow_stream", broken_flow)
    checks = {c.id: c for c in run_scenario(scenario_by_name("free_gaussian")).checks}
    for cid in TRACK_CHECKS:
        assert checks[cid].error == "RuntimeError: flow broke", cid
    # the main track once, continuity_order's fallback dt track once
    assert len(calls) == 2
    assert checks["norm_drift"].passed


def test_seeding_fails_before_any_flow_collection(monkeypatch):
    from madelung import harness

    def no_parcels(rho, n_parcels):
        raise ValueError("need at least one parcel")

    monkeypatch.setattr(harness, "seed_parcels", no_parcels)
    calls = _counting(monkeypatch, trajectories, "_flow_stream")
    checks = {c.id: c for c in run_scenario(scenario_by_name("free_gaussian")).checks}
    for cid in TRACK_CHECKS:
        assert checks[cid].error == "ValueError: need at least one parcel", cid
    assert calls == []


@pytest.mark.parametrize("kwargs, limit", [
    ({"n_parcels": 0}, "n_parcels must be an integer >= 1"),
    ({"n_parcels": 2.5}, "n_parcels must be an integer >= 1"),
    ({"duration": 0.0}, "duration must be finite and > 0"),
    ({"duration": -0.5}, "duration must be finite and > 0"),
    ({"duration": float("nan")}, "duration must be finite and > 0"),
    ({"duration": float("inf")}, "duration must be finite and > 0"),
    ({"seed_lo": -1.0}, "set together"),
    ({"seed_hi": 1.0}, "set together"),
    ({"seed_lo": 1.0, "seed_hi": 1.0}, "seed_lo must be < seed_hi"),
    ({"seed_lo": 2.0, "seed_hi": -2.0}, "seed_lo must be < seed_hi"),
    ({"n_parcels": True}, "n_parcels must be an integer >= 1"),
    ({"duration": True}, "duration must be finite and > 0"),
])
def test_trajectory_config_names_its_limit(kwargs, limit):
    from madelung.harness import TrajectoryConfig

    with pytest.raises(ValueError, match=limit):
        TrajectoryConfig(**kwargs)


@pytest.mark.parametrize("kwargs, limit", [
    ({"bohm_form": "curvature"}, "bohm_form must be one of"),
    ({"floor_rel": 0.0}, "floor_rel must be finite and > 0"),
    ({"floor_rel": float("inf")}, "floor_rel must be finite and > 0"),
    ({"pointwise_floor_rel": -1e-6}, "pointwise_floor_rel must be finite and > 0"),
    ({"pointwise_floor_rel": float("nan")}, "pointwise_floor_rel must be finite and > 0"),
    ({"floor_rel": True}, "floor_rel must be finite and > 0"),
    ({"pointwise_floor_rel": True}, "pointwise_floor_rel must be finite and > 0"),
])
def test_scenario_names_its_limit(kwargs, limit):
    with pytest.raises(ValueError, match=limit):
        replace(scenario_by_name("free_gaussian"), **kwargs)


@pytest.mark.parametrize("lo, hi", [(30.0, 40.0), (15.0, 16.0)])
def test_a_seeding_window_without_usable_density_is_rejected(lo, hi):
    # [30, 40] lies off the grid, [15, 16] below the density floor
    from madelung.harness import TrajectoryConfig

    scenario = replace(scenario_by_name("free_gaussian"),
                       trajectories=TrajectoryConfig(8, 0.5, seed_lo=lo, seed_hi=hi))
    message = (f"the seeding window seed_lo = {lo!r}, seed_hi = {hi!r} holds no density "
               "at or above floor_rel = 1e-12 times the peak")
    with pytest.raises(ValueError) as exc:
        ScenarioRun(scenario).track(1e-3, 0.5)
    assert str(exc.value) == message
    checks = {c.id: c for c in run_scenario(scenario).checks}
    for cid in TRACK_CHECKS:
        assert checks[cid].error == f"ValueError: {message}", cid


def test_a_track_without_a_trajectory_config_seeds_the_default_parcels():
    scenario = replace(scenario_by_name("moving_gaussian"),
                       checks=(CheckSpec("continuity_order", 3.5, mode="above"),))
    (c,) = run_scenario(scenario).checks
    assert c.error is None and c.passed


def test_trajectory_config_accepts_valid_values():
    from madelung.harness import TrajectoryConfig

    assert TrajectoryConfig(n_parcels=1, duration=1e-3).seed_lo is None
    assert TrajectoryConfig(seed_lo=-8.0, seed_hi=2.0).seed_hi == 2.0


def test_a_raising_pointwise_scalar_is_its_own_verdict(monkeypatch, one_cpu):
    from madelung import harness

    def too_few(run, fields):
        raise ValueError("valid mask spans fewer than 16 points")

    monkeypatch.setitem(harness._POINTWISE, "nonspreading", too_few)
    calls = _counting(monkeypatch, harness, "madelung_fields")
    run = harness.ScenarioRun(scenario_by_name("harmonic_ground"))
    checks = {c.id: c for c in run.verify().checks}
    for cid in ("nonspreading", "nonspreading_evolved"):
        assert checks[cid].error == "ValueError: valid mask spans fewer than 16 points"
    # the other scalars of the same field evaluations are still judged
    assert checks["enthalpy_pointwise"].passed and checks["velocity_zero"].passed
    assert len(calls) == len(run.snapshots())
    with pytest.raises(ValueError, match="fewer than 16"):
        run.pointwise("nonspreading", 0.0)


# -- the mode table ----------------------------------------------------------

GAUSSIAN = StateSpec("gaussian", {"x0": 0.0, "sigma0": 1.0, "k0": 0.0})


STUB = {}  # the value the stub check measures, set by judge


@pytest.fixture
def stub_check(monkeypatch):
    """A registered check id whose measured value is STUB["value"]; a
    value that is an exception is raised instead."""
    from madelung import harness

    def stub(run):
        value = STUB["value"]
        if isinstance(value, Exception):
            raise value
        return value

    monkeypatch.setitem(harness._CHECKS, "stub", harness._Check("own evolutions", stub))
    return "stub"


def judge(value, tolerance, mode):
    STUB["value"] = value
    spec = CheckSpec("stub", tolerance, mode=mode)
    return run_scenario(Scenario(name="modes", state=GAUSSIAN, checks=(spec,)))


@pytest.mark.parametrize("mode, tolerance, value, passed", [
    ("below", 1e-10, 1e-10, True),
    ("below", 1e-10, 1.0000001e-10, False),
    ("below", 1e-10, -1.0, True),
    ("above", 0.01, 0.01, False),
    ("above", 0.01, 0.0100001, True),
    ("range", (3.5, 4.5), 3.5, True),
    ("range", (3.5, 4.5), 4.5, True),
    ("range", (3.5, 4.5), 4.0, True),
    ("range", (3.5, 4.5), 3.4999999, False),
    ("range", (3.5, 4.5), 4.5000001, False),
    ("below", 1e-10, float("nan"), False),
    ("above", 0.01, float("nan"), False),
    ("range", (3.5, 4.5), float("nan"), False),
])
def test_mode_pass_rule(stub_check, mode, tolerance, value, passed):
    report = judge(value, tolerance, mode)
    (c,) = report.checks
    assert c.passed is passed and report.passed is passed
    assert c.error is None
    entry = report.payload()["checks"][0]
    assert entry["pass"] is passed
    assert entry["tolerance"] == (list(tolerance) if mode == "range" else tolerance)


@pytest.mark.parametrize("mode, tolerance, text", [
    ("below", 1e-10, "<= 1e-10"),
    ("above", 0.01, "> 0.01"),
    ("range", (3.5, 4.5), "in [3.5, 4.5]"),
])
def test_format_report_states_the_bound(stub_check, mode, tolerance, text):
    line = format_report(judge(4.0, tolerance, mode)).splitlines()[1]
    assert line.endswith(f"measured 4.000000e+00 {text}")


def test_a_raising_check_prints_an_error_line(stub_check):
    report = judge(RuntimeError("kernel broke"), (3.5, 4.5), "range")
    (c,) = report.checks
    assert c.measured is None and not c.passed and c.error == "RuntimeError: kernel broke"
    line = format_report(report).splitlines()[1]
    assert line.startswith("  [ERROR] stub") and line.endswith("RuntimeError: kernel broke")
    assert report.payload()["checks"][0]["error"] == c.error


@pytest.mark.parametrize("check_id, tolerance, mode, message", [
    ("not_a_check", 1.0, "below", "unregistered check 'not_a_check'"),
    ("stub", 1.0, "between", "check 'stub': unknown mode 'between'"),
    ("stub", 4.5, "range", "check 'stub': a range tolerance is a \\(lo, hi\\) pair"),
    ("stub", (3.5,), "range", "check 'stub': a range tolerance is a \\(lo, hi\\) pair"),
    ("stub", (3.5, 4.0, 4.5), "range", "check 'stub': a range tolerance is a \\(lo, hi\\)"),
    ("stub", (3.5, 4.5), "below", "check 'stub': a below tolerance is one number"),
    ("stub", (3.5, 4.5), "above", "check 'stub': a above tolerance is one number"),
    ("stub", None, "below", "check 'stub': tolerance bounds are real numbers"),
    ("stub", "1e-10", "above", "check 'stub': tolerance bounds are real numbers"),
    ("stub", float("nan"), "below", "check 'stub': tolerance bounds are real numbers"),
    ("stub", (3.5, float("nan")), "range", "check 'stub': tolerance bounds are real numbers"),
    ("stub", (None, 4.5), "range", "check 'stub': tolerance bounds are real numbers"),
    ("stub", (4.5, 3.5), "range", "check 'stub': .* with lo <= hi"),
    # a bool is not a bound, though Python counts it a number
    ("stub", True, "below", "check 'stub': tolerance bounds are real numbers"),
    ("stub", False, "above", "check 'stub': tolerance bounds are real numbers"),
    ("stub", (False, True), "range", "check 'stub': tolerance bounds are real numbers"),
])
def test_malformed_spec_raises_when_built(stub_check, check_id, tolerance, mode, message):
    with pytest.raises(ValueError, match=message):
        CheckSpec(check_id, tolerance, mode=mode)


# -- the memo ----------------------------------------------------------------

SNAPSHOT_CHECKS = ("bohm_fisher_identity", "pressure_internal_identity", "enthalpy_pointwise",
                   "fisher_score_zero", "acceleration_zero", "energy_drift",
                   "energy_forms_gap", "norm_drift", "spreading_law", "nonspreading_violated")


def test_a_failed_evolution_fails_once_with_one_message(monkeypatch, one_cpu):
    from madelung import harness

    calls = []

    def broken_evolve(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("evolution broke")

    monkeypatch.setattr(harness, "evolve", broken_evolve)
    checks = {c.id: c for c in run_scenario(scenario_by_name("free_gaussian")).checks}
    errors = {cid for cid, c in checks.items() if c.error is not None}
    assert errors == set(SNAPSHOT_CHECKS)
    for cid in SNAPSHOT_CHECKS:
        assert checks[cid].error == "RuntimeError: evolution broke", cid
        assert not checks[cid].passed
    assert len(calls) == 1
    # the parcel tracks take their own evolution, not the snapshots
    assert checks["continuity_max"].passed


@pytest.mark.parametrize("check_id, times, message", [
    ("continuity_max", (0.0,), "check 'continuity_max' judges no snapshots"),
    ("propagator_order", (), "check 'propagator_order' judges no snapshots"),
    ("norm_drift", [0.0], "check 'norm_drift': times are a tuple of real numbers"),
    ("norm_drift", (0.0, float("nan")), "check 'norm_drift': times are a tuple of real"),
    ("nonspreading", ("0.5",), "check 'nonspreading': times are a tuple of real"),
    ("bernoulli_max", (None,), "check 'bernoulli_max': times are a tuple of real"),
    # an infinity would match the last or the first snapshot
    ("norm_drift", (float("inf"),), "check 'norm_drift': times are a tuple of real numbers, "
                                    "at least one and all finite"),
    ("norm_drift", (0.0, -float("inf")), "check 'norm_drift': times are a tuple of real"),
    # a bool is not a time, though Python counts it a number
    ("spreading_law", (True,), "check 'spreading_law': times are a tuple of real"),
    ("norm_drift", (0.0, False), "check 'norm_drift': times are a tuple of real"),
])
def test_malformed_times_raise_when_built(check_id, times, message):
    with pytest.raises(ValueError, match=message):
        CheckSpec(check_id, 1.0, times=times)


@pytest.mark.parametrize("t", [float("inf"), -float("inf"), float("nan")])
def test_a_non_finite_time_names_no_snapshot(t):
    run = ScenarioRun(scenario_by_name("moving_gaussian"))
    assert trajectories._time_index([0.0, 0.5, 1.0], t) is None
    with pytest.raises(KeyError, match="no snapshot at t = "):
        run.state_at(t)


def test_a_misspelt_spec_field_fails_when_built():
    with pytest.raises(TypeError, match="time"):
        CheckSpec("nonspreading", 1e-6, time=(0.0,))


def test_a_check_judges_exactly_its_times(monkeypatch):
    calls = _counting(monkeypatch, harness, "expectations")
    scenario = replace(scenario_by_name("harmonic_ground"),
                       checks=(CheckSpec("norm_drift", 1e-10, times=(0.0,)),))
    run = ScenarioRun(scenario)
    (c,) = run.verify().checks
    assert c.passed and len(calls) == 1
    assert c.measured == abs(run.report_at(0.0).norm - 1.0)


def test_spec_bounds_may_be_negative():
    assert CheckSpec("norm_drift", -1.0).tolerance == -1.0
    assert CheckSpec("norm_drift", (4.0, 4.0), mode="range").tolerance == (4.0, 4.0)


# -- every fold over times, reports and parcels propagates NaN ---------------

NAN = float("nan")
REPORT_FIELDS = ("norm", "E", "E_hamiltonian", "Q", "FI", "Pi_integral", "I", "vi_mean",
                 "accel")


def fake_run(**attrs):
    from types import SimpleNamespace

    from madelung.states import PhysicalConstants

    state = StateSpec("gaussian", {"x0": 0.0, "sigma0": 1.0, "k0": 0.0, "scale_B": 1.0})
    return SimpleNamespace(constants=PhysicalConstants(),
                           scenario=SimpleNamespace(state=state), **attrs)


def measure(check, run, times=None):
    from madelung import harness

    return harness._CHECKS[check].measure(run, CheckSpec(check, 1.0, times=times))


@pytest.mark.parametrize("check", ["norm_drift", "energy_drift", "energy_forms_gap",
                                   "bohm_fisher_identity", "pressure_internal_identity",
                                   "fisher_score_zero", "acceleration_zero"])
def test_a_nan_report_fails_its_check(check):
    from types import SimpleNamespace

    good = SimpleNamespace(**dict.fromkeys(REPORT_FIELDS, 1.0))
    bad = SimpleNamespace(**dict.fromkeys(REPORT_FIELDS, NAN))
    run = fake_run(snapshots=lambda: [(0.0, None), (1.0, None)],
                   report_at={0.0: good, 1.0: bad}.get)
    assert np.isnan(measure(check, run))


@pytest.mark.parametrize("check, method", [
    ("nonspreading_evolved", "pointwise"),
    ("velocity_zero", "pointwise"),
    ("bernoulli_max", "bernoulli_max"),
])
def test_a_nan_at_a_later_time_fails_its_check(check, method):
    values = {0.5: 1e-7, 1.0: NAN}
    run = fake_run(**{method: lambda *args: values[args[-1]]})
    assert np.isnan(measure(check, run, times=(0.5, 1.0)))


def test_a_nan_width_fails_the_spreading_law(monkeypatch):
    from madelung import harness

    exact = {0.5: np.sqrt(1.0 + 0.25**2), 1.0: NAN}  # sigma0 = hbar = m = 1
    monkeypatch.setattr(harness, "_density_moments", lambda t: (0.0, exact[t]))
    run = fake_run(state_at=lambda t: t)
    assert measure("spreading_law", run, times=(0.5,)) < 1e-15
    assert np.isnan(measure("spreading_law", run, times=(0.5, 1.0)))


def test_a_nan_peak_fails_the_peak_tracking(monkeypatch):
    from madelung import harness

    peaks = {0.0: 0.0, 0.5: 0.25 * 0.25, 1.0: NAN}  # x = hbar^2 B^3 t^2 / 4 m^2
    monkeypatch.setattr(harness, "_peak_position", lambda run, t: peaks[t])
    run = fake_run(state_at=lambda t: t)
    assert measure("density_peak_tracking", run, times=(0.5,)) == 0.0
    assert np.isnan(measure("density_peak_tracking", run, times=(0.5, 1.0)))


def test_a_nan_parcel_fails_the_quantile_preservation(monkeypatch):
    from types import SimpleNamespace

    from madelung import harness

    class Cdf:  # the mass left of x is x itself
        total = 1.0

        def __init__(self, rho):
            pass

        @staticmethod
        def value(x):
            return np.asarray(x, float)

    monkeypatch.setattr(harness, "DensityCdf", Cdf)
    quantiles = np.array([0.25, 0.5])
    traj = SimpleNamespace(times=np.array([0.0, 1.0]), quantiles=quantiles, n_parcels=2,
                           x_records=np.array([quantiles, [0.25, NAN]]))
    flow = trajectories.TrackFlow(seam_flux=np.zeros(2), cdf_steps=range(2), rho=[None, None])
    run = fake_run(trajectory=lambda: traj, flow=lambda: flow)
    assert np.isnan(measure("quantile_preservation", run))
    traj.x_records[1, 1] = 0.5
    assert measure("quantile_preservation", run) == 0.0


def test_an_empty_times_list_is_rejected_when_built():
    # it would judge nothing
    for check_id in ("spreading_law", "bernoulli_max", "density_peak_tracking"):
        with pytest.raises(ValueError, match=rf"^check '{check_id}': times are a tuple of "
                                             r"real numbers, at least one and all finite, got \(\)$"):
            CheckSpec(check_id, 1e-4, times=())
