import csv
import json
import os
import re
import warnings

import numpy as np
import pytest

from madelung.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def test_list_names_all_scenarios(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in (
        "plane_wave", "free_gaussian", "moving_gaussian", "harmonic_ground",
        "airy_packet", "quantum_bouncer", "spreading_negative_control",
    ):
        assert name in out


def test_list_derives_its_tags(capsys):
    assert main(["list"]) == EXIT_OK
    names = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("    ")]
    assert names == [
        "plane_wave", "free_gaussian", "moving_gaussian", "harmonic_ground",
        "airy_packet  [non-normalizable]", "quantum_bouncer  [diagnostic-only]",
        "spreading_negative_control",
    ]


def test_unknown_scenario_exits_2(capsys):
    assert main(["run", "--scenario", "nope", "--out", "/tmp/never"]) == EXIT_USAGE


def test_bad_override_exits_2(tmp_path):
    rc = main([
        "run", "--scenario", "quantum_bouncer", "--out", str(tmp_path),
        "--set", "grid.shape=12",
    ])
    assert rc == EXIT_USAGE


def test_null_override_exits_2_naming_the_key(tmp_path, capsys):
    rc = main(["run", "--scenario", "free_gaussian", "--no-fields", "--out", str(tmp_path),
               "--set", "propagation.n_steps=null"])
    assert rc == EXIT_USAGE
    assert "override 'propagation.n_steps' takes int values" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_io_failure_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["run", "--scenario", "quantum_bouncer", "--out", str(blocker / "sub")])
    assert rc == EXIT_IO


def test_verify_subset_passes(capsys):
    assert main(["verify", "quantum_bouncer"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all passed" in out


def test_verify_all_with_names_exits_2(capsys):
    assert main(["verify", "--all", "quantum_bouncer"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == ("error: --all runs every scenario; drop it to run only "
                            "['quantum_bouncer']\n")
    assert captured.out == ""


def test_verify_failure_exits_1(monkeypatch, tmp_path):
    # x = 0 falls between the samples of this grid, so the sample nearest
    # the wall holds density: a finite FAIL of the builtin bound
    from dataclasses import replace

    from madelung import cli, harness

    builtin = harness.scenario_by_name("quantum_bouncer")
    (node,) = [c for c in builtin.checks if c.id == "density_node_at_wall"]
    shifted = replace(harness.apply_overrides(builtin, {"grid.n": 512, "grid.x_min": -20.004}),
                      checks=(node,))
    monkeypatch.setattr(cli, "scenario_by_name", lambda name: shifted)
    path = tmp_path / "verify.json"
    assert main(["verify", "quantum_bouncer", "--json", str(path)]) == EXIT_CHECK_FAILURE
    (check,) = json.loads(path.read_text())[0]["checks"]
    assert check["tolerance"] == 1e-12 and not check["pass"] and "error" not in check
    assert 1e-6 < check["measured"] < 1e-4  # 1.09e-5


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_out")
    rc = main([
        "run", "--scenario", "moving_gaussian", "--out", str(out),
        "--trajectories",
    ])
    assert rc == EXIT_OK
    return out


class TestRunArtifacts:
    def test_expected_files(self, outdir):
        names = set(os.listdir(outdir))
        assert "timeseries.csv" in names
        assert "report.json" in names
        assert "fields_t0.csv" in names
        # 1000 steps at snapshot_every=100, plus t=0
        assert "fields_t10.csv" in names

    def test_timeseries_columns(self, outdir):
        with open(outdir / "timeseries.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "t", "norm", "K", "Q", "U", "I", "E", "FI", "accel", "vi_mean",
            "bernoulli_residual_max", "nonspread_residual",
        ]
        assert len(rows) == 1 + 11
        norm = float(rows[1][1])
        assert abs(norm - 1.0) < 1e-9

    def test_fields_roundtrip_exact(self, outdir):
        from madelung.diagnostics import madelung_fields
        from madelung.harness import ScenarioRun, scenario_by_name

        with open(outdir / "fields_t0.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "x", "re_psi", "im_psi", "rho", "S", "u", "div_u", "Q_tilde", "Pi",
            "internal_density", "v_i",
        ]
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        run = ScenarioRun(scenario_by_name("moving_gaussian"))
        f = madelung_fields(run.wf0, run.scenario.floor_rel,
                            bohm_form=run.scenario.bohm_form)
        assert np.array_equal(data[:, 0], run.grid.x)
        assert np.array_equal(data[:, 1], run.wf0.psi.values.real)
        assert np.array_equal(data[:, 3], f.rho.values)
        assert np.array_equal(data[:, 7], f.Q_tilde.values)

    def test_report_json(self, outdir):
        with open(outdir / "report.json") as fh:
            report = json.load(fh)
        assert report["scenario"] == "moving_gaussian"
        assert report["passed"] is True
        assert {c["id"] for c in report["checks"]} >= {"drift_law", "norm_drift"}

    def test_trajectories_absent_without_config(self, outdir):
        # moving_gaussian has no trajectory segment, so no CSV even when asked
        assert "trajectories.csv" not in os.listdir(outdir)


def test_run_with_config_file(tmp_path):
    out = tmp_path / "artifacts"
    config = {
        "scenario": "quantum_bouncer",
        "output_dir": str(out),
        "emit_fields": False,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--scenario", str(path)]) == EXIT_OK
    names = set(os.listdir(out))
    assert names == {"timeseries.csv", "report.json"}


def test_run_flags_beat_the_config_file(tmp_path):
    file_out, flag_out = tmp_path / "file_out", tmp_path / "flag_out"
    config = {
        "scenario": "free_gaussian",
        "output_dir": str(file_out),
        "emit_fields": True,
        "emit_trajectories": False,
        "overrides": {"trajectories.duration": 0.1, "trajectories.n_parcels": 2},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    rc = main(["run", "--scenario", str(path), "--out", str(flag_out),
               "--no-fields", "--trajectories"])
    assert rc == EXIT_OK
    assert not file_out.exists()
    assert set(os.listdir(flag_out)) == {"report.json", "timeseries.csv", "trajectories.csv"}


def test_set_beats_the_config_file_overrides(tmp_path):
    config = {"scenario": "quantum_bouncer", "emit_fields": False,
              "overrides": {"grid.n": 1024, "grid.x_max": 24.0}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--out", str(out), "--set", "grid.n=2048"])
    assert rc == EXIT_OK
    with open(out / "report.json") as fh:
        grid = json.load(fh)["grid"]
    assert (grid["n"], grid["x_max"]) == (2048, 24.0)


@pytest.mark.parametrize("config, flags", [
    # the dedicated setting: the flag beats the file key...
    ({"snapshot_every": 500}, ["--snapshot-every", "250"]),
    # ...and either beats propagation.snapshot_every, from the file or --set
    ({"overrides": {"propagation.snapshot_every": 500}}, ["--snapshot-every", "250"]),
    ({}, ["--snapshot-every", "250", "--set", "propagation.snapshot_every=500"]),
    ({"snapshot_every": 250}, ["--set", "propagation.snapshot_every=500"]),
    ({"snapshot_every": 250, "overrides": {"propagation.snapshot_every": 500}}, []),
    # --set beats the file's override of the same key
    ({"overrides": {"propagation.snapshot_every": 500}},
     ["--set", "propagation.snapshot_every=250"]),
])
def test_snapshot_every_precedence(tmp_path, config, flags):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "moving_gaussian", **config}))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--out", str(out), "--no-fields"] + flags)
    assert rc == EXIT_OK
    with open(out / "timeseries.csv") as fh:
        times = [float(row[0]) for row in list(csv.reader(fh))[1:]]
    # 1000 steps of moving_gaussian at a snapshot every 250 steps, plus t = 0
    assert len(times) == 1000 // 250 + 1


def test_a_bad_config_file_is_reported_before_set(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "free_gaussian", "emit_fields": "no"}))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
               "--set", "grid.n"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: {path}: config key 'emit_fields' takes "
                                       f"a boolean, not \"no\"\n")


@pytest.mark.parametrize("config, reason", [
    ({"scenario": "free_gaussian", "output_dir": None}, "'output_dir' takes a string, not null"),
    ({"scenario": "free_gaussian", "overrides": [1, 2]}, "'overrides' takes an object"),
    (5, "a run config is a JSON object, not 5"),
    (None, "a run config is a JSON object, not null"),
    ({"scenario": "free_gaussian", "emit_fields": "no"}, "'emit_fields' takes a boolean"),
    ({"scenario": "free_gaussian", "emit_trajectories": 1}, "'emit_trajectories' takes a boolean"),
    ({"scenario": ["free_gaussian"]}, "'scenario' takes a string"),
])
def test_bad_config_file_exits_2(tmp_path, capsys, config, reason):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and reason in err
    assert not (tmp_path / "out").exists()


def test_cli_override_changes_grid(tmp_path):
    out = tmp_path / "o"
    rc = main([
        "run", "--scenario", "quantum_bouncer", "--out", str(out),
        "--no-fields", "--set", "grid.n=2048",
    ])
    assert rc == EXIT_OK
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["grid"]["n"] == 2048


def test_env_var_default_out(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("MADELUNG_OUT", str(target))
    assert main(["run", "--scenario", "quantum_bouncer", "--no-fields"]) == EXIT_OK
    assert (target / "report.json").exists()


def test_run_evaluates_the_scenario_once(tmp_path, monkeypatch, suite_reports, one_cpu):
    from madelung import propagator, trajectories

    calls = []
    real_states = propagator._states

    def counting_states(wf, U, config, *args):
        calls.append(config.n_steps)
        return real_states(wf, U, config, *args)

    # the one Strang loop, as evolve, step and the flow stream bind it
    monkeypatch.setattr(propagator, "_states", counting_states)
    monkeypatch.setattr(trajectories, "_states", counting_states)
    rc = main([
        "run", "--scenario", "free_gaussian", "--trajectories", "--no-fields",
        "--out", str(tmp_path),
    ])
    assert rc == EXIT_OK
    # snapshots, the parcel flow, and continuity_order's dt/2 flow: its dt
    # track is a prefix of the parcel flow's
    assert len([n for n in calls if n > 1]) == 3
    # and one Bernoulli step per snapshot, shared by the check and the CSV
    assert calls.count(1) == len(calls) - 3 == 2000 // 100 + 1
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    assert report["checks"] == suite_reports["free_gaussian"].payload()["checks"]
    assert {"timeseries.csv", "trajectories.csv"} <= set(os.listdir(tmp_path))


def test_energy_forms_gap_fails_as_a_verdict(tmp_path):
    rc = main([
        "run", "--scenario", "free_gaussian", "--no-fields", "--out", str(tmp_path),
        "--set", "floor_rel=1e-3",
    ])
    assert rc == EXIT_OK
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    gap = {c["id"]: c for c in report["checks"]}["energy_forms_gap"]
    assert gap["pass"] is False
    assert gap["measured"] > 1e3 * gap["tolerance"]
    assert report["passed"] is False


def test_raising_check_is_an_error_verdict(tmp_path):
    # at dt = 0.003 the order study's duration 0.25 is no whole number of steps
    rc = main([
        "run", "--scenario", "free_gaussian", "--no-fields", "--out", str(tmp_path),
        "--set", "propagation.dt=0.003", "--set", "trajectories.duration=0.6",
    ])
    assert rc == EXIT_OK
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    checks = {c["id"]: c for c in report["checks"]}
    entry = checks["continuity_order"]
    assert entry["pass"] is False and entry["measured"] is None
    assert "duration 0.25 is not a whole number of steps of dt 0.003" in entry["error"]
    assert report["passed"] is False
    # the checks after it were still judged
    for cid in ("quantile_preservation", "action_identity"):
        assert checks[cid]["measured"] is not None and "error" not in checks[cid], cid


def test_verify_exits_1_on_an_error_verdict(monkeypatch, capsys):
    from dataclasses import replace

    from madelung import cli, harness

    short = harness.apply_overrides(harness.scenario_by_name("free_gaussian"),
                                    {"propagation.dt": 0.003, "trajectories.duration": 0.6})
    order = next(c for c in short.checks if c.id == "continuity_order")
    short = replace(short, checks=(order, harness.CheckSpec("norm_drift", 1e-10)))
    monkeypatch.setattr(cli, "scenario_by_name", lambda name: short)
    assert main(["verify", "free_gaussian"]) == EXIT_CHECK_FAILURE
    out = capsys.readouterr().out
    assert "[ERROR] continuity_order" in out
    assert "[PASS] norm_drift" in out


def test_a_one_step_track_exits_2_where_continuity_max_is_judged(tmp_path, capsys,
                                                                 monkeypatch):
    from madelung import propagator, trajectories

    def no_evolution(*args, **kwargs):
        raise AssertionError("the scenario was evolved")

    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(propagator, "_states", no_evolution)
        patch.setattr(trajectories, "_states", no_evolution)
        rc = main(["run", "--scenario", "free_gaussian", "--trajectories", "--no-fields",
                   "--out", str(out), "--set", "trajectories.duration=0.001"])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.err == ("error: continuity_max needs a track of at least 2 steps "
                            "(3 recorded snapshots): trajectories.duration 0.001 must be "
                            ">= 2 dt = 0.002\n")
    assert not out.exists()
    # at the limit, the residual is judged
    rc = main(["run", "--scenario", "free_gaussian", "--trajectories", "--no-fields",
               "--out", str(out), "--set", "trajectories.duration=0.002"])
    assert rc == EXIT_OK
    with open(out / "report.json") as fh:
        checks = {c["id"]: c for c in json.load(fh)["checks"]}
    assert checks["continuity_max"]["measured"] is not None


def test_report_survives_a_failing_artifact_writer(tmp_path, capsys):
    # dt = 0.5 turns the packet's highest occupied mode by 5.6 rad per step:
    # every check on the dt evolution is an error verdict, then the
    # timeseries writer meets the same rejection and the run exits 2 (the
    # track is two steps long, as continuity_max needs)
    rc = main([
        "run", "--scenario", "free_gaussian", "--no-fields", "--out", str(tmp_path),
        "--set", "propagation.dt=0.5", "--set", "trajectories.duration=1.0",
    ])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: timeseries.csv: kinetic phase per step") and "exceeds pi" in err
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    checks = {c["id"]: c for c in report["checks"]}
    for cid in ("norm_drift", "energy_drift", "spreading_law"):
        assert checks[cid]["pass"] is False and checks[cid]["measured"] is None
        assert "exceeds pi" in checks[cid]["error"]
    assert report["passed"] is False
    assert "timeseries.csv" not in os.listdir(tmp_path)


@pytest.mark.parametrize("override", ["pointwise_floor_rel=0.9", "grid.n=16"])
def test_a_failing_column_names_its_artifact_and_snapshot(tmp_path, capsys, override):
    # the non-spreading column reads the pointwise fields, whose valid mask
    # is too narrow from the first snapshot on
    rc = main(["run", "--scenario", "free_gaussian", "--no-fields", "--out", str(tmp_path),
               "--set", override])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: timeseries.csv at t = 0: valid mask spans fewer than 16 points\n")
    assert os.listdir(tmp_path) == ["report.json"]


def test_non_finite_state_exits_4(tmp_path, monkeypatch, capsys):
    from madelung import grid
    from madelung.grid import NonFiniteFieldError

    monkeypatch.setattr(grid, "_apply",
                        lambda values, half_v, kinetic: np.full_like(values, np.nan))
    rc = main([
        "run", "--scenario", "free_gaussian", "--no-fields", "--out", str(tmp_path),
    ])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: timeseries.csv: field contains non-finite entries\n")
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    norm = {c["id"]: c for c in report["checks"]}["norm_drift"]
    assert norm["error"] == "NonFiniteFieldError: field contains non-finite entries"
    # library callers still see a ValueError
    assert issubclass(NonFiniteFieldError, ValueError)


def test_finite_override_that_overflows_exits_4(tmp_path, capsys):
    # finite, so the cast takes it; the potential it builds is not
    rc = main(["run", "--scenario", "quantum_bouncer", "--no-fields", "--out", str(tmp_path),
               "--set", "potential.g=1e308"])
    assert rc == EXIT_NUMERICAL
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scenario, override, spec", [
    ("quantum_bouncer", "potential.g=1e308",
     "PotentialSpec(kind='abs_linear', g=1e+308, omega=0.0, table=None)"),
    ("harmonic_ground", "potential.omega=1e200",
     "PotentialSpec(kind='harmonic', g=0.0, omega=1e+200, table=None)"),
    ("free_gaussian", "state.sigma0=1e-300",
     "StateSpec(factory='gaussian', params={'x0': 0.0, 'sigma0': 1e-300, 'k0': 0.0})"),
])
def test_an_overflowing_build_names_its_spec(tmp_path, capsys, scenario, override, spec):
    rc = main(["run", "--scenario", scenario, "--no-fields", "--out", str(tmp_path),
               "--set", override])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        f"numerical failure: {spec} builds a field with non-finite entries\n")


@pytest.mark.parametrize("override, message", [
    ("constants.mass=Infinity", "mass must be finite and > 0, got inf"),
    ("constants.hbar=Infinity", "hbar must be finite and > 0, got inf"),
    ("potential.g=Infinity", "potential.g must be finite, got inf"),
])
def test_a_non_finite_constant_of_the_bouncer_exits_2_before_any_grid(
        tmp_path, capsys, monkeypatch, override, message):
    from madelung import harness

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(harness, "make_grid", no_grid)
    rc = main(["run", "--scenario", "quantum_bouncer", "--no-fields",
               "--out", str(tmp_path / "out"), "--set", override])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("scenario, override, message", [
    # 2 m^2 g underflows to zero: the length scale would divide by it
    ("quantum_bouncer", "constants.mass=1e-300",
     "bouncer length scale (hbar^2 / (2 m^2 g))^(1/3) overflows at mass 1e-300"),
    # ell = 1e-150 against dx = 0.078
    ("harmonic_ground", "constants.mass=1e300",
     "oscillator length 1e-150 is resolved by fewer than 8 grid points"),
])
def test_a_state_length_off_the_grid_exits_2_before_any_artifact(
        tmp_path, capsys, scenario, override, message):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["run", "--scenario", scenario, "--no-fields", "--out", str(out),
                   "--set", override])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("override, limit", [
    ("trajectories.duration=-0.5", "trajectories.duration must be finite and > 0"),
    ("trajectories.duration=0", "trajectories.duration must be finite and > 0"),
    ("trajectories.n_parcels=0", "trajectories.n_parcels must be an integer >= 1"),
])
def test_bad_trajectory_config_exits_2_with_its_limit(tmp_path, capsys, override, limit):
    rc = main(["run", "--scenario", "free_gaussian", "--no-fields", "--trajectories",
               "--out", str(tmp_path), "--set", override])
    assert rc == EXIT_USAGE
    assert limit in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("override, message", [
    ("bohm_form=bogus",
     "bohm_form must be one of ('amplitude', 'wavefunction', 'log'), got 'bogus'"),
    ("floor_rel=0", "floor_rel must be finite and > 0, got 0.0"),
    ("floor_rel=-1e-12", "floor_rel must be finite and > 0, got -1e-12"),
    ("pointwise_floor_rel=nan", "pointwise_floor_rel must be finite and > 0, got nan"),
    # a potential parameter the kind never reads, a duration off the step grid
    ("potential.omega=2.0", "potential kind 'free' does not read potential.omega"),
    ("trajectories.duration=0.0015", "duration 0.0015 is not a whole number of steps of "
     "dt 0.001; the nearest whole-step durations are 0.001 and 0.002"),
    # a non-finite parameter is refused by the factory or spec it lands in;
    # the free potential reads no slope at all
    ("state.x0=NaN", "x0 must be finite, got nan"),
    ("state.k0=-Infinity", "k0 must be finite, got -inf"),
    ("potential.g=Infinity", "potential kind 'free' does not read potential.g"),
    # a wavenumber the grid cannot hold would evolve its alias
    ("state.k0=100.0", "k0 = 100.0 is not below the grid's Nyquist wavenumber pi/dx = 40.21"),
    # an infinite step or constant would run with a kinetic factor of exactly 1
    ("propagation.dt=Infinity", "dt must be finite and > 0, got inf"),
    ("constants.mass=Infinity", "mass must be finite and > 0, got inf"),
    ("constants.hbar=NaN", "hbar must be finite and > 0, got nan"),
])
def test_bad_scenario_setting_exits_2_before_evolving(tmp_path, capsys, monkeypatch,
                                                      override, message):
    from madelung import propagator, trajectories

    def no_evolution(*args, **kwargs):
        raise AssertionError("the scenario was evolved")

    monkeypatch.setattr(propagator, "_states", no_evolution)
    monkeypatch.setattr(trajectories, "_states", no_evolution)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "free_gaussian", "--trajectories",
               "--out", str(out), "--set", override])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_grid_length_past_the_largest_float_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "free_gaussian", "--no-fields", "--out", str(out),
               "--set", "grid.x_min=-1e308", "--set", "grid.x_max=1e308"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: grid length x_max - x_min must be finite and > 0, got inf\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, config_value", [
    (["--snapshot-every", "0"], None),
    ([], "often"),
    (["--snapshot-every", "5"], None),
])
def test_snapshot_every_on_a_diagnostic_only_scenario_exits_2(tmp_path, capsys,
                                                              flag, config_value):
    config = {"scenario": "quantum_bouncer"}
    if config_value is not None:
        config["snapshot_every"] = config_value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--out", str(out)] + flag)
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == ("error: scenario 'quantum_bouncer' has no propagation "
                                       "for 'propagation.snapshot_every'\n")
    assert not out.exists()


def test_a_huge_kinetic_phase_is_printed_short(tmp_path, capsys):
    rc = main(["run", "--scenario", "free_gaussian", "--no-fields", "--out", str(tmp_path),
               "--set", "constants.hbar=1e300"])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    # hbar k^2 dt / 2m at the highest occupied wavenumber, 4.712
    assert captured.err.startswith("error: timeseries.csv: kinetic phase per step 1.11e+298 at ")
    assert "ValueError: kinetic phase per step 1.11e+298 at " in captured.out
    assert not re.search(r"[0-9]{20}", captured.out + captured.err)


def test_timeseries_columns_are_the_judged_values(tmp_path, monkeypatch, one_cpu):
    from madelung import harness

    fields_calls, step_calls = [], []
    real_fields, real_step = harness.madelung_fields, harness.step
    monkeypatch.setattr(harness, "madelung_fields",
                        lambda *a, **k: fields_calls.append(1) or real_fields(*a, **k))
    monkeypatch.setattr(harness, "step",
                        lambda *a, **k: step_calls.append(1) or real_step(*a, **k))
    rc = main(["run", "--scenario", "harmonic_ground", "--no-fields", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    with open(tmp_path / "report.json") as fh:
        checks = {c["id"]: c["measured"] for c in json.load(fh)["checks"]}
    with open(tmp_path / "timeseries.csv") as fh:
        rows = {float(r["t"]): r for r in csv.DictReader(fh)}
    assert len(rows) == 11
    # one field evaluation per snapshot, shared by the checks and the writer
    assert len(fields_calls) == 11
    # bernoulli_max steps once from each snapshot, bernoulli_order twice
    assert len(step_calls) == 11 + 2
    assert max(float(r["bernoulli_residual_max"]) for r in rows.values()) \
        == checks["bernoulli_max"]
    assert float(rows[0.0]["nonspread_residual"]) == checks["nonspreading"]
    assert max(float(rows[t]["nonspread_residual"]) for t in (0.5, 1.0)) \
        == checks["nonspreading_evolved"]
