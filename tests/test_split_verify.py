"""`ScenarioRun.verify` with two usable CPUs: the checks on the main parcel
track in the test process, every other check in one forked child."""

import errno
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from madelung import grid, harness
from madelung.grid import RealField, make_grid
from madelung.harness import (
    ScenarioRun,
    apply_overrides,
    builtin_scenarios,
    scenario_by_name,
)
from madelung.propagator import PropagatorConfig, evolve
from madelung.states import PhysicalConstants, gaussian_packet

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

# shortened, but long enough that continuity_order slices the main track
# when one process judges every check
SHORT = {
    "free_gaussian": {"trajectories.duration": 0.3},
    "plane_wave": {"trajectories.duration": 0.3},
    "harmonic_ground": {"trajectories.duration": 0.3},
}


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _scenario(name):
    return apply_overrides(scenario_by_name(name), SHORT[name])


def _payload(monkeypatch, scenario, cpus):
    with monkeypatch.context() as m:
        _cpus(m, cpus)
        return ScenarioRun(scenario).verify().payload()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forks(monkeypatch):
    pids = []
    real_fork = os.fork

    def counted():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.mark.parametrize("name", sorted(SHORT))
def test_two_cpus_give_the_one_cpu_payload(monkeypatch, name):
    scenario = _scenario(name)
    pids = _forks(monkeypatch)
    split = _payload(monkeypatch, scenario, 2)
    assert len(pids) == 1
    assert split == _payload(monkeypatch, scenario, 1)
    assert len(pids) == 1
    _no_child_left()


def test_a_child_that_dies_before_writing_is_judged_here(monkeypatch):
    scenario = _scenario("free_gaussian")
    serial = _payload(monkeypatch, scenario, 1)
    # a check off the track, which the child judges, ends the child there
    caller, judged_here = os.getpid(), []
    real = harness._CHECKS["norm_drift"]

    def dies_in_the_child(run, spec):
        if os.getpid() != caller:
            os._exit(3)
        judged_here.append(spec.id)
        return real(run, spec)

    monkeypatch.setitem(harness._CHECKS, "norm_drift", dies_in_the_child)
    pids = _forks(monkeypatch)
    assert _payload(monkeypatch, scenario, 2) == serial
    assert len(pids) == 1
    assert judged_here == ["norm_drift"]  # the caller judged the child's checks
    _no_child_left()


def test_a_fork_that_fails_is_judged_here(monkeypatch):
    scenario = _scenario("free_gaussian")
    serial = _payload(monkeypatch, scenario, 1)

    def fails():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fails)
    assert _payload(monkeypatch, scenario, 2) == serial
    _no_child_left()


class Stop(BaseException):
    pass


def test_no_child_outlives_a_caller_that_raises(monkeypatch):
    def interrupted(run, spec):
        raise Stop

    # judged in the caller, while the child still evolves the snapshots
    monkeypatch.setitem(harness._CHECKS, "continuity_max", interrupted)
    _cpus(monkeypatch, 2)
    pids = _forks(monkeypatch)
    with pytest.raises(Stop):
        ScenarioRun(_scenario("free_gaussian")).verify()
    assert len(pids) == 1
    _no_child_left()


def test_the_caller_keeps_what_the_child_computed(monkeypatch):
    calls = []
    real = harness.expectations
    monkeypatch.setattr(harness, "expectations",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    _cpus(monkeypatch, 2)
    run = ScenarioRun(_scenario("free_gaussian"))
    run.verify()
    # the reports and pointwise scalars came from the child, the track is here
    run.reports()
    run.pointwise("enthalpy", 0.0)
    assert calls == []
    assert isinstance(run._held("track"), tuple)


def test_one_process_judges_without_both_sides_two_cpus_or_one_thread(monkeypatch):
    _cpus(monkeypatch, 2)
    pids = _forks(monkeypatch)
    scenario = _scenario("free_gaussian")
    track_only = tuple(c for c in scenario.checks if c.id in harness._TRACK_CHECKS)
    ScenarioRun(scenario_by_name("quantum_bouncer")).verify()  # no parcel-track check
    ScenarioRun(replace(scenario, checks=track_only)).verify()
    # a thread that may hold a lock the child would need
    monkeypatch.setattr(harness, "_warned_serial", False)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with pytest.warns(RuntimeWarning, match=r"^the work runs serially: 1 other thread\(s\)"):
            ScenarioRun(scenario).verify()
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    with monkeypatch.context() as m:
        m.setattr(grid, "_in_pool_worker", True)  # a verify --all worker
        ScenarioRun(scenario).verify()
    assert pids == []


def test_the_declared_track_checks_are_registered():
    assert harness._TRACK_CHECKS <= set(harness._CHECKS)


@pytest.mark.parametrize("scenario", builtin_scenarios(), ids=lambda s: s.name)
def test_checks_off_the_track_never_take_the_main_track(scenario):
    # what the child judges; a check that reads the main track and is not
    # declared in _TRACK_CHECKS would make the child compute it again
    run = ScenarioRun(scenario)
    run._judge([c for c in scenario.checks if c.id not in harness._TRACK_CHECKS])
    assert "track" not in run._memos


def test_the_idle_strang_helper_thread_does_not_stop_the_split(monkeypatch):
    _cpus(monkeypatch, 2)
    g = make_grid(grid._THREADED_MIN_N, -800.0, 800.0)
    wf = gaussian_packet(g, PhysicalConstants(), 0.0, 1.0, 0.0)
    evolve(wf, RealField(np.zeros(g.n), g), PropagatorConfig(1e-3, 2, 2), [])
    assert grid._helper is not None
    pids = _forks(monkeypatch)
    ScenarioRun(_scenario("free_gaussian")).verify()
    assert len(pids) == 1
