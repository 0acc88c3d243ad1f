"""`run_scenarios`: the builtin suite in forked worker processes."""

import contextlib
import os
import select
import signal
import subprocess
import sys
from dataclasses import replace

import pytest

import madelung
from madelung import cli, harness
from madelung.cli import EXIT_NUMERICAL, EXIT_USAGE, EXIT_WORKER, main
from madelung.grid import NonFiniteFieldError
from madelung.harness import (
    GridSpec,
    WorkerDiedError,
    builtin_scenarios,
    run_scenario,
    run_scenarios,
    scenario_by_name,
)

fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _forks(monkeypatch):
    """The pids of the children forked in this process from here on."""
    pids = []
    real_fork = os.fork

    def counted():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@fork_only
def test_pooled_payloads_equal_serial_ones(monkeypatch):
    scenarios = builtin_scenarios()
    serial = [run_scenario(s).payload() for s in scenarios]
    _cpus(monkeypatch, 2)
    pids = _forks(monkeypatch)
    pooled = [r.payload() for r in run_scenarios(scenarios)]
    assert len(pids) == 2
    assert pooled == serial
    _no_child_left()


@fork_only
def test_reports_come_from_workers_in_input_order(monkeypatch):
    _cpus(monkeypatch, 3)
    pids = _forks(monkeypatch)
    monkeypatch.setattr(harness, "run_scenario", lambda s: (s.name, os.getpid()))
    scenarios = builtin_scenarios()
    out = list(run_scenarios(scenarios))
    assert len(pids) == 3
    assert [name for name, _ in out] == [s.name for s in scenarios]
    assert {pid for _, pid in out} <= set(pids)


@pytest.mark.parametrize("cpus, n_scenarios", [(1, 7), (4, 1), (4, 0)])
def test_one_worker_forks_nothing(monkeypatch, cpus, n_scenarios):
    _cpus(monkeypatch, cpus)
    pids = _forks(monkeypatch)
    monkeypatch.setattr(harness, "run_scenario", lambda s: (s.name, os.getpid()))
    scenarios = builtin_scenarios()[:n_scenarios]
    assert list(run_scenarios(scenarios)) == [(s.name, os.getpid()) for s in scenarios]
    assert pids == []


def test_no_fork_runs_serially(monkeypatch):
    _cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(harness, "run_scenario", lambda s: (s.name, os.getpid()))
    scenarios = builtin_scenarios()
    assert list(run_scenarios(scenarios)) == [(s.name, os.getpid()) for s in scenarios]


def _verify(monkeypatch, capsys, cpus, names):
    _cpus(monkeypatch, cpus)
    rc = main(["verify", *names])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@fork_only
def test_a_failing_build_in_a_worker_exits_as_serially(monkeypatch, capsys):
    bouncer = scenario_by_name("quantum_bouncer")
    broken = replace(bouncer, name="broken", grid=GridSpec(0, -1.0, 1.0))
    monkeypatch.setattr(cli, "scenario_by_name",
                        lambda name: broken if name == "broken" else bouncer)
    names = ["quantum_bouncer", "broken", "quantum_bouncer"]
    serial = _verify(monkeypatch, capsys, 1, names)
    pids = _forks(monkeypatch)
    pooled = _verify(monkeypatch, capsys, 2, names)
    assert len(pids) == 2
    assert serial[0] == pooled[0] == EXIT_USAGE
    assert serial[2] == pooled[2] == "error: grid size must be a power of two >= 8, got 0\n"
    # the report before the failing scenario is printed either way; only
    # its runtime line differs
    assert _untimed(pooled[1]) == _untimed(serial[1])
    assert "scenario quantum_bouncer" in pooled[1]


def _untimed(out):
    return [line for line in out.splitlines() if "=>" not in line]


@fork_only
@pytest.mark.parametrize("exc, rc", [
    (NonFiniteFieldError("field contains non-finite entries"), EXIT_NUMERICAL),
    (KeyError("no scenario named 'x'"), EXIT_USAGE),
])
def test_worker_exceptions_keep_their_type(monkeypatch, capsys, exc, rc):
    def raising(scenario):
        raise exc

    monkeypatch.setattr(harness, "run_scenario", raising)
    serial = _verify(monkeypatch, capsys, 1, ["--all"])
    pooled = _verify(monkeypatch, capsys, 2, ["--all"])
    assert serial == pooled
    assert pooled[0] == rc


class _TwoArgumentError(Exception):
    """Pickles, but cannot be rebuilt: unpickling calls it with one argument."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


@fork_only
def test_an_exception_that_cannot_be_rebuilt_arrives_as_an_error(monkeypatch):
    def raising(scenario):
        raise _TwoArgumentError("bad state", scenario.name)

    monkeypatch.setattr(harness, "run_scenario", raising)
    _cpus(monkeypatch, 2)
    pids = _forks(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        list(run_scenarios(builtin_scenarios()))
    assert len(pids) == 2
    assert type(info.value) is RuntimeError  # not a WorkerDiedError
    assert str(info.value) == "_TwoArgumentError: bad state in plane_wave"


@fork_only
def test_scenarios_reach_workers_without_pickling(monkeypatch):
    # a lambda cannot be pickled; the scenarios must fail in the workers as
    # they fail serially, not in the pool's feeder (which can deadlock)
    unpicklable = [replace(s, state=replace(s.state, params={**s.state.params, "f": lambda: 0}))
                   for s in builtin_scenarios()]
    raised = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(TypeError) as info:
            list(run_scenarios(unpicklable))
        raised.append(str(info.value))
    assert raised[0] == raised[1]


@fork_only
def test_a_dead_worker_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(harness, "run_scenario", lambda s: os._exit(1))
    rc, out, err = _verify(monkeypatch, capsys, 2, ["--all"])
    assert rc == EXIT_WORKER
    assert err.startswith("error: worker pool broke before scenario 'plane_wave' finished: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == ""
    _no_child_left()


@fork_only
def test_a_dead_worker_names_the_scenario_it_held(monkeypatch):
    monkeypatch.setattr(harness, "run_scenario",
                        lambda s: os._exit(1) if s.name == "harmonic_ground" else s.name)
    _cpus(monkeypatch, 2)
    reports = []
    with pytest.raises(WorkerDiedError) as info:
        for report in run_scenarios(builtin_scenarios()):
            reports.append(report)
    assert reports == ["plane_wave", "free_gaussian", "moving_gaussian"]
    assert str(info.value).startswith(
        "worker pool broke before scenario 'harmonic_ground' finished: ")
    _no_child_left()


class Stop(Exception):
    pass


@fork_only
def test_no_worker_outlives_a_consumer_that_stops(monkeypatch):
    monkeypatch.setattr(harness, "run_scenario", lambda s: s.name)
    _cpus(monkeypatch, 2)
    pids = _forks(monkeypatch)
    reports = run_scenarios(builtin_scenarios())
    assert next(reports) == "plane_wave"
    reports.close()
    assert len(pids) == 2
    _no_child_left()
    with pytest.raises(Stop):
        for _ in run_scenarios(builtin_scenarios()):
            raise Stop
    assert len(pids) == 4
    _no_child_left()


_KILLED_CALLER = """
import os, time
from madelung import harness
os.sched_getaffinity = lambda pid: {0, 1}
fork = os.fork
def forked():  # prints the pid of each child
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = forked
"""


@fork_only
@pytest.mark.parametrize("work, n_workers", [
    # two workers that answered and wait for the next scenario
    ("harness.run_scenario = lambda s: s.name\n"
     "reports = harness.run_scenarios(harness.builtin_scenarios())\n"
     "next(reports)\n", 2),
    # one that writes an answer larger than a pipe holds
    ("worker = harness._Worker(lambda n: b'x' * n)\n"
     "worker.send(1 << 22)\n", 1),
], ids=["waiting", "answering"])
def test_a_killed_caller_leaves_no_worker_behind(work, n_workers):
    code = _KILLED_CALLER + work + "print('ready', flush=True)\ntime.sleep(600)\n"
    src = os.path.dirname(os.path.dirname(madelung.__file__))
    proc = subprocess.Popen([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    pids = []
    try:
        for line in proc.stdout:
            if line == "ready\n":
                break
            pids.append(int(line))
        assert len(pids) == n_workers
        proc.kill()  # no finally runs in it
        proc.wait()
        # the workers inherited its stdout: the pipe ends once the last has left
        assert select.select([proc.stdout], [], [], 20)[0], "a worker outlived its caller"
        assert proc.stdout.read() == ""
    finally:
        proc.kill()
        proc.stdout.close()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


@fork_only
def test_importing_the_package_loads_no_process_pool():
    # nor does running scenarios in forked workers, on two CPUs
    code = """
import os, sys, madelung, madelung.cli
def pools():
    return sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules)
print(pools())
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from madelung.harness import run_scenarios, scenario_by_name
names = ('moving_gaussian', 'quantum_bouncer')
print([r.scenario for r in run_scenarios(map(scenario_by_name, names))], len(forks), pools())
"""
    src = os.path.dirname(os.path.dirname(madelung.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n['moving_gaussian', 'quantum_bouncer'] 2 []\n"


def test_the_trajectory_and_harness_layers_load_at_first_use():
    code = ("import sys, madelung; "
            "layers = ('madelung.trajectories', 'madelung.harness'); "
            "print([m for m in layers if m in sys.modules]); "
            "from madelung import harness, trajectories; "
            "print(all(getattr(madelung, n) is getattr(sys.modules['madelung.' + m], n) "
            "for n, m in madelung._LAZY.items()))")
    src = os.path.dirname(os.path.dirname(madelung.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\nTrue\n"
    with pytest.raises(AttributeError, match="has no attribute 'FlowHistory'"):
        madelung.FlowHistory
