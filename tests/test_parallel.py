"""`run_scenarios`: the builtin suite in forked worker processes."""

import contextlib
import errno
import io
import itertools
import os
import re
import select
import signal
import subprocess
import sys
from dataclasses import replace

import pytest

import madelung
from madelung import cli, harness
from madelung.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from madelung.grid import NonFiniteFieldError
from madelung.harness import (
    GridSpec,
    builtin_scenarios,
    run_scenario,
    run_scenarios,
    scenario_by_name,
)

fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _forks(monkeypatch, fails=lambda call: False):
    """The pids of the children forked in this process from here on; the
    fork calls that `fails` picks, numbered from 1, raise EAGAIN instead."""
    pids, calls = [], itertools.count(1)
    real_fork = os.fork

    def counted():
        if fails(next(calls)):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_here(monkeypatch, report, dies=lambda name: False):
    """run_scenario returns report(scenario), but ends the worker process that
    runs it on a scenario `dies` picks.  Gives the names of the scenarios it
    runs in the test process, as it runs them."""
    caller, here = os.getpid(), []

    def run(scenario):
        if os.getpid() == caller:
            here.append(scenario.name)
        elif dies(scenario.name):
            os._exit(1)
        return report(scenario)

    monkeypatch.setattr(harness, "run_scenario", run)
    return here


@pytest.fixture(scope="module")
def serial_payloads():
    """The builtins run one after another on two CPUs: each of the four with
    parcel-track checks judges its other checks in a forked child (the split
    verify), where a worker of `run_scenarios` judges them all on one CPU."""
    with pytest.MonkeyPatch.context() as m:
        _cpus(m, 2)
        pids = _forks(m)
        payloads = [run_scenario(s).payload() for s in builtin_scenarios()]
    assert len(pids) == 4
    return payloads


@fork_only
def test_pooled_payloads_equal_serial_ones(monkeypatch, serial_payloads):
    here = _run_here(monkeypatch, harness.run_scenario)
    _cpus(monkeypatch, 2)
    pids = _forks(monkeypatch)
    pooled = [r.payload() for r in run_scenarios(builtin_scenarios())]
    assert len(pids) == 2
    assert here == []  # every report came back from a worker
    assert pooled == serial_payloads
    _no_child_left()


@fork_only
@pytest.mark.parametrize("fails, n_children", [
    (lambda call: True, 0),  # no worker, and no split verify() in this process
    (lambda call: call == 2, 1),  # one worker runs every scenario
], ids=["every", "second"])
def test_a_fork_that_fails_leaves_the_serial_payloads(monkeypatch, serial_payloads, fails,
                                                      n_children):
    _cpus(monkeypatch, 2)
    pids = _forks(monkeypatch, fails)
    pooled = [r.payload() for r in run_scenarios(builtin_scenarios())]
    assert len(pids) == n_children
    assert pooled == serial_payloads
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
    return re.sub(r"\([0-9.]+s\)", "", out)


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
def test_an_exception_that_cannot_be_rebuilt_is_raised_as_serially(monkeypatch):
    def raising(scenario):
        raise _TwoArgumentError("bad state", scenario.name)

    monkeypatch.setattr(harness, "run_scenario", raising)
    _cpus(monkeypatch, 2)
    pids = _forks(monkeypatch)
    with pytest.raises(_TwoArgumentError) as info:
        list(run_scenarios(builtin_scenarios()))
    assert len(pids) == 2
    assert str(info.value) == "bad state in plane_wave"
    _no_child_left()


@fork_only
@pytest.mark.parametrize("arg", [0, "a value that does not pickle"])
def test_a_worker_ends_on_a_call_that_does_not_answer_a_value(arg):
    worker = harness._Worker(lambda x: 1.0 / x if isinstance(x, int) else (lambda: x))
    try:
        worker.send(2)
        assert worker.receive() == (0.5,)
        worker.send(arg)
        assert worker.receive() is None
    finally:
        worker.close()
    _no_child_left()


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


DIES = {"harmonic_ground": lambda name: name == "harmonic_ground", "every": lambda name: True}


@fork_only
@pytest.mark.parametrize("dies", sorted(DIES))
def test_a_scenario_whose_worker_died_runs_here(monkeypatch, dies):
    here = _run_here(monkeypatch, lambda s: (s.name, os.getpid()), DIES[dies])
    _cpus(monkeypatch, 2)
    pids = _forks(monkeypatch)
    scenarios = builtin_scenarios()
    out = list(run_scenarios(scenarios))
    assert len(pids) == 2
    assert [name for name, _ in out] == [s.name for s in scenarios]
    assert here == [s.name for s in scenarios if DIES[dies](s.name)]
    assert [name for name, pid in out if pid == os.getpid()] == here
    assert {pid for _, pid in out} <= {os.getpid(), *pids}
    _no_child_left()


def _untimed_json(path):
    with open(path) as fh:
        return [line for line in fh if '"runtime_seconds"' not in line]


@pytest.fixture(scope="module")
def serial_verify_all(tmp_path_factory):
    """main(["verify", "--all", "--json", ...]) on one CPU: its exit code,
    stdout and stderr, and its JSON report without runtimes."""
    out, err = io.StringIO(), io.StringIO()
    path = tmp_path_factory.mktemp("serial") / "verify.json"
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        _cpus(m, 1)
        rc = main(["verify", "--all", "--json", str(path)])
    return rc, out.getvalue(), err.getvalue(), _untimed_json(path)


@fork_only
@pytest.mark.parametrize("dies", sorted(DIES))
def test_a_dead_worker_leaves_verify_as_serial(monkeypatch, capsys, tmp_path, serial_verify_all,
                                               dies):
    serial = serial_verify_all
    here = _run_here(monkeypatch, harness.run_scenario, DIES[dies])
    path = tmp_path / "verify.json"
    pooled = _verify(monkeypatch, capsys, 2, ["--all", "--json", str(path)])
    assert here == [s.name for s in builtin_scenarios() if DIES[dies](s.name)]
    assert pooled[0] == serial[0] == EXIT_OK
    assert _untimed(pooled[1]) == _untimed(serial[1])
    assert pooled[2] == serial[2] == ""
    assert _untimed_json(path) == serial[3]
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
