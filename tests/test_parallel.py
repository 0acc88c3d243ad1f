"""`run_scenarios`: the builtin suite in forked worker processes."""

import os
import subprocess
import sys
from concurrent import futures
from dataclasses import replace

import pytest

import madelung
from madelung import cli, harness
from madelung.cli import EXIT_NUMERICAL, EXIT_USAGE, EXIT_WORKER, main
from madelung.grid import NonFiniteFieldError
from madelung.harness import (
    GridSpec,
    builtin_scenarios,
    run_scenario,
    run_scenarios,
    scenario_by_name,
)

fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _count_pools(monkeypatch):
    created = []

    class Counted(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(args[0] if args else kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Counted)
    return created


def _no_pool(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("no executor expected")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", forbidden)


@fork_only
def test_pooled_payloads_equal_serial_ones(monkeypatch):
    scenarios = builtin_scenarios()
    serial = [run_scenario(s).payload() for s in scenarios]
    _cpus(monkeypatch, 2)
    created = _count_pools(monkeypatch)
    pooled = [r.payload() for r in run_scenarios(scenarios)]
    assert created == [2]
    assert pooled == serial


@fork_only
def test_reports_come_from_workers_in_input_order(monkeypatch):
    _cpus(monkeypatch, 3)
    created = _count_pools(monkeypatch)
    monkeypatch.setattr(harness, "run_scenario", lambda s: (s.name, os.getpid()))
    scenarios = builtin_scenarios()
    out = list(run_scenarios(scenarios))
    assert created == [3]
    assert [name for name, _ in out] == [s.name for s in scenarios]
    assert os.getpid() not in {pid for _, pid in out}


@pytest.mark.parametrize("cpus, n_scenarios", [(1, 7), (4, 1), (4, 0)])
def test_one_worker_creates_no_executor(monkeypatch, cpus, n_scenarios):
    _cpus(monkeypatch, cpus)
    _no_pool(monkeypatch)
    monkeypatch.setattr(harness, "run_scenario", lambda s: (s.name, os.getpid()))
    scenarios = builtin_scenarios()[:n_scenarios]
    assert list(run_scenarios(scenarios)) == [(s.name, os.getpid()) for s in scenarios]


def test_no_fork_runs_serially(monkeypatch):
    import multiprocessing

    _cpus(monkeypatch, 4)
    _no_pool(monkeypatch)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(harness, "run_scenario", lambda s: s.name)
    scenarios = builtin_scenarios()
    assert list(run_scenarios(scenarios)) == [s.name for s in scenarios]


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
    created = _count_pools(monkeypatch)
    pooled = _verify(monkeypatch, capsys, 2, names)
    assert created == [2]
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
    created = _count_pools(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        list(run_scenarios(builtin_scenarios()))
    assert created == [2]
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


def test_importing_the_package_loads_no_process_pool():
    code = ("import sys, madelung, madelung.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(madelung.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


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
