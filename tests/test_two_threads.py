"""The row-layout Strang loop (`grid._strang_rows`), on one thread or two,
gives the column form's bits."""

import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import madelung
from madelung import grid, propagator
from madelung.grid import RealField, make_grid
from madelung.harness import (
    CheckSpec,
    GridSpec,
    StateSpec,
    run_scenario,
    run_scenarios,
    scenario_by_name,
)
from madelung.potentials import PotentialSpec, evaluate_potential
from madelung.propagator import PropagatorConfig, evolve, step
from madelung.states import gaussian_packet

N_STEPS = 15  # 7 does not divide it: the last step is read apart from the snapshots


@pytest.fixture(autouse=True)
def _always_shared(monkeypatch):
    """The helper takes its half of every stage, however busy the machine is
    (the timing that decides otherwise has a test of its own)."""
    monkeypatch.setattr(grid._Helper, "rows",
                        lambda self, stage, n_rows, *args: self._share(stage, n_rows, args))


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _case(n, kind, constants):
    g = make_grid(n, -0.025 * n, 0.025 * n)
    wf = gaussian_packet(g, constants, 1.0, 1.0, 2.0)
    if kind == "free":
        U = RealField(np.zeros(n), g)
    elif kind == "harmonic":
        U = evaluate_potential(PotentialSpec("harmonic", omega=0.02), g, constants)
    else:
        table = RealField(0.5 * np.cos(0.3 * g.x), g)
        U = evaluate_potential(PotentialSpec("tabulated", table=table), g, constants)
    return wf, U


def _column_form(monkeypatch, run):
    """run() with every Strang loop in the column form."""
    with monkeypatch.context() as m:
        m.setattr(propagator, "_THREADED_MIN_N", 1 << 62)
        return run()


def _no_column_steps(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the column-form step ran")

    monkeypatch.setattr(propagator, "_apply", forbidden)


def _runs(wf, U):
    """Every state evolve hands out at three snapshot cadences, and step()."""
    out = []
    for every in (1, 7, N_STEPS):
        kept = []
        last = evolve(wf, U, PropagatorConfig(1e-3, N_STEPS, every),
                      [lambda t, w: kept.append((t, w.psi.values))])
        out.append((kept, last.psi.values))
    out.append(step(wf, U, 1e-3).psi.values)
    return out


def _same_bits(a, b):
    for (kept_a, last_a), (kept_b, last_b) in zip(a[:-1], b[:-1]):
        assert [t for t, _ in kept_a] == [t for t, _ in kept_b]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(kept_a, kept_b))
        assert np.array_equal(last_a, last_b)
    assert np.array_equal(a[-1], b[-1])


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("kind", ["free", "harmonic", "cosine_table"])
@pytest.mark.parametrize("n", [32768, 65536, 131072])
def test_the_row_loop_gives_the_column_form_bits(monkeypatch, n, kind, cpus, natural_units):
    wf, U = _case(n, kind, natural_units)
    column = _column_form(monkeypatch, lambda: _runs(wf, U))
    _cpus(monkeypatch, cpus)
    _no_column_steps(monkeypatch)
    _same_bits(_runs(wf, U), column)


def test_the_flow_stream_reads_every_state_of_the_row_loop(monkeypatch, natural_units):
    wf, U = _case(32768, "harmonic", natural_units)
    config = PropagatorConfig(1e-3, 9)
    column = _column_form(monkeypatch, lambda: list(propagator._states(wf, U, config)))
    _cpus(monkeypatch, 2)
    _no_column_steps(monkeypatch)
    rows = list(propagator._states(wf, U, config))
    assert len(rows) == len(column) == 10
    assert all(np.array_equal(a, b) for a, b in zip(rows, column))
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            assert not np.shares_memory(a, b)


def test_the_grid_size_alone_chooses_the_row_loop(monkeypatch, natural_units):
    assert grid._BLOCKED_MIN_N <= grid._THREADED_MIN_N == 32768
    real, sizes = propagator._strang_rows, []

    def counted(values, *args):
        sizes.append(values.size)
        return real(values, *args)

    monkeypatch.setattr(propagator, "_strang_rows", counted)
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        for n in (16384, 32768):
            wf, U = _case(n, "free", natural_units)
            step(wf, U, 1e-3)
    assert sizes == [32768, 32768]


def test_one_usable_cpu_starts_no_thread(monkeypatch, natural_units):
    wf, U = _case(65536, "cosine_table", natural_units)
    _cpus(monkeypatch, 2)
    threaded = _runs(wf, U)

    def no_helper():
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(grid, "_helper", None)
    monkeypatch.setattr(grid, "_Helper", no_helper)
    _cpus(monkeypatch, 1)
    _same_bits(_runs(wf, U), threaded)
    assert grid._helper is None


def test_a_failing_helper_half_reaches_the_caller(monkeypatch, natural_units):
    wf, U = _case(32768, "harmonic", natural_units)
    config = PropagatorConfig(1e-3, 6, 3)
    _cpus(monkeypatch, 2)
    before = evolve(wf, U, config).psi.values
    real = grid._kinetic_rows
    reached, stopped = threading.Event(), []

    def failing(rows, *args):
        if threading.current_thread() is threading.main_thread():
            assert reached.wait(timeout=60.0)  # the helper holds the other half
            real(rows, *args)
            stopped.append("caller")
        else:
            reached.set()
            raise FloatingPointError(f"helper rows from {rows.start}")

    monkeypatch.setattr(grid, "_kinetic_rows", failing)
    with pytest.raises(FloatingPointError, match=r"^helper rows from \d+$"):
        evolve(wf, U, config)
    assert stopped == ["caller"]  # the caller's half finished before the raise
    monkeypatch.setattr(grid, "_kinetic_rows", real)
    assert np.array_equal(evolve(wf, U, config).psi.values, before)


def _dies(stage, rows, args, done, result):
    raise SystemExit  # ends the helper thread, its half unanswered


def _in_time(fn, seconds=60.0):
    """fn() on a daemon thread, so that a caller left waiting fails the test
    rather than hanging it."""
    out = []

    def run():
        try:
            out.append(fn())
        except BaseException as exc:
            out.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still waiting after {seconds} s"
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


@pytest.mark.parametrize("when", ["idle", "in_a_stage"])
def test_the_caller_runs_the_half_of_a_dead_helper(monkeypatch, natural_units, when):
    wf, U = _case(32768, "harmonic", natural_units)
    config = PropagatorConfig(1e-3, 6, 3)
    column = _column_form(monkeypatch, lambda: evolve(wf, U, config).psi.values)
    _cpus(monkeypatch, 2)
    _no_column_steps(monkeypatch)
    # no helper thread may outlive the test beside the process's helper: a
    # later test would find it running, and harness._may_fork refuse to fork
    with monkeypatch.context() as m:
        m.setattr(threading, "excepthook", lambda args: None)  # a death is expected
        if when == "idle":  # the process's helper dies on a job it cannot unpack
            dead = grid._the_helper()
            dead._stages.put(None)
            dead._thread.join(timeout=60.0)
            assert not dead._thread.is_alive()
        else:  # a helper of the test's own dies holding the first stage's second half
            m.setattr(grid._Helper, "_run", staticmethod(_dies))
            m.setattr(grid, "_helper", None)
            dead = grid._the_helper()
        assert np.array_equal(_in_time(lambda: evolve(wf, U, config).psi.values), column)
        assert not dead._thread.is_alive() and grid._helper is None  # forgotten
    assert np.array_equal(evolve(wf, U, config).psi.values, column)
    assert grid._helper is not dead and grid._helper_alive()  # and another started


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_an_interrupt_in_the_callers_wait_lets_the_helper_half_finish(
        monkeypatch, natural_units):
    wf, U = _case(32768, "harmonic", natural_units)
    config = PropagatorConfig(1e-3, 6, 3)
    column = _column_form(monkeypatch, lambda: evolve(wf, U, config).psi.values)
    log = []

    def stage(rows, block):
        if rows.start:  # the helper's half: SIGINT reaches the caller as it waits
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.2)
            block[rows] = 1.0
            log.append("helper")

    block = np.zeros(8)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            grid._the_helper().rows(stage, 8, block)
    finally:
        signal.signal(signal.SIGINT, handler)
    assert log == ["helper"] and np.all(block[4:] == 1.0)
    _cpus(monkeypatch, 2)
    _no_column_steps(monkeypatch)
    for _ in range(3):  # later stages wait for their own halves
        assert np.array_equal(evolve(wf, U, config).psi.values, column)


def test_each_cycle_runs_the_stages_the_way_its_timed_windows_favour(monkeypatch):
    monkeypatch.undo()  # the real timing
    monkeypatch.setattr(grid, "_WINDOW", 2)
    monkeypatch.setattr(grid, "_RUN", 4)
    # the process's helper, at the start of a cycle: a helper of the test's
    # own would leave a second thread running, and no later fork would pass
    # harness._may_fork
    helper = grid._the_helper()
    monkeypatch.setattr(helper, "_cycle", 0)
    monkeypatch.setattr(helper, "_windows", [0.0, 0.0])
    main = threading.main_thread()
    ran = []

    def stage(rows, helper_extra):
        ran.append("alone" if rows == slice(0, 8) else "shared")
        # 5 ms a row, and more for a slow helper
        time.sleep(5e-3 * (rows.stop - rows.start)
                   + (helper_extra if threading.current_thread() is not main else 0.0))

    def cycle(helper_extra):
        ran.clear()
        for _ in range(8):
            helper.rows(stage, 8, helper_extra)
        return ran[:2], ran[2:6], ran[6:]

    alone, shared = ["alone"] * 2, ["shared"] * 4
    assert cycle(0.1) == (alone, shared, ["alone"] * 4)  # a slow helper loses
    assert cycle(0.0) == (alone, shared, ["shared"] * 8)  # a fast one wins
    assert cycle(0.1) == (alone, shared, ["alone"] * 4)


def test_callers_on_several_threads_share_the_helper(monkeypatch, natural_units):
    cases = [_case(32768, kind, natural_units) for kind in ("free", "harmonic", "cosine_table")]
    config = PropagatorConfig(1e-3, 8, 3)
    expected = _column_form(monkeypatch,
                            lambda: [evolve(wf, U, config).psi.values for wf, U in cases])
    _cpus(monkeypatch, 2)
    results = {}

    def caller(i):
        wf, U = cases[i % len(cases)]
        results[i] = evolve(wf, U, config).psi.values

    threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(6))
    for i, values in results.items():
        assert np.array_equal(values, expected[i % len(cases)]), i


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_starts_its_own_helper(monkeypatch, natural_units):
    wf, U = _case(32768, "free", natural_units)
    config = PropagatorConfig(1e-3, 4)
    _cpus(monkeypatch, 2)
    expected = evolve(wf, U, config).psi.values  # the parent's helper is running
    assert grid._helper is not None
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child answers 1 only if its bits are equal
        ok = False
        try:
            ok = np.array_equal(evolve(wf, U, config).psi.values, expected)
            ok = ok and grid._helper is not None
        finally:
            os.write(write, b"1" if ok else b"0")
            os._exit(0)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 60.0)
        answer = os.read(read, 1) if ready else b""
    finally:
        os.close(read)
        if not answer:
            os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert answer == b"1"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_pooled_reports_equal_serial_ones_after_the_helper_ran(monkeypatch):
    control = scenario_by_name("spreading_negative_control")
    wide = replace(control, name="wide_control", grid=GridSpec(32768, -1280.0, 1280.0),
                   state=StateSpec("gaussian", {"x0": 0.0, "sigma0": 0.5, "k0": 1.0}),
                   propagation=PropagatorConfig(1e-3, 40, 20),
                   checks=(CheckSpec("norm_drift", 1e-10), CheckSpec("energy_drift", 1e-8)))
    _cpus(monkeypatch, 2)
    serial = run_scenario(wide).payload()  # runs the two-thread loop here
    assert grid._helper is not None

    def no_helper():
        raise AssertionError("a pool worker started a helper thread")

    # the workers own one CPU each: they run the row loop on that one
    monkeypatch.setattr(grid, "_Helper", no_helper)
    pooled = [r.payload() for r in run_scenarios([wide, wide])]
    assert pooled == [serial, serial]
    assert serial["passed"]


def test_importing_the_cli_and_a_small_evolve_start_no_thread():
    code = (
        "import sys, threading, numpy as np, madelung, madelung.cli\n"
        "g = madelung.make_grid(512, -20.0, 20.0)\n"
        "wf = madelung.gaussian_packet(g, madelung.PhysicalConstants(), 0.0, 1.0, 1.0)\n"
        "U = madelung.RealField(np.zeros(g.n), g)\n"
        "madelung.evolve(wf, U, madelung.PropagatorConfig(1e-3, 20, 5))\n"
        "print(threading.active_count(), 'queue' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(madelung.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "1 False\n"
