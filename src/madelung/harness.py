"""Scenario registry and identity-check runner.

A Scenario names an initial state, a potential, a grid, optional propagation
and parcel-tracking segments, and a list of checks with per-scenario
tolerances.  run_scenario builds everything, evaluates each check (with two
CPUs, the parcel-track checks and the others in two processes), and returns
a VerificationReport; run_scenarios does that for many scenarios in forked
worker processes.  Both reach the second CPU through one primitive,
`_Worker`: a forked child that answers calls of one function over a pipe.
Checks are deterministic; expected failures (negative controls) are regular
checks whose pass rule is "measured above threshold".

Two density floors are in play.  Integral diagnostics run at floor_rel
(default 1e-12): quotient noise there is crushed by the density weight.
Pointwise route-comparison checks (the enthalpy identity, the linearity fit)
run at pointwise_floor_rel, because a double-precision density quotient at
rho ~ 1e-12 * max carries only ~4 significant digits, far short of the
1e-7-level tolerances those checks demand.
"""

from __future__ import annotations

import contextlib
import dataclasses
import numbers
import os
import pickle
import select
import signal
import threading
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .diagnostics import (
    BOHM_FORMS,
    bernoulli_residual,
    expectations,
    madelung_fields,
    nonspreading_residual,
)
from . import grid as grid_module
from .grid import Grid, NonFiniteFieldError, RealField, _usable_cpus, make_grid
from .potentials import PotentialSpec, evaluate_potential
from .propagator import PropagatorConfig, evolve, step
from .states import (
    DEFAULT_DENSITY_FLOOR,
    PhysicalConstants,
    WaveFunction,
    airy_packet,
    bouncer_eigenstate,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
)
from .trajectories import (
    DensityCdf,
    ParcelEnsemble,
    TrackFlow,
    _time_index,
    action_check,
    collect_flow,  # re-exported: the benchmark's tracer wraps harness.collect_flow
    continuity_residual,
    seed_parcels,
    track,
)

__all__ = [
    "GridSpec",
    "StateSpec",
    "RegionSpec",
    "TrajectoryConfig",
    "CheckSpec",
    "Scenario",
    "CheckResult",
    "VerificationReport",
    "ScenarioRun",
    "run_scenario",
    "run_scenarios",
    "builtin_scenarios",
    "scenario_by_name",
    "apply_overrides",
    "format_report",
]


@dataclass(frozen=True)
class GridSpec:
    n: int = 512
    x_min: float = -20.0
    x_max: float = 20.0

    def build(self) -> Grid:
        return make_grid(self.n, self.x_min, self.x_max)


_FACTORIES = {
    "gaussian": gaussian_packet,
    "plane_wave": plane_wave,
    "harmonic_ground": harmonic_ground_state,
    "airy": airy_packet,
    "bouncer": bouncer_eigenstate,
}


@dataclass(frozen=True)
class StateSpec:
    """Factory id plus keyword parameters."""

    factory: str
    params: dict

    def __post_init__(self):
        if self.factory not in _FACTORIES:
            raise ValueError(f"unknown state factory {self.factory!r}")

    def build(self, grid: Grid, constants: PhysicalConstants) -> WaveFunction:
        return _FACTORIES[self.factory](grid, constants, **self.params)


@dataclass(frozen=True)
class RegionSpec:
    """Diagnostic sub-region: keep a window, or exclude an interval."""

    kind: str  # "window" | "exclude"
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in ("window", "exclude"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ValueError(f"region bounds must be finite with lo < hi, "
                             f"got [{self.lo!r}, {self.hi!r}]")

    def build(self, grid: Grid) -> np.ndarray:
        if self.kind == "window":
            return (grid.x >= self.lo) & (grid.x <= self.hi)
        return ~((grid.x > self.lo) & (grid.x < self.hi))


@dataclass(frozen=True)
class TrajectoryConfig:
    n_parcels: int = 8
    duration: float = 0.5
    seed_lo: float | None = None   # restrict seeding to [seed_lo, seed_hi]
    seed_hi: float | None = None

    def __post_init__(self):
        if not (isinstance(self.n_parcels, (int, np.integer)) and self.n_parcels >= 1):
            raise ValueError(
                f"trajectories.n_parcels must be an integer >= 1, got {self.n_parcels!r}"
            )
        if not 0.0 < self.duration < np.inf:
            raise ValueError(
                f"trajectories.duration must be finite and > 0, got {self.duration!r}"
            )
        if (self.seed_lo is None) != (self.seed_hi is None):
            raise ValueError("trajectories.seed_lo and seed_hi must be set together")
        if self.seed_lo is not None and not self.seed_lo < self.seed_hi:
            raise ValueError(
                f"trajectories.seed_lo must be < seed_hi, got [{self.seed_lo!r}, {self.seed_hi!r}]"
            )


class _Mode(NamedTuple):  # how a check mode judges its tolerance
    pair: bool  # the tolerance is a (lo, hi) pair
    passes: Callable[[float, object], bool]  # (measured, tolerance) -> verdict
    bound: Callable[[object], str]  # the bound's text


_MODES = {
    "below": _Mode(False, lambda x, tol: x <= tol, lambda tol: f"<= {tol:g}"),
    # negative controls: the identity must be violated
    "above": _Mode(False, lambda x, tol: x > tol, lambda tol: f"> {tol:g}"),
    "range": _Mode(True, lambda x, tol: tol[0] <= x <= tol[1],
                   lambda tol: f"in [{tol[0]:g}, {tol[1]:g}]"),
}


@dataclass(frozen=True)
class CheckSpec:
    """One named check: measured value compared against a tolerance.

    mode "below": pass iff measured <= tolerance.
    mode "above": pass iff measured >  tolerance (negative controls).
    mode "range": pass iff lo <= measured <= hi, tolerance = (lo, hi).

    A check that judges snapshots measures the peak of its gap over
    ``times`` (None: every snapshot).  A NaN measurement fails in every mode.
    The spec is checked when built: a registered id, a known mode, a pair
    tolerance exactly for "range", real, non-NaN bounds with lo <= hi, and
    times, a tuple of real, non-NaN numbers, only on a check that takes them.
    """

    id: str
    tolerance: float | tuple[float, float]
    mode: str = "below"
    times: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.id not in _CHECKS:
            raise ValueError(f"unregistered check {self.id!r}")
        if self.mode not in _MODES:
            raise ValueError(f"check {self.id!r}: unknown mode {self.mode!r}, "
                             f"not one of {list(_MODES)}")
        tol, pair = self.tolerance, _MODES[self.mode].pair
        if isinstance(tol, tuple) != pair or (pair and len(tol) != 2):
            want = "a (lo, hi) pair" if pair else "one number"
            raise ValueError(f"check {self.id!r}: a {self.mode} tolerance is {want}, got {tol!r}")
        bounds = tol if pair else (tol,)
        real = all(isinstance(b, numbers.Real) and b == b for b in bounds)
        if not (real and bounds[0] <= bounds[-1]):
            raise ValueError(f"check {self.id!r}: tolerance bounds are real numbers, not NaN, "
                             f"with lo <= hi, got {tol!r}")
        if self.times is not None and not isinstance(_CHECKS[self.id], _PerSnapshot):
            raise ValueError(f"check {self.id!r} judges no snapshots, so it takes no times")
        if self.times is not None and not (isinstance(self.times, tuple) and all(
                isinstance(t, numbers.Real) and t == t for t in self.times)):
            raise ValueError(f"check {self.id!r}: times are a tuple of real numbers, not NaN, "
                             f"got {self.times!r}")


@dataclass(frozen=True)
class Scenario:
    name: str
    state: StateSpec
    potential: PotentialSpec = PotentialSpec("free")
    grid: GridSpec = GridSpec()
    propagation: PropagatorConfig | None = None  # None: diagnostic-only
    checks: tuple = ()
    constants: PhysicalConstants = PhysicalConstants()
    floor_rel: float = DEFAULT_DENSITY_FLOOR
    pointwise_floor_rel: float = 1e-6
    bohm_form: str = "amplitude"
    region: RegionSpec | None = None
    trajectories: TrajectoryConfig | None = None

    def __post_init__(self):
        ids = [c.id for c in self.checks]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate check ids in scenario {self.name!r}")
        if self.bohm_form not in BOHM_FORMS:
            raise ValueError(f"bohm_form must be one of {BOHM_FORMS}, got {self.bohm_form!r}")
        for name in ("floor_rel", "pointwise_floor_rel"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one check.  A check whose evaluation raised carries the
    message in ``error``, has no measured value, and fails."""

    id: str
    measured: float | None
    tolerance: float | tuple[float, float]
    mode: str
    passed: bool
    error: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    scenario: str
    checks: tuple
    grid: GridSpec
    dt: float | None
    n_steps: int | None
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        """Deterministic content (everything except wall-clock runtime)."""
        return {
            "scenario": self.scenario,
            "grid": {"n": self.grid.n, "x_min": self.grid.x_min, "x_max": self.grid.x_max},
            "dt": self.dt,
            "n_steps": self.n_steps,
            "passed": self.passed,
            "checks": [_check_payload(c) for c in self.checks],
        }

    def to_dict(self) -> dict:
        out = self.payload()
        out["runtime_seconds"] = self.runtime_seconds
        return out


def _check_payload(c: CheckResult) -> dict:
    out = {
        "id": c.id,
        "measured": c.measured,
        "tolerance": list(c.tolerance) if _MODES[c.mode].pair else c.tolerance,
        "mode": c.mode,
        "pass": c.passed,
    }
    if c.error is not None:
        out["error"] = c.error
    return out


_warned_serial = False  # whether _may_fork has warned in this process


def _may_fork() -> bool:
    """Whether os.fork exists and no thread runs beside this one but the
    Strang helper, idle while this thread is not in a Strang stage: a child
    forked while another thread holds a lock would wait on it forever.

    Callers ask only with two or more usable CPUs, so a refusal for other
    threads sends work serial that would have run on two; the first one in
    a process says so in a RuntimeWarning."""
    global _warned_serial
    if not hasattr(os, "fork"):
        return False
    others = threading.active_count() - 1 - grid_module._helper_alive()
    if others <= 0:
        return True
    if not _warned_serial:
        _warned_serial = True
        warnings.warn(f"the work runs serially: {others} other thread(s) running in this "
                      "process, and a forked worker could wait forever on a lock one holds",
                      RuntimeWarning, stacklevel=2)
    return False


class _Worker:
    """A forked child that answers fn(arg) for each arg sent to it, in turn,
    with the pickled 1-tuple (fn(arg),).  A call that raises, or whose value
    does not pickle, ends the child, so `receive` gives None: the caller
    then computes that value itself.  The child marks itself one-CPU and
    inherits fn, and all fn reads, by fork.  `close` kills and reaps it; a
    caller killed before it can close leaves no child waiting on the pipes."""

    def __init__(self, fn):  # OSError if no pipe or process can be made
        fds = [*os.pipe()]
        try:
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        inbox, self._requests, answers, outbox = fds
        if self.pid == 0:  # the child: it never returns
            try:
                # the caller's ends, closed here: once the caller is gone, the
                # child reads EOF or writes into a broken pipe, and leaves
                os.close(self._requests)
                os.close(answers)
                grid_module._in_pool_worker = True  # its Strang steps stay on one CPU
                inbox, outbox = os.fdopen(inbox, "rb"), os.fdopen(outbox, "wb")
                while True:  # until it is killed, or a call raises
                    outbox.write(pickle.dumps((fn(pickle.load(inbox)),), pickle.HIGHEST_PROTOCOL))
                    outbox.flush()
            finally:
                os._exit(1)
        os.close(inbox)
        os.close(outbox)
        self._answers = os.fdopen(answers, "rb")  # buffered: pickle.load reads one answer
        self.fileno = self._answers.fileno  # select() waits on the answers

    def send(self, arg) -> None:
        with contextlib.suppress(BrokenPipeError):  # a dead child: receive() says so
            os.write(self._requests, pickle.dumps(arg))

    def receive(self):  # the oldest answer not yet read; None if the child ended first
        with contextlib.suppress(Exception):
            return pickle.load(self._answers)

    def close(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self._requests)
        self._answers.close()


def _build(spec, build):
    """build() with numpy's warnings off; a result that overflows is a
    NonFiniteFieldError naming the spec it was built from."""
    try:
        with np.errstate(all="ignore"):
            return build()
    except (OverflowError, NonFiniteFieldError) as exc:
        raise NonFiniteFieldError(f"{spec} builds a field with non-finite entries") from exc


def _whole_steps(duration: float, dt: float) -> int:
    """duration / dt, which must be a whole number of steps, at least one,
    within a relative 1e-9 as sample times are."""
    steps = duration / dt
    n, lo = round(steps), max(1, int(steps))
    if n < 1 or abs(steps - n) > 1e-9 * steps:
        raise ValueError(f"duration {duration!r} is not a whole number of steps of dt {dt!r}; "
                         f"the nearest whole-step durations are {lo * dt:.12g} "
                         f"and {(lo + 1) * dt:.12g}")
    return n


class ScenarioRun:
    """Lazily evaluated artifacts of one scenario execution.

    Everything is computed on first use and kept (`_memo`), so the checks
    and the artifact writers read the same numbers:

    - the snapshots of the propagation and, per snapshot, its `expectations`
      report (`report_at`);
    - per snapshot, the scalars the pointwise checks take from the pointwise
      fields (`pointwise`: the enthalpy and non-spreading residuals, the
      peak |u| and |div u|), all taken in the one evaluation of the fields,
      which are then let go;
    - per snapshot, the peak one-step Bernoulli residual (`bernoulli_max`);
    - the main parcel track (`trajectory`, and `flow`: the seam flux at
      every whole step and `rho` at the steps `quantile_preservation` samples).

    A quantity whose computation raised keeps the exception instead, and
    every later reader gets it again, so it fails once, with one message.
    `verify` may judge some checks in a forked child; this run then keeps
    what the child computed, but not what raised there, which a later reader
    computes again.
    """

    def __init__(self, scenario: Scenario):
        if scenario.trajectories is not None and scenario.propagation is not None:
            duration, dt = scenario.trajectories.duration, scenario.propagation.dt
            if (_whole_steps(duration, dt) < 2
                    and any(c.id == "continuity_max" for c in scenario.checks)):
                raise ValueError(f"continuity_max needs a track of at least 2 steps "
                                 f"(3 recorded snapshots): trajectories.duration {duration!r} "
                                 f"must be >= 2 dt = {2 * dt:.12g}")
        self.scenario = scenario
        self.grid = scenario.grid.build()
        self.constants = scenario.constants
        p, state = scenario.potential, scenario.state
        self.U = _build(p, lambda: evaluate_potential(p, self.grid, self.constants))
        self.wf0 = _build(state, lambda: state.build(self.grid, self.constants))
        self.region_mask = (
            scenario.region.build(self.grid) if scenario.region is not None else None
        )
        self._memos: dict = {}  # key -> value, or the exception computing it raised

    def _memo(self, key, compute):
        """compute() once per key; an exception it raised is raised again on
        every read."""
        if key not in self._memos:
            try:
                self._memos[key] = compute()
            except Exception as exc:
                self._memos[key] = exc
        value = self._memos[key]
        if isinstance(value, Exception):
            # its frames would hold the computation's arrays, and a re-raise
            # would stack each reader's frames on them
            raise value.with_traceback(None)
        return value

    # -- state access ------------------------------------------------------

    def snapshots(self) -> list:
        return self._memo("snapshots", self._evolve)

    def _evolve(self) -> list:
        if self.scenario.propagation is None:
            return [(0.0, self.wf0)]
        snaps: list = []
        evolve(self.wf0, self.U, self.scenario.propagation,
               [lambda t, w: snaps.append((t, w))])
        return snaps

    def _snapshot_index(self, t: float) -> int:
        i = _time_index(self._memo("times", lambda: [ts for ts, _ in self.snapshots()]), t)
        if i is None:
            raise KeyError(f"no snapshot at t = {t!r} in scenario {self.scenario.name!r}")
        return i

    def state_at(self, t: float) -> WaveFunction:
        return self.snapshots()[self._snapshot_index(t)][1]

    def report_at(self, t: float):
        """The `expectations` report of snapshot t."""
        s, i = self.scenario, self._snapshot_index(t)
        ts, w = self.snapshots()[i]
        return self._memo(("report", i), lambda: expectations(
            w, self.U, s.floor_rel, t=ts, bohm_form=s.bohm_form))

    def reports(self) -> list:
        return [self.report_at(t) for t, _ in self.snapshots()]

    def pointwise(self, quantity: str, t: float) -> float:
        """A scalar of the pointwise fields at snapshot t: "enthalpy",
        "nonspreading", "u_max" or "div_u_max"."""
        scalars = self._memo(("pointwise", self._snapshot_index(t)),
                             lambda: self._pointwise_scalars(t))
        if isinstance(scalars[quantity], Exception):
            raise scalars[quantity].with_traceback(None)
        return scalars[quantity]

    def _pointwise_scalars(self, t: float) -> dict:
        # the scalars are small, the fields are not: keeping only the
        # scalars keeps memory flat in the number of snapshots
        fields = madelung_fields(self.state_at(t), self.scenario.pointwise_floor_rel,
                                 bohm_form=self.scenario.bohm_form, region_mask=self.region_mask)
        out = {}
        for quantity, fn in _POINTWISE.items():
            try:
                out[quantity] = fn(self, fields)
            except Exception as exc:  # judged by the check that reads it
                out[quantity] = exc.with_traceback(None)  # its frames hold the fields
        return out

    def bernoulli_max(self, t: float) -> float:
        """Peak |Bernoulli residual| over one propagation step from snapshot t."""
        s = self.scenario
        return self._memo(("bernoulli", self._snapshot_index(t)), lambda: _bernoulli_peak(
            self.state_at(t), self.U, s.propagation.dt, s.floor_rel, s.bohm_form))

    # -- trajectory machinery ---------------------------------------------

    def _seed_density(self) -> RealField:
        cfg, floor_rel = self.scenario.trajectories or TrajectoryConfig(), self.scenario.floor_rel
        rho = self.wf0.density()
        if cfg.seed_lo is None:
            return rho
        keep = (self.grid.x >= cfg.seed_lo) & (self.grid.x <= cfg.seed_hi)
        if not np.any(rho.values[keep] >= floor_rel * rho.values.max()):
            raise ValueError(f"the seeding window seed_lo = {cfg.seed_lo!r}, seed_hi = "
                             f"{cfg.seed_hi!r} holds no density at or above floor_rel = "
                             f"{floor_rel!r} times the peak")
        return RealField(np.where(keep, rho.values, 0.0), self.grid)

    def track(self, dt: float, duration: float) -> tuple[TrackFlow, ParcelEnsemble]:
        """`trajectories.track` of this run's parcels over `duration` at step
        dt; they are seeded first, so a seeding failure costs no propagation."""
        n = _whole_steps(duration, dt)
        cfg = self.scenario.trajectories or TrajectoryConfig()
        ens = seed_parcels(self._seed_density(), cfg.n_parcels)
        return track(self.wf0, self.U, dt, n, ens, self.scenario.floor_rel,
                     self.scenario.bohm_form)

    def _main_track(self) -> tuple[TrackFlow, ParcelEnsemble]:
        cfg = self.scenario.trajectories
        if cfg is None:
            raise ValueError(f"scenario {self.scenario.name!r} has no trajectory config")
        dt = self.scenario.propagation.dt
        return self._memo("track", lambda: self.track(dt, cfg.duration))

    def trajectory(self) -> ParcelEnsemble:
        return self._main_track()[1]

    def flow(self) -> TrackFlow:
        """What the main track kept of its flow (see `track`)."""
        return self._main_track()[0]

    # -- verification ------------------------------------------------------

    def _held(self, key):
        """The memo of key if it was computed without raising, else None."""
        value = self._memos.get(key)
        return None if isinstance(value, Exception) else value

    def verify(self) -> VerificationReport:
        """Evaluate every configured check on this run.

        A check that raises becomes a failed verdict carrying the message;
        the remaining checks still run.  With two or more usable CPUs and
        `_may_fork`, a scenario with checks on the main parcel track
        (`_TRACK_CHECKS`) and others judges the former here, which keeps the
        track, and the latter in a `_Worker`, which sends back its verdicts
        and the quantities it computed without error (snapshots, reports,
        pointwise scalars, Bernoulli peaks) for this run to keep.  The
        verdicts, in spec order, and every quantity are the same as when one
        process judges them all; if the child dies or raises, or cannot be
        forked, its checks are judged here.
        """
        scenario = self.scenario
        start = time.perf_counter()
        here = [spec for spec in scenario.checks if spec.id in _TRACK_CHECKS]
        there = [spec for spec in scenario.checks if spec.id not in _TRACK_CHECKS]
        if here and there and _usable_cpus() >= 2 and _may_fork():
            judged = {r.id: r for r in self._judge_forked(here, there)}
            results = tuple(judged[spec.id] for spec in scenario.checks)
        else:
            results = tuple(self._judge(scenario.checks))
        prop = scenario.propagation
        return VerificationReport(
            scenario=scenario.name,
            checks=results,
            grid=scenario.grid,
            dt=prop.dt if prop else None,
            n_steps=prop.n_steps if prop else None,
            runtime_seconds=time.perf_counter() - start,
        )

    def _judge(self, specs) -> list:
        results = []
        for spec in specs:
            try:
                measured, error = float(_CHECKS[spec.id](self, spec)), None
            except Exception as exc:
                # a KeyError's str() is the repr of its message; print it as cli.main does
                message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
                measured, error = None, f"{type(exc).__name__}: {message}"
            passed = error is None and _MODES[spec.mode].passes(measured, spec.tolerance)
            results.append(CheckResult(spec.id, measured, spec.tolerance, spec.mode,
                                       passed, error))
        return results

    def _judge_forked(self, here, there) -> list:
        """The verdicts of `here`, judged in this process, then of `there`,
        judged in a `_Worker` forked for them (see `verify`)."""

        def judge_there(_):
            known = set(self._memos)
            return self._judge(there), {key: value for key, value in self._memos.items()
                                        if key not in known and not isinstance(value, Exception)}

        try:
            worker = _Worker(judge_there)
        except OSError:  # no process to spare: judge them all here
            return self._judge(here) + self._judge(there)
        try:  # whatever the caller raises, no child outlives this call
            worker.send(None)
            results = self._judge(here)
            answer = worker.receive()
        finally:
            worker.close()
        if answer is None:  # the child died, raised, or its value did not pickle
            return results + self._judge(there)
        theirs, memos = answer[0]
        for key, value in memos.items():
            self._memos.setdefault(key, value)
        return results + theirs


# -- check evaluators -------------------------------------------------------


def _peak(values) -> float:
    """The largest of values, NaN if any is NaN; no values is an error, not a pass."""
    values = np.fromiter(values, dtype=float)
    if values.size == 0:
        raise ValueError("nothing to judge (an empty times list?)")
    return float(np.max(values))


class _PerSnapshot(NamedTuple):
    """A check that judges snapshots: the peak of its gap over spec.times (None: all)."""

    gap: Callable[[ScenarioRun, float], float]  # (run, t) -> the gap at snapshot t

    def __call__(self, run: ScenarioRun, spec: CheckSpec) -> float:
        times = [t for t, _ in run.snapshots()] if spec.times is None else spec.times
        return _peak(self.gap(run, t) for t in times)


def _energy_drift_gap(run, t):
    e0 = run.report_at(0.0).E
    return abs(run.report_at(t).E - e0) / max(abs(e0), 1e-300)


def _bohm_fisher_gap(run, t):
    r, c = run.report_at(t), run.constants
    pref = 0.5 * (c.hbar / (2.0 * c.mass)) ** 2
    return abs(r.Q - pref * r.FI) / max(1.0, r.FI)


def _pressure_internal_gap(run, t):
    r = run.report_at(t)
    return abs(r.Pi_integral - 2.0 * r.I) / max(1.0, r.I)


def _forms_gap(run, t):
    r = run.report_at(t)
    return abs(r.E - r.E_hamiltonian)


def _enthalpy_residual(run, fields) -> float:
    mask = fields.valid_mask
    floor = run.scenario.pointwise_floor_rel * fields.rho.values.max()
    rho_f = np.maximum(fields.rho.values, floor)
    resid = fields.Q_tilde.values + fields.internal_density.values - fields.Pi.values / rho_f
    q_max = float(np.max(np.abs(fields.Q_tilde.values[mask])))
    c = run.constants
    scale = max(q_max, (c.hbar / (2.0 * c.mass)) ** 2 / run.grid.length**2)
    return float(np.max(np.abs(resid[mask])) / scale)


_POINTWISE = {
    "enthalpy": _enthalpy_residual,
    "nonspreading": lambda run, f: nonspreading_residual(f, run.U),
    "u_max": lambda run, f: float(np.max(np.abs(f.u.values[f.valid_mask]))),
    "div_u_max": lambda run, f: float(np.max(np.abs(f.div_u.values[f.valid_mask]))),
}


def _density_moments(w: WaveFunction):
    rho = w.density().values
    x = w.grid.x
    dx = w.grid.dx
    total = np.sum(rho) * dx
    mean = np.sum(rho * x) * dx / total
    var = np.sum(rho * (x - mean) ** 2) * dx / total
    return mean, np.sqrt(var)


def _spreading_gap(run, t):
    sigma0 = run.scenario.state.params["sigma0"]
    hbar, m = run.constants.hbar, run.constants.mass
    _, std = _density_moments(run.state_at(t))
    exact = sigma0 * np.sqrt(1.0 + (hbar * t / (2.0 * m * sigma0**2)) ** 2)
    return abs(std / exact - 1.0)


def _drift_gap(run, t):
    c = run.constants
    mean0, _ = _density_moments(run.state_at(0.0))
    mean1, _ = _density_moments(run.state_at(t))
    return abs((mean1 - mean0) - c.hbar * run.scenario.state.params["k0"] * t / c.mass)


def _bernoulli_peak(w, U, dt, floor_rel, bohm_form) -> float:
    """Peak |Bernoulli residual| over one step of size dt from state w."""
    r = bernoulli_residual(w, step(w, U, dt), U, dt, floor_rel, bohm_form=bohm_form)
    return float(np.max(np.abs(r.values)))


def _check_bernoulli_order(run, spec):
    # measured above the pointwise floor: the far-mask-edge spatial noise is
    # dt-independent and would cap the ratio once dt gets small
    dt = run.scenario.propagation.dt
    floor = run.scenario.pointwise_floor_rel
    w, U, form = run.wf0, run.U, run.scenario.bohm_form
    return _bernoulli_peak(w, U, dt, floor, form) / _bernoulli_peak(w, U, dt / 2.0, floor, form)


def _check_propagator_order(run, spec):
    dt = run.scenario.propagation.dt
    n = _whole_steps(0.5, dt)  # the study's duration

    def final_values(k):  # after n k steps of dt / k, so every run ends at n dt
        return evolve(run.wf0, run.U, PropagatorConfig(dt / k, n * k, n * k), []).psi.values

    def err(k):
        a, b = final_values(k), final_values(4 * k)
        return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * run.grid.dx))

    return err(1) / err(2)


def _check_continuity(run, spec):
    return float(continuity_residual(run.trajectory()).max())


def _head(ens: ParcelEnsemble, m: int) -> ParcelEnsemble:
    """The first m records of a trajectory, as the ensemble a track ending there gives."""
    rows = {f.name: getattr(ens, f.name)[:m] for f in dataclasses.fields(ens)
            if f.name == "times" or f.name.endswith("_records")}
    return replace(ens, positions=ens.x_records[m - 1].copy(), **rows)


def _check_continuity_order(run, spec):
    dt, duration = run.scenario.propagation.dt, 0.25
    n = _whole_steps(duration, dt)
    # Seeding, flow collection and advection go step by step the same way
    # whatever the run length, so track(dt, duration) is a bit-identical
    # prefix of the main trajectory whenever that one covers it.
    # It is sliced only when the run holds it: the main track is the caller's
    # work when verify() splits, and a failed one is not taken again.
    cfg, main = run.scenario.trajectories, run._held("track")
    if main is not None and n <= _whole_steps(cfg.duration, dt):
        coarse = _head(main[1], n + 1)
    else:
        coarse = run.track(dt, duration)[1]
    fine = run.track(dt / 2.0, duration)[1]
    return float(continuity_residual(coarse).max() / continuity_residual(fine).max())


def _check_quantile_preservation(run, spec):
    """Mass to the left of each parcel, corrected for the probability flux
    wrapping through the periodic seam (nonzero only for traveling waves)."""
    traj, flow = run.trajectory(), run.flow()
    times, seam_flux = traj.times, flow.seam_flux
    flux_int = np.concatenate(
        ([0.0], np.cumsum(0.5 * (seam_flux[1:] + seam_flux[:-1]) * np.diff(times)))
    )
    gaps = []
    for i, rho in zip(flow.cdf_steps, flow.rho, strict=True):
        cdf = DensityCdf(rho)
        drift = cdf.value(traj.x_records[i]) / cdf.total - flux_int[i] / cdf.total - traj.quantiles
        gaps.append(np.abs(drift - np.round(drift)))
    return _peak(np.concatenate(gaps))


def _check_action_identity(run, spec):
    traj = run.trajectory()
    gaps = action_check(traj)
    d_s = np.abs(traj.S_records[-1, :] - traj.S_records[0, :])
    return float(np.max(gaps / np.maximum(1.0, d_s)))


def _check_parcel_displacement(run, spec):
    # a plane wave's parcels move at u = hbar k / m, k = 2 pi mode / L
    traj = run.trajectory()
    length = run.grid.length
    c = run.constants
    k = 2.0 * np.pi * run.scenario.state.params["mode_index"] / length
    expected = c.hbar * k / c.mass * (traj.times[-1] - traj.times[0]) % length
    disp = np.mod(traj.x_records[-1, :] - traj.x_records[0, :], length)
    return float(np.max(np.abs(disp - expected)))


def _check_parcel_stationary(run, spec):
    traj = run.trajectory()
    return float(np.max(np.abs(traj.x_records - traj.x_records[0:1, :])))


def _check_parcel_density_constancy(run, spec):
    traj = run.trajectory()
    return float(np.max(np.ptp(traj.ln_rho_records, axis=0)))


def _check_incompressibility_scaled(run, spec):
    traj = run.trajectory()
    u_max = float(np.max(np.abs(traj.u_records)))
    div_max = float(np.max(np.abs(traj.div_u_records)))
    return div_max * run.grid.length / max(u_max, 1e-300)


def _check_incompressibility_parcels(run, spec):
    return float(np.max(np.abs(run.trajectory().div_u_records)))


def _peak_position(run, w: WaveFunction) -> float:
    rho = w.density().values
    search = np.where(run.region_mask, rho, 0.0) if run.region_mask is not None else rho
    j = int(np.argmax(search))
    grid = run.grid
    jm, jp = (j - 1) % grid.n, (j + 1) % grid.n
    denom = rho[jm] - 2.0 * rho[j] + rho[jp]
    if denom == 0.0:
        return float(grid.x[j])
    return float(grid.x[j] + 0.5 * grid.dx * (rho[jm] - rho[jp]) / denom)


def _peak_tracking_gap(run, t):
    hbar, m = run.constants.hbar, run.constants.mass
    B = run.scenario.state.params["scale_B"]
    accel = hbar**2 * B**3 / (4.0 * m**2)
    x0 = _peak_position(run, run.state_at(0.0))
    return abs((_peak_position(run, run.state_at(t)) - x0) - accel * t * t)


def _check_density_node_at_wall(run, spec):
    rho = run.wf0.density().values
    j = int(np.argmin(np.abs(run.grid.x)))
    return float(rho[j] / rho.max())


_CHECKS = {
    "norm_drift": _PerSnapshot(lambda run, t: abs(run.report_at(t).norm - 1.0)),
    "energy_drift": _PerSnapshot(_energy_drift_gap),
    "energy_forms_gap": _PerSnapshot(_forms_gap),
    "bohm_fisher_identity": _PerSnapshot(_bohm_fisher_gap),
    "pressure_internal_identity": _PerSnapshot(_pressure_internal_gap),
    "fisher_score_zero": _PerSnapshot(lambda run, t: abs(run.report_at(t).vi_mean)),
    "acceleration_zero": _PerSnapshot(lambda run, t: abs(run.report_at(t).accel)),
    "enthalpy_pointwise": _PerSnapshot(lambda run, t: run.pointwise("enthalpy", t)),
    "nonspreading": _PerSnapshot(lambda run, t: run.pointwise("nonspreading", t)),
    "nonspreading_evolved": _PerSnapshot(lambda run, t: run.pointwise("nonspreading", t)),
    "nonspreading_violated": _PerSnapshot(lambda run, t: run.pointwise("nonspreading", t)),
    "spreading_law": _PerSnapshot(_spreading_gap),
    "drift_law": _PerSnapshot(_drift_gap),
    "bernoulli_max": _PerSnapshot(lambda run, t: run.bernoulli_max(t)),
    "bernoulli_order": _check_bernoulli_order,
    "propagator_order": _check_propagator_order,
    "continuity_max": _check_continuity,
    "continuity_order": _check_continuity_order,
    "quantile_preservation": _check_quantile_preservation,
    "action_identity": _check_action_identity,
    "parcel_displacement": _check_parcel_displacement,
    "parcel_stationary": _check_parcel_stationary,
    "parcel_density_constancy": _check_parcel_density_constancy,
    "incompressibility_scaled": _check_incompressibility_scaled,
    "incompressibility_parcels": _check_incompressibility_parcels,
    "incompressibility_field": _PerSnapshot(lambda run, t: run.pointwise("div_u_max", t)),
    "density_peak_tracking": _PerSnapshot(_peak_tracking_gap),
    "density_node_at_wall": _check_density_node_at_wall,
    "velocity_zero": _PerSnapshot(lambda run, t: run.pointwise("u_max", t)),
}

# The checks that read the main parcel track: a split verify() judges them in
# the caller, which keeps the track for trajectories.csv.
_TRACK_CHECKS = frozenset({
    "continuity_max", "quantile_preservation", "action_identity", "parcel_displacement",
    "parcel_stationary", "parcel_density_constancy", "incompressibility_scaled",
    "incompressibility_parcels",
})


def run_scenario(scenario: Scenario) -> VerificationReport:
    """Execute one scenario and evaluate all of its configured checks."""
    return ScenarioRun(scenario).verify()


def run_scenarios(scenarios):
    """Yield `run_scenario(s)` for each scenario, in input order.

    Scenarios share nothing, so they run in forked `_Worker`s, one per usable
    CPU and at most one per scenario, each handed the next scenario when it
    answers; with fewer than two, or if `_may_fork` says no, none is forked.
    A worker inherits the scenarios by fork and looks `run_scenario` up at
    each call.  A scenario no worker answered (its worker died or raised, or
    no worker could be forked) runs here when its turn comes, so the
    reports, and any exception raised, are those of a serial run.  However
    the generator ends, every worker is killed and reaped.
    """
    scenarios = list(scenarios)
    n_workers = min(len(scenarios), _usable_cpus())
    workers, held, answers = [], {}, {}  # held: worker -> index; answers: index -> (report,)
    try:
        for _ in range(n_workers if n_workers >= 2 and _may_fork() else 0):
            with contextlib.suppress(OSError):  # no process to spare: one worker fewer
                workers.append(_Worker(lambda i: run_scenario(scenarios[i])))
        queue = iter(range(len(scenarios)))
        for worker, i in zip(workers, queue):
            worker.send(i)
            held[worker] = i
        for i, scenario in enumerate(scenarios):
            while i in held.values():
                for worker in select.select(list(held), [], [])[0]:
                    answers[held.pop(worker)] = answer = worker.receive()
                    if answer is not None and (j := next(queue, None)) is not None:
                        worker.send(j)
                        held[worker] = j
            answer = answers.pop(i, None)
            yield answer[0] if answer is not None else run_scenario(scenario)
    finally:
        for worker in workers:
            worker.close()


# -- builtin scenarios -------------------------------------------------------

_IDENTITY_CHECKS = (
    CheckSpec("bohm_fisher_identity", 1e-10),
    CheckSpec("pressure_internal_identity", 1e-10),
    CheckSpec("enthalpy_pointwise", 1e-7),
    CheckSpec("fisher_score_zero", 1e-10),
    CheckSpec("acceleration_zero", 1e-8),
    CheckSpec("energy_drift", 1e-8),
    CheckSpec("energy_forms_gap", 1e-9),
    CheckSpec("norm_drift", 1e-10),
)


def builtin_scenarios() -> list:
    """The seven canonical scenarios, in registry order."""
    dt = 1e-3
    scenarios = [
        Scenario(
            name="plane_wave",
            state=StateSpec("plane_wave", {"mode_index": 8}),
            propagation=PropagatorConfig(dt, 1000, 100),
            trajectories=TrajectoryConfig(n_parcels=4, duration=1.0),
            checks=_IDENTITY_CHECKS
            + (
                CheckSpec("bernoulli_max", 1e-5),
                CheckSpec("continuity_max", 1e-10),
                CheckSpec("action_identity", 1e-4),
                CheckSpec("quantile_preservation", 1e-4),
                CheckSpec("parcel_displacement", 1e-9),
                CheckSpec("incompressibility_scaled", 1e-6),
            ),
        ),
        Scenario(
            name="free_gaussian",
            state=StateSpec("gaussian", {"x0": 0.0, "sigma0": 1.0, "k0": 0.0}),
            propagation=PropagatorConfig(dt, 2000, 100),
            trajectories=TrajectoryConfig(n_parcels=8, duration=0.5),
            checks=_IDENTITY_CHECKS
            + (
                CheckSpec("spreading_law", 1e-4, times=(0.5, 1.0, 2.0)),
                CheckSpec("nonspreading_violated", 1e-2, mode="above", times=(1.0,)),
                CheckSpec("continuity_max", 1e-4),
                CheckSpec("continuity_order", 3.5, mode="above"),
                CheckSpec("quantile_preservation", 1e-4),
                CheckSpec("action_identity", 1e-4),
            ),
        ),
        Scenario(
            name="moving_gaussian",
            state=StateSpec("gaussian", {"x0": -2.0, "sigma0": 1.0, "k0": 2.0}),
            propagation=PropagatorConfig(dt, 1000, 100),
            checks=_IDENTITY_CHECKS
            + (
                CheckSpec("drift_law", 1e-6, times=(1.0,)),
                CheckSpec("spreading_law", 1e-4, times=(0.5, 1.0)),
            ),
        ),
        Scenario(
            name="harmonic_ground",
            state=StateSpec("harmonic_ground", {"omega": 1.0}),
            potential=PotentialSpec("harmonic", omega=1.0),
            propagation=PropagatorConfig(dt, 1000, 100),
            trajectories=TrajectoryConfig(n_parcels=8, duration=0.5),
            checks=_IDENTITY_CHECKS
            + (
                CheckSpec("nonspreading", 1e-6, times=(0.0,)),
                CheckSpec("nonspreading_evolved", 1e-5, times=(0.5, 1.0)),
                CheckSpec("bernoulli_max", 1e-5),
                CheckSpec("bernoulli_order", (3.5, 4.5), mode="range"),
                CheckSpec("propagator_order", (3.5, 4.5), mode="range"),
                CheckSpec("velocity_zero", 1e-10, times=(0.0,)),
                CheckSpec("parcel_stationary", 1e-7),
                CheckSpec("continuity_max", 1e-10),
                CheckSpec("action_identity", 1e-4),
            ),
        ),
        Scenario(
            name="airy_packet",
            state=StateSpec("airy", {"scale_B": 1.0, "t": 0.0}),
            propagation=PropagatorConfig(dt, 1000, 250),
            pointwise_floor_rel=1e-3,
            bohm_form="wavefunction",
            region=RegionSpec("window", -10.0, 10.0),
            trajectories=TrajectoryConfig(
                n_parcels=6, duration=0.2, seed_lo=-8.0, seed_hi=2.0
            ),
            checks=(
                CheckSpec("norm_drift", 1e-10),
                CheckSpec("energy_drift", 1e-8),
                CheckSpec("energy_forms_gap", 1e-9),
                CheckSpec("fisher_score_zero", 1e-10),
                CheckSpec("enthalpy_pointwise", 1e-7, times=(0.0,)),
                CheckSpec("nonspreading", 1e-3, times=(0.0,)),
                CheckSpec("incompressibility_field", 1e-8, times=(0.0,)),
                CheckSpec("density_peak_tracking", 2e-3, times=(0.5, 1.0)),
                CheckSpec("parcel_density_constancy", 1e-3),
                CheckSpec("incompressibility_parcels", 1e-6),
            ),
        ),
        Scenario(
            name="quantum_bouncer",
            state=StateSpec("bouncer", {"g": 1.0}),
            potential=PotentialSpec("abs_linear", g=1.0),
            grid=GridSpec(4096, -20.0, 20.0),
            pointwise_floor_rel=1e-4,
            bohm_form="wavefunction",
            region=RegionSpec("exclude", -0.3, 0.3),
            checks=(
                CheckSpec("norm_drift", 1e-10),
                CheckSpec("density_node_at_wall", 1e-12),
                CheckSpec("velocity_zero", 1e-10),
                CheckSpec("nonspreading", 1e-6, times=(0.0,)),
                CheckSpec("enthalpy_pointwise", 1e-7, times=(0.0,)),
                CheckSpec("fisher_score_zero", 1e-10),
                CheckSpec("energy_forms_gap", 1e-9),
            ),
        ),
        Scenario(
            name="spreading_negative_control",
            state=StateSpec("gaussian", {"x0": 0.0, "sigma0": 0.5, "k0": 0.0}),
            propagation=PropagatorConfig(dt, 1000, 250),
            checks=(
                CheckSpec("norm_drift", 1e-10),
                CheckSpec("energy_drift", 1e-8),
                CheckSpec("energy_forms_gap", 1e-9),
                CheckSpec("bohm_fisher_identity", 1e-10),
                CheckSpec("pressure_internal_identity", 1e-10),
                CheckSpec("enthalpy_pointwise", 1e-7),
                CheckSpec("fisher_score_zero", 1e-10),
                CheckSpec("nonspreading_violated", 1e-2, mode="above", times=(1.0,)),
            ),
        ),
    ]
    return scenarios


def scenario_by_name(name: str) -> Scenario:
    for s in builtin_scenarios():
        if s.name == name:
            return s
    raise KeyError(f"unknown scenario {name!r}")


# -- overrides ---------------------------------------------------------------


# the settable keys: "section.field" sets a field of a section, a bare key a
# field of the scenario; state.<param> is apart
_OVERRIDES = (
    "grid.n", "grid.x_min", "grid.x_max",
    "propagation.dt", "propagation.n_steps", "propagation.snapshot_every",
    "potential.g", "potential.omega", "constants.hbar", "constants.mass",
    "trajectories.n_parcels", "trajectories.duration",
    "floor_rel", "pointwise_floor_rel", "bohm_form",
)


def _cast(key: str, kind: type, value):
    """value as kind, or a ValueError naming the key: null, booleans, lists
    and objects are refused, and so are a non-integral number for an int, a
    NaN or an infinity for a state or potential parameter, and any value the
    conversion itself rejects."""
    # no later check bounds those parameters: a non-finite one would first
    # show as a non-finite field, after the evolution
    finite = kind is float and key.startswith(("state.", "potential."))
    if not (value is None or isinstance(value, (bool, list, dict)) or (
            kind is int and isinstance(value, float) and not value.is_integer())):
        try:
            cast = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if not finite or np.isfinite(cast):
                return cast
    raise ValueError(f"override {key!r} takes {'finite ' * finite}{kind.__name__} values, "
                     f"not {value!r}")


def apply_overrides(scenario: Scenario, overrides: dict) -> Scenario:
    """Rebuild a scenario with dotted-key overrides: the keys of _OVERRIDES,
    each cast to the type its class declares for the field, and
    state.<param>, which keeps the type of the parameter it replaces."""
    s = scenario
    for key, value in overrides.items():
        head, _, tail = key.partition(".")
        if head == "state":
            params = dict(s.state.params)
            if tail not in params:
                raise ValueError(f"state parameter {tail!r} not in scenario {s.name!r}")
            params[tail] = _cast(key, type(params[tail]), value)
            s = replace(s, state=replace(s.state, params=params))
            continue
        if key not in _OVERRIDES:
            raise ValueError(f"unknown override key {key!r}")
        section, name = (getattr(s, head), tail) if tail else (s, key)
        if section is None:
            raise ValueError(f"scenario {s.name!r} has no {head} for {key!r}")
        value = _cast(key, get_type_hints(type(section))[name], value)
        changed = replace(section, **{name: value})
        s = replace(s, **{head: changed}) if tail else changed
    return s


def format_report(report: VerificationReport) -> str:
    """Human-readable check table."""
    lines = [
        f"scenario {report.scenario}  "
        f"(n={report.grid.n}, dt={report.dt}, steps={report.n_steps})"
    ]
    for c in report.checks:
        if c.error is not None:
            lines.append(f"  [ERROR] {c.id:<28} {c.error}")
            continue
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"  [{status}] {c.id:<28} measured {c.measured:.6e} "
                     f"{_MODES[c.mode].bound(c.tolerance)}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"  => {verdict} ({report.runtime_seconds:.2f}s)")
    return "\n".join(lines)
