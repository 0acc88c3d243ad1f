"""Scenario registry and identity-check runner.

A Scenario names an initial state, a potential, a grid, optional propagation
and parcel-tracking segments, and a list of checks with per-scenario
tolerances.  run_scenario builds everything, evaluates each check, and
returns a VerificationReport; run_scenarios does that for many scenarios in
worker processes.  Checks are deterministic; expected failures
(negative controls) are regular checks whose pass rule is "measured above
threshold".

Two density floors are in play.  Integral diagnostics run at floor_rel
(default 1e-12): quotient noise there is crushed by the density weight.
Pointwise route-comparison checks (the enthalpy identity, the linearity fit)
run at pointwise_floor_rel, because a double-precision density quotient at
rho ~ 1e-12 * max carries only ~4 significant digits, far short of the
1e-7-level tolerances those checks demand.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import (
    _compute,
    _velocity_front,
    bernoulli_residual,
    expectations,
    madelung_fields,
    nonspreading_residual,
)
from .grid import Grid, RealField, make_grid
from .potentials import PotentialSpec, evaluate_potential
from .propagator import PropagatorConfig, evolve, step
from .states import (
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
    FlowHistory,
    FlowSample,
    ParcelEnsemble,
    action_check,
    advect,
    continuity_residual,
    seed_parcels,
)

__all__ = [
    "GridSpec",
    "StateSpec",
    "PotentialDef",
    "RegionSpec",
    "TrajectoryConfig",
    "CheckSpec",
    "Scenario",
    "CheckResult",
    "VerificationReport",
    "ScenarioRun",
    "run_scenario",
    "run_scenarios",
    "WorkerDiedError",
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


@dataclass(frozen=True)
class StateSpec:
    """Factory id plus keyword parameters."""

    factory: str
    params: dict

    def build(self, grid: Grid, constants: PhysicalConstants) -> WaveFunction:
        factories = {
            "gaussian": gaussian_packet,
            "plane_wave": plane_wave,
            "harmonic_ground": harmonic_ground_state,
            "airy": airy_packet,
            "bouncer": bouncer_eigenstate,
        }
        if self.factory not in factories:
            raise ValueError(f"unknown state factory {self.factory!r}")
        return factories[self.factory](grid, constants, **self.params)


@dataclass(frozen=True)
class PotentialDef:
    """Potential descriptor; 'abs_linear' builds a tabulated m*g*|x| profile."""

    kind: str = "free"
    g: float = 0.0
    omega: float = 0.0

    def build(self, grid: Grid, constants: PhysicalConstants) -> RealField:
        if self.kind == "abs_linear":
            table = RealField(constants.mass * self.g * np.abs(grid.x), grid)
            return evaluate_potential(PotentialSpec("tabulated", table=table), grid, constants)
        return evaluate_potential(
            PotentialSpec(self.kind, g=self.g, omega=self.omega), grid, constants
        )


@dataclass(frozen=True)
class RegionSpec:
    """Diagnostic sub-region: keep a window, or exclude an interval."""

    kind: str  # "window" | "exclude"
    lo: float
    hi: float

    def build(self, grid: Grid) -> np.ndarray:
        inside = (grid.x >= self.lo) & (grid.x <= self.hi)
        if self.kind == "window":
            return inside
        if self.kind == "exclude":
            return ~((grid.x > self.lo) & (grid.x < self.hi))
        raise ValueError(f"unknown region kind {self.kind!r}")


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


@dataclass(frozen=True)
class CheckSpec:
    """One named check: measured value compared against a threshold.

    mode "below": pass iff measured <= tolerance.
    mode "above": pass iff measured >  tolerance (negative controls).
    mode "range": pass iff params["lo"] <= measured <= params["hi"].
    """

    id: str
    tolerance: float
    mode: str = "below"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    state: StateSpec
    potential: PotentialDef = PotentialDef()
    grid: GridSpec = GridSpec()
    propagation: PropagatorConfig | None = None
    checks: tuple = ()
    diagnostic_only: bool = False
    constants: PhysicalConstants = PhysicalConstants()
    floor_rel: float = 1e-12
    pointwise_floor_rel: float = 1e-6
    bohm_form: str = "amplitude"
    region: RegionSpec | None = None
    trajectories: TrajectoryConfig | None = None
    non_normalizable: bool = False

    def __post_init__(self):
        if self.diagnostic_only and self.propagation is not None:
            raise ValueError("diagnostic-only scenarios carry no propagation config")
        ids = [c.id for c in self.checks]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate check ids in scenario {self.name!r}")


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one check.  A check whose evaluation raised carries the
    message in ``error``, has no measured value, and fails."""

    id: str
    measured: float | None
    tolerance: float
    mode: str
    passed: bool
    lo: float | None = None  # set for range-mode checks
    hi: float | None = None
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
        "tolerance": c.tolerance if c.mode != "range" else [c.lo, c.hi],
        "mode": c.mode,
        "pass": c.passed,
    }
    if c.error is not None:
        out["error"] = c.error
    return out


_FLOW_CHUNK = 8  # whole steps (and their half steps) per batched kernel call


def collect_flow(
    wf0: WaveFunction,
    U: RealField,
    dt: float,
    n_steps: int,
    floor_rel: float = 1e-12,
    bohm_form: str = "amplitude",
) -> FlowHistory:
    """Evolve at dt/2 and bank flow samples: velocity at every half step,
    the full record bundle at every whole step.

    The states are buffered and evaluated in chunks: one batched kernel call
    per _FLOW_CHUNK whole steps, one per as many half-step velocities, so
    the per-call cost of small transforms is paid once per chunk.  The
    samples' fields are rows of two blocks allocated up front, one
    (n_steps + 1, 6, n) block for the whole steps and one (n_steps, n) block
    for the half-step velocities: thousands of small long-lived arrays
    fragment the heap and raise peak memory well above the live data.
    """
    grid = wf0.grid
    constants = wf0.constants
    flow = FlowHistory(grid, constants)
    whole = np.empty((n_steps + 1, 6, grid.n))  # rows in FlowSample field order
    half = np.empty((n_steps, grid.n))
    u_ext = U.values / constants.mass
    # states wait in two (chunk, n) buffers; whole and half steps alternate,
    # starting and ending on a whole step
    psi_whole = np.empty((_FLOW_CHUNK, grid.n), dtype=complex)
    psi_half = np.empty((_FLOW_CHUNK, grid.n), dtype=complex)
    t_whole: list = []
    t_half: list = []
    banked = 0  # whole steps already in the block, and as many half steps

    def flush():
        nonlocal banked
        k, nw, nh = banked, len(t_whole), len(t_half)
        # one kernel result alive at a time keeps the transient memory small
        u = half[k:k + nh]
        if nh:
            u[:] = _velocity_front(psi_half[:nh], grid, constants, floor_rel, None).u
        rows = whole[k:k + nw]
        wk = _compute(psi_whole[:nw], grid, constants, floor_rel, bohm_form, None,
                      phase=True)
        rows[:, 0] = wk.u
        rows[:, 1] = wk.div_u
        np.log(wk.rho_f, out=rows[:, 2])
        np.divide(wk.S, constants.mass, out=rows[:, 3])
        rows[:, 4] = 0.5 * wk.u * wk.u - wk.Q - u_ext
        rows[:, 5] = wk.rho
        for j, t in enumerate(t_whole):
            flow.add(FlowSample(t, *(RealField._unchecked(r, grid) for r in rows[j])))
            if j < nh:
                flow.add(FlowSample(t=t_half[j], u=RealField._unchecked(u[j], grid)))
        banked += nw
        t_whole.clear()
        t_half.clear()

    def obs(t, w):
        if len(t_whole) > len(t_half):
            psi_half[len(t_half)] = w.psi.values
            t_half.append(t)
            if len(t_half) == _FLOW_CHUNK:
                flush()
        else:
            psi_whole[len(t_whole)] = w.psi.values
            t_whole.append(t)

    evolve(wf0, U, PropagatorConfig(dt / 2.0, 2 * n_steps, 1), [obs])
    flush()
    return flow


class ScenarioRun:
    """Lazily evaluated artifacts of one scenario execution.

    Everything is computed on first use and kept, so the checks and the
    artifact writers read the same numbers:

    - the snapshots of the propagation and their `expectations` reports;
    - per snapshot, the scalars the pointwise checks take from the pointwise
      fields (`pointwise`: the enthalpy and non-spreading residuals, the
      peak |u| and |div u|), all taken in the one evaluation of the fields,
      which are then let go; a scalar whose evaluation raised raises the
      same exception on every read;
    - per snapshot, the peak one-step Bernoulli residual (`bernoulli_max`);
    - the main parcel track (`trajectory`, `flow`), or the exception it
      raised, which every later reader gets again.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.grid = scenario.grid.build()
        self.constants = scenario.constants
        self.U = scenario.potential.build(self.grid, self.constants)
        self.wf0 = scenario.state.build(self.grid, self.constants)
        self.region_mask = (
            scenario.region.build(self.grid) if scenario.region is not None else None
        )
        self._snapshots: list | None = None
        self._reports: list | None = None
        self._per_snapshot: dict = {}  # (quantity, snapshot index) -> value
        self._tracking: tuple[FlowHistory, ParcelEnsemble] | Exception | None = None

    # -- state access ------------------------------------------------------

    def snapshots(self) -> list:
        if self._snapshots is None:
            cfg = self.scenario.propagation
            if cfg is None:
                self._snapshots = [(0.0, self.wf0)]
            else:
                snaps: list = []
                evolve(self.wf0, self.U, cfg, [lambda t, w: snaps.append((t, w))])
                self._snapshots = snaps
        return self._snapshots

    def _snapshot_index(self, t: float) -> int:
        for i, (ts, _) in enumerate(self.snapshots()):
            if abs(ts - t) <= 1e-9 * max(1.0, abs(t)) + 1e-12:
                return i
        raise KeyError(f"no snapshot at t = {t!r} in scenario {self.scenario.name!r}")

    def state_at(self, t: float) -> WaveFunction:
        return self.snapshots()[self._snapshot_index(t)][1]

    def _memo(self, quantity: str, t: float, compute):
        key = (quantity, self._snapshot_index(t))
        if key not in self._per_snapshot:
            self._per_snapshot[key] = compute(t)
        return self._per_snapshot[key]

    def reports(self) -> list:
        if self._reports is None:
            self._reports = [
                expectations(
                    w, self.U, self.scenario.floor_rel, t=t,
                    bohm_form=self.scenario.bohm_form,
                )
                for t, w in self.snapshots()
            ]
        return self._reports

    def pointwise_fields(self, t: float):
        return madelung_fields(
            self.state_at(t),
            self.scenario.pointwise_floor_rel,
            bohm_form=self.scenario.bohm_form,
            region_mask=self.region_mask,
        )

    def pointwise(self, quantity: str, t: float) -> float:
        """A scalar of the pointwise fields at snapshot t: "enthalpy",
        "nonspreading", "u_max" or "div_u_max"."""
        value = self._memo("pointwise", t, self._pointwise_scalars)[quantity]
        if isinstance(value, Exception):
            raise value
        return value

    def _pointwise_scalars(self, t: float) -> dict:
        # the scalars are small, the fields are not: keeping only the
        # scalars keeps memory flat in the number of snapshots
        fields = self.pointwise_fields(t)
        out = {}
        for quantity, fn in _POINTWISE.items():
            try:
                out[quantity] = fn(self, fields)
            except Exception as exc:  # judged by the check that reads it
                out[quantity] = exc.with_traceback(None)  # its frames hold the fields
        return out

    def bernoulli_max(self, t: float) -> float:
        """Peak |Bernoulli residual| over one propagation step from snapshot t."""
        dt = self.scenario.propagation.dt

        def compute(t):
            w = self.state_at(t)
            r = bernoulli_residual(
                w, step(w, self.U, dt), self.U, dt,
                self.scenario.floor_rel, bohm_form=self.scenario.bohm_form,
            )
            return float(np.max(np.abs(r.values)))

        return self._memo("bernoulli", t, compute)

    # -- trajectory machinery ---------------------------------------------

    def _seed_density(self) -> RealField:
        cfg = self.scenario.trajectories
        rho = self.wf0.density()
        if cfg.seed_lo is None:
            return rho
        keep = (self.grid.x >= cfg.seed_lo) & (self.grid.x <= cfg.seed_hi)
        return RealField(np.where(keep, rho.values, 0.0), self.grid)

    def track(self, dt: float, duration: float) -> tuple[FlowHistory, ParcelEnsemble]:
        """Collect the flow over `duration` at step dt and advect parcels through it.

        Parcels are seeded first, so a seeding failure costs no propagation.
        """
        n = int(round(duration / dt))
        cfg = self.scenario.trajectories or TrajectoryConfig()
        ens = seed_parcels(self._seed_density(), cfg.n_parcels)
        flow = collect_flow(
            self.wf0, self.U, dt, n,
            floor_rel=self.scenario.floor_rel, bohm_form=self.scenario.bohm_form,
        )
        return flow, advect(ens, flow, dt, n)

    def _main_track(self) -> tuple[FlowHistory, ParcelEnsemble]:
        if self._tracking is None:
            cfg = self.scenario.trajectories
            if cfg is None:
                raise ValueError(f"scenario {self.scenario.name!r} has no trajectory config")
            try:
                self._tracking = self.track(self.scenario.propagation.dt, cfg.duration)
            except Exception as exc:
                self._tracking = exc
        if isinstance(self._tracking, Exception):
            raise self._tracking
        return self._tracking

    def trajectory(self) -> ParcelEnsemble:
        return self._main_track()[1]

    def flow(self) -> FlowHistory:
        return self._main_track()[0]

    # -- verification ------------------------------------------------------

    def verify(self) -> VerificationReport:
        """Evaluate every configured check on this run.

        A check that raises becomes a failed verdict carrying the message;
        the remaining checks still run.
        """
        scenario = self.scenario
        start = time.perf_counter()
        results = []
        for spec in scenario.checks:
            if spec.id not in _CHECKS:
                raise ValueError(
                    f"scenario {scenario.name!r} references unregistered check {spec.id!r}"
                )
            try:
                measured, error = float(_CHECKS[spec.id](self, spec)), None
            except Exception as exc:
                measured, error = None, f"{type(exc).__name__}: {exc}"
            results.append(
                CheckResult(
                    id=spec.id,
                    measured=measured,
                    tolerance=spec.tolerance,
                    mode=spec.mode,
                    passed=error is None and _passes(spec, measured),
                    lo=spec.params.get("lo") if spec.mode == "range" else None,
                    hi=spec.params.get("hi") if spec.mode == "range" else None,
                    error=error,
                )
            )
        prop = scenario.propagation
        return VerificationReport(
            scenario=scenario.name,
            checks=tuple(results),
            grid=scenario.grid,
            dt=prop.dt if prop else None,
            n_steps=prop.n_steps if prop else None,
            runtime_seconds=time.perf_counter() - start,
        )


# -- check evaluators -------------------------------------------------------


def _times_param(run: ScenarioRun, spec: CheckSpec):
    if "times" in spec.params:
        return spec.params["times"]
    return [t for t, _ in run.snapshots()]


def _check_norm_drift(run, spec):
    return max(abs(r.norm - 1.0) for r in run.reports())


def _check_energy_drift(run, spec):
    reports = run.reports()
    e0 = reports[0].E
    return max(abs(r.E - e0) for r in reports) / max(abs(e0), 1e-300)


def _check_energy_forms_gap(run, spec):
    return max(abs(r.E - r.E_hamiltonian) for r in run.reports())


def _check_bohm_fisher(run, spec):
    c = run.constants
    pref = 0.5 * (c.hbar / (2.0 * c.mass)) ** 2
    return max(
        abs(r.Q - pref * r.FI) / max(1.0, r.FI) for r in run.reports()
    )


def _check_pressure_internal(run, spec):
    return max(
        abs(r.Pi_integral - 2.0 * r.I) / max(1.0, r.I) for r in run.reports()
    )


def _check_fisher_score(run, spec):
    return max(abs(r.vi_mean) for r in run.reports())


def _check_acceleration(run, spec):
    return max(abs(r.accel) for r in run.reports())


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


def _check_enthalpy_pointwise(run, spec):
    return max(run.pointwise("enthalpy", t) for t in _times_param(run, spec))


def _check_nonspreading(run, spec):
    return max(run.pointwise("nonspreading", t) for t in _times_param(run, spec))


def _check_nonspreading_violated(run, spec):
    return run.pointwise("nonspreading", spec.params.get("time", 1.0))


def _density_moments(w: WaveFunction):
    rho = w.density().values
    x = w.grid.x
    dx = w.grid.dx
    total = np.sum(rho) * dx
    mean = np.sum(rho * x) * dx / total
    var = np.sum(rho * (x - mean) ** 2) * dx / total
    return mean, np.sqrt(var)


def _check_spreading_law(run, spec):
    sigma0 = spec.params["sigma0"]
    hbar, m = run.constants.hbar, run.constants.mass
    worst = 0.0
    for t in spec.params["times"]:
        _, std = _density_moments(run.state_at(t))
        exact = sigma0 * np.sqrt(1.0 + (hbar * t / (2.0 * m * sigma0**2)) ** 2)
        worst = max(worst, abs(std / exact - 1.0))
    return worst


def _check_drift_law(run, spec):
    t = spec.params["time"]
    mean0, _ = _density_moments(run.state_at(0.0))
    mean1, _ = _density_moments(run.state_at(t))
    return abs((mean1 - mean0) - spec.params["expected"])


def _check_bernoulli_max(run, spec):
    worst = 0.0
    for t in _times_param(run, spec):
        worst = max(worst, run.bernoulli_max(t))
    return worst


def _bernoulli_peak(run, dt, floor_rel) -> float:
    w = run.wf0
    r = bernoulli_residual(
        w, step(w, run.U, dt), run.U, dt,
        floor_rel, bohm_form=run.scenario.bohm_form,
    )
    return float(np.max(np.abs(r.values)))


def _check_bernoulli_order(run, spec):
    # measured above the pointwise floor: the far-mask-edge spatial noise is
    # dt-independent and would cap the ratio once dt gets small
    dt = spec.params.get("dt", run.scenario.propagation.dt)
    floor = run.scenario.pointwise_floor_rel
    return _bernoulli_peak(run, dt, floor) / _bernoulli_peak(run, dt / 2.0, floor)


def _check_propagator_order(run, spec):
    duration = spec.params.get("duration", 0.5)
    dt = run.scenario.propagation.dt

    def final_values(step_size):
        n = int(round(duration / step_size))
        out = evolve(run.wf0, run.U, PropagatorConfig(step_size, n, n), [])
        return out.psi.values

    def err(step_size):
        a = final_values(step_size)
        b = final_values(step_size / 4.0)
        return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * run.grid.dx))

    return err(dt) / err(dt / 2.0)


def _check_continuity(run, spec):
    return float(continuity_residual(run.trajectory()).max())


def _head(ens: ParcelEnsemble, m: int) -> ParcelEnsemble:
    """The first m records of a trajectory, as the ensemble a track ending there gives."""
    return replace(
        ens,
        positions=ens.x_records[m - 1].copy(),
        times=ens.times[:m],
        x_records=ens.x_records[:m],
        u_records=ens.u_records[:m],
        ln_rho_records=ens.ln_rho_records[:m],
        div_u_records=ens.div_u_records[:m],
        S_records=ens.S_records[:m],
        action_records=ens.action_records[:m],
    )


def _check_continuity_order(run, spec):
    dt = run.scenario.propagation.dt
    duration = spec.params.get("duration", 0.25)
    n = int(round(duration / dt))
    # Seeding, flow collection and advection go step by step the same way
    # whatever the run length, so track(dt, duration) is a bit-identical
    # prefix of the main trajectory whenever that one covers it.
    coarse = None
    cfg = run.scenario.trajectories
    if cfg is not None and n <= int(round(cfg.duration / dt)):
        try:
            coarse = _head(run.trajectory(), n + 1)
        except Exception:
            pass  # a fresh track below reports its own failure
    if coarse is None:
        coarse = run.track(dt, duration)[1]
    fine = run.track(dt / 2.0, duration)[1]
    return float(continuity_residual(coarse).max() / continuity_residual(fine).max())


def _check_quantile_preservation(run, spec):
    """Mass to the left of each parcel, corrected for the probability flux
    wrapping through the periodic seam (nonzero only for traveling waves)."""
    traj = run.trajectory()
    flow = run.flow()
    times = traj.times
    seam_flux = np.empty(times.size)
    for i, t in enumerate(times):
        smp = flow.sample_at(t)
        seam_flux[i] = smp.rho.values[0] * smp.u.values[0]
    flux_int = np.concatenate(
        ([0.0], np.cumsum(0.5 * (seam_flux[1:] + seam_flux[:-1]) * np.diff(times)))
    )
    stride = max(1, (times.size - 1) // 8)
    worst = 0.0
    for i in range(0, times.size, stride):
        cdf = DensityCdf(flow.sample_at(times[i]).rho)
        for p in range(traj.n_parcels):
            level = cdf.value(traj.x_records[i, p]) / cdf.total
            drift = level - flux_int[i] / cdf.total - traj.quantiles[p]
            worst = max(worst, abs(drift - round(drift)))
    return worst


def _check_action_identity(run, spec):
    traj = run.trajectory()
    gaps = action_check(traj)
    d_s = np.abs(traj.S_records[-1, :] - traj.S_records[0, :])
    return float(np.max(gaps / np.maximum(1.0, d_s)))


def _check_parcel_displacement(run, spec):
    traj = run.trajectory()
    length = run.grid.length
    disp = np.mod(traj.x_records[-1, :] - traj.x_records[0, :], length)
    expected = spec.params["expected"] % length
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


def _check_incompressibility_field(run, spec):
    return run.pointwise("div_u_max", spec.params.get("time", 0.0))


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


def _check_peak_tracking(run, spec):
    hbar, m = run.constants.hbar, run.constants.mass
    B = run.scenario.state.params["scale_B"]
    accel = hbar**2 * B**3 / (4.0 * m**2)
    x0 = _peak_position(run, run.state_at(0.0))
    worst = 0.0
    for t in spec.params["times"]:
        xt = _peak_position(run, run.state_at(t))
        worst = max(worst, abs((xt - x0) - accel * t * t))
    return worst


def _check_density_node_at_wall(run, spec):
    rho = run.wf0.density().values
    j = int(np.argmin(np.abs(run.grid.x)))
    return float(rho[j] / rho.max())


def _check_velocity_zero(run, spec):
    return run.pointwise("u_max", spec.params.get("time", 0.0))


_CHECKS = {
    "norm_drift": _check_norm_drift,
    "energy_drift": _check_energy_drift,
    "energy_forms_gap": _check_energy_forms_gap,
    "bohm_fisher_identity": _check_bohm_fisher,
    "pressure_internal_identity": _check_pressure_internal,
    "fisher_score_zero": _check_fisher_score,
    "acceleration_zero": _check_acceleration,
    "enthalpy_pointwise": _check_enthalpy_pointwise,
    "nonspreading": _check_nonspreading,
    "nonspreading_evolved": _check_nonspreading,
    "nonspreading_violated": _check_nonspreading_violated,
    "spreading_law": _check_spreading_law,
    "drift_law": _check_drift_law,
    "bernoulli_max": _check_bernoulli_max,
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
    "incompressibility_field": _check_incompressibility_field,
    "density_peak_tracking": _check_peak_tracking,
    "density_node_at_wall": _check_density_node_at_wall,
    "velocity_zero": _check_velocity_zero,
}


def _passes(spec: CheckSpec, measured: float) -> bool:
    if spec.mode == "below":
        return measured <= spec.tolerance
    if spec.mode == "above":
        return measured > spec.tolerance
    if spec.mode == "range":
        return spec.params["lo"] <= measured <= spec.params["hi"]
    raise ValueError(f"unknown check mode {spec.mode!r}")


def run_scenario(scenario: Scenario) -> VerificationReport:
    """Execute one scenario and evaluate all of its configured checks."""
    return ScenarioRun(scenario).verify()


class WorkerDiedError(RuntimeError):
    """The worker pool of `run_scenarios` broke (a worker process died)
    before a report came back."""


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


_worker_scenarios: list = []  # filled in each worker process, never in the caller


def _adopt(scenarios: list) -> None:
    # runs in the forked worker: the list arrives by fork, not by pickle, so
    # any scenario that runs serially runs here too
    _worker_scenarios.extend(scenarios)


def _run_in_worker(index: int) -> VerificationReport:
    # `run_scenario` is looked up in the worker, so it runs whatever the
    # caller had bound to that name when the pool forked
    return run_scenario(_worker_scenarios[index])


def run_scenarios(scenarios):
    """Yield `run_scenario(s)` for each scenario, in input order.

    Scenarios share nothing, so they run in forked worker processes, one per
    usable CPU and at most one per scenario.  With fewer than two workers, or
    without ``fork``, they run one after another in this process.  Workers
    inherit the scenarios by fork and send back only reports.  An exception
    a scenario raises in a worker reaches the caller with its type and
    message (if it can be pickled).  If the pool breaks (a worker dies), `WorkerDiedError` names the
    first scenario in input order whose report is lost; the pool cannot tell
    which scenario the dead worker held.
    """
    scenarios = list(scenarios)
    workers = min(len(scenarios), _usable_cpus())
    if workers >= 2:
        import multiprocessing  # here, so importing madelung stays as cheap

        has_fork = "fork" in multiprocessing.get_all_start_methods()
    if workers < 2 or not has_fork:
        yield from map(run_scenario, scenarios)
        return

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork: workers start without re-importing numpy and madelung, and the
    # executor forks all of them before it starts its own manager thread
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(scenarios,))
    try:
        futures = [pool.submit(_run_in_worker, i) for i in range(len(scenarios))]
        for scenario, future in zip(scenarios, futures):
            try:
                report = future.result()
            except BrokenProcessPool as exc:
                raise WorkerDiedError(
                    f"worker pool broke before scenario {scenario.name!r} finished: {exc}"
                ) from exc
            yield report
    finally:
        pool.shutdown(cancel_futures=True)


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
                CheckSpec("parcel_displacement", 1e-9,
                          params={"expected": 2.0 * np.pi * 8 / 40.0}),
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
                CheckSpec("spreading_law", 1e-4,
                          params={"sigma0": 1.0, "times": [0.5, 1.0, 2.0]}),
                CheckSpec("nonspreading_violated", 1e-2, mode="above",
                          params={"time": 1.0}),
                CheckSpec("continuity_max", 1e-4),
                CheckSpec("continuity_order", 3.5, mode="above",
                          params={"duration": 0.25}),
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
                CheckSpec("drift_law", 1e-6, params={"time": 1.0, "expected": 2.0}),
                CheckSpec("spreading_law", 1e-4,
                          params={"sigma0": 1.0, "times": [0.5, 1.0]}),
            ),
        ),
        Scenario(
            name="harmonic_ground",
            state=StateSpec("harmonic_ground", {"omega": 1.0}),
            potential=PotentialDef("harmonic", omega=1.0),
            propagation=PropagatorConfig(dt, 1000, 100),
            trajectories=TrajectoryConfig(n_parcels=8, duration=0.5),
            checks=_IDENTITY_CHECKS
            + (
                CheckSpec("nonspreading", 1e-6, params={"times": [0.0]}),
                CheckSpec("nonspreading_evolved", 1e-5,
                          params={"times": [0.5, 1.0]}),
                CheckSpec("bernoulli_max", 1e-5),
                CheckSpec("bernoulli_order", 4.5, mode="range",
                          params={"lo": 3.5, "hi": 4.5}),
                CheckSpec("propagator_order", 4.5, mode="range",
                          params={"lo": 3.5, "hi": 4.5, "duration": 0.5}),
                CheckSpec("velocity_zero", 1e-10, params={"time": 0.0}),
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
            non_normalizable=True,
            checks=(
                CheckSpec("norm_drift", 1e-10),
                CheckSpec("energy_drift", 1e-8),
                CheckSpec("energy_forms_gap", 1e-9),
                CheckSpec("fisher_score_zero", 1e-10),
                CheckSpec("enthalpy_pointwise", 1e-7, params={"times": [0.0]}),
                CheckSpec("nonspreading", 1e-3, params={"times": [0.0]}),
                CheckSpec("incompressibility_field", 1e-8, params={"time": 0.0}),
                CheckSpec("density_peak_tracking", 2e-3,
                          params={"times": [0.5, 1.0]}),
                CheckSpec("parcel_density_constancy", 1e-3),
                CheckSpec("incompressibility_parcels", 1e-6),
            ),
        ),
        Scenario(
            name="quantum_bouncer",
            state=StateSpec("bouncer", {"g": 1.0}),
            potential=PotentialDef("abs_linear", g=1.0),
            grid=GridSpec(4096, -20.0, 20.0),
            diagnostic_only=True,
            pointwise_floor_rel=1e-4,
            bohm_form="wavefunction",
            region=RegionSpec("exclude", -0.3, 0.3),
            checks=(
                CheckSpec("norm_drift", 1e-10),
                CheckSpec("density_node_at_wall", 1e-12),
                CheckSpec("velocity_zero", 1e-10),
                CheckSpec("nonspreading", 1e-6, params={"times": [0.0]}),
                CheckSpec("enthalpy_pointwise", 1e-7, params={"times": [0.0]}),
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
                CheckSpec("nonspreading_violated", 1e-2, mode="above",
                          params={"time": 1.0}),
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


def apply_overrides(scenario: Scenario, overrides: dict) -> Scenario:
    """Rebuild a scenario with dotted-key overrides (grid.n, propagation.dt,
    state.<param>, potential.g/omega, constants.hbar/mass, floor_rel, ...)."""
    s = scenario
    for key, value in overrides.items():
        head, _, tail = key.partition(".")
        if head == "grid" and tail in ("n", "x_min", "x_max"):
            cast = int if tail == "n" else float
            s = replace(s, grid=replace(s.grid, **{tail: cast(value)}))
        elif head == "propagation" and tail in ("dt", "n_steps", "snapshot_every"):
            if s.propagation is None:
                raise ValueError(f"scenario {s.name!r} has no propagation to override")
            cast = float if tail == "dt" else int
            s = replace(s, propagation=replace(s.propagation, **{tail: cast(value)}))
        elif head == "state":
            params = dict(s.state.params)
            if tail not in params:
                raise ValueError(f"state parameter {tail!r} not in scenario {s.name!r}")
            params[tail] = type(params[tail])(value)
            s = replace(s, state=replace(s.state, params=params))
        elif head == "potential" and tail in ("g", "omega"):
            s = replace(s, potential=replace(s.potential, **{tail: float(value)}))
        elif head == "constants" and tail in ("hbar", "mass"):
            s = replace(s, constants=replace(s.constants, **{tail: float(value)}))
        elif head == "trajectories" and tail in ("n_parcels", "duration"):
            if s.trajectories is None:
                raise ValueError(f"scenario {s.name!r} has no trajectory config")
            cast = int if tail == "n_parcels" else float
            s = replace(s, trajectories=replace(s.trajectories, **{tail: cast(value)}))
        elif key in ("floor_rel", "pointwise_floor_rel"):
            s = replace(s, **{key: float(value)})
        elif key == "bohm_form":
            s = replace(s, bohm_form=str(value))
        else:
            raise ValueError(f"unknown override key {key!r}")
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
        if c.mode == "range":
            target = f"in [{c.lo:g}, {c.hi:g}]"
        else:
            rel = {"below": "<=", "above": ">"}[c.mode]
            target = f"{rel} {c.tolerance:g}"
        lines.append(
            f"  [{status}] {c.id:<28} measured {c.measured:.6e} {target}"
        )
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"  => {verdict} ({report.runtime_seconds:.2f}s)")
    return "\n".join(lines)
