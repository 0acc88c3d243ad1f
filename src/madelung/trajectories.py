"""Fluid-parcel (Bohmian) trajectories driven by the flow velocity.

Parcels are seeded at density quantiles, advected with classical RK4 using
cubic interpolation of the gridded velocity, and carry along-trajectory
records: log-density, velocity divergence, sampled phase action, and the
accumulated Lagrangian integral.  Mass conservation along a parcel then
shows up in two testable ways: d(ln rho)/dt + div u = 0 along the path, and
preservation of the cumulative-probability level each parcel started on.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .diagnostics import _Kernel
from .grid import Grid, RealField, _check_finite, _fft, _ifft, _number, _spectral, same_grid
from .propagator import PropagatorConfig, _states
from .states import DEFAULT_DENSITY_FLOOR, PhysicalConstants, WaveFunction

__all__ = [
    "FlowSample",
    "FlowHistory",
    "ParcelEnsemble",
    "TrackFlow",
    "DensityCdf",
    "ProviderGapError",
    "BranchMismatchError",
    "seed_parcels",
    "track",
    "collect_flow",
    "advect",
    "continuity_residual",
    "action_check",
    "write_trajectory_csv",
]


class ProviderGapError(RuntimeError):
    """A required flow snapshot is missing from the provider."""


class BranchMismatchError(RuntimeError):
    """Phase records jump by more than half a branch between samples."""


@dataclass(frozen=True)
class FlowSample:
    """Per-time fields a parcel needs: velocity for stepping, the rest for records."""

    t: float
    u: RealField
    div_u: RealField | None = None
    ln_rho: RealField | None = None
    S_tilde: RealField | None = None
    lagrangian: RealField | None = None
    rho: RealField | None = None


def _time_index(times: list[float], t: float) -> int | None:
    """The first index of the increasing times within 1e-9 max(1, |t|) + 1e-12 of t, or None;
    None for a non-finite t, which the relative tolerance would match to an end."""
    if not -np.inf < t < np.inf:
        return None
    i = bisect.bisect_left(times, t)
    for j in (i - 1, i):
        if 0 <= j < len(times) and abs(times[j] - t) <= 1e-9 * max(1.0, abs(t)) + 1e-12:
            return j
    return None


class FlowHistory:
    """Time-keyed store of FlowSamples; the velocity provider for advection.

    Lookups must match a stored time within 1e-9 * max(1, |t|) + 1e-12
    (`_time_index`); anything else is a gap and raises, because silently
    interpolating across a missing snapshot would corrupt the convergence
    order of everything downstream.
    """

    def __init__(self, grid: Grid, constants: PhysicalConstants):
        self.grid = grid
        self.constants = constants
        self._times: list[float] = []
        self._samples: list[FlowSample] = []

    def add(self, sample: FlowSample) -> None:
        if self._times and sample.t <= self._times[-1]:
            raise ValueError("flow samples must be added in increasing time order")
        self._times.append(sample.t)
        self._samples.append(sample)

    def _index(self, t: float) -> int:
        i = _time_index(self._times, t)
        if i is None:
            raise ProviderGapError(f"no flow snapshot at t = {t!r}")
        return i

    def sample_at(self, t: float) -> FlowSample:
        return self._samples[self._index(t)]

    def velocity_at(self, t: float) -> RealField:
        return self._samples[self._index(t)].u


@dataclass
class ParcelEnsemble:
    """Parcel positions plus along-trajectory records (rows = record times)."""

    grid: Grid
    positions: np.ndarray
    quantiles: np.ndarray
    branch_period: float = np.inf
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    x_records: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    u_records: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    ln_rho_records: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    div_u_records: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    S_records: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    action_records: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    @property
    def n_parcels(self) -> int:
        return self.positions.size


class DensityCdf:
    """Spectrally exact cumulative integral of a density, invertible.

    Node values come from the Fourier antiderivative; between nodes a cubic
    Hermite interpolant (slopes are the density itself) keeps quantile
    inversion accurate to O(dx^4).
    """

    def __init__(self, rho: RealField):
        grid = rho.grid
        vals = rho.values
        rhohat = _fft(vals.astype(np.complex128))
        mean = rhohat[0].real / grid.n
        # the antiderivative; ik is zero on the zero and Nyquist modes alone
        ik = _spectral(grid)[1]
        coef = np.divide(rhohat, ik, out=np.zeros_like(rhohat), where=ik != 0)
        g = _ifft(coef).real
        self.grid = grid
        self.rho = vals
        self.F = mean * (grid.x - grid.x[0]) + (g - g[0])
        self.total = mean * grid.length

    def _cell(self, j: np.ndarray):
        jp = (j + 1) % self.grid.n
        f1 = np.where(jp != 0, self.F[jp], self.total)  # F(x_max) closes the domain
        return self.F[j], f1, self.rho[j], self.rho[jp]

    def _hermite(self, j: np.ndarray, s: np.ndarray):
        f0, f1, d0, d1 = self._cell(j)
        h = self.grid.dx
        # products, not powers: s**k of an array and of a float can differ in the last bit
        s2 = s * s
        s3 = s2 * s
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        return h00 * f0 + h10 * h * d0 + h01 * f1 + h11 * h * d1

    def value(self, x):
        """Cumulative mass from x_min to x: a float for a float, else an array."""
        grid = self.grid
        xw = grid.x_min + (np.asarray(x, dtype=float) - grid.x_min) % grid.length
        q = (xw - grid.x_min) / grid.dx
        j = np.where(q < grid.n - 1, q, grid.n - 1).astype(int)  # a NaN x stays NaN
        v = self._hermite(j, (xw - grid.x[j]) / grid.dx)
        return float(v) if np.ndim(x) == 0 else v

    def quantile(self, p):
        """Position x with cumulative mass p * total to its left: a float for a
        float, else an array."""
        levels = np.asarray(p, dtype=float)
        if not np.all((0.0 < levels) & (levels < 1.0)):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        target = levels * self.total
        grid = self.grid
        j = np.clip(np.searchsorted(self.F, target) - 1, 0, grid.n - 2)
        denom = np.maximum(self.rho[j], self.total / grid.length * 1e-12)
        s = np.clip((target - self.F[j]) / (denom * grid.dx), 0.0, 1.0)
        for _ in range(6):  # Newton on the Hermite cell polynomial
            f = self._hermite(j, s) - target
            d = np.maximum(self._hermite_deriv(j, s), 1e-300)
            s = np.clip(s - f / (d * grid.dx), 0.0, 1.0)
        x = grid.x[j] + s * grid.dx
        return float(x) if np.ndim(p) == 0 else x

    def _hermite_deriv(self, j: np.ndarray, s: np.ndarray):
        f0, f1, d0, d1 = self._cell(j)
        h = self.grid.dx
        s2 = s * s
        dh00 = 6 * s2 - 6 * s
        dh10 = 3 * s2 - 4 * s + 1
        dh01 = -6 * s2 + 6 * s
        dh11 = 3 * s2 - 2 * s
        return (dh00 * f0 + dh10 * h * d0 + dh01 * f1 + dh11 * h * d1) / h


def seed_parcels(rho: RealField, n_parcels: int) -> ParcelEnsemble:
    """Place parcels at the density quantiles (i + 1/2)/n; deterministic."""
    _number("n_parcels", n_parcels, "integer", 1)
    levels = (np.arange(n_parcels) + 0.5) / n_parcels
    positions = DensityCdf(rho).quantile(levels)
    return ParcelEnsemble(grid=rho.grid, positions=positions, quantiles=levels)


_STENCIL = np.arange(-1, 3)  # offsets of the 4-point stencil from floor(pos)
# the stencil's Lagrange weights as a cubic in s: [1, s, s^2, s^3] @ _LAGRANGE;
# at a node (s = 0) they are exactly [0, 1, 0, 0]
_LAGRANGE = np.array([[0.0, 1.0, 0.0, 0.0],
                      [-1.0 / 3.0, -0.5, 1.0, -1.0 / 6.0],
                      [0.5, -1.0, 0.5, 0.0],
                      [-1.0 / 6.0, 0.5, -0.5, 1.0 / 6.0]])


def _interp_cubic(values: np.ndarray, grid: Grid, xq: np.ndarray,
                  period: float | None = None) -> np.ndarray:
    """Periodic 4-point Lagrange cubic interpolation at arbitrary positions.

    The stencil index is taken mod n, so a position need not be wrapped into
    the domain: x and x +- length give the same values up to roundoff.
    `values` may stack several fields along leading axes; the stencil is
    gathered once, by one wrapping take, as a (..., P, 4) array, and reduced
    against the (P, 4) weights in one weighted sum.  With a `period`, the
    last stacked field is an unwrapped phase, which jumps back by its
    winding (a whole number of periods) at the seam: a stencil point whose
    index wrapped mod n takes the winding once per lap, so the stencil lies
    on one branch.
    """
    pos = (xq - grid.x_min) / grid.dx
    j = np.floor(pos)
    s = pos - j
    powers = np.empty(s.shape + (4,))
    powers[..., 0] = 1.0
    powers[..., 1] = s
    np.multiply(s, s, out=powers[..., 2])
    np.multiply(powers[..., 2], s, out=powers[..., 3])
    stencil = j.astype(int)[..., None] + _STENCIL
    g = np.take(values, stencil, axis=-1, mode="wrap")
    if period is not None:
        laps = stencil // grid.n
        winding = period * np.round((values[-1, -1] - values[-1, 0]) / period)
        np.add(g[-1], winding * laps, out=g[-1], where=laps != 0)
    return (g * (powers @ _LAGRANGE)).sum(-1)


def _wrap(x: np.ndarray, grid: Grid) -> np.ndarray:
    return grid.x_min + np.mod(x - grid.x_min, grid.length)


_FLOW_CHUNK = 16  # whole steps (and their half steps) per batched kernel call
# the most grid points of whole steps a chunk holds: on a large grid a chunk
# of many states leaves the cache, and fewer steps per call are faster there
_FLOW_CHUNK_POINTS = 1 << 15

# the fields of a record row, in row order: advection interpolates the first
# five at the parcels, and the track reads rho
_ROW = ("u", "div_u", "ln_rho", "lagrangian", "S_tilde", "rho")


def _flow_stream(wf0: WaveFunction, U: RealField, dt: float, n_steps: int,
                 floor_rel: float, bohm_form: str):
    """Evolve at dt/2 and yield, for each whole step k in time order, the
    pair (record row at k dt, velocity at (k + 1/2) dt): the row stacks the
    `_ROW` fields, and the velocity is None after the last step.

    The dt/2 states are evaluated in chunks of 2 c, held in the order they
    are evolved (whole steps on even rows, half steps on odd; the last chunk
    ends on the final whole step): one batched kernel call for the half-step
    velocities, one for the whole-step records, so the per-call cost of small
    transforms is paid once per chunk.  c is _FLOW_CHUNK (16) whole steps, or
    _FLOW_CHUNK_POINTS // n on a grid of more than 2048 points (8 at n = 4096,
    at least one).  A kernel row does not depend on the rows beside it, so
    the chunk size leaves every value as it is.  The pairs are rows of the
    chunk's results, so the chunk's memory goes when its last pair does.
    """
    grid, constants = wf0.grid, wf0.constants
    u_ext = U.values / constants.mass
    config = PropagatorConfig(dt / 2.0, 2 * n_steps)
    size = 2 * max(1, min(_FLOW_CHUNK, _FLOW_CHUNK_POINTS // grid.n))  # dt/2 states
    psi = np.empty((size, grid.n), dtype=complex)
    for i, values in enumerate(_states(wf0, U, config)):
        j = i % size
        psi[j] = values
        if j < size - 1 and i < config.n_steps:
            continue
        chunk = psi[:j + 1]
        _check_finite(chunk)  # as evolve checks its snapshots, once per chunk, before its rows
        half = _Kernel(chunk[1::2], grid, constants, floor_rel).u if j else ()
        wk = _Kernel(chunk[0::2], grid, constants, floor_rel, bohm_form)
        Q, u, S = wk.Q, wk.u, wk.S
        wk.drop("psi_hat", "ddpsi", "ddrho")  # spent: div_u reads J and drho, not these
        div_u, ln_rho, rho = wk.div_u, np.log(wk.rho_f), wk.rho
        del wk  # the kernel's other arrays go before the rows are made
        rows = np.stack((u, div_u, ln_rho, 0.5 * u * u - Q - u_ext, S / constants.mass, rho),
                        axis=1)  # (steps, len(_ROW), n), in _ROW order
        del u, div_u, ln_rho, Q, S, rho  # only the rows wait in this frame while they are read
        # a chunk ending on a whole step has one half step fewer: its last row has none
        yield from zip_longest(rows, half)


class TrackFlow(NamedTuple):
    """What a track keeps of its flow, all that `quantile_preservation` reads."""

    seam_flux: np.ndarray  # rho[0] * u[0] at every whole step, (n_steps + 1,)
    cdf_steps: range  # the whole steps whose CDF the check reads: every max(1, n_steps // 8)-th
    rho: list[RealField]  # rho at each of cdf_steps


def track(wf0: WaveFunction, U: RealField, dt: float, n_steps: int, ensemble: ParcelEnsemble,
          floor_rel: float = DEFAULT_DENSITY_FLOOR,
          bohm_form: str = "amplitude") -> tuple[TrackFlow, ParcelEnsemble]:
    """RK4-advect the parcels of `ensemble` for n_steps steps of dt through
    the flow of wf0 in the potential U, recording fields along the way.

    Advection reads the flow stream once, in time order, so the flow is
    evolved at dt/2 and evaluated a chunk at a time as advection reaches it.
    Of the flow the track keeps only rho[0] * u[0] at every whole step and a
    copy of rho at every max(1, n_steps // 8)-th one (`TrackFlow`).
    """
    PropagatorConfig(dt, n_steps)  # the number rule for both, before either is read
    flow = TrackFlow(np.empty(n_steps + 1), range(0, n_steps + 1, max(1, n_steps // 8)), [])

    def stream():
        for k, (row, u_half) in enumerate(_flow_stream(wf0, U, dt, n_steps, floor_rel, bohm_form)):
            rho = row[-1]  # the last _ROW field
            flow.seam_flux[k] = rho[0] * row[0, 0]
            if k in flow.cdf_steps:
                flow.rho.append(RealField._unchecked(rho.copy(), wf0.grid))
            yield row, u_half

    return flow, _advect(ensemble, stream(), wf0.grid, wf0.constants, dt, n_steps)


def collect_flow(wf0: WaveFunction, U: RealField, dt: float, n_steps: int,
                 floor_rel: float = DEFAULT_DENSITY_FLOOR,
                 bohm_form: str = "amplitude") -> FlowHistory:
    """Evolve at dt/2 and bank every flow sample: velocity at every half
    step, the full record bundle (u, div_u, ln_rho, S_tilde, lagrangian,
    rho) at every whole step.

    This drains the stream `track` advects through and keeps all of it, 7
    rows of n floats per whole step, as the FlowSamples that `advect` looks
    up.
    """
    PropagatorConfig(dt, n_steps)  # the number rule for both, before either is read
    grid, half = wf0.grid, dt / 2.0
    flow = FlowHistory(grid, wf0.constants)
    for k, (row, u_half) in enumerate(_flow_stream(wf0, U, dt, n_steps, floor_rel, bohm_form)):
        flow.add(FlowSample(2 * k * half, **{name: RealField._unchecked(values, grid)
                                             for name, values in zip(_ROW, row)}))
        if u_half is not None:
            flow.add(FlowSample((2 * k + 1) * half, RealField._unchecked(u_half, grid)))
    return flow


def advect(ensemble: ParcelEnsemble, flow: FlowHistory, dt: float,
           n_steps: int) -> ParcelEnsemble:
    """RK4-advect parcels through a banked flow: the loop of `track`, fed by
    time lookups.  The provider must hold samples at k dt/2 for every k, the
    whole steps with their record fields; a missing time or field raises
    ProviderGapError when advection reaches it."""
    PropagatorConfig(dt, n_steps)  # the number rule for both, before either is read

    def stream():
        for k in range(n_steps + 1):
            t = k * dt
            fields = [getattr(flow.sample_at(t), name) for name in _ROW[:5]]
            if any(f is None for f in fields):
                raise ProviderGapError(f"flow sample at t = {t!r} lacks record fields")
            yield (np.stack([f.values for f in fields]),
                   flow.velocity_at(t + 0.5 * dt).values if k < n_steps else None)

    return _advect(ensemble, stream(), flow.grid, flow.constants, dt, n_steps)


def _advect(ensemble: ParcelEnsemble, stream, grid: Grid, constants: PhysicalConstants,
            dt: float, n_steps: int) -> ParcelEnsemble:
    """RK4 through `stream`, the pairs (record row at k dt, velocity at
    (k + 1/2) dt) for k = 0, ..., n_steps, each read when advection reaches
    it; of a row the first five `_ROW` fields are read.  The RK4 stage
    positions are left unwrapped, since the interpolation takes its stencil
    mod n; only the step's final position is wrapped into the domain and
    recorded.  Sampled phases, interpolated on one 2 pi hbar / m branch, are
    matched to the nearest branch of the previous record, and the action
    integral is accumulated by the trapezoid rule."""
    if not same_grid(ensemble.grid, grid):
        raise ValueError("parcel ensemble and flow live on different grids")
    period = 2.0 * np.pi * constants.hbar / constants.mass
    x = ensemble.positions.copy()
    stream = iter(stream)

    xs, us, divs, lns, Ss, acts = np.empty((6, n_steps + 1, x.size))
    row, u_m = next(stream)
    xs[0], acts[0] = x, 0.0
    us[0], divs[0], lns[0], lag_prev, Ss[0] = _interp_cubic(row[:5], grid, x, period)

    for k in range(n_steps):
        row, u_next = next(stream)  # RK4's last stage, and the step's records
        k1 = us[k]  # the velocity record at (t, x) is RK4's first stage
        k2 = _interp_cubic(u_m, grid, x + 0.5 * dt * k1)
        k3 = _interp_cubic(u_m, grid, x + 0.5 * dt * k2)
        k4 = _interp_cubic(row[0], grid, x + dt * k3)
        x = _wrap(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), grid)

        xs[k + 1] = x
        us[k + 1], divs[k + 1], lns[k + 1], lag_p, S_p = _interp_cubic(row[:5], grid, x, period)
        Ss[k + 1] = S_p + period * np.round((Ss[k] - S_p) / period)
        acts[k + 1] = acts[k] + 0.5 * dt * (lag_prev + lag_p)
        lag_prev, u_m = lag_p, u_next

    return ParcelEnsemble(
        grid=grid,
        positions=x,
        quantiles=ensemble.quantiles.copy(),
        branch_period=period,
        times=np.arange(n_steps + 1) * dt,
        x_records=xs,
        u_records=us,
        ln_rho_records=lns,
        div_u_records=divs,
        S_records=Ss,
        action_records=acts,
    )


def continuity_residual(ensemble: ParcelEnsemble) -> np.ndarray:
    """Per-parcel max of |d(ln rho)/dt + div u| along the trajectory.

    Central differences at interior record times; needs >= 3 records.
    """
    times = ensemble.times
    if times.size < 3:
        raise ValueError("continuity residual needs at least 3 recorded snapshots")
    dt = times[1] - times[0]
    ln = ensemble.ln_rho_records
    dv = ensemble.div_u_records
    dln_dt = (ln[2:, :] - ln[:-2, :]) / (2.0 * dt)
    resid = np.abs(dln_dt + dv[1:-1, :])
    return resid.max(axis=0)


def action_check(ensemble: ParcelEnsemble) -> np.ndarray:
    """Per-parcel |Delta S~ - integral of the Lagrangian| over the run.

    A consecutive sampled-phase change beyond half a branch means the
    nearest-branch matching was ambiguous, so that is an error, not a number.
    """
    if ensemble.times.size < 1:
        raise ValueError("no records")
    S = ensemble.S_records
    if S.shape[0] > 1:
        worst = float(np.max(np.abs(np.diff(S, axis=0))))
        if worst > 0.5 * ensemble.branch_period:
            raise BranchMismatchError(
                f"sampled phase jumped by {worst:.3g} between records, "
                f"more than half the branch period {ensemble.branch_period:.3g}"
            )
    return np.abs((S[-1, :] - S[0, :]) - ensemble.action_records[-1, :])


_CSV_BLOCK_ROWS = 2048  # rows formatted per write, bounding the transient Python floats


def _write_csv(path, header, row_format: str, blocks) -> None:
    """Write a header and the rows of each 2-D block with one %-format per row.

    `row_format` ends in "\r\n" and formats floats with "%.17g", which gives
    the same text as csv.writer with format(v, ".17g") per value: shortest
    exact round trip, no quoting needed.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            for i in range(0, len(block), _CSV_BLOCK_ROWS):
                part = block[i:i + _CSV_BLOCK_ROWS]
                fh.write((row_format * len(part)) % tuple(np.ravel(part).tolist()))


def write_trajectory_csv(ensemble: ParcelEnsemble, path) -> None:
    """Dump records as (parcel_id, t, x, u, ln_rho, div_u, action, S_sampled)."""
    records = (ensemble.x_records, ensemble.u_records, ensemble.ln_rho_records,
               ensemble.div_u_records, ensemble.action_records, ensemble.S_records)
    _write_csv(
        path,
        ["parcel_id", "t", "x", "u", "ln_rho", "div_u", "action", "S_sampled"],
        "%d" + ",%.17g" * 7 + "\r\n",
        (np.column_stack([np.full(ensemble.times.size, p), ensemble.times]
                         + [r[:, p] for r in records])
         for p in range(ensemble.n_parcels)),
    )
