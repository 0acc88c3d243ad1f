"""Unitary time evolution by symmetric (Strang) operator splitting.

Each step applies half a potential phase, the exact kinetic factor in
wavenumber space, and the second potential half:

    psi <- exp(-i U dt / 2 hbar) F^-1[ exp(-i hbar k^2 dt / 2 m) F[ ... ] ]

The kinetic factor is exact, so the only time-discretization error is the
second-order splitting commutator; norm is preserved to roundoff.

On grids of at least _BLOCKED_MIN_N (8192) points, where a 1-D transform no
longer fits in cache, the transforms are cache-blocked (Bailey's four-step FFT,
J. Supercomputing 4, 1990).  psi is viewed as an (n1, n2) block with
n1 = 2^floor(log2(n) / 2); a forward transform is an FFT along axis 0, a
twiddle multiply and an FFT along axis 1, which leaves the spectrum in
transposed order: block[c, d] holds mode c + n1 d.  The kinetic factor is
stored in that same order, so no transpose is ever made, and the inverse
runs the steps backwards.  Every transform works in place on the one array a
step allocates.  Smaller grids take the plain fft/ifft pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, RealField, check_potential_grid
from .states import WaveFunction

__all__ = ["PropagatorConfig", "step", "evolve"]


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float
    n_steps: int
    snapshot_every: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


# Spectral amplitudes below this fraction of the largest one are roundoff or
# a negligible tail: the state does not occupy those wavenumbers.
_OCCUPIED_REL = 1e-10


def _check_kinetic_phase(wf: WaveFunction, dt: float) -> None:
    """Reject a dt whose kinetic phase per step reaches pi at the highest
    wavenumber the state occupies: past that, per-step phases alias and the
    phase rate between snapshots is no longer defined.  The grid's own
    Nyquist mode does not count, because the kinetic factor is exact."""
    amp = np.abs(np.fft.fft(wf.psi.values))
    k_max = float(np.max(np.abs(wf.grid.wavenumbers[amp >= _OCCUPIED_REL * amp.max()])))
    phase = wf.constants.hbar * k_max**2 * dt / (2.0 * wf.constants.mass)
    if phase >= np.pi:
        raise ValueError(
            f"kinetic phase per step {phase:.3f} at the state's highest occupied "
            f"wavenumber {k_max:.4g} exceeds pi; reduce dt"
        )


# Grids of at least this many points take the blocked transform.  numpy's
# 1-D FFT costs more per n log n point above 16384; at 8192 the blocked step
# already runs faster than the plain pair.
_BLOCKED_MIN_N = 8192


def _block_shape(n: int) -> tuple[int, int]:
    """(n1, n2) with n1 = 2^floor(log2(n) / 2), for a power-of-two n."""
    n1 = 1 << ((n.bit_length() - 1) // 2)
    return n1, n // n1


@functools.lru_cache(maxsize=4)
def _twiddle(n: int) -> np.ndarray:
    """The four-step twiddle table exp(-2 pi i c b / n) on the (n1, n2) block."""
    n1, n2 = _block_shape(n)
    table = np.exp((-2j * np.pi / n) * (np.arange(n1)[:, None] * np.arange(n2)))
    table.flags.writeable = False  # shared by every step on this n
    return table


def _factors(wf: WaveFunction, U: RealField, dt: float):
    """The potential half-step phase and the kinetic factor; on blocked grids
    the kinetic factor is an (n1, n2) block in the blocked spectrum's order."""
    hbar, m = wf.constants.hbar, wf.constants.mass
    half_v = np.exp(-0.5j * U.values * dt / hbar)
    k = wf.grid.wavenumbers
    if k.size >= _BLOCKED_MIN_N:
        n1, n2 = _block_shape(k.size)
        k = np.ascontiguousarray(k.reshape(n2, n1).T)
    kinetic = np.exp(-0.5j * hbar * k**2 * dt / m)
    return half_v, kinetic


def _apply(values: np.ndarray, half_v: np.ndarray, kinetic: np.ndarray) -> np.ndarray:
    out = half_v * values
    if kinetic.ndim == 1:
        out = np.fft.ifft(kinetic * np.fft.fft(out))
        return half_v * out
    block = out.reshape(kinetic.shape)  # a view: every step below is in place
    twiddle = _twiddle(out.size)
    np.fft.fft(block, axis=0, out=block)
    block *= twiddle
    np.fft.fft(block, axis=1, out=block)
    block *= kinetic
    np.fft.ifft(block, axis=1, out=block)
    # times conj(twiddle), exactly, without a second table
    np.conjugate(block, out=block)
    block *= twiddle
    np.conjugate(block, out=block)
    np.fft.ifft(block, axis=0, out=block)
    out *= half_v
    return out


def step(wf: WaveFunction, U: RealField, dt: float) -> WaveFunction:
    """Advance one Strang step of size dt (dt = 0 returns the state unchanged)."""
    if dt < 0.0:
        raise ValueError("dt must be >= 0")
    if dt == 0.0:
        check_potential_grid(U.grid, wf.grid)
        return wf
    _, values = _states(wf, U, PropagatorConfig(dt, 1))
    return WaveFunction(ComplexField(values, wf.grid), wf.constants, wf.normalizable)


def _states(wf: WaveFunction, U: RealField, config: PropagatorConfig):
    """The Strang loop: yield psi's values at steps 0, 1, ..., config.n_steps.

    The potential's grid and the step's kinetic phase are checked before the
    first value is yielded.  The values are not validated: a caller that
    hands them on wraps them in a field.
    """
    check_potential_grid(U.grid, wf.grid)
    if config.n_steps > 0:
        _check_kinetic_phase(wf, config.dt)
    values = wf.psi.values
    yield values
    half_v, kinetic = _factors(wf, U, config.dt)
    for _ in range(config.n_steps):
        values = _apply(values, half_v, kinetic)
        yield values


def evolve(
    wf: WaveFunction,
    U: RealField,
    config: PropagatorConfig,
    observers=(),
) -> WaveFunction:
    """Run config.n_steps steps, notifying observers with (t, state).

    Observers fire at t = 0 and after every config.snapshot_every steps.
    Observer exceptions propagate and abort the run.
    """
    states = _states(wf, U, config)
    next(states)  # the grid and dt checks run before any observer
    for obs in observers:
        obs(0.0, wf)
    current = wf
    for i, values in enumerate(states, 1):
        if i % config.snapshot_every == 0:
            current = WaveFunction(
                ComplexField(values, wf.grid), wf.constants, wf.normalizable
            )
            t = i * config.dt
            for obs in observers:
                obs(t, current)
    if config.n_steps % config.snapshot_every != 0:
        current = WaveFunction(
            ComplexField(values, wf.grid), wf.constants, wf.normalizable
        )
    return current
