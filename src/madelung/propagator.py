"""Unitary time evolution by symmetric (Strang) operator splitting.

Each step applies half a potential phase, the exact kinetic factor in
wavenumber space, and the second potential half:

    psi <- exp(-i U dt / 2 hbar) F^-1[ exp(-i hbar k^2 dt / 2 m) F[ ... ] ]

The kinetic factor is exact, so the only time-discretization error is the
second-order splitting commutator; norm is preserved to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, RealField, _fft, _ifft, _spectral, check_potential_grid
from .states import WaveFunction

__all__ = ["PropagatorConfig", "step", "evolve"]


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float
    n_steps: int
    snapshot_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        for name, least in (("n_steps", 0), ("snapshot_every", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


# Spectral amplitudes below this fraction of the largest one are roundoff or
# a negligible tail: the state does not occupy those wavenumbers.
_OCCUPIED_REL = 1e-10


def _check_kinetic_phase(wf: WaveFunction, dt: float) -> None:
    """Reject a dt whose kinetic phase per step reaches pi at the highest
    wavenumber the state occupies: past that, per-step phases alias and the
    phase rate between snapshots is no longer defined.  The grid's own
    Nyquist mode does not count, because the kinetic factor is exact."""
    amp = np.abs(_fft(wf.psi.values.copy()))
    k_max = float(np.max(np.abs(_spectral(wf.grid)[0][amp >= _OCCUPIED_REL * amp.max()])))
    phase = wf.constants.hbar * k_max**2 * dt / (2.0 * wf.constants.mass)
    if phase >= np.pi:
        raise ValueError(
            f"kinetic phase per step {phase:.4g} at the state's highest occupied "
            f"wavenumber {k_max:.4g} exceeds pi; reduce dt"
        )


def _factors(wf: WaveFunction, U: RealField, dt: float):
    """The potential half-step phase and the kinetic factor, the latter in
    the order of the grid's spectrum."""
    hbar, m = wf.constants.hbar, wf.constants.mass
    half_v = np.exp(-0.5j * U.values * dt / hbar)
    k = _spectral(wf.grid)[0]
    kinetic = np.exp(-0.5j * hbar * k**2 * dt / m)
    return half_v, kinetic


def _apply(values: np.ndarray, half_v: np.ndarray, kinetic: np.ndarray) -> np.ndarray:
    out = _fft(half_v * values)  # the one array a step allocates
    np.multiply(kinetic, out, out=out)
    return np.multiply(half_v, _ifft(out), out=out)


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
        snapshot = i % config.snapshot_every == 0
        if snapshot or i == config.n_steps:
            current = WaveFunction(ComplexField(values, wf.grid), wf.constants, wf.normalizable)
        if snapshot:
            for obs in observers:
                obs(i * config.dt, current)
    return current
