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

from .grid import ComplexField, RealField, _fft, _number, _spectral, _strang, check_potential_grid
from .states import WaveFunction

__all__ = ["PropagatorConfig", "step", "evolve"]


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float
    n_steps: int
    snapshot_every: int = 1

    def __post_init__(self):
        _number("dt", self.dt, "positive")
        _number("n_steps", self.n_steps, "integer", 0)
        _number("snapshot_every", self.snapshot_every, "integer", 1)


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


def step(wf: WaveFunction, U: RealField, dt: float) -> WaveFunction:
    """Advance one Strang step of size dt (dt = 0 returns the state unchanged)."""
    if _number("dt", dt, "finite", 0) == 0:
        check_potential_grid(U.grid, wf.grid)
        return wf
    _, values = _states(wf, U, PropagatorConfig(dt, 1))
    return WaveFunction(ComplexField(values, wf.grid), wf.constants, wf.normalizable)


def _states(wf: WaveFunction, U: RealField, config: PropagatorConfig, every: int = 1):
    """The Strang loop: yield psi's values at step 0, at every ``every``-th
    step and at step config.n_steps.

    The potential's grid and the step's kinetic phase are checked before the
    first value is yielded.  The values are not validated: a caller that
    hands them on wraps them in a field.  The steps run in grid._strang,
    which chooses their loop.
    """
    check_potential_grid(U.grid, wf.grid)
    if config.n_steps > 0:
        _check_kinetic_phase(wf, config.dt)
    values = wf.psi.values
    yield values
    yield from _strang(values, *_factors(wf, U, config.dt), config.n_steps, every)


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
    every = config.snapshot_every
    states = _states(wf, U, config, every)
    next(states)  # the grid and dt checks run before any observer
    for obs in observers:
        obs(0.0, wf)
    current, i = wf, 0
    for values in states:  # the snapshots, and the last step
        i = min(i + every, config.n_steps)
        current = WaveFunction(ComplexField(values, wf.grid), wf.constants, wf.normalizable)
        if i % every == 0:
            for obs in observers:
                obs(i * config.dt, current)
    return current
