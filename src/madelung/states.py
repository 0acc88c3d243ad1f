"""Wavefunction construction and polar decomposition.

Factories build normalized states on a periodic grid: Gaussian packets,
plane waves, the harmonic-oscillator ground state, a windowed accelerating
Airy packet, and the linear-potential ("quantum bouncer") eigenstate.  The
polar split psi = sqrt(rho) * exp(i S / hbar) above a density floor is read
from the field kernel of `diagnostics`, which states its floor policy once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, Grid, RealField, integrate
from .special import airy_ai, airy_ai_first_zero

__all__ = [
    "PhysicalConstants",
    "WaveFunction",
    "PolarDecomposition",
    "gaussian_packet",
    "plane_wave",
    "harmonic_ground_state",
    "airy_packet",
    "bouncer_eigenstate",
    "polar_decompose",
]

DEFAULT_DENSITY_FLOOR = 1e-12

# Airy arguments beyond this are under 1e-40 and below double-precision
# relevance; the tail is clamped to zero instead of evaluated.
_AIRY_TAIL_CUT = 26.0


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar and particle mass; natural units by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class WaveFunction:
    psi: ComplexField
    constants: PhysicalConstants
    normalizable: bool = True

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    def density(self) -> RealField:
        v = self.psi.values
        return RealField(v.real**2 + v.imag**2, self.grid)

    def norm(self) -> float:
        return integrate(self.density())


@dataclass(frozen=True)
class PolarDecomposition:
    rho: RealField
    S: RealField
    valid_mask: np.ndarray


def _normalized(values: np.ndarray, grid: Grid) -> np.ndarray:
    rho = values.real**2 + values.imag**2
    total = float(np.sum(rho) * grid.dx)
    if total <= 0.0:
        raise ValueError("cannot normalize a vanishing state")
    return values / math.sqrt(total)


def _gaussian_tail_mass(grid: Grid, x0: float, sigma: float) -> float:
    # Probability mass of the (density) Gaussian outside the domain.
    right = 0.5 * math.erfc((grid.x_max - x0) / (math.sqrt(2.0) * sigma))
    left = 0.5 * math.erfc((x0 - grid.x_min) / (math.sqrt(2.0) * sigma))
    return left + right


def gaussian_packet(
    grid: Grid,
    constants: PhysicalConstants,
    x0: float,
    sigma0: float,
    k0: float = 0.0,
) -> WaveFunction:
    """Normalized Gaussian with density std sigma0 and plane-wave phase k0."""
    if sigma0 <= 0.0:
        raise ValueError("sigma0 must be positive")
    if abs(k0) >= math.pi / grid.dx:
        # the grid would hold the alias k0 - 2 pi m / dx, not the packet asked for
        raise ValueError(f"k0 = {k0!r} is not below the grid's Nyquist wavenumber "
                         f"pi/dx = {math.pi / grid.dx:.4g}")
    if (x0 - grid.x_min) < 6.0 * sigma0 or (grid.x_max - x0) < 6.0 * sigma0:
        raise ValueError("Gaussian support must stay >= 6 sigma from the domain edges")
    tail = _gaussian_tail_mass(grid, x0, sigma0)
    if tail > 1e-12:
        raise ValueError(f"Gaussian tail mass at the domain edge is {tail:.2e} > 1e-12")
    xs = grid.x - x0
    envelope = np.exp(-(xs * xs) / (4.0 * sigma0 * sigma0))
    psi = envelope * np.exp(1j * k0 * grid.x)
    return WaveFunction(ComplexField(_normalized(psi, grid), grid), constants)


def plane_wave(grid: Grid, constants: PhysicalConstants, mode_index: int) -> WaveFunction:
    """Single grid mode exp(i k x)/sqrt(L) with k = 2 pi mode / L."""
    if not isinstance(mode_index, (int, np.integer)):
        raise ValueError("mode_index must be an integer")
    if abs(int(mode_index)) >= grid.n // 2:
        raise ValueError(
            f"mode_index {mode_index} is not a resolvable grid mode (|m| < n/2)"
        )
    k = 2.0 * math.pi * int(mode_index) / grid.length
    psi = np.exp(1j * k * grid.x) / math.sqrt(grid.length)
    return WaveFunction(ComplexField(psi, grid), constants)


def harmonic_ground_state(
    grid: Grid, constants: PhysicalConstants, omega: float
) -> WaveFunction:
    """Ground state of U = m omega^2 x^2 / 2, centered at x = 0."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    ell = math.sqrt(constants.hbar / (constants.mass * omega))
    half = 0.5 * grid.length
    if ell > half / 6.0:
        raise ValueError("oscillator length must be >= 6x smaller than the half-domain")
    sigma_rho = ell / math.sqrt(2.0)
    tail = _gaussian_tail_mass(grid, 0.0, sigma_rho)
    if tail > 1e-12:
        raise ValueError(f"ground-state tail mass at the domain edge is {tail:.2e}")
    psi = np.exp(-constants.mass * omega * grid.x**2 / (2.0 * constants.hbar))
    psi = psi.astype(np.complex128)
    return WaveFunction(ComplexField(_normalized(psi, grid), grid), constants)


def _airy_window(grid: Grid) -> np.ndarray:
    # Smooth taper: ~1 over the central region, below 1e-7 at the seam.
    lo = grid.x_min + 0.125 * grid.length
    hi = grid.x_max - 0.125 * grid.length
    tau = grid.length / 64.0
    return 0.25 * (1.0 + np.tanh((grid.x - lo) / tau)) * (1.0 + np.tanh((hi - grid.x) / tau))


def airy_interior_window(grid: Grid) -> np.ndarray:
    """Boolean mask of the central 50% of the domain, where the windowed
    Airy packet is faithful and its diagnostics are evaluated."""
    quarter = 0.25 * grid.length
    return (grid.x >= grid.x_min + quarter) & (grid.x <= grid.x_max - quarter)


def airy_packet(
    grid: Grid, constants: PhysicalConstants, scale_B: float, t: float = 0.0
) -> WaveFunction:
    """Windowed accelerating Airy packet at time t.

    The profile is Ai(B (x - a t^2)) with a = hbar^2 B^3 / (4 m^2), carrying
    the phase that makes it a free-evolution solution.  The true state has
    infinite norm, so it is tapered near the domain edges and normalized over
    the window; the returned wavefunction is flagged non-normalizable and its
    diagnostics should be restricted to the interior window.
    """
    if scale_B <= 0.0:
        raise ValueError("scale_B must be positive")
    hbar, m = constants.hbar, constants.mass
    B = float(scale_B)
    accel = hbar**2 * B**3 / (4.0 * m**2)
    z = B * (grid.x - accel * t * t)
    window = _airy_window(grid)
    if np.any((np.abs(z) > _AIRY_TAIL_CUT) & (window > 1e-8)):
        raise ValueError("scale_B pushes the Airy argument out of range under the taper")
    amp = airy_ai(np.clip(z, -_AIRY_TAIL_CUT, _AIRY_TAIL_CUT))
    amp[np.abs(z) > _AIRY_TAIL_CUT] = 0.0
    interior = airy_interior_window(grid)
    signs = np.sign(amp[interior])
    flips = int(np.sum(np.abs(np.diff(signs)) > 1.5))
    if flips < 3:
        raise ValueError(
            "scale_B places fewer than 3 Airy oscillations in the interior window"
        )
    theta = (hbar * B**3 * t / (2.0 * m)) * grid.x - (hbar**3 * B**6 / (12.0 * m**3)) * t**3
    psi = amp * window * np.exp(1j * theta)
    psi = _normalized(psi, grid)
    rho = psi.real**2 + psi.imag**2
    outer = int(round(0.10 * grid.n))
    edge_mass = float((np.sum(rho[:outer]) + np.sum(rho[-outer:])) * grid.dx)
    if edge_mass > 0.01:
        raise ValueError(
            f"windowed packet carries {edge_mass:.1%} of its mass near the edges"
        )
    return WaveFunction(ComplexField(psi, grid), constants, normalizable=False)


def bouncer_eigenstate(grid: Grid, constants: PhysicalConstants, g: float) -> WaveFunction:
    """Ground eigenstate of a linear potential over a hard wall at x = 0.

    Realized as the odd periodic extension sign(x) * Ai(|x|/ell + a1), which
    is the same profile on x >= 0 (node at the wall included) but smooth
    enough for spectral differentiation.  Static diagnostics only; the hard
    wall is incompatible with periodic time evolution.
    """
    if g <= 0.0:
        raise ValueError("g must be positive")
    hbar, m = constants.hbar, constants.mass
    ell = (hbar**2 / (2.0 * m**2 * g)) ** (1.0 / 3.0)
    if ell < 8.0 * grid.dx:
        raise ValueError(
            f"bouncer length scale {ell:.3g} is resolved by fewer than 8 grid points"
        )
    a1 = airy_ai_first_zero()
    z = np.abs(grid.x) / ell + a1
    amp = np.where(z <= _AIRY_TAIL_CUT, airy_ai(np.clip(z, a1 - 1.0, _AIRY_TAIL_CUT)), 0.0)
    psi = np.sign(grid.x) * amp
    edge = max(abs(psi[0]), abs(psi[-1]))
    if edge > 1e-6 * np.max(np.abs(psi)):
        raise ValueError("domain too narrow: bouncer tail does not decay at the edges")
    psi = psi.astype(np.complex128)
    return WaveFunction(ComplexField(_normalized(psi, grid), grid), constants)


def polar_decompose(
    wf: WaveFunction, density_floor_rel: float = DEFAULT_DENSITY_FLOOR
) -> PolarDecomposition:
    """Split psi into (rho, S) with S = hbar * arg(psi) unwrapped in 1D.

    The field kernel's density, floor mask and phase action at the relative
    floor density_floor_rel > 0: the mask marks rho >= density_floor_rel *
    max(rho), 2 pi hbar jumps are removed left to right across valid points,
    and masked-out points inherit the nearest valid phase.
    """
    from .diagnostics import _Kernel  # the kernel's module imports this one

    wk = _Kernel(wf.psi.values, wf.grid, wf.constants, density_floor_rel)
    return PolarDecomposition(
        rho=RealField(wk.rho, wf.grid), S=RealField(wk.S, wf.grid), valid_mask=wk.floor_mask
    )
