"""Fluid and thermodynamic-analog diagnostics of a wavefunction snapshot.

Extracted fields, with rho = |psi|^2, S the unwrapped phase action,
S~ = S/m, and the per-unit-mass convention throughout:

    u       = J / rho,  J = (hbar/m) Im(psi* dpsi/dx)   (flow velocity)
    v_i     = -(hbar/2m) dln(rho)/dx                    (osmotic velocity)
    I~      = v_i^2 / 2                                 (internal energy density)
    Q~      = -(hbar^2/2m^2) (d2 sqrt(rho)/dx2)/sqrt(rho)   (Bohm potential)
    Pi      = -(hbar/2m)^2 rho d2 ln(rho)/dx2           (pseudo-pressure)
    K~      = u^2 / 2                                   (kinetic density)

Numerical policy: spectral derivatives are applied only to globally smooth
periodic fields (psi, rho, sqrt(rho), J); logarithmic derivatives are formed
as pointwise quotients with a floored density,

    dln(rho)/dx  := (drho/dx) / max(rho, floor)
    d2ln(rho)/dx2 := (d2rho/dx2)/max(rho, floor) - (dln(rho)/dx)^2

which keeps integration-by-parts identities exact at the quadrature level
and stays finite next to density nodes.  The Bohm potential has three
equivalent forms, chosen by ``bohm_form``: "amplitude" is the default,
"wavefunction" (curvature of psi itself) is the right choice for states
whose sqrt(rho) has kinks at nodes, and "log" builds Q~ from the same
quotient-form log derivatives as Pi.  A scenario names its form, and every
check on it, the pointwise enthalpy identity among them, reads that one.

One kernel computes every field from psi.  The public routes read it:
madelung_fields (the whole bundle), velocity (u alone), expectations (the
scalar integrals, the Fisher information among them), bernoulli_residual
and nonspreading_residual (from a MadelungFields).  phase_gradient_velocity
is the one independent route, a finite-difference cross-check of u = J/rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, RealField, _fft, check_potential_grid, derivative_from_transform
from .grid import derivative_values, nearest_fill, nearest_index, same_grid
from .states import (
    DEFAULT_DENSITY_FLOOR,
    PhysicalConstants,
    WaveFunction,
    _unwrapped_phase,
    polar_decompose,
)

__all__ = [
    "MadelungFields",
    "ExpectationReport",
    "madelung_fields",
    "velocity",
    "phase_gradient_velocity",
    "expectations",
    "bernoulli_residual",
    "nonspreading_residual",
]

BOHM_FORMS = ("amplitude", "wavefunction", "log")


@dataclass(frozen=True)
class MadelungFields:
    """One-snapshot bundle of hydrodynamic fields."""

    rho: RealField
    S: RealField
    u: RealField
    div_u: RealField
    Q_tilde: RealField
    Pi: RealField
    internal_density: RealField
    v_i: RealField
    kinetic_density: RealField
    valid_mask: np.ndarray
    constants: PhysicalConstants


@dataclass(frozen=True)
class ExpectationReport:
    """Scalar diagnostics of one snapshot.

    E is the sum form <K~ + Q~ + U~>; E_hamiltonian is the quadratic form
    (1/m) * <psi| H |psi>.  Their gap is reported, not judged here: the
    harness check energy_forms_gap holds it to its tolerance.
    """

    t: float
    norm: float
    K: float
    Q: float
    U: float
    I: float
    E: float
    E_hamiltonian: float
    FI: float
    accel: float
    vi_mean: float
    Pi_integral: float


@dataclass(frozen=True)
class _Kernel:
    """Output of the field kernel.  Every array has the (..., n) shape of the
    psi stack it was computed from.  A velocity-only call leaves the fields
    after u as None, and S is None unless the phase was requested."""

    grid: Grid
    constants: PhysicalConstants
    psi: np.ndarray
    psi_hat: np.ndarray     # _fft(psi)
    rho: np.ndarray
    rho_f: np.ndarray
    floor_mask: np.ndarray  # rho >= floor
    mask: np.ndarray        # floor_mask, restricted to the region when given
    fill: np.ndarray        # nearest_index(mask)
    J: np.ndarray
    u_raw: np.ndarray
    u: np.ndarray
    drho: np.ndarray | None = None
    div_u: np.ndarray | None = None
    w: np.ndarray | None = None  # dln(rho)/dx, quotient form
    v_i: np.ndarray | None = None
    internal: np.ndarray | None = None
    Pi: np.ndarray | None = None
    Q: np.ndarray | None = None
    S: np.ndarray | None = None  # unwrapped phase action


def _kernel(
    psi: np.ndarray, grid: Grid, constants: PhysicalConstants, floor_rel: float,
    bohm_form: str | None = None, region_mask: np.ndarray | None = None, *,
    phase: bool = False,
) -> _Kernel:
    """The field kernel on a (..., n) stack of states, one state per row:
    every transform, reduction and fill runs along the last axis, so a row's
    values do not depend on the rows beside it.  Without a bohm_form it
    stops after the velocity, which is all that advection reads, so the
    phase needs a bohm_form."""
    if bohm_form not in BOHM_FORMS and (bohm_form is not None or phase):
        raise ValueError(f"bohm_form must be one of {BOHM_FORMS}, got {bohm_form!r}")
    hbar, m = constants.hbar, constants.mass
    rho = psi.real**2 + psi.imag**2
    rho_max = rho.max(axis=-1, keepdims=True)
    if np.any(rho_max <= 0.0):
        raise ValueError("density is identically zero")
    floor = floor_rel * rho_max
    if not np.all(floor > 0.0):
        raise ValueError(
            f"floor_rel must be positive, got {floor_rel!r}: "
            "the density quotients need a nonzero floor"
        )
    floor_mask = rho >= floor
    mask = floor_mask if region_mask is None else floor_mask & region_mask
    if not np.all(np.any(mask, axis=-1)):
        raise ValueError("density floor (and region) leave no valid points")
    rho_f = np.maximum(rho, floor)
    fill = nearest_index(mask)

    psi_hat = _fft(psi.copy())
    J = (hbar / m) * (psi.conj() * derivative_from_transform(psi_hat, grid, 1)).imag
    u_raw = J / rho_f
    front = dict(
        grid=grid, constants=constants, psi=psi, psi_hat=psi_hat, rho=rho,
        rho_f=rho_f, floor_mask=floor_mask, mask=mask, fill=fill, J=J,
        u_raw=u_raw, u=np.take_along_axis(u_raw, fill, axis=-1),
    )
    if bohm_form is None:
        return _Kernel(**front)

    # A batch holds every field of every row at once, so the order below
    # keeps few of them alive across each transform: the psi-only Bohm
    # routes first, then the phase, then each rho derivative until spent.
    c_q = hbar * hbar / (2.0 * m * m)
    if bohm_form == "amplitude":
        Q = -c_q * derivative_values(np.sqrt(rho), grid, 2).real / np.sqrt(rho_f)
    elif bohm_form == "wavefunction":
        ddpsi = derivative_from_transform(psi_hat, grid, 2)
        Q = -c_q * ((psi.conj() * ddpsi).real / rho_f) - 0.5 * u_raw * u_raw

    S = None
    if phase:
        # the phase is filled over the density floor alone, never the region
        S_fill = fill if region_mask is None else nearest_index(floor_mask)
        S = np.take_along_axis(_unwrapped_phase(psi, floor_mask, hbar), S_fill, axis=-1)

    half = hbar / (2.0 * m)
    rho_hat = _fft(rho.astype(np.complex128))
    drho = derivative_from_transform(rho_hat, grid, 1).real
    ddrho = derivative_from_transform(rho_hat, grid, 2).real
    del rho_hat
    w = drho / rho_f
    Pi = -(half * half) * (ddrho * (rho / rho_f) - rho * w * w)
    if bohm_form == "log":
        ell2 = ddrho / rho_f - w * w  # d2ln(rho)/dx2, quotient form
        Q = -(half * half) * (ell2 + 0.5 * w * w)
    del ddrho
    dJ = derivative_values(J, grid, 1).real
    div_u = np.take_along_axis(dJ / rho_f - u_raw * w, fill, axis=-1)
    del dJ
    v_i = -half * w
    internal = 0.5 * v_i * v_i
    return _Kernel(
        **front, drho=drho, div_u=div_u, w=w, v_i=v_i, internal=internal,
        Pi=Pi, Q=Q, S=S,
    )


def madelung_fields(
    wf: WaveFunction,
    floor_rel: float = DEFAULT_DENSITY_FLOOR,
    *,
    bohm_form: str = "amplitude",
    region_mask: np.ndarray | None = None,
) -> MadelungFields:
    """All hydrodynamic fields of one snapshot.

    region_mask, when given, further restricts valid_mask (used to confine
    windowed states to their interior); the fields themselves are global.
    """
    wk = _kernel(wf.psi.values, wf.grid, wf.constants, floor_rel, bohm_form,
                 region_mask, phase=True)
    g = wk.grid
    return MadelungFields(
        rho=RealField._unchecked(wk.rho, g),
        S=RealField._unchecked(wk.S, g),
        u=RealField._unchecked(wk.u, g),
        div_u=RealField._unchecked(wk.div_u, g),
        Q_tilde=RealField._unchecked(wk.Q, g),
        Pi=RealField._unchecked(wk.Pi, g),
        internal_density=RealField._unchecked(wk.internal, g),
        v_i=RealField._unchecked(wk.v_i, g),
        kinetic_density=RealField._unchecked(0.5 * wk.u * wk.u, g),
        valid_mask=wk.mask,
        constants=wk.constants,
    )


def velocity(wf: WaveFunction, floor_rel: float = DEFAULT_DENSITY_FLOOR) -> RealField:
    """Flow velocity u = J/rho, extended to masked points by nearest value.

    The cheap route: one derivative of psi, none of the other fields.  The
    values are bit-identical to madelung_fields(wf, floor_rel).u.
    """
    wk = _kernel(wf.psi.values, wf.grid, wf.constants, floor_rel)
    return RealField._unchecked(wk.u, wk.grid)


def phase_gradient_velocity(
    wf: WaveFunction, floor_rel: float = DEFAULT_DENSITY_FLOOR
) -> RealField:
    """Cross-check velocity from the unwrapped phase, u = d(S/m)/dx.

    The unwrapped S is not periodic (it winds for traveling states), so this
    route uses central finite differences instead of the spectral derivative;
    it exists to validate the J/rho path, not to replace it.  The mask is
    eroded by one point on each side so no stencil touches the constant
    extension of S outside the valid region.
    """
    polar = polar_decompose(wf, floor_rel)
    s_tilde = polar.S.values / wf.constants.mass
    grad = np.gradient(s_tilde, wf.grid.dx, edge_order=2)
    mask = polar.valid_mask
    core = mask & np.roll(mask, 1) & np.roll(mask, -1)
    if not np.any(core):
        raise ValueError("valid mask too thin for a finite-difference stencil")
    return RealField(nearest_fill(grad, core), wf.grid)


def expectations(
    wf: WaveFunction,
    U: RealField,
    floor_rel: float = DEFAULT_DENSITY_FLOOR,
    *,
    t: float = 0.0,
    bohm_form: str = "amplitude",
) -> ExpectationReport:
    """Scalar expectation values of one snapshot against a potential U.

    The acceleration expectation is the volume force form
    -<d(Q~+U~)/dx> realized by discrete integration by parts as
    +integral (Q~+U~) drho/dx dx, which is exact under the periodic
    quadrature and free of mask-edge differentiation noise.
    """
    check_potential_grid(U.grid, wf.grid)
    wk = _kernel(wf.psi.values, wf.grid, wf.constants, floor_rel, bohm_form)
    grid, dx = wk.grid, wk.grid.dx
    hbar, m = wk.constants.hbar, wk.constants.mass
    rho = wk.rho

    norm = float(np.sum(rho) * dx)
    K = float(np.sum(rho * 0.5 * wk.u_raw**2) * dx)
    Q = float(np.sum(rho * wk.Q) * dx)
    u_ext = U.values / m
    Uexp = float(np.sum(rho * u_ext) * dx)
    I = float(np.sum(rho * wk.internal) * dx)
    E = K + Q + Uexp

    ddpsi = derivative_from_transform(wk.psi_hat, grid, 2)
    kin_quad = -(hbar**2 / (2.0 * m)) * float(np.sum((wk.psi.conj() * ddpsi).real) * dx)
    E_ham = (kin_quad + float(np.sum(U.values * rho) * dx)) / m

    mask = wk.mask
    fi_integrand = np.where(mask, rho * wk.w**2, 0.0)
    FI = float(np.sum(fi_integrand) * dx)

    accel = float(np.sum((wk.Q + u_ext) * wk.drho) * dx)
    vi_mean = float(np.sum(rho * wk.v_i) * dx)
    Pi_integral = float(np.sum(wk.Pi) * dx)

    return ExpectationReport(
        t=t, norm=norm, K=K, Q=Q, U=Uexp, I=I, E=E, E_hamiltonian=E_ham,
        FI=FI, accel=accel, vi_mean=vi_mean, Pi_integral=Pi_integral,
    )


def bernoulli_residual(
    wf_prev: WaveFunction,
    wf_next: WaveFunction,
    U: RealField,
    dt: float,
    floor_rel: float = DEFAULT_DENSITY_FLOOR,
    *,
    bohm_form: str = "amplitude",
) -> RealField:
    """Residual of dS~/dt + (K~ + Q~ + U~) = 0 between two snapshots.

    The phase rate is the central difference over dt with per-point nearest
    branch matching (2 pi hbar / m period); the energy fields are averaged
    between the two snapshots, which is the matching midpoint value.  Entries
    outside the joint valid mask are zero.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not same_grid(wf_prev.grid, wf_next.grid):
        raise ValueError("snapshots live on different grids")
    check_potential_grid(U.grid, wf_prev.grid)
    pair = np.stack([wf_prev.psi.values, wf_next.psi.values])
    wk = _kernel(pair, wf_prev.grid, wf_prev.constants, floor_rel, bohm_form,
                 phase=True)
    m = wk.constants.mass
    mask = wk.mask[0] & wk.mask[1]
    if not np.any(mask):
        raise ValueError("joint valid mask is empty")

    period = 2.0 * np.pi * wk.constants.hbar / m
    ds = (wk.S[1] - wk.S[0]) / m
    ds -= period * np.round(ds / period)
    rate = ds / dt

    h = 0.5 * wk.u_raw**2 + wk.Q + U.values / m
    residual = rate + 0.5 * (h[0] + h[1])
    return RealField(np.where(mask, residual, 0.0), wk.grid)


def nonspreading_residual(fields: MadelungFields, U: RealField) -> float:
    """Deviation of Q~ + U~ from a linear-in-x profile on the valid mask.

    Least-squares fit of a + b x; returns the maximum absolute fit residual
    normalized by the field's spread (its range, guarded by its magnitude so
    constant profiles do not divide by zero).
    """
    mask = fields.valid_mask
    if int(np.sum(mask)) < 16:
        raise ValueError("valid mask spans fewer than 16 points")
    grid = fields.rho.grid
    f = fields.Q_tilde.values[mask] + U.values[mask] / fields.constants.mass
    x = grid.x[mask]
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, f, rcond=None)
    resid = f - design @ coef
    denom = max(float(np.ptp(f)), float(np.max(np.abs(f))))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(resid)) / denom)
