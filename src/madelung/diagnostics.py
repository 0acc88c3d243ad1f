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

One kernel defines every field once, as a stage computed from psi when a
route first reads it, so each public route computes only the fields it reads
and drops each once it is reduced or handed on: madelung_fields (the whole
bundle), velocity (u alone), expectations (the scalar integrals, the Fisher
information among them; no fill, u, div u or phase), bernoulli_residual (the
phase, J and Q~ of two snapshots) and nonspreading_residual (from a
MadelungFields); states.polar_decompose reads the kernel's rho, floor mask
and S.  phase_gradient_velocity is the one independent route, a
finite-difference cross-check of u = J/rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, RealField, _fft, _number, check_potential_grid, derivative_from_transform
from .grid import derivative_values, nearest_fill, nearest_index, same_grid
from .states import DEFAULT_DENSITY_FLOOR, PhysicalConstants, WaveFunction

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


def _unwrapped_phase(psi: np.ndarray, mask: np.ndarray, hbar: float) -> np.ndarray:
    """hbar * arg(psi) unwrapped left to right across the valid points of
    each row of a (..., n) array; zero at masked-out points, which the caller
    fills.

    Only valid points are read: each row's valid phases are packed, in
    order, to the front of a zero-padded (rows, k) array, and the unwrap
    runs along its last axis.
    """
    n = psi.shape[-1]
    valid = mask.reshape(-1, n)
    rows, cols = np.nonzero(valid)
    counts = np.count_nonzero(valid, axis=-1)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    th = np.zeros((counts.size, counts.max()))
    th[rows, rank] = np.angle(psi.reshape(-1, n)[rows, cols])
    jumps = np.diff(th, axis=-1)
    jumps -= 2.0 * np.pi * np.round(jumps / (2.0 * np.pi))
    unwrapped = np.concatenate((th[:, :1], th[:, :1] + np.cumsum(jumps, axis=-1)), axis=-1)
    S = np.zeros(psi.shape)
    S.reshape(-1, n)[rows, cols] = hbar * unwrapped[rows, rank]
    return S


def _take_rows(index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.take_along_axis(values, index, axis=-1) for a (..., n) stack and a
    gather map of its shape, as one flat gather: each row's map is offset by
    the row's start in the flattened stack."""
    if values.ndim > 1:
        n = values.shape[-1]
        index = index + np.arange(0, values.size, n).reshape(values.shape[:-1] + (1,))
    return values.reshape(-1)[index]


class _Kernel:
    """The field kernel on a (..., n) stack of states, one state per row:
    every transform, reduction and fill runs along the last axis, so a row's
    values do not depend on the rows beside it.

    The constructor judges floor_rel by the number rule, then forms and
    checks the density, its floor and its masks.  Every other field is a
    stage, a cached property with one definition below: it is computed from
    psi when a route first reads it and kept until the route drops it, so a
    route computes the fields it reads and no others."""

    def __init__(self, psi: np.ndarray, grid: Grid, constants: PhysicalConstants,
                 floor_rel: float, bohm_form: str = "amplitude",
                 region_mask: np.ndarray | None = None):
        _number("floor_rel", floor_rel, "positive")
        if bohm_form not in BOHM_FORMS:
            raise ValueError(f"bohm_form must be one of {BOHM_FORMS}, got {bohm_form!r}")
        rho = psi.real**2 + psi.imag**2
        rho_max = rho.max(axis=-1, keepdims=True)
        if np.any(rho_max <= 0.0):
            raise ValueError("density is identically zero")
        floor = floor_rel * rho_max
        if not np.all(floor > 0.0):
            raise ValueError(f"floor_rel = {floor_rel!r} times the peak density underflows "
                             "to 0: the density quotients need a nonzero floor")
        self.floor_mask = rho >= floor
        self.mask = self.floor_mask if region_mask is None else self.floor_mask & region_mask
        if not np.all(np.any(self.mask, axis=-1)):
            raise ValueError("density floor (and region) leave no valid points")
        self.psi, self.grid, self.bohm_form, self.region_mask = psi, grid, bohm_form, region_mask
        self.rho, self.rho_f = rho, np.maximum(rho, floor)
        self.constants, self.hbar, self.m = constants, constants.hbar, constants.mass
        self.half = self.hbar / (2.0 * self.m)

    def drop(self, *names: str) -> None:
        """Let the named stages go; a later read computes them again."""
        for name in names:
            self.__dict__.pop(name, None)

    # Where a stage reads the fill, it reads it first, so the fill's scratch
    # arrays are gone before psi's transform is made.
    psi_hat = cached_property(lambda k: _fft(k.psi.copy()))
    ddpsi = cached_property(lambda k: derivative_from_transform(k.psi_hat, k.grid, 2))
    J = cached_property(lambda k: (k.hbar / k.m) * (
        k.psi.conj() * derivative_from_transform(k.psi_hat, k.grid, 1)).imag)
    u_raw = cached_property(lambda k: k.J / k.rho_f)
    # one gather map fills u, div_u and, without a region, S
    fill = cached_property(lambda k: nearest_index(k.mask))
    u = cached_property(lambda k: _take_rows(k.fill, k.u_raw))
    # the unwrapped phase action, filled over the density floor alone
    S = cached_property(lambda k: _take_rows(
        k.fill if k.region_mask is None else nearest_index(k.floor_mask),
        _unwrapped_phase(k.psi, k.floor_mask, k.hbar)))
    rho_hat = cached_property(lambda k: _fft(k.rho.astype(np.complex128)))
    drho = cached_property(lambda k: derivative_from_transform(k.rho_hat, k.grid, 1).real)
    ddrho = cached_property(lambda k: derivative_from_transform(k.rho_hat, k.grid, 2).real)
    w = cached_property(lambda k: k.drho / k.rho_f)  # dln(rho)/dx, quotient form
    Pi = cached_property(lambda k: -(k.half * k.half) * (
        k.ddrho * (k.rho / k.rho_f) - k.rho * k.w * k.w))
    div_u = cached_property(lambda k: _take_rows(
        k.fill, derivative_values(k.J, k.grid, 1).real / k.rho_f - k.u_raw * k.w))
    v_i = cached_property(lambda k: -k.half * k.w)
    internal = cached_property(lambda k: 0.5 * k.v_i * k.v_i)

    @cached_property
    def Q(k):  # in the kernel's bohm_form
        c_q = k.hbar * k.hbar / (2.0 * k.m * k.m)
        if k.bohm_form == "amplitude":
            return -c_q * derivative_values(np.sqrt(k.rho), k.grid, 2).real / np.sqrt(k.rho_f)
        if k.bohm_form == "wavefunction":
            return -c_q * ((k.psi.conj() * k.ddpsi).real / k.rho_f) - 0.5 * k.u_raw * k.u_raw
        ell2 = k.ddrho / k.rho_f - k.w * k.w  # d2ln(rho)/dx2, quotient form
        return -(k.half * k.half) * (ell2 + 0.5 * k.w * k.w)


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
    wk = _Kernel(wf.psi.values, wf.grid, wf.constants, floor_rel, bohm_form, region_mask)
    # formed in an order that lets each transform and its quotients go once spent
    u, Q = wk.u, wk.Q
    wk.drop("psi_hat", "ddpsi")
    Pi = wk.Pi
    wk.drop("rho_hat", "ddrho")
    div_u, S = wk.div_u, wk.S
    wk.drop("J", "u_raw", "drho", "fill")
    g = wk.grid
    return MadelungFields(
        rho=RealField._unchecked(wk.rho, g),
        S=RealField._unchecked(S, g),
        u=RealField._unchecked(u, g),
        div_u=RealField._unchecked(div_u, g),
        Q_tilde=RealField._unchecked(Q, g),
        Pi=RealField._unchecked(Pi, g),
        internal_density=RealField._unchecked(wk.internal, g),
        v_i=RealField._unchecked(wk.v_i, g),
        kinetic_density=RealField._unchecked(0.5 * u * u, g),
        valid_mask=wk.mask,
        constants=wk.constants,
    )


def velocity(wf: WaveFunction, floor_rel: float = DEFAULT_DENSITY_FLOOR) -> RealField:
    """Flow velocity u = J/rho, extended to masked points by nearest value.

    The cheap route: one derivative of psi, none of the other fields.  The
    values are bit-identical to madelung_fields(wf, floor_rel).u.
    """
    return RealField._unchecked(_Kernel(wf.psi.values, wf.grid, wf.constants, floor_rel).u,
                                wf.grid)


def phase_gradient_velocity(
    wf: WaveFunction, floor_rel: float = DEFAULT_DENSITY_FLOOR
) -> RealField:
    """Cross-check of the J/rho path, u = (hbar/m) d(arg psi)/dx by central
    differences of the wrapped phase steps angle(psi[j+1] conj psi[j]): no
    unwrap, any step below pi.  A node between two samples turns its step by
    pi against both neighbours; the two stencils reading it, and any touching
    a point below the density floor, are dropped and filled from the nearest.
    """
    wk = _Kernel(wf.psi.values, wf.grid, wf.constants, floor_rel)
    step = np.angle(np.roll(wk.psi, -1) * wk.psi.conj())  # from x_j to x_j+1, periodic
    turn = np.abs(np.remainder(step - np.roll(step, 1) + np.pi, 2.0 * np.pi) - np.pi)
    node = (turn >= 0.5 * np.pi) & (np.roll(turn, -1) >= 0.5 * np.pi)
    kept = wk.floor_mask & np.roll(wk.floor_mask, -1) & ~node
    core = kept & np.roll(kept, 1)  # both steps of the stencil at x_j
    if not np.any(core):
        raise ValueError("no finite-difference stencil lies above the floor and off nodes")
    grad = (wk.half / wf.grid.dx) * (step + np.roll(step, 1))
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
    _number("t", t)
    check_potential_grid(U.grid, wf.grid)
    wk = _Kernel(wf.psi.values, wf.grid, wf.constants, floor_rel, bohm_form)
    hbar, m, rho = wk.hbar, wk.m, wk.rho

    def integral(values):
        return float(np.sum(values) * wk.grid.dx)

    # each field is reduced as soon as it is formed and dropped once spent,
    # so few arrays of n values are alive at once: Q~, then the fields of
    # rho's transform, then those of psi's
    norm = integral(rho)
    Uexp = integral(rho * (U.values / m))
    Q_field = wk.Q
    wk.drop("Q", "psi_hat", "J")  # the wavefunction form keeps u_raw and psi'' for K and E_ham
    Q = integral(rho * Q_field)
    accel = integral((Q_field + U.values / m) * wk.drho)
    del Q_field
    FI = integral(np.where(wk.mask, rho * wk.w**2, 0.0))
    wk.drop("drho")
    Pi_integral = integral(wk.Pi)
    wk.drop("rho_hat", "ddrho", "Pi")
    I = integral(rho * wk.internal)
    vi_mean = integral(rho * wk.v_i)
    wk.drop("w", "v_i", "internal")
    K = integral(rho * 0.5 * wk.u_raw**2)
    ddpsi = wk.ddpsi
    wk.drop("psi_hat", "J", "u_raw", "ddpsi")
    kin_quad = -(hbar**2 / (2.0 * m)) * integral((wk.psi.conj() * ddpsi).real)
    E = K + Q + Uexp
    E_ham = (kin_quad + integral(U.values * rho)) / m

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
    _number("dt", dt, "positive")
    if not same_grid(wf_prev.grid, wf_next.grid):
        raise ValueError("snapshots live on different grids")
    check_potential_grid(U.grid, wf_prev.grid)
    pair = np.stack([wf_prev.psi.values, wf_next.psi.values])
    wk = _Kernel(pair, wf_prev.grid, wf_prev.constants, floor_rel, bohm_form)
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
