"""Each diagnostic route computes only the fields it reads, and reads them
bit for bit as the whole kernel did.

The reference below is the arithmetic of the one-pass kernel that computed
every field for every caller, with the scalar reductions of `expectations`
and `bernoulli_residual` and the flow stream's record rows on top of it,
and the polar split as `polar_decompose` made it before it read the kernel.
Every route must match it exactly (`np.array_equal`, `==` on the report
fields); the transform counts and the memory peak pin what the routes save.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from madelung import diagnostics, trajectories
from madelung import grid as grid_module
from madelung.diagnostics import _unwrapped_phase, bernoulli_residual, expectations
from madelung.diagnostics import madelung_fields, velocity
from madelung.grid import (
    ComplexField,
    RealField,
    _fft,
    derivative_from_transform,
    derivative_values,
    make_grid,
    nearest_fill,
    nearest_index,
)
from madelung.harness import ScenarioRun, apply_overrides, builtin_scenarios
from madelung.propagator import PropagatorConfig, _states, step
from madelung.states import (
    PhysicalConstants,
    WaveFunction,
    airy_interior_window,
    gaussian_packet,
    polar_decompose,
)

BOHM_FORMS = ("amplitude", "wavefunction", "log")


# -- the reference ----------------------------------------------------------


def _kernel_reference(psi, grid, constants, floor_rel, bohm_form, region_mask=None):
    """Every field of a (..., n) psi stack in one pass, as a dict."""
    hbar, m = constants.hbar, constants.mass
    rho = psi.real**2 + psi.imag**2
    floor = floor_rel * rho.max(axis=-1, keepdims=True)
    floor_mask = rho >= floor
    mask = floor_mask if region_mask is None else floor_mask & region_mask
    rho_f = np.maximum(rho, floor)
    fill = nearest_index(mask)

    psi_hat = _fft(psi.copy())
    J = (hbar / m) * (psi.conj() * derivative_from_transform(psi_hat, grid, 1)).imag
    u_raw = J / rho_f
    c_q = hbar * hbar / (2.0 * m * m)
    if bohm_form == "amplitude":
        Q = -c_q * derivative_values(np.sqrt(rho), grid, 2).real / np.sqrt(rho_f)
    elif bohm_form == "wavefunction":
        ddpsi = derivative_from_transform(psi_hat, grid, 2)
        Q = -c_q * ((psi.conj() * ddpsi).real / rho_f) - 0.5 * u_raw * u_raw
    S_fill = fill if region_mask is None else nearest_index(floor_mask)
    S = np.take_along_axis(_unwrapped_phase(psi, floor_mask, hbar), S_fill, axis=-1)

    half = hbar / (2.0 * m)
    rho_hat = _fft(rho.astype(np.complex128))
    drho = derivative_from_transform(rho_hat, grid, 1).real
    ddrho = derivative_from_transform(rho_hat, grid, 2).real
    w = drho / rho_f
    Pi = -(half * half) * (ddrho * (rho / rho_f) - rho * w * w)
    if bohm_form == "log":
        ell2 = ddrho / rho_f - w * w
        Q = -(half * half) * (ell2 + 0.5 * w * w)
    dJ = derivative_values(J, grid, 1).real
    div_u = np.take_along_axis(dJ / rho_f - u_raw * w, fill, axis=-1)
    v_i = -half * w
    return dict(psi=psi, psi_hat=psi_hat, rho=rho, rho_f=rho_f, mask=mask, u_raw=u_raw,
                u=np.take_along_axis(u_raw, fill, axis=-1), drho=drho, div_u=div_u, w=w,
                v_i=v_i, internal=0.5 * v_i * v_i, Pi=Pi, Q=Q, S=S)


def _expectations_reference(wf, U, floor_rel, bohm_form):
    k = _kernel_reference(wf.psi.values, wf.grid, wf.constants, floor_rel, bohm_form)
    dx, hbar, m = wf.grid.dx, wf.constants.hbar, wf.constants.mass
    rho = k["rho"]
    K = float(np.sum(rho * 0.5 * k["u_raw"]**2) * dx)
    Q = float(np.sum(rho * k["Q"]) * dx)
    u_ext = U.values / m
    Uexp = float(np.sum(rho * u_ext) * dx)
    ddpsi = derivative_from_transform(k["psi_hat"], wf.grid, 2)
    kin_quad = -(hbar**2 / (2.0 * m)) * float(np.sum((k["psi"].conj() * ddpsi).real) * dx)
    return dict(
        norm=float(np.sum(rho) * dx), K=K, Q=Q, U=Uexp,
        I=float(np.sum(rho * k["internal"]) * dx), E=K + Q + Uexp,
        E_hamiltonian=(kin_quad + float(np.sum(U.values * rho) * dx)) / m,
        FI=float(np.sum(np.where(k["mask"], rho * k["w"]**2, 0.0)) * dx),
        accel=float(np.sum((k["Q"] + u_ext) * k["drho"]) * dx),
        vi_mean=float(np.sum(rho * k["v_i"]) * dx),
        Pi_integral=float(np.sum(k["Pi"]) * dx),
    )


def _bernoulli_reference(wf_prev, wf_next, U, dt, floor_rel, bohm_form):
    pair = np.stack([wf_prev.psi.values, wf_next.psi.values])
    k = _kernel_reference(pair, wf_prev.grid, wf_prev.constants, floor_rel, bohm_form)
    m = wf_prev.constants.mass
    period = 2.0 * np.pi * wf_prev.constants.hbar / m
    ds = (k["S"][1] - k["S"][0]) / m
    ds -= period * np.round(ds / period)
    h = 0.5 * k["u_raw"]**2 + k["Q"] + U.values / m
    residual = ds / dt + 0.5 * (h[0] + h[1])
    return np.where(k["mask"][0] & k["mask"][1], residual, 0.0)


def _flow_rows_reference(wf0, U, dt, n_steps, floor_rel, bohm_form):
    """The record rows at the whole steps and the velocities at the half
    steps of the dt/2 evolution; a row of a batch is the row alone."""
    states = np.array(list(_states(wf0, U, PropagatorConfig(dt / 2.0, 2 * n_steps))))
    c = wf0.constants
    k = _kernel_reference(states[0::2], wf0.grid, c, floor_rel, bohm_form)
    u = k["u"]
    rows = np.stack((u, k["div_u"], np.log(k["rho_f"]), 0.5 * u * u - k["Q"] - U.values / c.mass,
                     k["S"] / c.mass, k["rho"]), axis=1)
    half = _kernel_reference(states[1::2], wf0.grid, c, floor_rel, bohm_form)["u"]
    return rows, half


def _polar_reference(wf, density_floor_rel):
    """polar_decompose as it was before it read the kernel: its own floor,
    checks and nearest-value fill."""
    psi = wf.psi.values
    rho = psi.real**2 + psi.imag**2
    rho_max = float(rho.max())
    if rho_max <= 0.0:
        raise ValueError("state has vanished: density is identically zero")
    mask = rho >= density_floor_rel * rho_max
    if not np.any(mask):
        raise ValueError("density floor leaves no valid points")
    S = nearest_fill(_unwrapped_phase(psi, mask, wf.constants.hbar), mask)
    return rho, S, mask


# -- the cases ----------------------------------------------------------------


def _superposed(grid, constants):
    """The superposed packet that the desk grid under-resolves: two unit
    Gaussians a + 0.7 e^{0.4 i} b, normalised, under a cosine potential."""
    a = gaussian_packet(grid, constants, -1.0, 1.0, 2.0).psi.values
    b = gaussian_packet(grid, constants, 1.0, 1.0, -1.5).psi.values
    psi = a + 0.7 * np.exp(0.4j) * b
    psi = psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.dx))
    U = RealField(1.3 * np.cos(4.0 * np.pi * grid.x / grid.length + 0.2), grid)
    return WaveFunction(ComplexField(psi, grid), constants), U, 1e-12


def _case(name, n):
    if name == "superposed":
        return _superposed(make_grid(n, -20.0, 20.0), PhysicalConstants())
    scenario = {s.name: s for s in builtin_scenarios()}[name]
    if n != scenario.grid.n:
        scenario = apply_overrides(scenario, {"grid.n": n})
    run = ScenarioRun(scenario)
    return run.wf0, run.U, scenario.floor_rel


CASES = [s.name for s in builtin_scenarios()] + ["superposed"]


@pytest.fixture(params=[512, 8192], ids=["n512", "n8192"])
def n(request):
    return request.param


@pytest.mark.parametrize("bohm_form", BOHM_FORMS)
@pytest.mark.parametrize("name", CASES)
class TestRoutesMatchTheWholeKernel:
    def test_fields_with_and_without_a_region(self, name, n, bohm_form):
        wf, _, floor_rel = _case(name, n)
        for region in (None, airy_interior_window(wf.grid)):
            ref = _kernel_reference(wf.psi.values, wf.grid, wf.constants, floor_rel,
                                    bohm_form, region)
            f = madelung_fields(wf, floor_rel, bohm_form=bohm_form, region_mask=region)
            for name_, key in (("rho", "rho"), ("S", "S"), ("u", "u"), ("div_u", "div_u"),
                               ("Q_tilde", "Q"), ("Pi", "Pi"), ("internal_density", "internal"),
                               ("v_i", "v_i")):
                assert np.array_equal(getattr(f, name_).values, ref[key]), name_
            assert np.array_equal(f.kinetic_density.values, 0.5 * ref["u"] * ref["u"])
            assert np.array_equal(f.valid_mask, ref["mask"])

    def test_velocity(self, name, n, bohm_form):
        wf, _, floor_rel = _case(name, n)
        ref = _kernel_reference(wf.psi.values, wf.grid, wf.constants, floor_rel, bohm_form)
        assert np.array_equal(velocity(wf, floor_rel).values, ref["u"])

    def test_expectations(self, name, n, bohm_form):
        wf, U, floor_rel = _case(name, n)
        report = expectations(wf, U, floor_rel, t=0.25, bohm_form=bohm_form)
        ref = _expectations_reference(wf, U, floor_rel, bohm_form)
        assert report.t == 0.25
        for key, value in ref.items():
            assert getattr(report, key) == value, key

    def test_bernoulli_residual(self, name, n, bohm_form):
        wf, U, floor_rel = _case(name, n)
        dt = 1e-4  # under the kinetic-phase limit of every case at n = 8192
        wf_next = step(wf, U, dt)
        got = bernoulli_residual(wf, wf_next, U, dt, floor_rel, bohm_form=bohm_form)
        ref = _bernoulli_reference(wf, wf_next, U, dt, floor_rel, bohm_form)
        assert np.array_equal(got.values, ref)


@pytest.mark.parametrize("bohm_form", BOHM_FORMS)
@pytest.mark.parametrize("name", ["free_gaussian", "airy_packet", "superposed"])
def test_flow_stream_rows_and_half_step_velocities(name, n, bohm_form):
    wf, U, floor_rel = _case(name, n)
    dt, n_steps = 1e-4, 9  # a whole chunk, then one with a single half step
    pairs = list(trajectories._flow_stream(wf, U, dt, n_steps, floor_rel, bohm_form))
    rows, half = _flow_rows_reference(wf, U, dt, n_steps, floor_rel, bohm_form)
    assert len(pairs) == n_steps + 1
    for k, (row, u_half) in enumerate(pairs):
        assert np.array_equal(row, rows[k]), k
        if k < n_steps:
            assert np.array_equal(u_half, half[k]), k
        else:
            assert u_half is None


@pytest.mark.parametrize("floor_rel", [1e-12, 1e-3])
@pytest.mark.parametrize("name,n", [(name, 512) for name in CASES] + [("moving_gaussian", 8192)])
def test_polar_decompose_is_the_kernel_split(name, n, floor_rel):
    wf = _case(name, n)[0]
    polar = polar_decompose(wf, floor_rel)
    rho, S, mask = _polar_reference(wf, floor_rel)
    assert np.array_equal(polar.rho.values, rho)
    assert np.array_equal(polar.S.values, S)
    assert np.array_equal(polar.valid_mask, mask)


@pytest.mark.parametrize("floor_rel", [0.0, -1.0])
def test_polar_decompose_needs_a_positive_floor(desk_grid, natural_units, floor_rel):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="floor_rel must be positive"):
        polar_decompose(wf, floor_rel)


# -- what the routes save ------------------------------------------------------


@pytest.fixture
def transforms(monkeypatch):
    """Count the calls of the grid's transform pair in every madelung
    namespace that holds it."""
    counts = {"fft": 0}
    for real in (grid_module._fft, grid_module._ifft):
        def counted(a, real=real):
            counts["fft"] += 1
            return real(a)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "madelung" or mod_name.startswith("madelung."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, counted)

    def taken(fn):
        counts["fft"] = 0
        fn()
        return counts["fft"]

    return taken


@pytest.mark.parametrize("bohm_form, fields, expect, bernoulli, stream", [
    ("amplitude", 9, 8, 4, 8),
    ("wavefunction", 8, 6, 3, 7),
    ("log", 7, 6, 5, 7),
])
def test_transforms_per_route(transforms, desk_grid, natural_units, bohm_form, fields,
                              expect, bernoulli, stream):
    wf = gaussian_packet(desk_grid, natural_units, 0.5, 1.0, 1.0)
    U = RealField(0.1 * desk_grid.x**2, desk_grid)
    wf_next = step(wf, U, 1e-3)
    assert transforms(lambda: madelung_fields(wf, bohm_form=bohm_form)) == fields
    assert transforms(lambda: velocity(wf)) == 2
    assert transforms(lambda: expectations(wf, U, bohm_form=bohm_form)) <= expect
    assert transforms(lambda: bernoulli_residual(wf, wf_next, U, 1e-3,
                                                 bohm_form=bohm_form)) <= bernoulli
    # no step: the stream's one kernel call is on the whole state at t = 0
    assert transforms(lambda: list(trajectories._flow_stream(
        wf, U, 1e-3, 0, 1e-12, bohm_form))) <= stream


def test_expectations_peaks_under_seven_complex_arrays(natural_units):
    n = 16384
    g = make_grid(n, -0.025 * n, 0.025 * n)
    wf = gaussian_packet(g, natural_units, 1.0, 1.0, 2.0)
    U = RealField(0.5 * np.cos(0.3 * g.x), g)
    expectations(wf, U)  # the transform tables are cached on the first call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        expectations(wf, U)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 16 * n, peak / (16 * n)


def test_a_dropped_stage_is_computed_again(desk_grid, natural_units):
    psi = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 1.0).psi.values
    wk = diagnostics._Kernel(psi, desk_grid, natural_units, 1e-12)
    u = wk.u
    wk.drop("u", "J", "never_read")
    assert "u" not in vars(wk) and np.array_equal(wk.u, u)
