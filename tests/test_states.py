import math

import numpy as np
import pytest

from madelung.grid import RealField, make_grid
from madelung.special import airy_ai, airy_ai_first_zero
from madelung.states import (
    PhysicalConstants,
    airy_interior_window,
    airy_packet,
    bouncer_eigenstate,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
    polar_decompose,
)
from madelung.diagnostics import expectations, madelung_fields, velocity


def fisher_oracle(rho_fn, lo, hi, n):
    """Independent Fisher-information quadrature: trapezoid of (rho')^2/rho
    on an n-point grid with centered finite differences."""
    x = np.linspace(lo, hi, n)
    rho = rho_fn(x)
    drho = np.gradient(rho, x[1] - x[0], edge_order=2)
    return np.trapezoid(drho**2 / rho, x)


def test_constants_positive():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(mass=-1.0)


@pytest.mark.parametrize("name", ["hbar", "mass"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_constants_name_a_non_finite_value(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {value!r}$"):
        PhysicalConstants(**{name: value})


class TestGaussian:
    def test_norm_and_std(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        assert abs(wf.norm() - 1.0) < 1e-10
        rho = wf.density().values
        var = integrate_like(desk_grid, rho * desk_grid.x**2)
        assert abs(math.sqrt(var) - 1.0) < 1e-12

    def test_real_gaussian_has_zero_velocity(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        u = velocity(wf)
        assert np.max(np.abs(u.values)) < 1e-6
        # dividing roundoff current by the density floor dominates near the
        # mask edge; the bulk value is clean
        bulk = wf.density().values >= 1e-6 * wf.density().values.max()
        assert np.max(np.abs(u.values[bulk])) < 1e-10

    def test_kicked_gaussian_velocity_uniform(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 2.0)
        u = velocity(wf)
        f = madelung_fields(wf)
        assert np.max(np.abs(u.values[f.valid_mask] - 2.0)) < 1e-8

    def test_fisher_information_against_oracle(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        fi = expectations(wf, RealField(np.zeros(desk_grid.n), desk_grid)).FI
        oracle = fisher_oracle(
            lambda x: np.exp(-x**2 / 2.0) / math.sqrt(2.0 * math.pi),
            -20.0, 20.0, 4 * desk_grid.n,
        )
        assert abs(fi - oracle) < 1e-6
        assert abs(fi - 1.0) < 1e-8

    def test_rejects_packet_near_edge(self, desk_grid, natural_units):
        with pytest.raises(ValueError):
            gaussian_packet(desk_grid, natural_units, 18.0, 1.0, 0.0)

    def test_rejects_fat_tails(self, natural_units):
        g = make_grid(256, -8.0, 8.0)
        # 6 sigma margin holds but edge mass is still above 1e-12
        with pytest.raises(ValueError):
            gaussian_packet(g, natural_units, 0.0, 8.0 / 6.5, 0.0)

    def test_rejects_nonpositive_width(self, desk_grid, natural_units):
        with pytest.raises(ValueError):
            gaussian_packet(desk_grid, natural_units, 0.0, -1.0, 0.0)

    def test_rejects_k0_at_or_past_nyquist(self, desk_grid, natural_units):
        nyquist = np.pi / desk_grid.dx
        gaussian_packet(desk_grid, natural_units, 0.0, 1.0, np.nextafter(-nyquist, 0.0))
        for k0 in (nyquist, -nyquist, 100.0):
            with pytest.raises(ValueError, match=r"k0 = .* pi/dx = 40\.21$"):
                gaussian_packet(desk_grid, natural_units, 0.0, 1.0, k0)


class TestPlaneWave:
    def test_velocity_is_hbar_k_over_m(self, desk_grid, natural_units):
        wf = plane_wave(desk_grid, natural_units, 8)
        k = 2.0 * np.pi * 8 / desk_grid.length
        u = velocity(wf)
        assert np.max(np.abs(u.values - k)) < 1e-10

    def test_zero_mode_is_flat(self, desk_grid, natural_units):
        wf = plane_wave(desk_grid, natural_units, 0)
        f = madelung_fields(wf)
        assert np.max(np.abs(f.u.values)) < 1e-12
        assert np.max(np.abs(f.Q_tilde.values)) < 1e-10

    def test_fisher_information_is_zero(self, desk_grid, natural_units):
        wf = plane_wave(desk_grid, natural_units, 5)
        free = RealField(np.zeros(desk_grid.n), desk_grid)
        assert abs(expectations(wf, free).FI) < 1e-12

    def test_uniform_density(self, desk_grid, natural_units):
        wf = plane_wave(desk_grid, natural_units, 3)
        assert np.max(np.abs(wf.density().values - 1.0 / desk_grid.length)) < 1e-15

    @pytest.mark.parametrize("mode", [256, -256, 400, 2.5])
    def test_rejects_bad_modes(self, desk_grid, natural_units, mode):
        with pytest.raises(ValueError):
            plane_wave(desk_grid, natural_units, mode)


class TestHarmonicGround:
    def test_energy_split(self, desk_grid, natural_units):
        # oracle: quadrature of the curvature and potential terms on the
        # analytic state gives Q = U = omega/4, summing to the ground energy
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        rho = wf.density().values
        x = desk_grid.x
        dx = desk_grid.dx
        u_pot = 0.5 * x**2
        U_exp = np.sum(rho * u_pot) * dx
        assert abs(U_exp - 0.25) < 1e-7

        from madelung.diagnostics import expectations
        from madelung.grid import RealField

        rep = expectations(wf, RealField(u_pot, desk_grid))
        assert abs(rep.Q - 0.25) < 1e-7
        assert abs(rep.U - 0.25) < 1e-7
        assert abs(rep.E - 0.5) < 1e-8

    def test_real_and_stationary(self, desk_grid, natural_units):
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        assert np.max(np.abs(wf.psi.values.imag)) == 0.0
        u = velocity(wf, 1e-6)
        assert np.max(np.abs(u.values)) < 1e-10

    def test_bohm_plus_potential_constant(self, desk_grid, natural_units):
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        f = madelung_fields(wf, 1e-6)
        qu = f.Q_tilde.values + 0.5 * desk_grid.x**2
        on = f.valid_mask
        assert np.max(np.abs(qu[on] - 0.5)) < 1e-8

    def test_rejects_wide_oscillator(self, natural_units):
        g = make_grid(64, -4.0, 4.0)
        with pytest.raises(ValueError):
            harmonic_ground_state(g, natural_units, 0.05)


class TestAiryPacket:
    def test_profile_matches_airy_squared(self, desk_grid, natural_units):
        wf = airy_packet(desk_grid, natural_units, 1.0, 0.0)
        interior = airy_interior_window(desk_grid)
        rho = wf.density().values[interior]
        ai2 = airy_ai(desk_grid.x[interior]) ** 2
        # same shape up to normalization; the taper deviates from unity by
        # ~1e-7 at the interior-window boundary, which bounds the match
        scale = np.dot(rho, ai2) / np.dot(ai2, ai2)
        assert np.max(np.abs(rho - scale * ai2)) < 1e-7 * rho.max()

    def test_incompressible_at_t0(self, desk_grid, natural_units):
        wf = airy_packet(desk_grid, natural_units, 1.0, 0.0)
        f = madelung_fields(wf, 1e-4, bohm_form="wavefunction",
                            region_mask=airy_interior_window(desk_grid))
        assert np.max(np.abs(f.div_u.values[f.valid_mask])) < 1e-8

    def test_flagged_non_normalizable(self, desk_grid, natural_units):
        wf = airy_packet(desk_grid, natural_units, 1.0, 0.0)
        assert not wf.normalizable
        assert abs(wf.norm() - 1.0) < 1e-10  # normalized over the window

    def test_center_follows_parabola(self, desk_grid, natural_units):
        # oracle: the translation law of the accelerating profile
        peaks = {}
        for t in (0.0, 0.4, 0.8):
            wf = airy_packet(desk_grid, natural_units, 1.0, t)
            interior = airy_interior_window(desk_grid)
            rho = np.where(interior, wf.density().values, 0.0)
            j = int(np.argmax(rho))
            num = rho[j - 1] - 2 * rho[j] + rho[j + 1]
            peaks[t] = desk_grid.x[j] + 0.5 * desk_grid.dx * (rho[j - 1] - rho[j + 1]) / num
        for t in (0.4, 0.8):
            assert abs((peaks[t] - peaks[0.0]) - 0.25 * t * t) < 2e-3

    def test_rejects_too_few_oscillations(self, desk_grid, natural_units):
        with pytest.raises(ValueError):
            airy_packet(desk_grid, natural_units, 0.2, 0.0)


class TestBouncer:
    def test_node_at_wall(self, natural_units):
        g = make_grid(2048, -20.0, 20.0)
        wf = bouncer_eigenstate(g, natural_units, 1.0)
        rho = wf.density().values
        j = int(np.argmin(np.abs(g.x)))
        assert rho[j] < 1e-12 * rho.max()

    def test_zero_velocity(self, natural_units):
        g = make_grid(2048, -20.0, 20.0)
        wf = bouncer_eigenstate(g, natural_units, 1.0)
        f = madelung_fields(wf, 1e-4, bohm_form="wavefunction")
        assert np.max(np.abs(f.u.values[f.valid_mask])) < 1e-10

    def test_energy_constant_on_interior(self, natural_units):
        # oracle: pointwise Bohm + potential on the analytic eigenstate is
        # the eigenvalue -a1 * (g^2 hbar^2 / 2 m^2)^(1/3)
        g = make_grid(4096, -20.0, 20.0)
        wf = bouncer_eigenstate(g, natural_units, 1.0)
        region = np.abs(g.x) >= 0.3
        f = madelung_fields(wf, 1e-4, bohm_form="wavefunction", region_mask=region)
        qu = f.Q_tilde.values + np.abs(g.x)
        on = f.valid_mask
        expected = -airy_ai_first_zero() * 0.5 ** (1.0 / 3.0)
        assert abs(expected - 1.8557570814892381) < 1e-12
        assert np.max(np.abs(qu[on] - expected)) < 1e-6

    def test_rejects_unresolved_length(self, natural_units):
        g = make_grid(64, -20.0, 20.0)
        with pytest.raises(ValueError):
            bouncer_eigenstate(g, natural_units, 1.0)


class TestPolarDecomposition:
    def test_plane_wave_linear_phase(self, desk_grid, natural_units):
        wf = plane_wave(desk_grid, natural_units, 4)
        polar = polar_decompose(wf)
        k = 2.0 * np.pi * 4 / desk_grid.length
        s = polar.S.values
        target = k * desk_grid.x
        assert np.max(np.abs((s - s[0]) - (target - target[0]))) < 1e-10

    def test_real_gaussian_flat_phase(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        polar = polar_decompose(wf)
        s = polar.S.values[polar.valid_mask]
        assert np.max(np.abs(s - s[0])) < 1e-12

    def test_unwrap_across_many_branches(self, desk_grid, natural_units):
        # k0 = 3 winds the raw phase ~19 times across the support
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 3.0)
        polar = polar_decompose(wf)
        on = polar.valid_mask
        s = polar.S.values[on]
        target = 3.0 * desk_grid.x[on]
        assert np.max(np.abs((s - s[0]) - (target - target[0]))) < 1e-8

    @pytest.mark.parametrize(
        "factory,kwargs",
        [
            ("gaussian", {"x0": 0.0, "sigma0": 1.0, "k0": 2.0}),
            ("plane", {"mode_index": 8}),
            ("harmonic", {"omega": 1.0}),
        ],
    )
    def test_reconstruction(self, desk_grid, natural_units, factory, kwargs):
        wf = {
            "gaussian": lambda: gaussian_packet(desk_grid, natural_units, **kwargs),
            "plane": lambda: plane_wave(desk_grid, natural_units, **kwargs),
            "harmonic": lambda: harmonic_ground_state(desk_grid, natural_units, **kwargs),
        }[factory]()
        polar = polar_decompose(wf)
        recon = np.sqrt(polar.rho.values) * np.exp(1j * polar.S.values / natural_units.hbar)
        on = polar.valid_mask
        rel = np.abs(recon[on] - wf.psi.values[on]) / np.abs(wf.psi.values[on])
        assert np.max(rel) < 1e-8

    def test_unwrap_idempotent(self, desk_grid, natural_units):
        from madelung.grid import ComplexField
        from madelung.states import WaveFunction

        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 2.0)
        p1 = polar_decompose(wf)
        recon = np.sqrt(p1.rho.values) * np.exp(1j * p1.S.values)
        p2 = polar_decompose(
            WaveFunction(ComplexField(recon, desk_grid), natural_units)
        )
        on = p1.valid_mask & p2.valid_mask
        diff = (p2.S.values - p1.S.values)[on]
        assert np.ptp(diff) < 1e-8

    def test_empty_mask_rejected(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            polar_decompose(wf, density_floor_rel=2.0)


def integrate_like(grid, values):
    return float(np.sum(values) * grid.dx)
