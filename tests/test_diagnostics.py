import numpy as np
import pytest

from madelung.grid import RealField, make_grid
from madelung.diagnostics import (
    bernoulli_residual,
    expectations,
    madelung_fields,
    nonspreading_residual,
    phase_gradient_velocity,
    velocity,
)
from madelung.potentials import PotentialSpec, evaluate_potential
from madelung.propagator import PropagatorConfig, evolve, step
from madelung.states import (
    airy_interior_window,
    airy_packet,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
    polar_decompose,
)


@pytest.fixture
def free_U(desk_grid):
    return RealField(np.zeros(desk_grid.n), desk_grid)


@pytest.fixture
def harmonic_U(desk_grid, natural_units):
    return evaluate_potential(PotentialSpec("harmonic", omega=1.0), desk_grid, natural_units)


def evolve_to(wf, U, t, dt=1e-3):
    n = int(round(t / dt))
    return evolve(wf, U, PropagatorConfig(dt, n, n), [])


class TestVelocity:
    def test_plane_wave(self, desk_grid, natural_units):
        wf = plane_wave(desk_grid, natural_units, 8)
        k = 2.0 * np.pi * 8 / desk_grid.length
        assert np.max(np.abs(velocity(wf).values - k)) < 1e-10

    def test_spreading_gaussian_linear_profile(self, desk_grid, natural_units, free_U):
        # u(x, t) = x t / (t^2 + 4 sigma0^4) for the analytic free packet
        t = 1.0
        wf = evolve_to(gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0), free_U, t)
        u = velocity(wf).values
        slope = t / (t * t + 4.0)
        on = wf.density().values >= 1e-6 * wf.density().values.max()
        assert np.max(np.abs(u[on] - slope * desk_grid.x[on])) < 1e-6

    def test_agrees_with_phase_gradient(self, desk_grid, natural_units, free_U):
        wf = evolve_to(gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 2.0), free_U, 0.5)
        u = velocity(wf, 1e-8).values
        u_s = phase_gradient_velocity(wf, 1e-8).values
        on = wf.density().values >= 1e-6 * wf.density().values.max()
        assert np.max(np.abs(u[on] - u_s[on])) < 1e-6

    @pytest.mark.parametrize("k", [0.0, 1.5, 30.0])
    def test_phase_gradient_crosses_a_node_between_samples(self, desk_grid, natural_units, k):
        # psi changes sign between two samples: the phase steps by pi there,
        # which an unwrapped phase differenced across it reads as pi / (2 dx)
        from madelung.grid import ComplexField
        from madelung.states import WaveFunction

        x = desk_grid.x
        psi = (x - 0.3 * desk_grid.dx) * np.exp(-x * x / 4.0 + 1j * k * x)
        wf = WaveFunction(ComplexField(psi, desk_grid), natural_units)
        u_s = phase_gradient_velocity(wf, 1e-8).values
        on = wf.density().values >= 1e-8 * wf.density().values.max()
        assert np.max(np.abs(u_s[on] - k)) < 1e-12
        assert np.max(np.abs(u_s[on] - velocity(wf, 1e-8).values[on])) < 1e-10

    @pytest.mark.parametrize("make", [
        lambda g, c: plane_wave(g, c, 200),  # k dx = 2.45, steps above pi/2
        lambda g, c: gaussian_packet(g, c, 0.0, 1.0, 30.0),
    ], ids=["plane_wave_mode_200", "gaussian_k0_30"])
    def test_phase_gradient_reads_a_fast_resolved_phase(self, desk_grid, natural_units, make):
        wf = make(desk_grid, natural_units)
        u = velocity(wf, 1e-8).values
        u_s = phase_gradient_velocity(wf, 1e-8).values
        rho = wf.density().values
        on = rho >= 1e-8 * rho.max()
        assert np.max(np.abs(u[on] - u_s[on])) < 1e-10  # 1.3e-12 and 1.3e-11

    def test_phase_gradient_on_the_airy_packet(self, desk_grid, natural_units):
        # a real psi with a node between samples at each Airy oscillation
        wf = airy_packet(desk_grid, natural_units, 1.0, 0.0)
        u = velocity(wf, 1e-8).values
        u_s = phase_gradient_velocity(wf, 1e-8).values
        rho = wf.density().values
        on = (rho >= 1e-8 * rho.max()) & airy_interior_window(desk_grid)
        assert np.max(np.abs(u[on] - u_s[on])) < 1e-10  # 5.1e-12


class TestBohmPotential:
    def test_uniform_density_gives_zero(self, desk_grid, natural_units):
        q = madelung_fields(plane_wave(desk_grid, natural_units, 3)).Q_tilde
        assert np.max(np.abs(q.values)) < 1e-12

    def test_gaussian_profile(self, desk_grid, natural_units):
        # Q(x) = (1 - x^2/2)/4 for the unit-sigma density in natural units
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        q = madelung_fields(wf).Q_tilde
        on = wf.density().values >= 1e-6 * wf.density().values.max()
        exact = 0.25 * (1.0 - desk_grid.x**2 / 2.0)
        assert np.max(np.abs(q.values[on] - exact[on])) < 1e-8

    def test_gaussian_expectation(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        rep = expectations(wf, free_U)
        assert abs(rep.Q - 0.125) < 1e-7

    def test_log_form_cross_check(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        q_a = madelung_fields(wf, 1e-6).Q_tilde
        q_l = madelung_fields(wf, 1e-6, bohm_form="log").Q_tilde
        on = wf.density().values >= 1e-6 * wf.density().values.max()
        scale = np.max(np.abs(q_a.values[on]))
        assert np.max(np.abs(q_a.values[on] - q_l.values[on])) < 1e-7 * scale

    def test_curvature_form_cross_check(self, desk_grid, natural_units, free_U):
        wf = evolve_to(gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 2.0), free_U, 0.3)
        q_a = madelung_fields(wf, 1e-6).Q_tilde
        q_c = madelung_fields(wf, 1e-6, bohm_form="wavefunction").Q_tilde
        on = wf.density().values >= 1e-6 * wf.density().values.max()
        scale = np.max(np.abs(q_a.values[on]))
        assert np.max(np.abs(q_a.values[on] - q_c.values[on])) < 1e-7 * scale

    def test_harmonic_constant_total(self, desk_grid, natural_units):
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        q = madelung_fields(wf, 1e-6).Q_tilde
        total = q.values + 0.5 * desk_grid.x**2
        on = wf.density().values >= 1e-6 * wf.density().values.max()
        assert np.max(np.abs(total[on] - 0.5)) < 1e-8


class TestPseudoPressure:
    def test_gaussian_proportional_to_density(self, desk_grid, natural_units):
        # Pi = rho / (2 sigma)^2 * hbar^2/m^2 ... = rho/4 for sigma = 1
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        pi = madelung_fields(wf).Pi
        on = wf.density().values >= 1e-6 * wf.density().values.max()
        ratio = pi.values[on] / wf.density().values[on]
        assert np.max(np.abs(ratio - 0.25)) < 1e-7

    def test_uniform_gives_zero(self, desk_grid, natural_units):
        pi = madelung_fields(plane_wave(desk_grid, natural_units, 3)).Pi
        assert np.max(np.abs(pi.values)) < 1e-12

    @pytest.mark.parametrize("sigma,k0", [(1.0, 0.0), (2.0, 0.0), (1.0, 2.0)])
    def test_integral_is_twice_internal_energy(self, desk_grid, natural_units, free_U, sigma, k0):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, sigma, k0)
        rep = expectations(wf, free_U)
        assert abs(rep.Pi_integral - 2.0 * rep.I) < 1e-10 * max(1.0, rep.I)


class TestFisherInformation:
    @pytest.mark.parametrize("sigma,expected", [(1.0, 1.0), (2.0, 0.25)])
    def test_gaussian_scaling(self, desk_grid, natural_units, free_U, sigma, expected):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, sigma, 0.0)
        fi = expectations(wf, free_U).FI
        assert abs(fi - expected) < 1e-8

    def test_uniform_is_zero(self, desk_grid, natural_units, free_U):
        wf = plane_wave(desk_grid, natural_units, 3)
        assert abs(expectations(wf, free_U).FI) < 1e-12

    def test_oracle_quadrature_at_4x_resolution(self, natural_units):
        import math

        fine = np.linspace(-20.0, 20.0, 2048, endpoint=False)
        rho = np.exp(-fine**2 / 8.0) / math.sqrt(8.0 * math.pi)
        drho = np.gradient(rho, fine[1] - fine[0], edge_order=2)
        oracle = np.trapezoid(drho**2 / rho, fine)
        g = make_grid(512, -20.0, 20.0)
        wf = gaussian_packet(g, natural_units, 0.0, 2.0, 0.0)
        fi = expectations(wf, RealField(np.zeros(g.n), g)).FI
        assert abs(fi - oracle) < 1e-6


class TestExpectations:
    def test_harmonic_ground_numbers(self, desk_grid, natural_units, harmonic_U):
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        rep = expectations(wf, harmonic_U)
        assert abs(rep.E - 0.5) < 1e-8
        assert abs(rep.K) < 1e-10
        assert abs(rep.Q - 0.25) < 1e-7
        assert abs(rep.U - 0.25) < 1e-7
        assert abs(rep.norm - 1.0) < 1e-10

    def test_energy_forms_agree(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, -2.0, 1.0, 2.0)
        rep = expectations(wf, free_U)
        assert abs(rep.E - rep.E_hamiltonian) < 1e-9

    def test_energy_forms_gap_is_reported_not_raised(self, desk_grid, natural_units, free_U):
        # a coarse floor cuts the tails out of the sum form; the gap is the
        # energy_forms_gap check's to judge, so expectations still returns
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        rep = expectations(wf, free_U, 1e-3)
        assert abs(rep.E - rep.E_hamiltonian) > 1e-6

    def test_acceleration_zero_while_spreading(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        for t in (0.0, 0.7):
            w = evolve_to(wf, free_U, t) if t else wf
            rep = expectations(w, free_U, t=t)
            assert abs(rep.accel) < 1e-8

    def test_fisher_score_zero(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, -2.0, 1.0, 2.0)
        rep = expectations(wf, free_U)
        assert abs(rep.vi_mean) < 1e-10

    @pytest.mark.parametrize("factory", ["gaussian", "plane", "harmonic"])
    def test_bohm_fisher_identity(self, desk_grid, natural_units, free_U, harmonic_U, factory):
        wf, U = {
            "gaussian": (gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 2.0), free_U),
            "plane": (plane_wave(desk_grid, natural_units, 8), free_U),
            "harmonic": (harmonic_ground_state(desk_grid, natural_units, 1.0), harmonic_U),
        }[factory]
        rep = expectations(wf, U)
        pref = 0.5 * (natural_units.hbar / (2.0 * natural_units.mass)) ** 2
        assert abs(rep.Q - pref * rep.FI) < 1e-10 * max(1.0, rep.FI)

    def test_internal_energy_nonnegative(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 2.0)
        f = madelung_fields(wf)
        assert np.min(f.internal_density.values) >= 0.0
        rep = expectations(wf, free_U)
        assert rep.I >= 0.0 and rep.FI >= 0.0

    def test_kinetic_internal_split(self, desk_grid, natural_units, free_U):
        # <K> + <I> equals the Hamiltonian kinetic term
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 2.0)
        rep = expectations(wf, free_U)
        assert abs((rep.K + rep.I) - rep.E_hamiltonian) < 1e-9

    def test_enthalpy_identity_pointwise(self, desk_grid, natural_units):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        f = madelung_fields(wf, 1e-6)
        on = f.valid_mask
        rho_f = np.maximum(f.rho.values, 1e-6 * f.rho.values.max())
        resid = f.Q_tilde.values + f.internal_density.values - f.Pi.values / rho_f
        q_max = np.max(np.abs(f.Q_tilde.values[on]))
        assert np.max(np.abs(resid[on])) < 1e-7 * q_max

    def test_nonunit_constants_covariance(self, desk_grid):
        from madelung.states import PhysicalConstants

        c = PhysicalConstants(hbar=2.0, mass=3.0)
        wf = gaussian_packet(desk_grid, c, 0.0, 1.0, 0.0)
        U = RealField(np.zeros(desk_grid.n), desk_grid)
        rep = expectations(wf, U)
        pref = 0.5 * (c.hbar / (2.0 * c.mass)) ** 2
        assert abs(rep.Q - pref * rep.FI) < 1e-10 * max(1.0, rep.FI)
        assert abs(rep.FI - 1.0) < 1e-8  # FI depends on rho alone


class TestExpectationsGrid:
    def test_rejects_potential_on_another_grid(self, desk_grid, natural_units,
                                                foreign_harmonic_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="different grids"):
            expectations(wf, foreign_harmonic_U)


class TestBernoulliResidual:
    def test_harmonic_stationary(self, desk_grid, natural_units, harmonic_U):
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        dt = 1e-3
        r = bernoulli_residual(wf, step(wf, harmonic_U, dt), harmonic_U, dt)
        assert np.max(np.abs(r.values)) < 1e-5

    def test_plane_wave_exact_rates(self, desk_grid, natural_units, free_U):
        wf = plane_wave(desk_grid, natural_units, 8)
        dt = 1e-3
        r = bernoulli_residual(wf, step(wf, free_U, dt), free_U, dt)
        assert np.max(np.abs(r.values)) < 1e-9

    def test_second_order_in_dt(self, desk_grid, natural_units, harmonic_U):
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)

        def peak(dt):
            r = bernoulli_residual(wf, step(wf, harmonic_U, dt), harmonic_U, dt)
            return np.max(np.abs(r.values))

        ratio = peak(1e-3) / peak(5e-4)
        assert 3.5 <= ratio <= 4.5

    def test_mid_spread_gaussian_converges(self, desk_grid, natural_units, free_U):
        # evaluated above the pointwise floor so the dt^2 term dominates the
        # (dt-independent) spatial noise at the far mask edge
        wf = evolve_to(gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0), free_U, 0.5)

        def peak(dt):
            r = bernoulli_residual(wf, step(wf, free_U, dt), free_U, dt, 1e-6)
            return np.max(np.abs(r.values))

        ratio = peak(1e-3) / peak(5e-4)
        assert 3.0 <= ratio <= 5.0

    def test_rejects_nonpositive_dt(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            bernoulli_residual(wf, wf, free_U, 0.0)

    def test_rejects_potential_on_another_grid(self, desk_grid, natural_units,
                                                foreign_harmonic_U):
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        with pytest.raises(ValueError, match="different grids"):
            bernoulli_residual(wf, wf, foreign_harmonic_U, 1e-3)

    @pytest.mark.parametrize("span", [(-10.0, 10.0), (-20.0, 20.0 + 1e-9)])
    def test_rejects_snapshots_on_another_span(self, desk_grid, natural_units, free_U,
                                               span):
        # same n, other points: a per-point residual between them means nothing
        other = make_grid(desk_grid.n, *span)
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        wf_other = gaussian_packet(other, natural_units, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="snapshots live on different grids"):
            bernoulli_residual(wf, wf_other, free_U, 1e-3)


class TestMomentumEquation:
    """Residual of Du/Dt = -d(Q~ + U~)/dx along the evolution, all central
    differences, second order in dt."""

    @staticmethod
    def _residual(desk_grid, natural_units, free_U, dt):
        base = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        mid = evolve_to(base, free_U, 0.5)
        prev_w = mid
        mid_w = step(prev_w, free_U, dt)
        next_w = step(mid_w, free_U, dt)

        bulk = mid_w.density().values >= 1e-4 * mid_w.density().values.max()
        u_prev = velocity(prev_w, 1e-6).values
        u_next = velocity(next_w, 1e-6).values
        f = madelung_fields(mid_w, 1e-6)
        # total energy-per-mass field K + Q + U; its x-derivative is the
        # (negated) parcel acceleration for irrotational 1D flow
        h = f.kinetic_density.values + f.Q_tilde.values
        dx = desk_grid.dx
        dh = np.gradient(h, dx, edge_order=2)
        du_dt = (u_next - u_prev) / (2.0 * dt)
        resid = du_dt + dh
        return np.max(np.abs(resid[bulk]))

    def test_second_order_in_dt(self, desk_grid, natural_units, free_U):
        r1 = self._residual(desk_grid, natural_units, free_U, 1e-3)
        r2 = self._residual(desk_grid, natural_units, free_U, 5e-4)
        assert r1 < 1e-5
        assert 3.0 <= r1 / r2 <= 5.0


class TestNonspreadingResidual:
    def test_harmonic_ground_constant(self, desk_grid, natural_units, harmonic_U):
        wf = harmonic_ground_state(desk_grid, natural_units, 1.0)
        f = madelung_fields(wf, 1e-6)
        assert nonspreading_residual(f, harmonic_U) < 1e-7

    def test_spreading_gaussian_violates(self, desk_grid, natural_units, free_U):
        wf = evolve_to(gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0), free_U, 1.0)
        f = madelung_fields(wf, 1e-6)
        assert nonspreading_residual(f, free_U) > 1e-2

    def test_rejects_small_mask(self, desk_grid, natural_units, free_U):
        wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
        region = np.abs(desk_grid.x) < 5 * desk_grid.dx
        f = madelung_fields(wf, 1e-6, region_mask=region)
        with pytest.raises(ValueError):
            nonspreading_residual(f, free_U)


def test_empty_mask_raises(desk_grid, natural_units):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        madelung_fields(wf, 2.0)


def test_unknown_bohm_form(desk_grid, natural_units):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        madelung_fields(wf, bohm_form="typo")


def test_rejects_nonpositive_floor(desk_grid, natural_units):
    wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
    for floor_rel in (0.0, -1e-12):
        with pytest.raises(ValueError, match=r"^floor_rel must be finite and > 0, got "):
            velocity(wf, floor_rel)
        with pytest.raises(ValueError, match=r"^floor_rel must be finite and > 0, got "):
            madelung_fields(wf, floor_rel)


class TestSplitKernel:
    """velocity() runs only the front of the field kernel; madelung_fields()
    unwraps the phase itself.  Both must reproduce the full routes bit for bit."""

    @pytest.fixture(params=["masked_tails", "moving", "airy"])
    def case(self, request, desk_grid, natural_units):
        if request.param == "masked_tails":
            wf = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0)
            assert not np.all(wf.density().values >= 1e-12 * wf.density().values.max())
            return wf, 1e-12
        if request.param == "moving":
            return gaussian_packet(desk_grid, natural_units, -2.0, 1.0, 2.0), 1e-12
        return airy_packet(desk_grid, natural_units, 1.0), 1e-3

    def test_velocity_is_the_bundle_velocity(self, case):
        wf, floor_rel = case
        assert np.array_equal(velocity(wf, floor_rel).values,
                              madelung_fields(wf, floor_rel).u.values)

    def test_bundle_phase_is_the_polar_phase(self, case):
        wf, floor_rel = case
        assert np.array_equal(madelung_fields(wf, floor_rel).S.values,
                              polar_decompose(wf, floor_rel).S.values)

    def test_region_restricts_the_mask_not_the_phase(self, desk_grid, natural_units):
        wf = airy_packet(desk_grid, natural_units, 1.0)
        region = airy_interior_window(desk_grid)
        f = madelung_fields(wf, 1e-3, region_mask=region)
        polar = polar_decompose(wf, 1e-3)
        assert np.array_equal(f.valid_mask, polar.valid_mask & region)
        assert np.array_equal(f.S.values, polar.S.values)


class TestBatchedKernel:
    """The field kernel runs along the last axis of a (..., n) psi stack:
    each row of a batched call is bit-identical to the call on that row."""

    STAGES = ("rho", "rho_f", "floor_mask", "mask", "fill", "psi_hat", "ddpsi", "J", "u_raw",
              "u", "S", "rho_hat", "drho", "ddrho", "w", "Q", "Pi", "div_u", "v_i", "internal")

    @classmethod
    def assert_rows_match(cls, stack, grid, constants, floor_rel, bohm_form, region=None):
        from madelung.diagnostics import _Kernel

        batch = _Kernel(stack, grid, constants, floor_rel, bohm_form, region)
        for i, psi in enumerate(stack):
            row = _Kernel(psi, grid, constants, floor_rel, bohm_form, region)
            for name in cls.STAGES:
                values = getattr(batch, name)
                assert values.shape == stack.shape, name
                assert np.array_equal(values[i], getattr(row, name)), (name, i)
        return batch

    @pytest.mark.parametrize("bohm_form", ["amplitude", "wavefunction", "log"])
    def test_masked_tails_rows(self, desk_grid, natural_units, bohm_form):
        states = [
            gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0),
            gaussian_packet(desk_grid, natural_units, -2.0, 1.0, 2.0),
            gaussian_packet(desk_grid, natural_units, 3.0, 0.7, -1.0),
        ]
        stack = np.stack([w.psi.values for w in states])
        batch = self.assert_rows_match(stack, desk_grid, natural_units, 1e-12, bohm_form)
        # the rows really carry different masks, with masked-out tails
        assert not np.all(batch.mask)
        assert not np.array_equal(batch.mask[0], batch.mask[2])
        for i, w in enumerate(states):
            f = madelung_fields(w, bohm_form=bohm_form)
            assert np.array_equal(batch.u[i], f.u.values)
            assert np.array_equal(batch.S[i], f.S.values)
            assert np.array_equal(batch.Q[i], f.Q_tilde.values)

    @pytest.mark.parametrize("bohm_form", ["amplitude", "wavefunction", "log"])
    def test_region_mask_rows(self, desk_grid, natural_units, bohm_form):
        region = airy_interior_window(desk_grid)
        states = [airy_packet(desk_grid, natural_units, 1.0, t) for t in (0.0, 0.5, 1.0)]
        stack = np.stack([w.psi.values for w in states])
        batch = self.assert_rows_match(stack, desk_grid, natural_units, 1e-3, bohm_form,
                                       region)
        assert not np.any(batch.mask & ~region)
        for i, w in enumerate(states):
            f = madelung_fields(w, 1e-3, bohm_form=bohm_form, region_mask=region)
            assert np.array_equal(batch.mask[i], f.valid_mask)
            assert np.array_equal(batch.div_u[i], f.div_u.values)

    @pytest.mark.parametrize("n", [8192, 32768])
    def test_blocked_grid_rows(self, n, natural_units):
        g = make_grid(n, -0.025 * n, 0.025 * n)
        stack = np.stack([gaussian_packet(g, natural_units, x0, s, k0).psi.values
                          for x0, s, k0 in ((1.0, 1.0, 2.0), (-2.0, 1.5, -1.0), (0.0, 0.7, 0.0))])
        self.assert_rows_match(stack, g, natural_units, 1e-10, "amplitude")

    def test_every_row_is_checked(self, desk_grid, natural_units):
        from madelung.diagnostics import _Kernel

        good = gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0).psi.values
        stack = np.stack([good, np.zeros_like(good)])
        with pytest.raises(ValueError, match="identically zero"):
            _Kernel(stack, desk_grid, natural_units, 1e-12)
        empty = np.zeros(desk_grid.n, dtype=bool)
        empty[:10] = True  # far in the tail of row 0, the peak of neither row
        with pytest.raises(ValueError, match="no valid points"):
            _Kernel(np.stack([good, good]), desk_grid, natural_units, 1e-12, region_mask=empty)
        with pytest.raises(ValueError, match=r"^floor_rel must be finite and > 0, got "):
            _Kernel(np.stack([good, good]), desk_grid, natural_units, 0.0)

    def test_velocity_only_call_stops_after_u(self, desk_grid, natural_units):
        from madelung.diagnostics import _Kernel

        stack = np.stack([gaussian_packet(desk_grid, natural_units, x0, 1.0, 1.0).psi.values
                          for x0 in (-2.0, 3.0)])
        front = _Kernel(stack, desk_grid, natural_units, 1e-12)
        u = front.u
        # a stage is computed when it is read: u reads psi's transform, J and the fill
        computed = {k for k, v in vars(front).items() if isinstance(v, np.ndarray)}
        assert computed == {"psi", "rho", "rho_f", "floor_mask", "mask", "psi_hat", "J",
                            "u_raw", "fill", "u"}
        full = _Kernel(stack, desk_grid, natural_units, 1e-12, "amplitude")
        for name in self.STAGES:
            getattr(full, name)
        for name in computed:
            assert np.array_equal(getattr(front, name), getattr(full, name)), name
        assert np.array_equal(u, full.u)


@pytest.fixture
def plain_transforms(monkeypatch):
    """Every transform takes the plain np.fft pair and the natural order,
    whatever the grid size: the reference for the blocked layer."""
    from madelung import grid

    grid._spectral_table.cache_clear()
    monkeypatch.setattr(grid, "_BLOCKED_MIN_N", 1 << 62)
    yield
    monkeypatch.undo()
    grid._spectral_table.cache_clear()


@pytest.mark.parametrize("n", [8192, 32768, 65536])
def test_blocked_fields_match_plain_transforms(n, natural_units, request):
    g = make_grid(n, -0.025 * n, 0.025 * n)
    wf = gaussian_packet(g, natural_units, 1.0, 1.0, 2.0)
    U = RealField(0.5 * np.cos(0.3 * g.x), g)
    fields, report = madelung_fields(wf), expectations(wf, U)
    request.getfixturevalue("plain_transforms")
    ref_fields, ref_report = madelung_fields(wf), expectations(wf, U)
    occupied = ref_fields.rho.values >= 1e-6 * ref_fields.rho.values.max()
    for name in ("u", "Q_tilde", "Pi", "S"):
        got = getattr(fields, name).values[occupied]
        ref = getattr(ref_fields, name).values[occupied]
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name
    for name, ref in vars(ref_report).items():
        assert getattr(report, name) == pytest.approx(ref, rel=1e-13, abs=1e-15), name
