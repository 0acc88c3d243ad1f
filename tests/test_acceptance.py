"""Acceptance gate: every numbered criterion at its stated tolerance.

The builtin verification suite runs once per session (desk scale: n = 512,
domain [-20, 20], dt = 1e-3, 1000-2000 steps); each test below checks one
criterion against those reports and prints a PASS/FAIL line.  Criterion 7
recomputes its derived values from scratch.
"""

import numpy as np

from madelung.grid import RealField
from madelung.diagnostics import expectations
from madelung.potentials import PotentialSpec, evaluate_potential
from madelung.states import gaussian_packet, harmonic_ground_state

NORMALIZABLE = [
    "plane_wave",
    "free_gaussian",
    "moving_gaussian",
    "harmonic_ground",
    "spreading_negative_control",
]

PROPAGATED = [
    "plane_wave",
    "free_gaussian",
    "moving_gaussian",
    "harmonic_ground",
    "airy_packet",
    "spreading_negative_control",
]


def entry(report, check_id):
    for c in report.checks:
        if c.id == check_id:
            return c
    raise AssertionError(f"{report.scenario} has no check {check_id!r}")


def verdict(number, label, results):
    """results: list of (scenario, CheckResult); asserts all passed."""
    ok = all(c.passed for _, c in results)
    worst = max(results, key=lambda sc: abs(sc[1].measured))
    print(
        f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'}  {label}: "
        f"worst {worst[1].measured:.3e} ({worst[0]})"
    )
    for name, c in results:
        assert c.passed, f"criterion {number}: {name}/{c.id} measured {c.measured}"


def collect(suite_reports, names, check_id):
    return [(n, entry(suite_reports[n], check_id)) for n in names]


def test_criterion_01_bohm_fisher_identity(suite_reports):
    results = collect(suite_reports, NORMALIZABLE, "bohm_fisher_identity")
    for _, c in results:
        assert c.tolerance == 1e-10
    verdict(1, "<Q> = (hbar/2m)^2 FI / 2 on every snapshot", results)


def test_criterion_02_pressure_integral_identity(suite_reports):
    results = collect(suite_reports, NORMALIZABLE, "pressure_internal_identity")
    for _, c in results:
        assert c.tolerance == 1e-10
    verdict(2, "integral of Pi equals twice the internal energy", results)


def test_criterion_03_enthalpy_pointwise(suite_reports):
    names = NORMALIZABLE + ["airy_packet", "quantum_bouncer"]
    results = collect(suite_reports, names, "enthalpy_pointwise")
    for _, c in results:
        assert c.tolerance == 1e-7
    verdict(3, "Q + I - Pi/rho vanishes pointwise on the valid mask", results)


def test_criterion_04_ehrenfest_zero_acceleration(suite_reports):
    results = collect(
        suite_reports, ["free_gaussian", "moving_gaussian"], "acceleration_zero"
    )
    for _, c in results:
        assert c.tolerance == 1e-8
    verdict(4, "net acceleration expectation is zero for free packets", results)


def test_criterion_05_energy_conservation_and_forms(suite_reports):
    results = collect(suite_reports, PROPAGATED, "energy_drift")
    for _, c in results:
        assert c.tolerance == 1e-8
    results += collect(suite_reports, PROPAGATED, "energy_forms_gap")
    verdict(5, "energy drift <= 1e-8 and both energy forms agree to 1e-9", results)


def test_criterion_06_fisher_score_zero(suite_reports):
    names = NORMALIZABLE + ["airy_packet", "quantum_bouncer"]
    results = collect(suite_reports, names, "fisher_score_zero")
    for _, c in results:
        assert c.tolerance == 1e-10
    verdict(6, "<v_i> vanishes on every snapshot", results)


def test_criterion_07_derived_reference_values(desk_grid, natural_units):
    U0 = RealField(np.zeros(desk_grid.n), desk_grid)
    gauss = expectations(gaussian_packet(desk_grid, natural_units, 0.0, 1.0, 0.0), U0)
    checks = [
        ("gaussian FI = 1", abs(gauss.FI - 1.0), 1e-6),
        ("gaussian <Q> = 0.125", abs(gauss.Q - 0.125), 1e-7),
    ]
    Uh = evaluate_potential(PotentialSpec("harmonic", omega=1.0), desk_grid, natural_units)
    ho = expectations(harmonic_ground_state(desk_grid, natural_units, 1.0), Uh)
    checks += [
        ("harmonic E = 0.5", abs(ho.E - 0.5), 1e-8),
        ("harmonic K = 0", abs(ho.K), 1e-10),
        ("harmonic Q = 0.25", abs(ho.Q - 0.25), 1e-7),
        ("harmonic U = 0.25", abs(ho.U - 0.25), 1e-7),
    ]
    ok = all(err <= tol for _, err, tol in checks)
    worst = max(checks, key=lambda c: c[1] / c[2])
    print(f"[criterion  7] {'PASS' if ok else 'FAIL'}  derived values: "
          f"worst {worst[1]:.3e} ({worst[0]})")
    for label, err, tol in checks:
        assert err <= tol, f"criterion 7: {label} off by {err}"


def test_criterion_08_nonspreading_detector(suite_reports):
    results = [
        ("harmonic_ground", entry(suite_reports["harmonic_ground"], "nonspreading")),
        ("quantum_bouncer", entry(suite_reports["quantum_bouncer"], "nonspreading")),
        ("airy_packet", entry(suite_reports["airy_packet"], "nonspreading")),
        ("spreading_negative_control",
         entry(suite_reports["spreading_negative_control"], "nonspreading_violated")),
        ("free_gaussian",
         entry(suite_reports["free_gaussian"], "nonspreading_violated")),
    ]
    assert results[0][1].tolerance == 1e-6
    assert results[1][1].tolerance == 1e-6
    assert results[2][1].tolerance == 1e-3
    assert results[3][1].tolerance == 1e-2 and results[3][1].mode == "above"
    verdict(8, "Q + U linearity holds where it should and fails where it must", results)


def test_criterion_09_spreading_law(suite_reports):
    results = collect(suite_reports, ["free_gaussian"], "spreading_law")
    assert results[0][1].tolerance == 1e-4
    verdict(9, "free-packet width follows sigma0 sqrt(1 + (t/2 sigma0^2)^2)", results)


def test_criterion_10_parcel_continuity(suite_reports):
    results = [
        ("free_gaussian", entry(suite_reports["free_gaussian"], "continuity_max")),
        ("free_gaussian", entry(suite_reports["free_gaussian"], "continuity_order")),
        ("free_gaussian", entry(suite_reports["free_gaussian"], "quantile_preservation")),
    ]
    assert results[0][1].tolerance == 1e-4
    assert results[1][1].tolerance == 3.5 and results[1][1].mode == "above"
    assert results[2][1].tolerance == 1e-4
    verdict(10, "d(ln rho)/dt + div u vanishes along parcels at 2nd order", results)


def test_criterion_11_action_identity(suite_reports):
    results = collect(
        suite_reports, ["plane_wave", "harmonic_ground", "free_gaussian"],
        "action_identity",
    )
    for _, c in results:
        assert c.tolerance == 1e-4
    verdict(11, "sampled phase change equals the Lagrangian integral", results)


def test_criterion_12_bernoulli_residual(suite_reports):
    results = collect(suite_reports, ["plane_wave", "harmonic_ground"], "bernoulli_max")
    for _, c in results:
        assert c.tolerance == 1e-5
    results.append(("harmonic_ground",
                    entry(suite_reports["harmonic_ground"], "bernoulli_order")))
    verdict(12, "phase-rate residual small and second order in dt", results)


def test_criterion_13_propagator_order_and_norm(suite_reports):
    results = [("harmonic_ground",
                entry(suite_reports["harmonic_ground"], "propagator_order"))]
    c = results[0][1]
    assert c.mode == "range" and c.tolerance == (3.5, 4.5)
    results += collect(suite_reports, PROPAGATED, "norm_drift")
    for name, c in results[1:]:
        assert c.tolerance == 1e-10
    verdict(13, "Strang splitting is 2nd order and exactly unitary", results)
