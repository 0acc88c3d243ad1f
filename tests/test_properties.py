"""Property tests: the integral identities on random resolved states.

A state is a sum of 1-3 Gaussian packets with random widths, centres,
wavenumbers and complex weights on the desk grid.  Each packet obeys the
gaussian_packet tail rule and its spectrum dies out far below the Nyquist
wavenumber, so psi is confined and band-limited.  The potential is a smooth
periodic table of 1-2 low cosine modes.  Every identity is held to its
acceptance tolerance, measured the way the harness check measures it.

Two identity/route pairs fail on superposed packets; they are strict xfails,
kept with the full generator, so they turn into failures once mended:

- the Ehrenfest balance <dQ/dx> = 0 rests on the rectangle rule integrating
  Q drho/dx, a quotient field that interference makes far less smooth than
  psi; it holds on every single packet and on refined grids;
- the amplitude route differentiates sqrt(rho), which interference makes
  sharp, so its <Q> misses the Bohm-Fisher and energy-form identities that
  the wavefunction and log routes keep.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from madelung.diagnostics import expectations
from madelung.grid import ComplexField, RealField, derivative_values, make_grid
from madelung.potentials import PotentialSpec, evaluate_potential
from madelung.special import airy_ai
from madelung.states import PhysicalConstants, WaveFunction, gaussian_packet

GRID = make_grid(512, -20.0, 20.0)
UNITS = PhysicalConstants()
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)
# for tests that hold a strict xfail: one counterexample is enough, unshrunk
KNOWN_FAILURE = settings(PROPERTY, phases=(Phase.explicit, Phase.generate))

# acceptance tolerances of the builtin identity checks
TOL_BOHM_FISHER = 1e-10
TOL_PRESSURE = 1e-10
TOL_SCORE = 1e-10
TOL_ACCEL = 1e-8
TOL_FORMS = 1e-9

packets = st.tuples(
    st.floats(0.5, 2.0),                 # sigma0
    st.floats(-1.0, 1.0),                # centre, as a share of the room 8 sigma0 leaves
    st.floats(-4.0, 4.0),                # k0
    st.floats(0.2, 1.0),                 # weight modulus
    st.floats(0.0, 2.0 * math.pi),       # weight phase
)
cosine_modes = st.tuples(
    st.integers(1, 4), st.floats(-2.0, 2.0), st.floats(0.0, 2.0 * math.pi)
)


def superposition(specs) -> WaveFunction:
    psi = np.zeros(GRID.n, dtype=complex)
    for sigma0, centre, k0, modulus, phase in specs:
        x0 = centre * (GRID.x_max - 8.0 * sigma0)
        packet = gaussian_packet(GRID, UNITS, x0, sigma0, k0).psi.values
        psi += modulus * np.exp(1j * phase) * packet
    psi /= math.sqrt(float(np.sum(psi.real**2 + psi.imag**2) * GRID.dx))
    return WaveFunction(ComplexField(psi, GRID), UNITS)


def tabulated(modes) -> RealField:
    u = np.zeros(GRID.n)
    for m, amplitude, phase in modes:
        u += amplitude * np.cos(2.0 * math.pi * m * (GRID.x - GRID.x_min) / GRID.length + phase)
    spec = PotentialSpec("tabulated", table=RealField(u, GRID))
    return evaluate_potential(spec, GRID, UNITS)


# drawn as parameters, so a counterexample prints as a few numbers
superposed = st.lists(packets, min_size=1, max_size=3)
single = st.lists(packets, min_size=1, max_size=1)
modes = st.lists(cosine_modes, min_size=1, max_size=2)
# the strict xfails' known counterexample, packets at x0 = -1 and 1 under one
# cosine: stated, it fails first, so Hypothesis has no new example to save
KNOWN_COUNTEREXAMPLE = example(
    [(1.0, -1.0 / 12.0, 2.0, 1.0, 0.0), (1.0, 1.0 / 12.0, -1.5, 0.7, 0.4)], [(2, 1.3, 0.2)])


def bohm_fisher_gap(r) -> float:
    pref = 0.5 * (UNITS.hbar / (2.0 * UNITS.mass)) ** 2
    return abs(r.Q - pref * r.FI) / max(1.0, r.FI)


def ehrenfest_gap(wf, U, r) -> float:
    """|accel + <dU/dx>/m|: the quantum force must average to zero."""
    rho = wf.density().values
    dU = derivative_values(U.values, GRID, 1).real
    return abs(r.accel + float(np.sum(rho * dU) * GRID.dx) / UNITS.mass)


@PROPERTY
@given(superposed, modes)
def test_pressure_integral_and_fisher_score(specs, table):
    r = expectations(superposition(specs), tabulated(table))
    assert abs(r.Pi_integral - 2.0 * r.I) / max(1.0, r.I) <= TOL_PRESSURE
    assert abs(r.vi_mean) <= TOL_SCORE


@pytest.mark.parametrize("bohm_form", [
    "wavefunction",
    "log",
    pytest.param("amplitude", marks=pytest.mark.xfail(
        strict=True, reason="sqrt(rho) of superposed packets is not resolved")),
])
@KNOWN_FAILURE
@given(superposed, modes)
@KNOWN_COUNTEREXAMPLE
def test_bohm_fisher_and_energy_forms(bohm_form, specs, table):
    r = expectations(superposition(specs), tabulated(table), bohm_form=bohm_form)
    assert bohm_fisher_gap(r) <= TOL_BOHM_FISHER
    assert abs(r.E - r.E_hamiltonian) <= TOL_FORMS


@pytest.mark.parametrize("bohm_form", ["amplitude", "wavefunction", "log"])
@PROPERTY
@given(single, modes)
def test_ehrenfest_single_packet(bohm_form, specs, table):
    wf, U = superposition(specs), tabulated(table)
    r = expectations(wf, U, bohm_form=bohm_form)
    assert ehrenfest_gap(wf, U, r) <= TOL_ACCEL
    assert bohm_fisher_gap(r) <= TOL_BOHM_FISHER
    assert abs(r.E - r.E_hamiltonian) <= TOL_FORMS


@pytest.mark.xfail(strict=True, reason="Q drho/dx of superposed packets is not resolved "
                                       "by the rectangle rule on the desk grid")
@KNOWN_FAILURE
@given(superposed, modes)
@KNOWN_COUNTEREXAMPLE
def test_ehrenfest_superposition(specs, table):
    wf, U = superposition(specs), tabulated(table)
    r = expectations(wf, U)
    assert ehrenfest_gap(wf, U, r) <= TOL_ACCEL


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.floats(-30.0, 30.0))
def test_airy_ai_matches_scipy(x):
    assert abs(float(airy_ai(x)) - scipy.special.airy(x)[0]) <= 1e-10
