import math

import numpy as np
import pytest
import scipy.special

from madelung.special import airy_ai, airy_ai_first_zero

# Frozen reference values (scipy.special.airy).
AI_VALUES = {
    0.0: 0.3550280538878172,
    1.0: 0.13529241631288147,
    2.5: 0.015725923380470484,
    5.0: 1.0834442813607433e-04,
    10.0: 1.1047532552898654e-10,
    -1.0: 0.5355608832923522,
    -2.0: 0.22740742820168564,
    -5.0: 0.3507610090241142,
    -10.0: 0.040241238486441955,
    -12.5: -0.2762745613811602,
    -25.0: 0.16352657883043045,
    25.0: 8.116026824691426e-38,
}


def test_value_at_origin_from_gamma():
    # series definition: Ai(0) = 3**(-2/3) / Gamma(2/3)
    exact = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert abs(airy_ai(0.0) - exact) < 1e-15


@pytest.mark.parametrize("x,expected", sorted(AI_VALUES.items()))
def test_frozen_values(x, expected):
    assert abs(airy_ai(x) - expected) <= 1e-10


def test_rapid_decay_positive_axis():
    assert airy_ai(10.0) < 1e-9
    assert airy_ai(10.0) > 0.0


def test_against_scipy_dense_scan():
    xs = np.linspace(-30.0, 30.0, 2401)
    ref = scipy.special.airy(xs)[0]
    assert np.max(np.abs(airy_ai(xs) - ref)) <= 1e-10


def test_first_zero():
    z = airy_ai_first_zero()
    assert abs(z - (-2.338107410459767)) < 1e-10
    assert abs(airy_ai(z)) < 1e-12


def test_first_zero_by_independent_bisection():
    lo, hi = -3.0, -2.0
    flo = scipy.special.airy(lo)[0]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = scipy.special.airy(mid)[0]
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    assert abs(airy_ai_first_zero() - 0.5 * (lo + hi)) < 1e-10


@pytest.mark.parametrize("x", [30.5, -31.0, 100.0])
def test_out_of_range_rejected(x):
    with pytest.raises(ValueError):
        airy_ai(x)


def test_array_input_shape():
    xs = np.array([[0.0, 1.0], [-1.0, -2.0]])
    out = airy_ai(xs)
    assert out.shape == xs.shape
    assert abs(out[0, 0] - AI_VALUES[0.0]) < 1e-12


def _u_coefficients_rebuilt(zeta, n_max=60):
    """The asymptotic coefficients with the u_k products rebuilt on every call."""
    terms = [1.0]
    u = 1.0
    for k in range(1, n_max):
        u *= (6 * k - 5) * (6 * k - 1) / (72.0 * k)
        t = u / zeta**k
        if t >= abs(terms[-1]) and k > 2:
            break
        terms.append(t)
    return terms


def test_tabulated_coefficients_give_bit_identical_values(monkeypatch):
    from madelung import special

    # both asymptotic tails, each side of both crossovers, and the range ends
    x = np.concatenate([np.linspace(-30.0, -7.0, 301), np.linspace(4.0, 30.0, 301),
                        [special._SERIES_MIN, np.nextafter(special._SERIES_MIN, -np.inf),
                         special._SERIES_MAX, np.nextafter(special._SERIES_MAX, np.inf)]])
    for zeta in (2.0 / 3.0) * np.abs(x) ** 1.5:
        assert special._u_coefficients(zeta) == _u_coefficients_rebuilt(zeta)
    tabulated = airy_ai(x)
    monkeypatch.setattr(special, "_u_coefficients", _u_coefficients_rebuilt)
    assert np.array_equal(tabulated, airy_ai(x))
