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


def _series_reference(x):
    """The Maclaurin series summed one point at a time, term by term."""
    from madelung.special import _AI0, _AIP0

    x3 = x * x * x
    f_term, g_term = 1.0, x
    f_sum, g_sum = f_term, g_term
    for k in range(80):
        f_term *= x3 / ((3 * k + 2) * (3 * k + 3))
        g_term *= x3 / ((3 * k + 3) * (3 * k + 4))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) < 1e-18 * abs(f_sum) + 1e-30 and abs(g_term) < 1e-18 * abs(g_sum) + 1e-30:
            break
    return _AI0 * f_sum - _AIP0 * g_sum


def _tail_sums_reference(zeta, m):
    """math.fsum of (-1)**(k // m) u_k / zeta**k over k = r (mod m), r < m."""
    terms = _u_coefficients_rebuilt(zeta)
    return [math.fsum((-1.0) ** (k // m) * t for k, t in enumerate(terms) if k % m == r)
            for r in range(m)]


def test_tabulated_coefficients_give_bit_identical_values():
    from madelung import special

    # both asymptotic tails, each side of both crossovers, and the range ends
    x = np.concatenate([np.linspace(-30.0, -7.0, 301), np.linspace(4.0, 30.0, 301),
                        [special._SERIES_MIN, np.nextafter(special._SERIES_MIN, -np.inf),
                         special._SERIES_MAX, np.nextafter(special._SERIES_MAX, np.inf)]])
    values = airy_ai(x)
    series = (x >= special._SERIES_MIN) & (x <= special._SERIES_MAX)
    assert np.array_equal(values[series], [_series_reference(v) for v in x[series]])
    # the tails: fsums of the rebuilt coefficients, with the library's zeta and
    # prefactors, so that only the running sums differ
    pos, neg = x > special._SERIES_MAX, x < special._SERIES_MIN
    zeta = (2.0 / 3.0) * x[pos] ** 1.5
    s = np.array([_tail_sums_reference(z, 1) for z in zeta])[:, 0]
    assert np.max(np.abs(special._asymptotic_sums(zeta, 1)[0] / s - 1.0)) <= 1e-14
    ref = np.exp(-zeta) * s / (2.0 * math.sqrt(math.pi) * x[pos] ** 0.25)
    assert np.max(np.abs(values[pos] / ref - 1.0)) <= 1e-14
    t = -x[neg]
    zeta = (2.0 / 3.0) * t**1.5
    even, odd = np.array([_tail_sums_reference(z, 2) for z in zeta]).T
    assert np.max(np.abs(special._asymptotic_sums(zeta, 2) - [even, odd])) <= 1e-14
    envelope = 1.0 / (math.sqrt(math.pi) * t**0.25)
    phase = zeta - 0.25 * math.pi
    ref = (np.cos(phase) * even + np.sin(phase) * odd) * envelope
    assert np.max(np.abs(values[neg] - ref) / envelope) <= 1e-14


def test_an_array_gives_the_per_point_values():
    from madelung import special

    # both crossovers and their neighbours, the origin, both range ends
    edges = [special._SERIES_MIN, special._SERIES_MAX]
    x = np.concatenate([np.linspace(-30.0, 30.0, 6001), edges, np.nextafter(edges, -np.inf),
                        np.nextafter(edges, np.inf), [0.0, -0.0]])
    assert np.array_equal(airy_ai(x), [airy_ai(v) for v in x])
    assert all(type(airy_ai(v)) is float for v in (1, -10.0, 10.0, np.float64(0.5)))


def test_first_zero_is_the_root_bisection_on_the_series_finds():
    lo, hi = -3.0, -2.0
    flo = airy_ai(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = airy_ai(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-14:
            break
    assert airy_ai_first_zero() == 0.5 * (lo + hi)
