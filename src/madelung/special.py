"""Airy function of the first kind.

Two regimes: a Maclaurin series around the origin and Poincare-type
asymptotic expansions in both tails, truncated at their smallest term.
The negative-axis crossover sits further out than the positive one because
the oscillatory expansion converges much more slowly there; the series is
numerically stable out to x ~ -7.5 in double precision. Each regime runs
once, on its slice of the input array.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["airy_ai", "airy_ai_first_zero"]

# Ai(0) = 3**(-2/3)/Gamma(2/3) and -Ai'(0) = 3**(-1/3)/Gamma(1/3).
_AI0 = 0.3550280538878172
_AIP0 = 0.2588194037928068

_SERIES_MAX = 4.5
_SERIES_MIN = -7.4
_RANGE = 30.0
_AI_FIRST_ZERO = -2.3381074104597666


def _ai_series(x: np.ndarray) -> np.ndarray:
    """Maclaurin series Ai = Ai(0)*f(x) + Ai'(0)*g(x); a point stops summing
    once both its terms fall below 1e-18 of their sums."""
    x3 = x * x * x
    f_term, g_term = np.ones_like(x), x.copy()
    f_sum, g_sum = f_term.copy(), g_term.copy()
    on = np.ones(x.shape, dtype=bool)
    for k in range(80):
        f_term *= x3 / ((3 * k + 2) * (3 * k + 3))
        g_term *= x3 / ((3 * k + 3) * (3 * k + 4))
        np.add(f_sum, f_term, out=f_sum, where=on)
        np.add(g_sum, g_term, out=g_sum, where=on)
        on &= ~((np.abs(f_term) < 1e-18 * np.abs(f_sum) + 1e-30)
                & (np.abs(g_term) < 1e-18 * np.abs(g_sum) + 1e-30))
        if not on.any():
            break
    return _AI0 * f_sum - _AIP0 * g_sum


# u_k of the asymptotic expansions, k < 60: running products of these factors
_U_FACTORS = [(6 * k - 5) * (6 * k - 1) / (72.0 * k) for k in range(1, 60)]
_U = [math.prod(_U_FACTORS[:k], start=1.0) for k in range(60)]


def _asymptotic_sums(zeta: np.ndarray, m: int) -> np.ndarray:
    """Row r: the sum over k = r (mod m) of (-1)**(k // m) * u_k / zeta**k.
    Each point stops before its first k > 2 whose term is not smaller than
    the one before (the optimal Poincare truncation)."""
    sums = np.zeros((m,) + zeta.shape)
    sums[0] = 1.0
    prev = np.ones_like(zeta)
    on = np.ones(zeta.shape, dtype=bool)
    for k in range(1, len(_U)):
        t = _U[k] / zeta**k
        if k > 2:
            on &= ~(t >= prev)
            if not on.any():
                break
        np.add(sums[k % m], (-1.0) ** (k // m) * t, out=sums[k % m], where=on)
        prev = t
    return sums


def airy_ai(x):
    """Airy function Ai(x) for |x| <= 30, absolute error below 1e-10.

    Accepts a scalar, which gives a float, or an ndarray.
    """
    arr = np.asarray(x, dtype=np.float64)
    bad = np.abs(arr) > _RANGE
    if bad.any():
        raise ValueError(f"airy_ai supports |x| <= {_RANGE}, got {arr[bad][0]}")
    pos, neg = arr > _SERIES_MAX, arr < _SERIES_MIN
    mid = ~(pos | neg)  # a NaN sums its series to NaN
    out = np.empty_like(arr)
    out[mid] = _ai_series(arr[mid])
    zeta = (2.0 / 3.0) * arr[pos] ** 1.5
    (s,) = _asymptotic_sums(zeta, 1)
    out[pos] = np.exp(-zeta) * s / (2.0 * math.sqrt(math.pi) * arr[pos] ** 0.25)
    t = -arr[neg]
    zeta = (2.0 / 3.0) * t**1.5
    even, odd = _asymptotic_sums(zeta, 2)
    phase = zeta - 0.25 * math.pi
    out[neg] = (np.cos(phase) * even + np.sin(phase) * odd) / (math.sqrt(math.pi) * t**0.25)
    return float(out) if np.isscalar(x) else out


def airy_ai_first_zero() -> float:
    """First negative zero of Ai: the root that bisection on the series branch
    finds, one ulp above DLMF 9.9.1's a1 = -2.33810741045976704 (the tests
    re-derive it)."""
    return _AI_FIRST_ZERO
