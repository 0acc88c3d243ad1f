"""Airy function of the first kind.

Two regimes: a Maclaurin series around the origin and Poincare-type
asymptotic expansions in both tails, truncated at their smallest term.
The negative-axis crossover sits further out than the positive one because
the oscillatory expansion converges much more slowly there; the series is
numerically stable out to x ~ -7.5 in double precision.
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


def _ai_series(x: float) -> float:
    """Maclaurin series Ai = Ai(0)*f(x) + Ai'(0)*g(x)."""
    x3 = x * x * x
    f_term = 1.0
    g_term = x
    f_sum = f_term
    g_sum = g_term
    for k in range(80):
        f_term *= x3 / ((3 * k + 2) * (3 * k + 3))
        g_term *= x3 / ((3 * k + 3) * (3 * k + 4))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) < 1e-18 * abs(f_sum) + 1e-30 and abs(g_term) < 1e-18 * abs(g_sum) + 1e-30:
            break
    return _AI0 * f_sum - _AIP0 * g_sum


# u_k of the asymptotic expansions, k < 60: running products of these factors
_U_FACTORS = [(6 * k - 5) * (6 * k - 1) / (72.0 * k) for k in range(1, 60)]
_U = [math.prod(_U_FACTORS[:k], start=1.0) for k in range(60)]


def _u_coefficients(zeta: float):
    """Coefficients u_k / zeta^k of the asymptotic expansions, truncated
    just before the smallest term (the optimal Poincare truncation)."""
    terms = [1.0]
    for k in range(1, len(_U)):
        t = _U[k] / zeta**k
        if t >= abs(terms[-1]) and k > 2:
            break
        terms.append(t)
    return terms


def _ai_asymptotic_pos(x: float) -> float:
    zeta = (2.0 / 3.0) * x**1.5
    terms = _u_coefficients(zeta)
    s = math.fsum((-1.0) ** k * t for k, t in enumerate(terms))
    return math.exp(-zeta) * s / (2.0 * math.sqrt(math.pi) * x**0.25)


def _ai_asymptotic_neg(x: float) -> float:
    t = -x
    zeta = (2.0 / 3.0) * t**1.5
    terms = _u_coefficients(zeta)
    even = math.fsum((-1.0) ** (k // 2) * v for k, v in enumerate(terms) if k % 2 == 0)
    odd = math.fsum((-1.0) ** (k // 2) * v for k, v in enumerate(terms) if k % 2 == 1)
    phase = zeta - 0.25 * math.pi
    return (math.cos(phase) * even + math.sin(phase) * odd) / (
        math.sqrt(math.pi) * t**0.25
    )


def _ai_scalar(x: float) -> float:
    if abs(x) > _RANGE:
        raise ValueError(f"airy_ai supports |x| <= {_RANGE}, got {x}")
    if x > _SERIES_MAX:
        return _ai_asymptotic_pos(x)
    if x < _SERIES_MIN:
        return _ai_asymptotic_neg(x)
    return _ai_series(x)


def airy_ai(x):
    """Airy function Ai(x) for |x| <= 30, absolute error below 1e-10.

    Accepts a scalar or an ndarray.
    """
    if np.isscalar(x):
        return _ai_scalar(float(x))
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    flat = arr.ravel()
    res = out.ravel()
    for i, v in enumerate(flat):
        res[i] = _ai_scalar(float(v))
    return out


def airy_ai_first_zero() -> float:
    """First negative zero of Ai, via bisection on the series branch."""
    lo, hi = -3.0, -2.0  # Ai(-3) < 0 < Ai(-2)
    flo = _ai_series(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = _ai_series(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)
