"""Uniform periodic grid, spectral differentiation, and quadrature.

Everything downstream (states, propagation, fluid diagnostics) lives on one
of these grids.  Derivatives are computed in wavenumber space, so fields are
treated as periodic over [x_min, x_max); scenarios are responsible for
keeping their support away from the seam.  The rectangle rule is the matching
quadrature: it is spectrally accurate for periodic integrands and makes
integrals of spectral derivatives vanish identically.

Every transform goes through one pair, _fft and _ifft, in place along the
last axis of a contiguous complex (..., n) stack.  From _BLOCKED_MIN_N (8192)
points on, where a 1-D transform no longer fits in cache, they run Bailey's
four-step FFT (J. Supercomputing 4, 1990) on an (n1, n2) view of each row:
FFTs along both block axes with a twiddle multiply between them.  That leaves
the spectrum in transposed order, block[c, d] holding mode c + n1 d, which is
the order _spectral stores its factors in, so no transpose is ever made.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "RealField",
    "ComplexField",
    "make_grid",
    "spectral_derivative",
    "integrate",
    "nearest_index",
    "nearest_fill",
    "NonFiniteFieldError",
]


class NonFiniteFieldError(ValueError):
    """A field handed to a grid container holds NaN or infinite entries: a
    numerical failure, not a bad argument."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [x_min, x_max).

    ``x`` holds the n sample points (x_max itself is excluded, it aliases
    x_min).  The conjugate wavenumbers live in `_spectral`, in the order of
    the transform pair.
    """

    n: int
    x_min: float
    x_max: float
    dx: float
    x: np.ndarray

    @property
    def length(self) -> float:
        return self.x_max - self.x_min


@dataclass(frozen=True)
class RealField:
    """Real-valued samples on a grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        _check_values(values, self.grid)
        object.__setattr__(self, "values", values)

    @classmethod
    def _unchecked(cls, values: np.ndarray, grid: Grid) -> "RealField":
        """Wrap a float64 array of length grid.n without copying or scanning it.

        For kernel outputs just computed from validated inputs; anything a
        caller hands in goes through the validating constructor instead.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "grid", grid)
        return out


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued samples on a grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        _check_values(values, self.grid)
        object.__setattr__(self, "values", values)


def _check_values(values: np.ndarray, grid: Grid) -> None:
    if values.shape != (grid.n,):
        raise ValueError(
            f"field length {values.shape} does not match grid size ({grid.n},)"
        )
    _check_finite(values)


def _check_finite(values: np.ndarray) -> None:
    """Reject an array with a NaN or infinite entry as a numerical failure."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteFieldError("field contains non-finite entries")


def make_grid(n: int, x_min: float, x_max: float) -> Grid:
    """Build a uniform periodic grid with n points (n a power of two, >= 8)."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {n}")
    x_min = float(x_min)
    x_max = float(x_max)
    if not (np.isfinite(x_min) and np.isfinite(x_max)) or x_max <= x_min:
        raise ValueError(f"degenerate domain [{x_min}, {x_max}]")
    dx = (x_max - x_min) / n
    x = x_min + dx * np.arange(n)
    return Grid(n=n, x_min=x_min, x_max=x_max, dx=dx, x=x)


def same_grid(a: Grid, b: Grid) -> bool:
    """Whether two grids sample the same points."""
    return a is b or np.array_equal(a.x, b.x)


def check_potential_grid(potential: Grid, state: Grid) -> None:
    """Reject a potential sampled on another grid than the state it acts on."""
    if not same_grid(potential, state):
        raise ValueError("potential and wavefunction live on different grids")


# Grids of at least this many points take the blocked transform.  numpy's
# 1-D FFT costs more per n log n point above 16384; at 8192 the blocked step
# already runs faster than the plain pair.
_BLOCKED_MIN_N = 8192


def _block_shape(n: int) -> tuple[int, int]:
    """(n1, n2) with n1 = 2^floor(log2(n) / 2), for a power-of-two n."""
    n1 = 1 << ((n.bit_length() - 1) // 2)
    return n1, n // n1


@functools.lru_cache(maxsize=4)
def _twiddle(n: int) -> np.ndarray:
    """The four-step twiddle table exp(-2 pi i c b / n) on the (n1, n2) block."""
    n1, n2 = _block_shape(n)
    table = np.exp((-2j * np.pi / n) * (np.arange(n1)[:, None] * np.arange(n2)))
    table.flags.writeable = False  # shared by every transform on this n
    return table


def _blocks(a: np.ndarray):
    """The (..., n1, n2) view of a stack on a blocked grid, else None; a
    non-contiguous stack is refused rather than transformed in a copy."""
    if not a.flags.c_contiguous:
        raise ValueError("the transforms work in place on a contiguous array")
    n = a.shape[-1]
    return a.reshape(a.shape[:-1] + _block_shape(n)) if n >= _BLOCKED_MIN_N else None


def _fft(a: np.ndarray) -> np.ndarray:
    """Forward transform of a complex (..., n) stack along its last axis, in
    place; the spectrum is in the order of _spectral's factors."""
    block = _blocks(a)
    if block is None:
        return np.fft.fft(a, out=a)
    np.fft.fft(block, axis=-2, out=block)
    block *= _twiddle(a.shape[-1])
    np.fft.fft(block, axis=-1, out=block)
    return a


def _ifft(a: np.ndarray) -> np.ndarray:
    """Inverse of _fft, in place."""
    block = _blocks(a)
    if block is None:
        return np.fft.ifft(a, out=a)
    np.fft.ifft(block, axis=-1, out=block)
    # times conj(twiddle), exactly, without a second table
    np.conjugate(block, out=block)
    block *= _twiddle(a.shape[-1])
    np.conjugate(block, out=block)
    np.fft.ifft(block, axis=-2, out=block)
    return a


def _spectral(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (k, ik, -k^2) in _fft's order; ik has its Nyquist mode
    zeroed, so a first derivative maps real input to real output."""
    return _spectral_table(grid.n, grid.dx)


@functools.lru_cache(maxsize=8)
def _spectral_table(n: int, dx: float):
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    ik = 1j * k
    ik[n // 2] = 0.0
    factors = (k, ik, -(k * k))
    if n >= _BLOCKED_MIN_N:
        n1, n2 = _block_shape(n)
        factors = tuple(f.reshape(n2, n1).T.ravel() for f in factors)
    for f in factors:
        f.flags.writeable = False  # shared by every transform on this grid
    return factors


def derivative_values(values: np.ndarray, grid: Grid, order: int) -> np.ndarray:
    """Spectral derivative on raw samples; complex in, complex out.

    The Nyquist mode is zeroed for odd orders so real input maps to real
    output; smooth resolved fields carry no Nyquist content anyway.
    """
    return derivative_from_transform(_fft(np.array(values, np.complex128)), grid, order)


def derivative_from_transform(fhat: np.ndarray, grid: Grid, order: int) -> np.ndarray:
    """derivative_values from the transform ``_fft(values)`` along the last
    axis, so one forward transform serves both orders."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    return _ifft(_spectral(grid)[order] * fhat)


def spectral_derivative(field, order: int = 1):
    """Differentiate a RealField or ComplexField, returning the same kind."""
    out = derivative_values(field.values, field.grid, order)
    if isinstance(field, RealField):
        return RealField(out.real, field.grid)
    if isinstance(field, ComplexField):
        return ComplexField(out, field.grid)
    raise TypeError(f"expected RealField or ComplexField, got {type(field)!r}")


def integrate(field: RealField) -> float:
    """Rectangle-rule integral over the periodic domain."""
    if not isinstance(field, RealField):
        raise TypeError("integrate expects a RealField")
    return float(np.sum(field.values) * field.grid.dx)


def nearest_index(mask: np.ndarray) -> np.ndarray:
    """Gather map of nearest_fill along the last axis of a (..., n) mask:
    entry i of a row is the valid index of that row nearest to i.

    Valid entries map to themselves and ties go to the left neighbour, so
    ``np.take_along_axis(values, nearest_index(mask), -1)`` is the filled
    copy.  One map serves every field that shares the mask.
    """
    mask = np.asarray(mask, dtype=bool)
    if not np.all(np.any(mask, axis=-1)):
        raise ValueError("mask has no valid entries")
    n = mask.shape[-1]
    pos = np.arange(n)
    # nearest valid position at or left of / at or right of each entry; the
    # sentinels lie farther away than any real neighbour
    left = np.maximum.accumulate(np.where(mask, pos, -2 * n), axis=-1)
    right = np.minimum.accumulate(np.where(mask, pos, 3 * n)[..., ::-1], axis=-1)[..., ::-1]
    return np.where(pos - left <= right - pos, left, right)


def nearest_fill(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Copy of ``values`` with masked-out entries set to the nearest valid one.

    Used to extend quotient fields (velocity, phase) across regions where the
    density is below the floor and the quotient carries no information.
    """
    return np.take_along_axis(np.asarray(values), nearest_index(mask), axis=-1)
