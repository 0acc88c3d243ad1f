"""Uniform periodic grid, spectral differentiation, and quadrature.

Everything downstream (states, propagation, fluid diagnostics) lives on one
of these grids.  Derivatives are computed in wavenumber space, so fields are
treated as periodic over [x_min, x_max); scenarios are responsible for
keeping their support away from the seam.  The rectangle rule is the matching
quadrature: it is spectrally accurate for periodic integrands and makes
integrals of spectral derivatives vanish identically.

Every transform goes through one pair, _fft and _ifft, in place along the
last axis of a contiguous complex (..., n) stack.  The pair, and the row
stages below, call numpy's FFT gufuncs directly, with numpy's normalisation:
each transform has np.fft's bits without np.fft's per-call argument
handling, which at 512 points cost more than the transform (a forward and
inverse pair took 16-18 us through np.fft, 11 us direct).  From
_BLOCKED_MIN_N (8192) points on, where a 1-D transform no longer fits in
cache, they run Bailey's four-step FFT (J. Supercomputing 4, 1990) on an
(n1, n2) view of each row: FFTs along both block axes with a twiddle
multiply between them.  That leaves the spectrum in transposed order,
block[c, d] holding mode c + n1 d, which is the order _spectral stores its
factors in, so no transpose is ever made.

From _THREADED_MIN_N (32768) points on, the Strang loop runs here too, as
_strang_rows.  Between steps it keeps psi in the transposed block layout,
rows[c, r] = psi[r n2 + c], so that every FFT of a step runs along contiguous
rows.  A step has two stages, (1) into the spectral block, kinetic factor and
back, and (2) back to the rows, the potential factors and the next forward
FFT.  Row FFTs of the transposed block equal the column FFTs bit for bit, so
both loops give the same bits.  When the process may use two or more CPUs,
the caller runs the first half of each stage's rows and a daemon helper
thread the second (numpy's FFT releases the GIL), and the two meet after each
stage; _Helper times both ways as it goes and keeps to the caller alone while
the second CPU is slow to answer.  The split pays only while the host leaves
the second CPU free, and then it pays much.  On a 2-vCPU KVM guest, in 10
alternating pairs of bench/run.py's wide_domain (65536 points), it read a
median 1.18 s an operation against 1.75 s for the column form on one thread,
faster in all 10; in 10 later pairs, 1.69 s against 1.75 s.  On one thread
the row loop was not shown faster than the column form (1.71 s against 1.80
s, inside its quartile spread): it is the loop because the split runs in it.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft  # what np.fft.fft and ifft call

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


# the gufuncs' axes for a transform along the columns of a (..., n1, n2) block
_COLUMNS = [(-2,), (), (-2,)]


def _fft(a: np.ndarray) -> np.ndarray:
    """Forward transform of a complex (..., n) stack along its last axis, in
    place; the spectrum is in the order of _spectral's factors.

    The gufuncs take numpy's normalisation, 1 forward and 1/n inverse, so
    every transform has the bits of np.fft.fft / np.fft.ifft."""
    block = _blocks(a)
    if block is None:
        return _pocketfft.fft(a, 1, out=a)
    _pocketfft.fft(block, 1, axes=_COLUMNS, out=block)
    block *= _twiddle(a.shape[-1])
    _pocketfft.fft(block, 1, out=block)
    return a


def _ifft(a: np.ndarray) -> np.ndarray:
    """Inverse of _fft, in place."""
    block = _blocks(a)
    if block is None:
        return _pocketfft.ifft(a, 1.0 / a.shape[-1], out=a)
    n1, n2 = block.shape[-2:]
    _pocketfft.ifft(block, 1.0 / n2, out=block)
    # times conj(twiddle), exactly, without a second table
    np.conjugate(block, out=block)
    block *= _twiddle(a.shape[-1])
    np.conjugate(block, out=block)
    _pocketfft.ifft(block, 1.0 / n1, axes=_COLUMNS, out=block)
    return a


# Grids of at least this many points run the Strang loop as _strang_rows, on
# two threads when two CPUs are usable; below it neither the split nor the
# row loop alone beats the column form.
_THREADED_MIN_N = 32768

# harness._Worker children set this: each holds one of its caller's CPUs
_in_pool_worker = False


def _usable_cpus() -> int:
    """The CPUs this process may run on; one in a forked worker."""
    if _in_pool_worker:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def _to_rows(a: np.ndarray) -> np.ndarray:
    """A contiguous copy of a natural-order (n,) array in the transposed block
    layout of _strang_rows: out[c, r] = a[r n2 + c]."""
    n1, n2 = _block_shape(a.shape[-1])
    return np.ascontiguousarray(a.reshape(n1, n2).T)


# See _Helper: stages in each timed window, and stages the faster way then
# runs before both are timed again; and seconds between the caller's looks
# at whether the helper thread still lives while it waits for it.
_WINDOW, _RUN = 4, 256
_POLL = 0.1


class _Helper:
    """A daemon thread that runs the second half of each stage's rows while
    the caller runs the first.

    Each stage hands the helper its own lock and result list; the helper
    appends its failure, or None, then releases the lock.  The caller waits
    until that list is filled, taking the wait up again if an exception (a
    KeyboardInterrupt from a signal) breaks it, so no stage returns before
    its other half has stopped, and no stage can take another's end for its
    own.  If the helper thread dies, the caller's wait sees it within _POLL
    seconds: the caller then runs the half nobody answered itself, as every
    stage reads one work block and writes the other's rows whole, and the
    process forgets this helper, so the next Strang loop starts another.

    Sharing pays only while the second CPU runs the helper when asked.  On a
    machine whose host held that CPU for others, a shared step took three to
    four times as long as the caller's step alone.  So the stages run in
    cycles: _WINDOW stages by the caller alone, _WINDOW shared, each window
    timed, then _RUN stages the way whose window was faster.  Either way the
    stages give the same bits.
    """

    def __init__(self):
        import queue  # here, so that importing madelung stays as cheap

        self._stages = queue.SimpleQueue()
        self._cycle = 0  # stages into the current cycle
        self._windows = [0.0, 0.0]  # seconds of this cycle's alone and shared windows
        self._thread = threading.Thread(target=self._serve, args=(self._stages, self._run),
                                        name="madelung-rows", daemon=True)
        self._thread.start()

    @staticmethod
    def _serve(stages, run):
        while True:
            job = stages.get()
            run(*job)
            job = None  # keep no reference to the stage's arrays while waiting

    @staticmethod
    def _run(stage, rows, args, done, result):
        try:
            stage(rows, *args)
            result.append(None)
        except BaseException as exc:
            result.append(exc)
        done.release()

    def rows(self, stage, n_rows: int, *args) -> None:
        """stage(rows, *args) over [0, n_rows), the caller taking the first
        half and the helper the second, or the caller all of them.  Returns,
        or raises the first failure, only after both halves have stopped."""
        k = self._cycle
        self._cycle = (k + 1) % (2 * _WINDOW + _RUN)
        timed = k < 2 * _WINDOW
        shared = k >= _WINDOW if timed else self._windows[1] < self._windows[0]
        start = time.perf_counter()
        if shared:
            self._share(stage, n_rows, args)
        else:
            stage(slice(0, n_rows), *args)
        if timed:
            if k % _WINDOW == 0:
                self._windows[shared] = 0.0
            self._windows[shared] += time.perf_counter() - start

    def _share(self, stage, n_rows: int, args) -> None:
        half = n_rows // 2
        done, result = threading.Lock(), []
        done.acquire()
        self._stages.put((stage, slice(half, n_rows), args, done, result))
        try:
            stage(slice(0, half), *args)
        finally:
            broken = None
            while not result and self._thread.is_alive():
                try:
                    done.acquire(timeout=_POLL)
                except BaseException as exc:
                    broken = exc
            if broken is not None:
                raise broken
        if not result:  # the helper thread died: nobody else will run these rows
            _forget_helper(self)
            stage(slice(half, n_rows), *args)
        elif result[0] is not None:
            raise result[0]


def _all_rows(stage, n_rows: int, *args) -> None:
    """_Helper.rows with one CPU: the caller runs all the rows."""
    stage(slice(0, n_rows), *args)


_helper = None
_helper_lock = threading.Lock()


def _the_helper() -> _Helper:
    """The process's helper thread, started at first use."""
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = _Helper()
        return _helper


def _helper_alive() -> bool:
    """Whether this process has a helper thread, and it still runs."""
    helper = _helper
    return helper is not None and helper._thread.is_alive()


def _forget_helper(dead: _Helper) -> None:
    """Forget a helper whose thread died: the next _the_helper starts another."""
    global _helper
    with _helper_lock:
        if _helper is dead:
            _helper = None


def _forget_helper_in_child() -> None:
    # a forked child has no helper thread: it starts its own at first use
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper_in_child)


def _enter_rows(rows, block, natural, half_v):
    """Transpose natural-order psi into the block, potential half factor,
    FFT along the rows (the natural block's columns)."""
    r = block[rows]
    np.copyto(r, natural[:, rows].T)
    _forward_rows(r, half_v[rows])


def _forward_rows(r, half_v):
    np.multiply(half_v, r, out=r)
    _pocketfft.fft(r, 1, out=r)


def _kinetic_rows(rows, spec, block, kinetic, tw):
    """Stage 1: transpose into the spectral block times the twiddle, row FFT,
    kinetic factor, row IFFT, then conjugate and times the twiddle: the first
    two of _ifft's exact conj(conj(x) * twiddle), whose last conjugate
    _return_rows makes while it transposes."""
    s = spec[rows]
    np.copyto(s, block[:, rows].T)  # cheaper than multiplying the strided view
    s *= tw[rows]
    _pocketfft.fft(s, 1, out=s)
    np.multiply(kinetic[rows], s, out=s)
    _pocketfft.ifft(s, 1.0 / s.shape[-1], out=s)
    np.conjugate(s, out=s)
    s *= tw[rows]


def _return_rows(rows, block, spec, half_v, forward):
    """Stage 2: conjugate while transposing back, row IFFT, potential half
    factor; then, if forward, the next step's potential half factor and
    forward rows."""
    r = block[rows]
    np.conjugate(spec[:, rows].T, out=r)
    _pocketfft.ifft(r, 1.0 / r.shape[-1], out=r)
    np.multiply(half_v[rows], r, out=r)
    if forward:
        _forward_rows(r, half_v[rows])


def _strang_rows(values: np.ndarray, half_v: np.ndarray, kinetic: np.ndarray,
                 n_steps: int, every: int):
    """The Strang loop in the transposed block layout, on two threads when
    two CPUs are usable: yield psi's values in natural order after steps
    every, 2 every, ... and after step n_steps.

    ``half_v`` is the potential half factor in the transposed block layout
    (see _to_rows) and ``kinetic`` the kinetic factor in _spectral's order.
    The yielded arrays are new; the two work blocks are released while the
    caller holds one and rebuilt from it afterwards.
    """
    n = values.shape[-1]
    n1, n2 = _block_shape(n)
    tw = _twiddle(n)
    kinetic = kinetic.reshape(n1, n2)
    rows = _the_helper().rows if _usable_cpus() >= 2 else _all_rows
    done = 0
    while done < n_steps:
        steps = min(every, n_steps - done)
        block = np.empty((n2, n1), np.complex128)
        spec = np.empty((n1, n2), np.complex128)
        rows(_enter_rows, n2, block, values.reshape(n1, n2), half_v)
        for s in range(steps, 0, -1):
            rows(_kinetic_rows, n1, spec, block, kinetic, tw)
            rows(_return_rows, n2, block, spec, half_v, s > 1)
        values = np.ascontiguousarray(block.T).reshape(n)
        del block, spec
        done += steps
        yield values


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
