import numpy as np
import pytest

from madelung import grid
from madelung.grid import (
    ComplexField,
    RealField,
    integrate,
    make_grid,
    nearest_fill,
    nearest_index,
    spectral_derivative,
)


def test_make_grid_basic():
    g = make_grid(8, 0.0, 8.0)
    assert g.dx == 1.0
    k = grid._spectral(g)[0]  # the grid's wavenumbers, natural order below 8192 points
    assert k[0] == 0.0
    assert np.isclose(k[1], 2.0 * np.pi / 8.0)


def test_make_grid_spacing():
    g = make_grid(256, -20.0, 20.0)
    assert np.isclose(g.dx, 40.0 / 256.0)
    # wavenumber spacing is 2 pi / L
    k = grid._spectral(g)[0]
    assert np.isclose(k[1] - k[0], 2.0 * np.pi / 40.0)


def test_make_grid_wavenumbers_symmetric():
    k = grid._spectral(make_grid(64, 0.0, 1.0))[0]
    # every positive mode below Nyquist has its negative partner
    assert np.allclose(k[1:32], -k[:32:-1])


@pytest.mark.parametrize(
    "n,lo,hi",
    [(6, 0.0, 1.0), (12, 0.0, 1.0), (4, 0.0, 1.0), (512, 1.0, 1.0), (512, 2.0, -2.0)],
)
def test_make_grid_rejects(n, lo, hi):
    with pytest.raises(ValueError):
        make_grid(n, lo, hi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lo, hi, length", [
    (-1e308, 1e308, "inf"),
    (-np.finfo(float).max, np.finfo(float).max, "inf"),
    (1.0, 1.0, "0.0"),
    (2.0, -2.0, "-4.0"),
])
def test_make_grid_names_a_length_that_is_not_finite_and_positive(lo, hi, length):
    with pytest.raises(ValueError,
                       match=f"^grid length x_max - x_min must be finite and > 0, got {length}$"):
        make_grid(512, lo, hi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_make_grid_takes_a_length_just_below_the_largest_float():
    g = make_grid(512, -8e307, 8e307)
    assert np.all(np.isfinite(g.x)) and g.dx == 1.6e308 / 512


def test_field_length_mismatch():
    g = make_grid(16, 0.0, 1.0)
    with pytest.raises(ValueError):
        RealField(np.zeros(8), g)


def test_field_rejects_nan():
    g = make_grid(16, 0.0, 1.0)
    vals = np.zeros(16)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        RealField(vals, g)
    with pytest.raises(ValueError):
        ComplexField(vals.astype(complex) * 1j, g)


def test_derivative_of_sine():
    g = make_grid(128, 0.0, 2.0)
    L = g.length
    f = RealField(np.sin(2.0 * np.pi * g.x / L), g)
    df = spectral_derivative(f, 1)
    exact = (2.0 * np.pi / L) * np.cos(2.0 * np.pi * g.x / L)
    assert np.max(np.abs(df.values - exact)) < 1e-12


def test_derivative_of_constant_is_zero():
    g = make_grid(64, -3.0, 5.0)
    f = RealField(np.full(64, 2.75), g)
    df = spectral_derivative(f, 1)
    assert np.max(np.abs(df.values)) <= 1e-12 * 2.75


def test_second_derivative_eigenfunction():
    g = make_grid(128, -10.0, 10.0)
    k = 2.0 * np.pi * 5 / g.length
    f = ComplexField(np.exp(1j * k * g.x), g)
    d2 = spectral_derivative(f, 2)
    assert np.max(np.abs(d2.values + k * k * f.values)) < 1e-10 * k * k


def test_first_derivative_twice_matches_second():
    g = make_grid(256, -20.0, 20.0)
    f = RealField(np.exp(-g.x**2 / 2.0), g)
    d11 = spectral_derivative(spectral_derivative(f, 1), 1)
    d2 = spectral_derivative(f, 2)
    scale = np.max(np.abs(d2.values))
    assert np.max(np.abs(d11.values - d2.values)) <= 1e-10 * scale


def test_derivative_rejects_bad_order():
    g = make_grid(16, 0.0, 1.0)
    f = RealField(np.zeros(16), g)
    with pytest.raises(ValueError):
        spectral_derivative(f, 3)


def test_integrate_constant():
    g = make_grid(32, 0.0, 1.0)
    assert np.isclose(integrate(RealField(np.ones(32), g)), 1.0, atol=1e-14)


def test_integrate_full_period_sine():
    g = make_grid(64, 0.0, 1.0)
    f = RealField(np.sin(2.0 * np.pi * g.x), g)
    assert abs(integrate(f)) < 1e-14


def test_integrate_normalized_gaussian():
    # tails at the domain edge sit far below machine epsilon
    g = make_grid(256, -20.0, 20.0)
    rho = np.exp(-g.x**2 / 2.0) / np.sqrt(2.0 * np.pi)
    assert abs(integrate(RealField(rho, g)) - 1.0) < 1e-12


def test_integral_of_derivative_vanishes():
    g = make_grid(128, -5.0, 5.0)
    f = RealField(np.exp(np.sin(2.0 * np.pi * g.x / g.length)), g)
    df = spectral_derivative(f, 1)
    assert abs(integrate(df)) < 1e-12


def test_nearest_fill():
    vals = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    mask = np.array([False, True, False, False, True])
    out = nearest_fill(vals, mask)
    assert np.array_equal(out, [20.0, 20.0, 20.0, 50.0, 50.0])
    with pytest.raises(ValueError):
        nearest_fill(vals, np.zeros(5, dtype=bool))


def _nearest_index_by_search(mask):
    # reference: for every entry, scan outward for the closest valid one,
    # the left one first on a tie
    valid = np.flatnonzero(mask)
    return np.array([valid[np.argmin(np.abs(valid - i))] for i in range(mask.size)])


NEAREST_CASES = {
    "all_valid": [1, 1, 1, 1, 1, 1, 1, 1],
    "only_first": [1, 0, 0, 0, 0, 0, 0, 0],
    "only_last": [0, 0, 0, 0, 0, 0, 0, 1],
    "single_inner": [0, 0, 0, 1, 0, 0, 0, 0],
    "ties": [1, 0, 1, 0, 0, 1, 0, 0],
    "gaps": [0, 1, 1, 0, 0, 0, 1, 0],
}


@pytest.mark.parametrize("name", sorted(NEAREST_CASES))
def test_nearest_index_one_row(name):
    mask = np.array(NEAREST_CASES[name], dtype=bool)
    idx = nearest_index(mask)
    assert np.array_equal(idx, _nearest_index_by_search(mask))
    assert np.array_equal(idx[mask], np.flatnonzero(mask))


def test_nearest_index_ties_go_left():
    # entry 1 sits between valid 0 and 2, entry 3 between valid 2 and 4
    mask = np.array([True, False, True, False, True])
    assert np.array_equal(nearest_index(mask), [0, 0, 2, 2, 4])


def test_nearest_index_rows_are_independent():
    masks = np.array([NEAREST_CASES[k] for k in sorted(NEAREST_CASES)], dtype=bool)
    idx = nearest_index(masks)
    assert idx.shape == masks.shape
    for row, mask in zip(idx, masks):
        assert np.array_equal(row, nearest_index(mask))
    # leading axes beyond one batch axis
    stacked = nearest_index(masks.reshape(2, 3, 8))
    assert np.array_equal(stacked.reshape(6, 8), idx)


def test_nearest_index_random_rows_match_the_search():
    rng = np.random.default_rng(7)
    masks = rng.random((20, 64)) < 0.1
    masks[np.arange(20), rng.integers(0, 64, 20)] = True
    idx = nearest_index(masks)
    for row, mask in zip(idx, masks):
        assert np.array_equal(row, _nearest_index_by_search(mask))
    values = rng.standard_normal((20, 64))
    filled = nearest_fill(values, masks)
    for i in range(20):
        assert np.array_equal(filled[i], nearest_fill(values[i], masks[i]))


def test_nearest_index_rejects_an_empty_row():
    masks = np.ones((3, 8), dtype=bool)
    masks[1] = False
    with pytest.raises(ValueError, match="no valid entries"):
        nearest_index(masks)


# The transform pair: plain below _BLOCKED_MIN_N, four-step from it on.

def _block_order(n):
    """The flat index into the natural-order spectrum of each entry of the
    blocked spectrum: entry c n2 + d holds mode c + n1 d."""
    n1, n2 = grid._block_shape(n)
    return np.arange(n).reshape(n2, n1).T.ravel()


@pytest.mark.parametrize("n", [8192, 32768, 65536])
def test_blocked_transform_pair_on_a_stack(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    spectrum = grid._fft(a.copy())
    plain = np.fft.fft(a)[:, _block_order(n)]
    assert np.max(np.abs(spectrum - plain)) < 1e-14 * np.max(np.abs(plain))
    assert np.max(np.abs(grid._ifft(spectrum) - a)) < 1e-14
    k = grid._spectral(make_grid(n, -1.0, 1.0))[0]
    plain = 2.0 * np.pi * np.fft.fftfreq(n, make_grid(n, -1.0, 1.0).dx)
    assert np.array_equal(k, plain[_block_order(n)])


def _stacks(n):
    rng = np.random.default_rng(n)
    for shape in ((n,), (3, n)):
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [8, 512, 4096])
def test_the_plain_pair_has_numpys_bits(n):
    for a in _stacks(n):
        assert np.array_equal(grid._fft(a.copy()), np.fft.fft(a))
        assert np.array_equal(grid._ifft(a.copy()), np.fft.ifft(a))


def _blocked_from_numpy(a, inverse):
    """The four-step pair composed of np.fft calls on (..., n1, n2) blocks."""
    n = a.shape[-1]
    block = a.reshape(a.shape[:-1] + grid._block_shape(n))
    tw = grid._twiddle(n)
    if not inverse:
        return (np.fft.fft(np.fft.fft(block, axis=-2) * tw, axis=-1)).reshape(a.shape)
    twisted = np.conjugate(np.conjugate(np.fft.ifft(block, axis=-1)) * tw)
    return np.fft.ifft(twisted, axis=-2).reshape(a.shape)


@pytest.mark.parametrize("n", [8192, 65536])
def test_the_blocked_pair_has_the_bits_of_its_numpy_composition(n):
    for a in _stacks(n):
        assert np.array_equal(grid._fft(a.copy()), _blocked_from_numpy(a, False))
        assert np.array_equal(grid._ifft(a.copy()), _blocked_from_numpy(a, True))


@pytest.mark.parametrize("n", [512, 8192])
def test_transforms_refuse_a_real_array(n):
    a = np.linspace(0.0, 1.0, n)
    for transform in (grid._fft, grid._ifft):
        with pytest.raises(TypeError, match="Cannot cast ufunc") as caught:
            transform(a)
        assert "UFuncTypeError" in [c.__name__ for c in type(caught.value).__mro__]
        assert np.array_equal(a, np.linspace(0.0, 1.0, n))  # untouched


@pytest.mark.parametrize("n", [512, 8192])
def test_transforms_refuse_a_non_contiguous_stack(n):
    a = np.ones((3, 2 * n), dtype=np.complex128)[:, ::2]
    for transform in (grid._fft, grid._ifft):
        with pytest.raises(ValueError, match="contiguous"):
            transform(a)


def test_spectral_factors_are_shared_and_read_only():
    g = make_grid(512, -20.0, 20.0)
    k, ik, minus_k2 = grid._spectral(g)
    assert grid._spectral(make_grid(512, -20.0, 20.0))[0] is k
    assert ik[256] == 0 and np.array_equal(ik[:256].imag, k[:256])
    for factor in (k, ik, minus_k2):
        assert not factor.flags.writeable


def _plain_derivative(values, g, order):
    """derivative_values as it was written before the transform pair."""
    k = 2.0 * np.pi * np.fft.fftfreq(g.n, g.dx)
    if order == 1:
        fac = 1j * k.copy()
        fac[g.n // 2] = 0.0
    else:
        fac = -(k * k)
    return np.fft.ifft(fac * np.fft.fft(values))


@pytest.mark.parametrize("n", [512, 4096])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_values_are_the_plain_expression(n, order):
    g = make_grid(n, -20.0, 20.0)
    rng = np.random.default_rng(n + order)
    real = np.exp(-g.x**2) * rng.random(n)
    for values in (real, real * np.exp(1j * g.x), np.stack([real, 2.0 * real])):
        assert np.array_equal(grid.derivative_values(values, g, order),
                              _plain_derivative(values, g, order))
