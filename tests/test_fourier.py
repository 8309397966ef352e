import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgsdistill.errors import GridTooLarge, NonHermitianInput, ShapeMismatch
from sgsdistill.fourier import (
    fft2,
    frequency_negation,
    ifft2,
    ifft2_with_residue,
    naive_dft2,
)
from sgsdistill.rng import SeededRng


def test_impulse_transforms_to_all_ones():
    g = np.zeros((1, 8, 8))
    g[0, 0, 0] = 1.0
    spec = fft2(g)
    assert np.allclose(spec, 1.0 + 0.0j, atol=1e-13)
    spec_naive = naive_dft2(g)
    assert np.allclose(spec_naive, 1.0 + 0.0j, atol=1e-13)


def test_constant_grid_transforms_to_dc_only():
    c = 0.37
    g = np.full((1, 8, 8), c)
    spec = fft2(g)
    assert spec[0, 0, 0] == pytest.approx(c * 64, abs=1e-12)
    off_dc = spec.copy()
    off_dc[0, 0, 0] = 0.0
    assert np.abs(off_dc).max() < 1e-12


def test_fft2_matches_naive_dft_on_random_grids():
    rng = SeededRng(42)
    for trial in range(50):
        side = 4 if trial % 2 == 0 else 8
        g = rng.substream(trial).normal(size=(2, side, side))
        assert np.abs(fft2(g) - naive_dft2(g)).max() < 1e-12


def test_naive_dft_linearity():
    rng = SeededRng(7)
    x = rng.substream(0).normal(size=(1, 8, 8))
    y = rng.substream(1).normal(size=(1, 8, 8))
    a, b = 1.7, -0.3
    lhs = naive_dft2(a * x + b * y)
    rhs = a * naive_dft2(x) + b * naive_dft2(y)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_naive_dft_rejects_large_grids():
    with pytest.raises(GridTooLarge):
        naive_dft2(np.zeros((1, 65, 65)))


def test_round_trip_identity():
    rng = SeededRng(3)
    g = rng.normal(size=(3, 16, 16))
    back = ifft2(fft2(g))
    assert np.abs(back - g).max() < 1e-10 * max(1.0, np.abs(g).max())
    spec = fft2(g)
    again = fft2(ifft2(spec))
    assert np.abs(again - spec).max() < 1e-10 * np.abs(spec).max()


def test_all_ones_spectrum_is_inverse_of_impulse():
    spec = np.ones((1, 8, 8), dtype=np.complex128)
    g = ifft2(spec)
    assert g[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    rest = g.copy()
    rest[0, 0, 0] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_hand_built_conjugate_pairs_give_real_output():
    # Populate +k/-k bins with conjugate values and check the residue directly.
    spec = np.zeros((1, 8, 8), dtype=np.complex128)
    spec[0, 1, 2] = 2.0 - 1.5j
    spec[0, -1, -2] = 2.0 + 1.5j
    spec[0, 3, 0] = -0.7 + 0.2j
    spec[0, -3, 0] = -0.7 - 0.2j
    spec[0, 0, 0] = 4.0
    _, residue = ifft2_with_residue(spec)
    assert residue < 1e-12
    ifft2(spec)  # must not raise


def test_non_hermitian_spectrum_rejected():
    spec = np.zeros((1, 8, 8), dtype=np.complex128)
    spec[0, 1, 1] = 1.0 + 1.0j  # no conjugate partner
    with pytest.raises(NonHermitianInput):
        ifft2(spec)


def test_parseval_identity():
    rng = SeededRng(11)
    for trial in range(20):
        g = rng.substream(trial).normal(size=(3, 8, 8))
        spec = fft2(g)
        pix = np.sum(g**2)
        freq = np.sum(np.abs(spec) ** 2) / (8 * 8)
        assert abs(pix - freq) < 1e-9 * pix


def test_hermitian_symmetry_of_real_transforms():
    rng = SeededRng(13)
    for trial in range(20):
        g = rng.substream(trial).normal(size=(2, 8, 8))
        spec = fft2(g)
        defect = np.abs(frequency_negation(spec) - np.conj(spec)).max()   # G(-k) vs conj G(k)
        assert defect < 1e-12 * max(1.0, np.abs(spec).max())


def test_frequency_negation_indexing():
    rng = SeededRng(17)
    a = rng.normal(size=(1, 4, 6))
    neg = frequency_negation(a)
    for i in range(4):
        for j in range(6):
            assert neg[0, i, j] == a[0, (-i) % 4, (-j) % 6]


def test_non_power_of_two_sizes_supported():
    rng = SeededRng(19)
    for shape in [(1, 5, 7), (2, 6, 10), (1, 13, 13)]:
        g = rng.substream(shape[1], shape[2]).normal(size=shape)
        assert np.abs(fft2(g) - naive_dft2(g)).max() < 1e-12 * max(1.0, np.abs(fft2(g)).max())
        assert np.abs(ifft2(fft2(g)) - g).max() < 1e-10


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        fft2(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        fft2(np.full((1, 4, 4), np.nan))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_round_trip_and_parseval_property(seed):
    g = SeededRng(seed).normal(size=(1, 8, 8))
    spec = fft2(g)
    assert np.abs(ifft2(spec) - g).max() < 1e-10 * max(1.0, np.abs(g).max())
    pix = np.sum(g**2)
    freq = np.sum(np.abs(spec) ** 2) / 64.0
    assert abs(pix - freq) <= 1e-9 * max(pix, 1e-30)


def test_rng_determinism_and_stream_independence():
    a = SeededRng(123, (4, 5)).normal(size=16)
    b = SeededRng(123, (4, 5)).normal(size=16)
    assert a.tobytes() == b.tobytes()
    c = SeededRng(123, (4, 6)).normal(size=16)
    assert a.tobytes() != c.tobytes()
    # substream derivation does not advance the parent
    parent = SeededRng(9)
    parent.substream(1)
    x = parent.normal(size=4)
    assert x.tobytes() == SeededRng(9).normal(size=4).tobytes()
