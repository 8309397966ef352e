"""2D spectral transforms for channel-planar image grids.

A real grid is a float64 array shaped (channels, height, width); its spectrum
is a complex128 array of the same shape, one independent 2D transform per
channel. The forward transform is unnormalized and the inverse carries the
1/(H*W) factor, so Parseval reads sum|x|^2 == sum|X|^2 / (H*W).
"""

import numpy as np

from .errors import GridTooLarge, NonHermitianInput, ShapeMismatch

# Guard for the quartic-cost reference transform.
MAX_NAIVE_PIXELS = 4096

# Inverse transforms of spectra that came from real grids keep their imaginary
# part at rounding level; anything past this bound means a corrupted spectrum.
IMAG_RESIDUE_SCALE = 1e-9


def _as_grid(grid, dtype):
    arr = np.asarray(grid, dtype=dtype)
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected (channels, height, width), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ShapeMismatch(f"empty grid axis in shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("grid contains non-finite values")
    return arr


def fft2(grid):
    """Per-channel forward 2D DFT of a real grid (unnormalized)."""
    g = _as_grid(grid, np.float64)
    return np.fft.fft2(g, axes=(-2, -1))


def ifft2_with_residue(spectrum):
    """Inverse transform plus the peak imaginary residue it discarded."""
    s = _as_grid(spectrum, np.complex128)
    out = np.fft.ifft2(s, axes=(-2, -1))
    residue = float(np.abs(out.imag).max())
    return np.ascontiguousarray(out.real), residue


def ifft2(spectrum):
    """Per-channel inverse 2D DFT with 1/(H*W) scaling; returns a real grid.

    Raises NonHermitianInput when the discarded imaginary residue exceeds
    IMAG_RESIDUE_SCALE * (1 + max|spectrum|), i.e. when the spectrum cannot
    have come from a real grid.
    """
    s = _as_grid(spectrum, np.complex128)
    real, residue = ifft2_with_residue(s)
    bound = IMAG_RESIDUE_SCALE * (1.0 + float(np.abs(s).max()))
    if residue >= bound:
        raise NonHermitianInput(
            f"imaginary residue {residue:.3e} exceeds bound {bound:.3e}"
        )
    return real


def _twiddle(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def naive_dft2(grid):
    """Direct double-sum DFT; the independent reference for fft2.

    Performs the textbook O((H*W)^2) summation (vectorized through explicit
    twiddle matrices) and refuses grids past MAX_NAIVE_PIXELS pixels.
    """
    g = _as_grid(grid, np.float64)
    _, h, w = g.shape
    if h * w > MAX_NAIVE_PIXELS:
        raise GridTooLarge(f"{h}x{w} grid exceeds naive DFT budget of {MAX_NAIVE_PIXELS} pixels")
    wh = _twiddle(h)
    ww = _twiddle(w)
    return np.einsum("mi,cij,nj->cmn", wh, g.astype(np.complex128), ww)


def frequency_negation(spectrum):
    """Reindex a spectrum (or any grid-shaped array) from k to -k mod size."""
    return np.roll(spectrum[..., ::-1, ::-1], shift=(1, 1), axis=(-2, -1))
