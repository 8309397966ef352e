import numpy as np
import pytest

from sgsdistill.circular import (
    DEFAULT_EPSILON,
    SpectralModel,
    _sample_matrix,
    attenuation_curve,
    empirical_resultant,
    resultant_sweep,
)
from sgsdistill.errors import InsufficientRange, TooFewSamples
from sgsdistill.rng import SeededRng
from sgsdistill.surgery import DomainGradientStack, consensus


def test_zero_noise_shares_the_phase_exactly():
    model = SpectralModel(shared=np.exp(0.7j), phase_halfwidth=0.0, mag_low=0.5, mag_high=2.0)
    draws = _sample_matrix(model, 1, 64, SeededRng(0))[0]
    assert np.abs(np.angle(draws) - 0.7).max() < 1e-12


def test_degenerate_magnitude_bounds():
    model = SpectralModel(shared=1.0, phase_halfwidth=np.pi, mag_low=1.3, mag_high=1.3)
    draws = _sample_matrix(model, 1, 64, SeededRng(1))[0]
    assert np.abs(np.abs(draws) - 1.3).max() < 1e-12


def test_phase_resultant_matches_sinc_limit():
    # |mean exp(j*noise)| over 1e6 unit-magnitude draws vs sin(a)/a at a = pi/2.
    model = SpectralModel(shared=1.0, phase_halfwidth=np.pi / 2)
    draws = _sample_matrix(model, 1, 1_000_000, SeededRng(2))[0]
    resultant = np.abs(draws.mean())
    assert resultant == pytest.approx(2.0 / np.pi, abs=0.002)


def test_identical_samples_score_near_one():
    samples = np.full(8, 2.0 - 1.0j)
    assert empirical_resultant(samples) == pytest.approx(1.0, abs=1e-8)


def test_antipodal_pair_scores_zero():
    assert empirical_resultant(np.array([1.0 + 0j, -1.0 + 0j])) == pytest.approx(0.0, abs=1e-15)


def test_too_few_samples_rejected():
    with pytest.raises(TooFewSamples):
        empirical_resultant(np.array([1.0 + 0j]))


def test_resultant_estimate_at_quarter_turn_noise():
    # 100 trials at S = 10_000 around the analytic sin(pi/2)/(pi/2) = 0.6366.
    sweep = resultant_sweep([np.pi / 2], 10_000, SeededRng(4), trials=100)
    assert sweep.estimates[0] == pytest.approx(2.0 / np.pi, abs=0.01)


def test_resultant_monotone_in_noise_width():
    grid = [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]
    sweep = resultant_sweep(grid, 20_000, SeededRng(5), trials=10)
    assert np.all(np.diff(sweep.estimates) < 0.0)
    assert np.abs(sweep.estimates - sweep.expected).max() < 0.01


def test_one_bin_formula_matches_consensus_bit_for_bit():
    rng = SeededRng(6)
    samples = rng.normal(size=8) + 1j * rng.normal(size=8)
    stack = DomainGradientStack(
        sample_index=0,
        gradients=np.zeros((8, 1, 1, 1)),
        spectra=samples.reshape(8, 1, 1, 1),
    )
    cons = consensus(stack, DEFAULT_EPSILON)
    assert empirical_resultant(samples) == cons.resultant[0, 0, 0]


def test_attenuation_curve_validation():
    model = SpectralModel(shared=0.0001, phase_halfwidth=np.pi)
    with pytest.raises(InsufficientRange):
        attenuation_curve(model, [4, 16], SeededRng(7))
    with pytest.raises(InsufficientRange):
        attenuation_curve(model, [16, 8, 4], SeededRng(7))
    with pytest.raises(InsufficientRange):
        attenuation_curve(model, [1, 4, 16], SeededRng(7))


def test_uniform_phase_decay_slopes_smoke():
    model = SpectralModel(shared=1.0, phase_halfwidth=np.pi)
    curve = attenuation_curve(model, [4, 16, 64, 256], SeededRng(8), trials=400)
    assert curve.class_slope == pytest.approx(-1.0, abs=0.3)
    assert curve.consensus_slope == pytest.approx(-0.5, abs=0.2)


def test_aligned_phase_preserves_the_shared_signal():
    model = SpectralModel(shared=1.0, phase_halfwidth=0.0)
    curve = attenuation_curve(model, [4, 16, 64], SeededRng(9), trials=50)
    assert np.abs(curve.class_magnitudes - 1.0).max() < 0.01
    assert curve.class_slope == pytest.approx(0.0, abs=0.05)


def test_curve_determinism():
    model = SpectralModel(shared=1.0, phase_halfwidth=np.pi)
    a = attenuation_curve(model, [4, 16, 64], SeededRng(10), trials=50)
    b = attenuation_curve(model, [4, 16, 64], SeededRng(10), trials=50)
    assert a.class_magnitudes.tobytes() == b.class_magnitudes.tobytes()
    assert a.class_slope == b.class_slope


def test_model_validation():
    with pytest.raises(ValueError):
        SpectralModel(phase_halfwidth=4.0)
    with pytest.raises(ValueError):
        SpectralModel(mag_low=0.0)
    with pytest.raises(ValueError):
        SpectralModel(mag_low=2.0, mag_high=1.0)
