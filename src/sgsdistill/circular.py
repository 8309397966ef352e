"""Monte-Carlo oracle for the consensus filter's preservation and attenuation.

Models one frequency bin: every domain draws a complex value whose magnitude
is uniform on [mag_low, mag_high] and whose phase is the shared phase plus
uniform noise on [-phase_halfwidth, +phase_halfwidth]. Under this model the
population resultant length equals sin(a)/a, so the empirical resultant, the
filtered mean magnitude E|mean * r| (expected O(1/S) under uniform phases),
and the raw mean magnitude E|mean| (expected O(1/sqrt(S))) can all be checked
against closed forms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientRange, TooFewSamples
from .rng import SeededRng

DEFAULT_EPSILON = 1e-8


@dataclass(frozen=True)
class SpectralModel:
    """One-bin generative model: shared complex signal plus phase/magnitude noise."""

    shared: complex = 1.0 + 0.0j
    phase_halfwidth: float = 0.0       # radians in [0, pi]
    mag_low: float = 1.0
    mag_high: float = 1.0
    trials: int = 2000

    def __post_init__(self):
        if not 0.0 <= self.phase_halfwidth <= np.pi:
            raise ValueError("phase_halfwidth must lie in [0, pi]")
        if not 0.0 < self.mag_low <= self.mag_high:
            raise ValueError("magnitude bounds must satisfy 0 < low <= high")
        if self.trials < 1:
            raise ValueError("trials must be positive")

    @property
    def concentration(self):
        """Population resultant length sin(a)/a of the phase noise (1 at a=0)."""
        a = self.phase_halfwidth
        return 1.0 if a == 0.0 else float(np.sin(a) / a)


def _sample_matrix(model: SpectralModel, trials, domain_count, rng: SeededRng):
    """(trials, domains) complex draws; magnitudes independent of phases."""
    base_phase = float(np.angle(model.shared))
    mags = rng.uniform(model.mag_low, model.mag_high, size=(trials, domain_count))
    noise = rng.uniform(-model.phase_halfwidth, model.phase_halfwidth,
                        size=(trials, domain_count))
    return mags * np.exp(1j * (base_phase + noise))


def empirical_resultant(samples, epsilon=DEFAULT_EPSILON):
    """|sum z| / (sum |z| + eps); the one-bin form of the consensus score."""
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.size < 2:
        raise TooFewSamples("resultant needs at least two samples")
    return float(np.abs(samples.sum()) / (np.abs(samples).sum() + epsilon))


@dataclass
class DecayCurve:
    """Mean filtered/raw magnitudes per domain count with log-log slopes."""

    domain_counts: list
    class_magnitudes: np.ndarray      # E|mean * r| per S
    class_stderr: np.ndarray
    consensus_magnitudes: np.ndarray  # E|mean| per S
    consensus_stderr: np.ndarray
    class_slope: float
    consensus_slope: float


def attenuation_curve(model: SpectralModel, domain_counts, rng: SeededRng,
                      trials=None, epsilon=DEFAULT_EPSILON):
    """Estimate E|mean * r| and E|mean| per domain count and fit log-log slopes.

    Each (domain count, trial) cell draws from its own derived stream, so
    estimates are reproducible regardless of evaluation order.
    """
    counts = [int(s) for s in domain_counts]
    if len(counts) < 3:
        raise InsufficientRange("need at least three domain counts for a slope fit")
    if any(s < 2 for s in counts) or any(b <= a for a, b in zip(counts, counts[1:])):
        raise InsufficientRange("domain counts must be strictly increasing and >= 2")
    trials = model.trials if trials is None else int(trials)

    class_means, class_errs, cons_means, cons_errs = [], [], [], []
    for si, s in enumerate(counts):
        draws = np.concatenate(
            [_sample_matrix(model, 1, s, rng.substream(si, t)) for t in range(trials)]
        )
        total = draws.sum(axis=1)
        mean_mag = np.abs(total) / s
        resultant = np.abs(total) / (np.abs(draws).sum(axis=1) + epsilon)
        filtered = mean_mag * resultant
        class_means.append(filtered.mean())
        class_errs.append(filtered.std(ddof=1) / np.sqrt(trials))
        cons_means.append(mean_mag.mean())
        cons_errs.append(mean_mag.std(ddof=1) / np.sqrt(trials))

    log_s = np.log(np.asarray(counts, dtype=np.float64))
    class_slope = float(np.polyfit(log_s, np.log(class_means), 1)[0])
    cons_slope = float(np.polyfit(log_s, np.log(cons_means), 1)[0])
    return DecayCurve(
        domain_counts=counts,
        class_magnitudes=np.asarray(class_means),
        class_stderr=np.asarray(class_errs),
        consensus_magnitudes=np.asarray(cons_means),
        consensus_stderr=np.asarray(cons_errs),
        class_slope=class_slope,
        consensus_slope=cons_slope,
    )


@dataclass
class ResultantSweep:
    """Empirical resultant estimates across phase-noise half-widths."""

    halfwidths: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    expected: np.ndarray  # sin(a)/a per half-width


def resultant_sweep(halfwidths, domain_count, rng: SeededRng, trials=10,
                    mag_low=1.0, mag_high=1.0, epsilon=DEFAULT_EPSILON):
    """Average empirical resultants at large S against the sin(a)/a limit."""
    halfwidths = np.asarray(list(halfwidths), dtype=np.float64)
    estimates, stderrs, expected = [], [], []
    for ai, a in enumerate(halfwidths):
        model = SpectralModel(shared=1.0 + 0.0j, phase_halfwidth=float(a),
                              mag_low=mag_low, mag_high=mag_high)
        vals = []
        for t in range(trials):
            draws = _sample_matrix(model, 1, domain_count, rng.substream(ai, t))[0]
            vals.append(empirical_resultant(draws, epsilon))
        vals = np.asarray(vals)
        estimates.append(vals.mean())
        stderrs.append(vals.std(ddof=1) / np.sqrt(trials) if trials > 1 else 0.0)
        expected.append(model.concentration)
    return ResultantSweep(
        halfwidths=halfwidths,
        estimates=np.asarray(estimates),
        stderrs=np.asarray(stderrs),
        expected=np.asarray(expected),
    )
