"""Spectral gradient surgery: cross-domain consensus and the three-signal update.

Per synthetic sample, the per-domain pixel gradients are transformed to the
frequency domain, where phase agreement across domains is scored per bin by
the circular-statistics resultant length r = |sum G^s| / (sum |G^s| + eps).
The resultant-weighted mean spectrum inverts to a class signal (components the
domains agree on), and each domain's deviation from the mean spectrum inverts
to that domain's specific signal, which by linearity of the DFT is g^s -
mean_s g^s and is taken in pixel space. The update subtracts the base gradient
plus the weighted class and (assigned-domain) specific signals from the image.
The strengths come from the run's `pipeline.DistillConfig`, read by attribute
(lambda_c, lambda_d, epsilon, base_scale); that record checks them.

Training calls the batch kernel `batch_surgery_updates`, and `--dump-rmaps`
reads `batch_consensus_maps`; both take distinct per-domain gradient rows
plus the row each sample takes (under the linear featurizer, one row per
class; see `dm.matching_rows`), so each distinct stack gets one forward
transform, resultant and class signal however many samples share it. The
kernel forms one update per distinct (row, assigned domain) pair
(`surgery_pairs`), which a run derives once. The
per-sample classes and functions above the kernel define what it computes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianInput, ShapeMismatch, TooFewDomains, UnknownDomain
from .fourier import IMAG_RESIDUE_SCALE, fft2, ifft2


@dataclass
class DomainGradientStack:
    """Per-domain pixel gradients of one synthetic sample plus their spectra."""

    sample_index: int
    gradients: np.ndarray  # (S, channels, h, w) float64
    spectra: np.ndarray    # (S, channels, h, w) complex128

    def __post_init__(self):
        if self.gradients.shape[0] < 2:
            raise TooFewDomains("cross-domain agreement needs at least two domains")
        if self.spectra.shape != self.gradients.shape:
            raise ValueError("spectra shape must match gradients shape")

    @classmethod
    def from_gradients(cls, sample_index, gradients):
        gradients = np.asarray(gradients, dtype=np.float64)
        if gradients.ndim != 4:
            raise ValueError(f"expected (domains, channels, h, w), got {gradients.shape}")
        spectra = np.stack([fft2(g) for g in gradients])
        return cls(sample_index=int(sample_index), gradients=gradients, spectra=spectra)

    @property
    def domain_count(self):
        return self.gradients.shape[0]


@dataclass
class ConsensusResult:
    """Mean spectrum across domains and the per-bin agreement score in [0, 1)."""

    mean_spectrum: np.ndarray  # (channels, h, w) complex128
    resultant: np.ndarray      # (channels, h, w) float64


def consensus(stack: DomainGradientStack, epsilon):
    """Complex mean of the domain spectra plus the elementwise resultant length.

    Bins where all domains carry zero signal score r = 0 (the epsilon in the
    denominator rules, so nothing is preserved where nothing was measured).
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    total = stack.spectra.sum(axis=0)
    magnitude_sum = np.abs(stack.spectra).sum(axis=0)
    resultant = np.abs(total) / (magnitude_sum + epsilon)
    return ConsensusResult(
        mean_spectrum=total / stack.domain_count,
        resultant=resultant,
    )


@dataclass
class GradientBundle:
    """The three update signals for one synthetic sample."""

    class_signal: np.ndarray     # (channels, h, w)
    domain_signals: np.ndarray   # (S, channels, h, w)
    base: np.ndarray | None = None  # pooled-loss gradient; set before stepping


def decompose(stack: DomainGradientStack, cons: ConsensusResult, base=None):
    """Split the stack into the consensus-weighted class signal and per-domain
    deviations. The class signal's inverse must be real (Hermitian input);
    ifft2 asserts it. Each domain's deviation from the mean spectrum inverts,
    by linearity, to its gradient minus the mean gradient.
    """
    class_signal = ifft2(cons.mean_spectrum * cons.resultant)
    grads = stack.gradients
    domain_signals = grads - grads.sum(axis=0) / stack.domain_count
    return GradientBundle(class_signal=class_signal, domain_signals=domain_signals,
                          base=base)


def combined_update(bundle: GradientBundle, assigned_domain, cfg):
    """base_scale*g + lambda_c*g_class + lambda_d*g_domain[s] for one sample,
    read from cfg; exactly g when lambda_c = lambda_d = 0 and base_scale = 1."""
    if bundle.base is None:
        raise ValueError("bundle has no base gradient")
    s = int(assigned_domain)
    if not 0 <= s < bundle.domain_signals.shape[0]:
        raise UnknownDomain(f"assigned domain {s} outside 0..{bundle.domain_signals.shape[0] - 1}")
    return (
        cfg.base_scale * bundle.base
        + cfg.lambda_c * bundle.class_signal
        + cfg.lambda_d * bundle.domain_signals[s]
    )


def _domain_stack(domain_gradients, rows):
    """The (S, m, ...) stack and each sample's row (default: one per row)."""
    stack = np.ascontiguousarray(domain_gradients, dtype=np.float64)
    if stack.ndim != 5:
        raise ValueError(f"expected (S, m, channels, h, w), got {stack.shape}")
    if stack.shape[0] < 2:
        raise TooFewDomains("cross-domain agreement needs at least two domains")
    rows = np.arange(stack.shape[1]) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or (
            rows.size and (rows.min() < 0 or rows.max() >= stack.shape[1])):
        raise ShapeMismatch(f"rows must be a 1-d index into the stack's {stack.shape[1]} rows")
    return stack, rows


def _class_split(stack, epsilon):
    """Per-bin resultant and class signal of each row of an (S, m, ...)
    stack; NonHermitianInput when a row's class signal has an imaginary
    residue past the bound `fourier.ifft2` uses."""
    spectra = np.fft.fft2(stack, axes=(-2, -1))
    total = spectra.sum(axis=0)
    resultant = np.abs(total) / (np.abs(spectra).sum(axis=0) + epsilon)
    weighted = total / stack.shape[0] * resultant
    out = np.fft.ifft2(weighted, axes=(-2, -1))
    per_row = (-3, -2, -1)
    if np.any(np.abs(out.imag).max(axis=per_row)
              >= IMAG_RESIDUE_SCALE * (1.0 + np.abs(weighted).max(axis=per_row))):
        raise NonHermitianInput("non-real class signal in batch surgery")
    return resultant, out.real


def surgery_pairs(rows, assigned_domains, domain_count):
    """The distinct (row, assigned domain) pairs of the samples, sample i
    taking row rows[i] and domain assigned_domains[i]: (pair rows, pair
    domains, each sample's pair), the gather `batch_surgery_updates` forms
    its updates by. UnknownDomain for a domain outside 0..domain_count - 1."""
    rows = np.asarray(rows)
    assigned = np.asarray(assigned_domains, dtype=np.int64)
    if assigned.shape != rows.shape:
        raise ShapeMismatch(f"assigned {assigned.shape} and rows {rows.shape} do not match")
    if assigned.size and (assigned.min() < 0 or assigned.max() >= domain_count):
        raise UnknownDomain("assigned domain outside the stack")
    pairs, pair_of = np.unique(rows * domain_count + assigned, return_inverse=True)
    return (*np.divmod(pairs, domain_count), pair_of)


def batch_surgery_updates(domain_gradients, base_gradients, assigned_domains, cfg, rows=None,
                          pairs=None):
    """Three-signal updates for every sample at once.

    domain_gradients is an (S, m, channels, h, w) stack of distinct gradient
    rows and base_gradients (m, channels, h, w) their pooled-loss rows;
    sample i takes row rows[i] and domain assigned_domains[i] (rows defaults
    to one row per sample), and cfg gives the strengths. pairs, when given,
    is surgery_pairs(rows, assigned_domains, S), derived beforehand (a run
    derives it once); assigned_domains is then not read. Each row's stack
    gets one forward transform, one resultant and one class-signal inverse;
    the domain signal is the assigned domain's gradient minus the mean
    gradient, in pixel space. The three-term sum is formed once per distinct
    (row, assigned domain) pair and gathered to the samples that share it
    (under the linear featurizer, 15 pairs for 50 samples). The FFT backend
    transforms each 2D plane independently and the domain-axis reductions
    run in the same order as the per-sample path, so the result is
    bit-identical to looping consensus / decompose / combined_update over
    the gathered samples (asserted by the test suite).
    """
    stack, rows = _domain_stack(domain_gradients, rows)
    base = np.asarray(base_gradients, dtype=np.float64)
    if base.shape != stack.shape[1:]:
        raise ShapeMismatch(f"base {base.shape} does not match the stack's rows "
                            f"{stack.shape[1:]}")
    pair_rows, pair_domains, pair_of = (surgery_pairs(rows, assigned_domains, len(stack))
                                        if pairs is None else pairs)
    class_real = _class_split(stack, cfg.epsilon)[1]
    domain_real = stack[pair_domains, pair_rows] - (stack.sum(axis=0) / len(stack))[pair_rows]
    return (cfg.base_scale * base[pair_rows] + cfg.lambda_c * class_real[pair_rows]
            + cfg.lambda_d * domain_real)[pair_of]


def batch_consensus_maps(domain_gradients, epsilon, rows=None):
    """Resultant maps and class signals of every sample, as the kernel forms them.

    domain_gradients is (S, m, channels, h, w) and sample i takes row
    rows[i] (default: one per row); returns two (n, channels, h, w) arrays,
    bitwise those of the per-sample consensus / decompose path.
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    stack, rows = _domain_stack(domain_gradients, rows)
    resultant, class_real = _class_split(stack, epsilon)
    return resultant[rows], class_real[rows]
