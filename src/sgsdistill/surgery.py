"""Spectral gradient surgery: cross-domain consensus and the three-signal update.

Per synthetic sample, the per-domain pixel gradients are transformed to the
frequency domain, where phase agreement across domains is scored per bin by
the circular-statistics resultant length r = |sum G^s| / (sum |G^s| + eps).
The resultant-weighted mean spectrum inverts to a class signal (components the
domains agree on), and each domain's deviation from the mean inverts to that
domain's specific signal. The update subtracts the base gradient plus the
weighted class and (assigned-domain) specific signals from the image.

Training calls the batch kernel `batch_surgery_updates`, and `--dump-rmaps`
reads `batch_consensus_maps`; both share one spectral split and transform
only distinct per-domain gradient stacks, so samples with bitwise-equal
stacks (every member of a class under the linear featurizer) share one
forward transform, resultant and class signal, and one domain-signal inverse
per assigned domain. The per-sample classes and functions above the kernel
define what it computes.
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
    epsilon: float


def consensus(stack: DomainGradientStack, epsilon):
    """Complex mean of the domain spectra plus the elementwise resultant length.

    Bins where all domains carry zero signal score r = 0 (the epsilon in the
    denominator rules, so nothing is preserved where nothing was measured).
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if stack.domain_count < 2:
        raise TooFewDomains("agreement over fewer than two domains is undefined")
    total = stack.spectra.sum(axis=0)
    magnitude_sum = np.abs(stack.spectra).sum(axis=0)
    resultant = np.abs(total) / (magnitude_sum + epsilon)
    return ConsensusResult(
        mean_spectrum=total / stack.domain_count,
        resultant=resultant,
        epsilon=epsilon,
    )


@dataclass
class GradientBundle:
    """The three update signals for one synthetic sample."""

    class_signal: np.ndarray     # (channels, h, w)
    domain_signals: np.ndarray   # (S, channels, h, w)
    base: np.ndarray | None = None  # pooled-loss gradient; set before stepping


def decompose(stack: DomainGradientStack, cons: ConsensusResult, base=None):
    """Split the stack into the consensus-weighted class signal and per-domain
    deviations. Both inverses must be real (Hermitian inputs); ifft2 asserts it.
    """
    class_signal = ifft2(cons.mean_spectrum * cons.resultant)
    domain_signals = np.stack(
        [ifft2(spec - cons.mean_spectrum) for spec in stack.spectra]
    )
    return GradientBundle(class_signal=class_signal, domain_signals=domain_signals,
                          base=base)


@dataclass(frozen=True)
class SurgeryWeights:
    """Step-size and signal-strength knobs for the three-signal update.

    base_scale exists so ablations (class-only, domain-only, class+domain) are
    pure configuration; the default 1.0 keeps the standard update.
    """

    lambda_c: float = 1.0
    lambda_d: float = 1.0
    eta: float = 1.0
    epsilon: float = 1e-8
    base_scale: float = 1.0

    def __post_init__(self):
        if self.lambda_c < 0 or self.lambda_d < 0:
            raise ValueError("signal strengths must be non-negative")
        # eta = 0 is allowed as the degenerate "no step" case.
        if self.eta < 0:
            raise ValueError("learning rate must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def combined_update(bundle: GradientBundle, assigned_domain, w: SurgeryWeights):
    """base_scale*g + lambda_c*g_class + lambda_d*g_domain[s] for one sample."""
    if bundle.base is None:
        raise ValueError("bundle has no base gradient")
    s = int(assigned_domain)
    if not 0 <= s < bundle.domain_signals.shape[0]:
        raise UnknownDomain(f"assigned domain {s} outside 0..{bundle.domain_signals.shape[0] - 1}")
    return (
        w.base_scale * bundle.base
        + w.lambda_c * bundle.class_signal
        + w.lambda_d * bundle.domain_signals[s]
    )


def sgs_step(x_hat, bundle: GradientBundle, assigned_domain, w: SurgeryWeights):
    """x - eta * (base_scale*g + lambda_c*g_class + lambda_d*g_domain[s]).

    With lambda_c = lambda_d = 0 and base_scale = 1 this reproduces the plain
    distribution-matching step bit for bit.
    """
    return x_hat - w.eta * combined_update(bundle, assigned_domain, w)


def _domain_stack(domain_gradients):
    stack = np.ascontiguousarray(domain_gradients, dtype=np.float64)
    if stack.ndim != 5:
        raise ValueError(f"expected (S, n, channels, h, w), got {stack.shape}")
    if stack.shape[0] < 2:
        raise TooFewDomains("cross-domain agreement needs at least two domains")
    return stack


def _distinct_rows(stack):
    """Runs of adjacent rows of an (S, n, ...) stack whose slices are bitwise
    equal (bits, so 0.0 and -0.0 stay apart): the first row of each run and
    each row's run number."""
    bits = stack.view(np.int64)
    starts = np.ones(stack.shape[1], dtype=bool)
    starts[1:] = ~np.all(bits[:, 1:] == bits[:, :-1], axis=(0, 2, 3, 4))
    return np.flatnonzero(starts), np.cumsum(starts) - 1


def _spectral_split(stack, epsilon):
    """Domain spectra, their mean and the per-bin resultant of an (S, m, ...) stack."""
    spectra = np.fft.fft2(stack, axes=(-2, -1))
    total = spectra.sum(axis=0)
    resultant = np.abs(total) / (np.abs(spectra).sum(axis=0) + epsilon)
    return spectra, total / stack.shape[0], resultant


def _real_inverse(spectra, name):
    """Per-sample inverse of (m, channels, h, w) spectra; NonHermitianInput when
    a sample's imaginary residue passes the bound `fourier.ifft2` uses."""
    out = np.fft.ifft2(spectra, axes=(-2, -1))
    per_sample_axes = (-3, -2, -1)
    bound = IMAG_RESIDUE_SCALE * (1.0 + np.abs(spectra).max(axis=per_sample_axes))
    residue = np.abs(out.imag).max(axis=per_sample_axes)
    if np.any(residue >= bound):
        raise NonHermitianInput(f"non-real {name} signal in batch surgery")
    return out.real


def batch_surgery_updates(domain_gradients, base_gradients, assigned_domains,
                          w: SurgeryWeights):
    """Three-signal updates for every sample at once.

    domain_gradients is (S, n, channels, h, w); base_gradients (n, channels,
    h, w); assigned_domains (n,). Only distinct stacks are transformed: a run
    of adjacent rows whose domain stacks are bitwise equal (every member of
    a class under an input-independent pullback, laid out contiguously by
    `pipeline.initialize`) gets one forward transform, one mean spectrum and
    resultant, and one class-signal inverse, and its domain deviation is
    inverted once per assigned domain in the run; the base gradient is added
    per row. The FFT backend transforms each 2D plane independently and the
    domain-axis reductions run in the same order as the per-sample path, so
    the result is bit-identical to looping consensus / decompose /
    combined_update over samples (asserted by the test suite). Only each
    sample's assigned deviation is inverted.
    """
    stack = _domain_stack(domain_gradients)
    base = np.asarray(base_gradients, dtype=np.float64)
    assigned = np.asarray(assigned_domains, dtype=np.int64)
    s_count, n = stack.shape[:2]
    if base.shape != stack.shape[1:] or assigned.shape != (n,):
        raise ShapeMismatch(f"base {base.shape} and assigned {assigned.shape} do not "
                            f"match the stack's rows {stack.shape[1:]}")
    if assigned.min() < 0 or assigned.max() >= s_count:
        raise UnknownDomain("assigned domain outside the stack")
    keep, runs = _distinct_rows(stack)
    spectra, mean_spec, resultant = _spectral_split(stack[:, keep], w.epsilon)
    class_real = _real_inverse(mean_spec * resultant, "class")
    # One inverse per distinct (run, assigned domain) pair.
    pairs, pair_of_row = np.unique(runs * s_count + assigned, return_inverse=True)
    run_of_pair, domain_of_pair = np.divmod(pairs, s_count)
    domain_real = _real_inverse(spectra[domain_of_pair, run_of_pair] - mean_spec[run_of_pair],
                                "domain")
    return (w.base_scale * base + w.lambda_c * class_real[runs]
            + w.lambda_d * domain_real[pair_of_row])


def batch_consensus_maps(domain_gradients, epsilon):
    """Resultant maps and class signals of every sample, as the kernel forms them.

    domain_gradients is (S, n, channels, h, w); returns two (n, channels, h,
    w) arrays, bitwise those of the per-sample consensus / decompose path.
    Adjacent samples with bitwise-equal stacks are transformed once.
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    stack = _domain_stack(domain_gradients)
    keep, runs = _distinct_rows(stack)
    _, mean_spec, resultant = _spectral_split(stack[:, keep], epsilon)
    return resultant[runs], _real_inverse(mean_spec * resultant, "class")[runs]
