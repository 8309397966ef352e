import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgsdistill.errors import NonHermitianInput, ShapeMismatch, TooFewDomains, UnknownDomain
from sgsdistill.fourier import fft2, frequency_negation, ifft2, ifft2_with_residue
from sgsdistill.pipeline import DistillConfig
from sgsdistill.rng import SeededRng
from sgsdistill.surgery import (
    ConsensusResult,
    DomainGradientStack,
    batch_consensus_maps,
    batch_surgery_updates,
    combined_update,
    consensus,
    decompose,
    surgery_pairs,
)

from helpers import per_sample_consensus_maps, per_sample_surgery

EPS = 1e-8


def random_stack(seed, domains=3, shape=(2, 8, 8)):
    rng = SeededRng(seed)
    grads = np.stack([rng.substream(s).normal(size=shape) for s in range(domains)])
    return DomainGradientStack.from_gradients(0, grads)


def test_identical_spectra_score_near_one():
    g = SeededRng(0).normal(size=(1, 8, 8))
    stack = DomainGradientStack.from_gradients(0, np.stack([g, g]))
    cons = consensus(stack, EPS)
    live = np.abs(stack.spectra[0]) > 1e-6
    assert np.all(cons.resultant[live] > 1.0 - 1e-6)
    assert np.all(cons.resultant < 1.0)


def test_opposed_gradients_score_zero():
    g = SeededRng(1).normal(size=(1, 8, 8))
    stack = DomainGradientStack.from_gradients(0, np.stack([g, -g]))
    cons = consensus(stack, EPS)
    assert np.abs(cons.resultant).max() < 1e-9
    assert np.abs(cons.mean_spectrum).max() < 1e-12 * np.abs(stack.spectra).max()


def test_three_phase_hand_case():
    # Domain spectra carrying 1, j, -1 at bin (0, 1) (conjugates at (0, -1)):
    # |sum| = |j| = 1, sum of magnitudes = 3, so r -> 1/3 and mean -> j/3.
    h = w = 8
    spectra = np.zeros((3, 1, h, w), dtype=np.complex128)
    for s, val in enumerate([1.0 + 0.0j, 1.0j, -1.0 + 0.0j]):
        spectra[s, 0, 0, 1] = val
        spectra[s, 0, 0, w - 1] = np.conj(val)
    grads = np.stack([ifft2(spec) for spec in spectra])
    stack = DomainGradientStack.from_gradients(0, grads)
    cons = consensus(stack, 1e-15)
    assert cons.resultant[0, 0, 1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert cons.mean_spectrum[0, 0, 1] == pytest.approx(1.0j / 3.0, abs=1e-9)


def test_dead_bins_score_zero():
    grads = np.zeros((2, 1, 4, 4))
    grads[0, 0, 0, 0] = 1.0
    grads[1, 0, 0, 0] = 1.0
    stack = DomainGradientStack.from_gradients(0, grads)
    cons = consensus(stack, EPS)
    assert np.all(cons.resultant >= 0.0)
    assert np.all(cons.resultant < 1.0)


def test_single_domain_stack_rejected():
    g = SeededRng(2).normal(size=(1, 1, 4, 4))
    with pytest.raises(TooFewDomains):
        DomainGradientStack.from_gradients(0, g)


def test_bad_epsilon_rejected():
    stack = random_stack(3, domains=2, shape=(1, 4, 4))
    with pytest.raises(ValueError):
        consensus(stack, 0.0)


def test_consensus_case_decomposition():
    g = SeededRng(4).normal(size=(2, 8, 8))
    stack = DomainGradientStack.from_gradients(0, np.stack([g, g, g]))
    bundle = decompose(stack, consensus(stack, EPS))
    assert np.abs(bundle.class_signal - g).max() < 1e-9
    assert np.abs(bundle.domain_signals).max() < 1e-12


def test_antisymmetric_decomposition():
    g = SeededRng(5).normal(size=(1, 8, 8))
    stack = DomainGradientStack.from_gradients(0, np.stack([g, -g]))
    bundle = decompose(stack, consensus(stack, EPS))
    assert np.abs(bundle.class_signal).max() < 1e-12
    assert np.abs(bundle.domain_signals[0] - g).max() < 1e-10
    assert np.abs(bundle.domain_signals[1] + g).max() < 1e-10


def test_domain_signals_average_to_zero():
    for seed in range(5):
        stack = random_stack(seed, domains=4)
        bundle = decompose(stack, consensus(stack, EPS))
        assert np.abs(bundle.domain_signals.mean(axis=0)).max() < 1e-10


def test_class_signal_norm_shrinks():
    for seed in range(5):
        stack = random_stack(seed, domains=3)
        cons = consensus(stack, EPS)
        bundle = decompose(stack, cons)
        class_norm = np.linalg.norm(bundle.class_signal)
        mean_norm = np.linalg.norm(ifft2(cons.mean_spectrum))
        assert class_norm <= mean_norm + 1e-12


def test_resultant_range_and_frequency_symmetry():
    for seed in range(5):
        stack = random_stack(seed, domains=3)
        r = consensus(stack, EPS).resultant
        assert np.all(r >= 0.0)
        assert np.all(r < 1.0)
        assert np.abs(frequency_negation(r) - r).max() < 1e-12


def test_reconstruction_residue_small():
    stack = random_stack(6, domains=3)
    cons = consensus(stack, EPS)
    _, residue = ifft2_with_residue(cons.mean_spectrum * cons.resultant)
    assert residue < 1e-9
    for spec in stack.spectra:
        _, residue = ifft2_with_residue(spec - cons.mean_spectrum)
        assert residue < 1e-9


def test_step_with_zero_lambdas_is_plain_update():
    rng = SeededRng(7)
    x = rng.substream(0).normal(size=(1, 8, 8))
    g = rng.substream(1).normal(size=(1, 8, 8))
    stack = random_stack(8, domains=2, shape=(1, 8, 8))
    bundle = decompose(stack, consensus(stack, EPS), base=g)
    eta = 0.7
    cfg = DistillConfig(lambda_c=0.0, lambda_d=0.0, epsilon=EPS)
    stepped = x - eta * combined_update(bundle, 0, cfg)
    assert stepped.tobytes() == (x - eta * g).tobytes()


def test_consensus_case_doubles_the_step():
    g = SeededRng(11).normal(size=(1, 8, 8))
    x = SeededRng(12).normal(size=(1, 8, 8))
    stack = DomainGradientStack.from_gradients(0, np.stack([g, g, g]))
    bundle = decompose(stack, consensus(stack, EPS), base=g)
    cfg = DistillConfig(lambda_c=1.0, lambda_d=1.0, epsilon=EPS)
    stepped = x - 0.5 * combined_update(bundle, 0, cfg)
    expected = x - 0.5 * 2.0 * g  # domain deviations vanish; class approximates g
    assert np.abs(stepped - expected).max() < 1e-8


def test_step_rejects_unknown_domain_and_missing_base():
    stack = random_stack(13, domains=2, shape=(1, 4, 4))
    bundle = decompose(stack, consensus(stack, EPS))
    with pytest.raises(ValueError):
        combined_update(bundle, 0, DistillConfig())
    bundle.base = np.zeros((1, 4, 4))
    with pytest.raises(UnknownDomain):
        combined_update(bundle, 5, DistillConfig())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=6),
)
def test_decomposition_invariants_property(seed, domains):
    stack = random_stack(seed, domains=domains, shape=(1, 8, 8))
    cons = consensus(stack, EPS)
    bundle = decompose(stack, cons)
    assert np.all(cons.resultant >= 0.0)
    assert np.all(cons.resultant < 1.0)
    assert np.abs(frequency_negation(cons.resultant) - cons.resultant).max() < 1e-12
    assert np.abs(bundle.domain_signals.mean(axis=0)).max() < 1e-10
    assert np.linalg.norm(bundle.class_signal) <= np.linalg.norm(ifft2(cons.mean_spectrum)) + 1e-12


KERNEL_CFG = DistillConfig(lambda_c=0.7, lambda_d=1.3, epsilon=EPS, use_base=True)


def kernel_inputs(seed, domains=3, rows=6, shape=(2, 8, 8)):
    rng = SeededRng(seed)
    grads = rng.substream(0).normal(size=(domains, rows) + shape)
    base = rng.substream(1).normal(size=(rows,) + shape)
    assigned = np.arange(rows) % domains
    return grads, base, assigned


def assert_kernel_matches_oracle(grads, base, assigned, rows=None):
    got = batch_surgery_updates(grads, base, assigned, KERNEL_CFG, rows=rows)
    # Pairs derived beforehand, as a run derives them once, give the same bytes.
    pairs = surgery_pairs(np.arange(grads.shape[1]) if rows is None else rows, assigned,
                          len(grads))
    planned = batch_surgery_updates(grads, base, None, KERNEL_CFG, rows=rows, pairs=pairs)
    assert planned.tobytes() == got.tobytes()
    if rows is not None:
        grads, base = grads[:, rows], base[rows]
    want = per_sample_surgery(grads, base, assigned, KERNEL_CFG)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_kernel_matches_per_sample_oracle_on_distinct_rows():
    for seed in range(3):
        assert_kernel_matches_oracle(*kernel_inputs(seed))


def test_kernel_matches_oracle_on_contiguous_duplicate_runs():
    # The linear featurizer's layout: one stack and base row per class,
    # classes contiguous, assigned domains contiguous within a class.
    grads, base, _ = kernel_inputs(20, rows=2)
    ipc, pattern = 5, np.array([0, 0, 1, 1, 2])
    rows = np.repeat(np.arange(2), ipc)
    assert_kernel_matches_oracle(grads, base, np.tile(pattern, 2), rows)


def test_kernel_transforms_each_class_stack_once_in_the_linear_layout(monkeypatch):
    # 5 classes x ipc 10 over S = 3 domains: one stack and one base row per
    # class. Forward: 5 stacks x 3 domains x 3 channels; inverse: the 5
    # class signals only (the domain signals are taken in pixel space).
    classes, ipc, pattern = 5, 10, np.repeat(np.arange(3), [4, 3, 3])
    grads, base, _ = kernel_inputs(23, rows=classes, shape=(3, 8, 8))
    rows, assigned = np.repeat(np.arange(classes), ipc), np.tile(pattern, classes)
    planes = {"fft2": [], "ifft2": []}
    for name in planes:
        real = getattr(np.fft, name)

        def counting(a, *args, real=real, seen=planes[name], **kwargs):
            seen.append(a.size // (a.shape[-2] * a.shape[-1]))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    got = batch_surgery_updates(grads, base, assigned, KERNEL_CFG, rows=rows)
    assert planes == {"fft2": [45], "ifft2": [15]}
    monkeypatch.undo()
    want = per_sample_surgery(grads[:, rows], base[rows], assigned, KERNEL_CFG)
    assert got.tobytes() == want.tobytes()


def test_kernel_matches_oracle_on_non_adjacent_duplicates():
    grads, base, assigned = kernel_inputs(21, rows=3)
    rows = np.array([0, 1, 0, 2, 1, 0])
    assert_kernel_matches_oracle(grads, base, assigned[rows], rows)


@pytest.mark.parametrize("differs", ["stack", "base", "assigned"])
def test_kernel_keeps_apart_adjacent_rows_that_differ_in_one_input(differs):
    # Two rows that differ only in the stack or only in the base, or one
    # row taken with two assigned domains: samples 0 and 2 share everything.
    grads, base, _ = kernel_inputs(22, rows=2)
    g, b = grads[:, [0, 0]], base[[0, 0]]
    rows, assigned = np.array([0, 1, 0]), np.zeros(3, dtype=np.int64)
    if differs == "stack":
        g[:, 1] = grads[:, 1]
    elif differs == "base":
        b[1] = base[1]
    else:
        rows, assigned = np.zeros(3, dtype=np.int64), np.array([0, 1, 0])
    assert_kernel_matches_oracle(g, b, assigned, rows)
    out = batch_surgery_updates(g, b, assigned, KERNEL_CFG, rows=rows)
    assert not np.array_equal(out[0], out[1])
    assert out[0].tobytes() == out[2].tobytes()


def test_kernel_gathers_one_update_per_row_and_domain_pair():
    # The linear layout shuffled: 3 rows x 6 samples over S = 3 domains, so
    # 9 (row, domain) pairs, each shared by two samples that are not adjacent.
    grads, base, _ = kernel_inputs(25, rows=3)
    order = SeededRng(26).permutation(18)
    rows = np.repeat(np.arange(3), 6)[order]
    assigned = np.tile(np.repeat(np.arange(3), 2), 3)[order]
    assert_kernel_matches_oracle(grads, base, assigned, rows)
    out = batch_surgery_updates(grads, base, assigned, KERNEL_CFG, rows=rows)
    for i in range(18):
        for j in range(18):
            if rows[i] == rows[j]:
                same = out[i].tobytes() == out[j].tobytes()
                assert same == (assigned[i] == assigned[j])


def test_kernel_matches_oracle_on_two_domain_stacks():
    grads, base, assigned = kernel_inputs(24, domains=2, rows=3)
    rows = np.array([0, 0, 1, 2, 2])
    assert_kernel_matches_oracle(grads, base, assigned[rows], rows)


def test_kernel_rejects_rows_that_do_not_match_the_stack():
    grads, base, assigned = kernel_inputs(27, rows=4)
    with pytest.raises(ShapeMismatch):
        batch_surgery_updates(grads[:, :2], base, assigned[:2], KERNEL_CFG)
    with pytest.raises(ShapeMismatch):
        batch_surgery_updates(grads[:, :2], base[:2], assigned, KERNEL_CFG)
    with pytest.raises(UnknownDomain):
        batch_surgery_updates(grads, base, assigned + 3, KERNEL_CFG)


def test_kernel_rejects_a_bad_row_index():
    grads, base, _ = kernel_inputs(28, rows=3)
    assigned = np.array([0, 1, 2, 0, 1])
    rows = np.array([0, 2, 1, 1, 0])
    batch_surgery_updates(grads, base, assigned, KERNEL_CFG, rows=rows)
    for bad in (rows + 1, rows - 1, rows.astype(np.float64), rows[None]):
        with pytest.raises(ShapeMismatch):
            batch_surgery_updates(grads, base, assigned, KERNEL_CFG, rows=bad)
        with pytest.raises(ShapeMismatch):
            batch_consensus_maps(grads, EPS, rows=bad)
    # rows and assigned of different lengths
    with pytest.raises(ShapeMismatch):
        batch_surgery_updates(grads, base, assigned, KERNEL_CFG, rows=rows[:-1])
    with pytest.raises(ShapeMismatch):
        batch_surgery_updates(grads, base, assigned[:-1], KERNEL_CFG, rows=rows)
    with pytest.raises(UnknownDomain):
        batch_surgery_updates(grads, base, assigned + 1, KERNEL_CFG, rows=rows)
    with pytest.raises(UnknownDomain):
        batch_surgery_updates(grads, base, assigned - 1, KERNEL_CFG, rows=rows)
    # Pairs derived beforehand check the same.
    with pytest.raises(ShapeMismatch):
        surgery_pairs(rows[:-1], assigned, len(grads))
    for bad in (assigned + 1, assigned - 1):
        with pytest.raises(UnknownDomain):
            surgery_pairs(rows, bad, len(grads))


def test_kernel_rejects_a_duplicated_non_hermitian_row(monkeypatch):
    # Real inputs always transform to Hermitian spectra, so corrupt the
    # forward transform of one row's stack: one bin without its conjugate.
    grads, base, assigned = kernel_inputs(25, rows=2)
    bad = grads[:, 0]
    real_fft2 = np.fft.fft2

    def corrupting_fft2(a, *args, **kwargs):
        out = real_fft2(a, *args, **kwargs)
        hit = np.all(a == bad[:, None], axis=(0, 2, 3, 4))
        out[0, hit, 0, 0, 1] += 1.0j
        return out

    monkeypatch.setattr(np.fft, "fft2", corrupting_fft2)
    shared = np.zeros(2, dtype=np.int64)
    batch_surgery_updates(grads[:, 1:], base[1:], assigned[:2], KERNEL_CFG, rows=shared)
    rows = np.array([1, 0, 0, 0])
    with pytest.raises(NonHermitianInput):
        batch_surgery_updates(grads, base, assigned[rows], KERNEL_CFG, rows=rows)


def kernel_domain_signal(grads, assigned):
    """The kernel's domain signal alone: no base, no class signal."""
    cfg = DistillConfig(lambda_c=0.0, lambda_d=1.0, epsilon=EPS, use_base=False)
    return batch_surgery_updates(grads, np.zeros(grads.shape[1:]), assigned, cfg)


def assert_domain_signal_is_spectral_deviation(grads, assigned):
    # The paper's definition: ifft2 of the assigned domain's spectrum minus
    # the mean spectrum, here from fourier.fft2 / ifft2 sample by sample.
    got = kernel_domain_signal(grads, assigned)
    for i, s in enumerate(assigned):
        spectra = np.stack([fft2(g) for g in grads[:, i]])
        want = ifft2(spectra[s] - spectra.mean(axis=0))
        assert np.abs(got[i] - want).max() <= 1e-12 * np.abs(want).max()


def test_domain_signal_is_the_inverse_of_the_spectral_deviation():
    for seed, domains in ((30, 2), (31, 3), (32, 5)):
        grads, _, assigned = kernel_inputs(seed, domains=domains, rows=7)
        assert_domain_signal_is_spectral_deviation(grads, assigned)


def test_domain_signal_matches_the_spectral_definition_on_toy_gradients():
    from sgsdistill.dm import matching_rows
    from sgsdistill.featurizers import ConvFeaturizer, LinearFeaturizer
    from sgsdistill.pipeline import DistillConfig, initialize
    from sgsdistill.toydata import ToySpec, generate_toy

    source = generate_toy(ToySpec(height=8, width=8, train_per_cell=8, test_per_cell=2),
                          3).without_domain(0)
    synthetic = initialize(source, DistillConfig(ipc=4))
    views = [source.train_view(domain=s) for s in range(source.domain_count)]
    rng = SeededRng(33)
    for psi in (LinearFeaturizer.create(source.image_shape, 32, rng.substream(0)),
                ConvFeaturizer.create(source.image_shape[0], 4, 3, rng.substream(1))):
        rows, index, _ = matching_rows(synthetic, views, psi)
        assert_domain_signal_is_spectral_deviation(rows[1:][:, index], synthetic.domains)


def test_consensus_maps_match_per_sample_path():
    grads, _, _ = kernel_inputs(26, rows=3)
    rows = np.array([0, 0, 1, 2, 2, 0])
    got = batch_consensus_maps(grads[:, rows], EPS)
    want = per_sample_consensus_maps(grads[:, rows], EPS)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    for g, w in zip(batch_consensus_maps(grads, EPS, rows=rows), want):
        assert g.tobytes() == w.tobytes()
    with pytest.raises(ValueError):
        batch_consensus_maps(grads, 0.0)
    with pytest.raises(TooFewDomains):
        batch_consensus_maps(grads[:1], EPS)
