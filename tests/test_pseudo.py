import itertools

import numpy as np
import pytest

from sgsdistill import featurizers
from sgsdistill.errors import NotConvolutional, TooFewSamples
from sgsdistill.featurizers import IMAGE_BLOCK, ConvFeaturizer, LinearFeaturizer
from sgsdistill.pseudo import (
    ClusterModel,
    assign_pseudo_domains,
    cluster_purity,
    default_style_featurizer,
    kmeans,
    style_stats_batch,
)
from sgsdistill.rng import SeededRng
from sgsdistill.toydata import generate_toy, sdg_toy_spec

from helpers import materialised, naive_correlate


@pytest.mark.parametrize("n", [0, 1, IMAGE_BLOCK - 1, IMAGE_BLOCK + 1, 3 * IMAGE_BLOCK + 5])
def test_style_stats_do_not_depend_on_the_block_size(monkeypatch, n):
    # Single images, small blocks, the default, and one block wider than the batch.
    rng = SeededRng(21)
    psi = ConvFeaturizer.create(3, 4, 3, rng.substream(0))
    images = rng.substream(1).normal(size=(n, 3, 5, 7))
    stats = []
    for block in (1, 3, IMAGE_BLOCK, n + 1):
        monkeypatch.setattr(featurizers, "IMAGE_BLOCK", block)
        stats.append(style_stats_batch(images, psi))
    assert stats[0].shape == (n, 8)
    assert all(other.tobytes() == stats[0].tobytes() for other in stats[1:])


def test_constant_activation_plane_stats():
    # Kernel summing a 1x1 neighborhood: constant input c -> plane of c.
    kern = np.zeros((1, 1, 1, 1))
    kern[0, 0, 0, 0] = 1.0
    psi = ConvFeaturizer(kern)
    x = np.full((1, 5, 5), 0.7)
    stats = style_stats_batch(x[None], psi)[0]
    assert stats[0] == pytest.approx(0.7, abs=1e-15)
    assert stats[1] == pytest.approx(0.0, abs=1e-15)


def test_zero_input_zero_stats():
    psi = ConvFeaturizer.create(2, 3, 3, SeededRng(0))
    assert not style_stats_batch(np.zeros((1, 2, 6, 6)), psi).any()


def test_style_stats_match_two_pass_oracle():
    rng = SeededRng(1)
    psi = ConvFeaturizer.create(1, 4, 3, rng.substream(0))
    x = rng.substream(1).normal(size=(1, 6, 6))
    maps = psi.hidden_activations(x)
    stats = style_stats_batch(x[None], psi)[0]
    for ch in range(4):
        plane = maps[ch].ravel()
        mean = sum(plane) / plane.size
        var = sum((v - mean) ** 2 for v in plane) / plane.size
        assert stats[ch] == pytest.approx(mean, abs=1e-12)
        assert stats[4 + ch] == pytest.approx(np.sqrt(var), abs=1e-12)


def test_style_stats_batch_matches_single_images_and_two_pass_oracle():
    # 70 images span two of style_stats_batch's blocks; every fifth is zero.
    rng = SeededRng(20)
    psi = ConvFeaturizer.create(3, 4, 3, rng.substream(0))
    images = rng.substream(1).normal(size=(70, 3, 5, 7))
    images[::5] = 0.0
    batch = style_stats_batch(images, psi)
    assert batch.shape == (70, 8)
    scale = np.abs(batch).max()
    for x, row in zip(images, batch):
        assert np.abs(row - style_stats_batch(x[None], psi)[0]).max() <= 1e-12 * scale
        maps = np.maximum(naive_correlate(x, psi.kernels), 0.0)
        for ch in range(4):
            plane = maps[ch].ravel()
            mean = sum(plane) / plane.size
            var = sum((v - mean) ** 2 for v in plane) / plane.size
            assert abs(row[ch] - mean) <= 1e-12 * scale
            assert abs(row[4 + ch] - np.sqrt(var)) <= 1e-12 * scale
    assert not batch[::5].any()


def test_style_stats_require_conv():
    with pytest.raises(NotConvolutional):
        style_stats_batch(np.zeros((2, 1, 2, 2)), LinearFeaturizer(np.eye(4)))


def test_separated_blobs_cluster_perfectly():
    rng = SeededRng(2)
    a = rng.substream(0).normal(size=(30, 4))
    b = rng.substream(1).normal(size=(30, 4)) + 20.0
    vectors = np.concatenate([a, b])
    truth = np.repeat([0, 1], 30)
    model = kmeans(vectors, 2, rng.substream(2))
    assert cluster_purity(model.assignments, truth) == 1.0


def test_identical_vectors_collapse_to_one_cluster():
    vectors = np.ones((10, 3))
    model = kmeans(vectors, 2, SeededRng(3))
    assert model.inertia == 0.0
    assert len(np.unique(model.assignments[model.assignments >= 0])) >= 1


def test_lloyd_inertia_monotone():
    rng = SeededRng(5)
    vectors = rng.substream(0).normal(size=(200, 6))
    for seed in range(5):
        model = kmeans(vectors, 4, rng.substream(1, seed))
        diffs = np.diff(model.inertia_history)
        assert np.all(diffs <= 1e-9)


def test_permutation_invariance_up_to_relabeling():
    rng = SeededRng(6)
    a = rng.substream(0).normal(size=(20, 3))
    b = rng.substream(1).normal(size=(20, 3)) + 8.0
    c = rng.substream(2).normal(size=(20, 3)) - 8.0
    vectors = np.concatenate([a, b, c])
    model = kmeans(vectors, 3, rng.substream(3))
    perm = rng.substream(4).permutation(60)
    shuffled = kmeans(vectors[perm], 3, rng.substream(5))
    # Undo the shuffle and look for a label bijection matching the original.
    unshuffled = np.empty(60, dtype=np.int64)
    unshuffled[perm] = shuffled.assignments
    matched = any(
        np.array_equal(np.array([mapping[v] for v in unshuffled]), model.assignments)
        for mapping in [dict(zip(range(3), p)) for p in itertools.permutations(range(3))]
    )
    assert matched


def test_too_few_samples_rejected():
    with pytest.raises(TooFewSamples):
        kmeans(np.zeros((2, 3)), 3, SeededRng(7))
    with pytest.raises(ValueError):
        kmeans(np.zeros((5, 3)), 1, SeededRng(7))


def test_assign_uses_lowest_index_on_ties():
    model = ClusterModel(
        centroids=np.array([[0.0, 0.0], [0.0, 0.0]]),
        assignments=np.zeros(2, dtype=np.int64),
        inertia=0.0,
        inertia_history=[0.0],
        norm_mean=np.zeros(2),
        norm_scale=np.ones(2),
    )
    assert np.array_equal(model.assign(np.array([[1.0, 1.0]])), np.array([0]))


def test_kmeans_determinism():
    rng_data = SeededRng(8)
    vectors = rng_data.normal(size=(50, 4))
    a = kmeans(vectors, 3, SeededRng(9))
    b = kmeans(vectors, 3, SeededRng(9))
    assert np.array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia


def test_purity_bounds():
    assert cluster_purity([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert cluster_purity([0, 0, 0, 0], [0, 1, 2, 3]) == 0.25
    with pytest.raises(ValueError):
        cluster_purity([], [])


def test_pseudo_domains_of_a_subset_match_those_of_a_copy():
    # A subset shares its root's pixels; the clustering reads its own rows.
    ds = generate_toy(sdg_toy_spec(train_per_cell=8, test_per_cell=3), seed=3)
    single = ds.only_domain(2)
    psi = default_style_featurizer(3, SeededRng(4))
    got, got_model = assign_pseudo_domains(single, psi, 3, SeededRng(5))
    want, want_model = assign_pseudo_domains(materialised(single, ds.images[ds.domains == 2]),
                                             psi, 3, SeededRng(5))
    assert got.domains.tobytes() == want.domains.tobytes()
    assert got_model.centroids.tobytes() == want_model.centroids.tobytes()
    assert got.images.tobytes() == want.images.tobytes()
