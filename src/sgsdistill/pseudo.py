"""Pseudo-domains: style statistics plus K-means over them.

When ground-truth domain labels are unavailable, samples are described by the
channel-wise mean and standard deviation of their hidden convolutional
activations ("style statistics"), clustered with K-means, and the cluster ids
stand in for domain labels downstream.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import MultiDomainDataset
from .errors import NotConvolutional, TooFewSamples
from .featurizers import ConvFeaturizer, spatial_mean
from .rng import SeededRng


def style_stats_batch(images, psi):
    """Per-channel mean and population std of each image's hidden activations,
    concatenated: (N, C, H, W) -> (N, 2 * channels), one channels-last
    correlation per block of images (ConvFeaturizer.map_blocks). A float32
    batch is widened a block at a time, never whole."""
    if not isinstance(psi, ConvFeaturizer):
        raise NotConvolutional("style statistics need spatial feature maps")
    f = psi.feature_dim
    out = np.empty((len(images), 2 * f))
    for block, maps in psi.map_blocks(images):
        np.maximum(maps, 0.0, out=maps)
        mean = spatial_mean(maps)
        maps -= mean[:, None, :]
        out[block, :f] = mean
        out[block, f:] = np.sqrt(spatial_mean(np.multiply(maps, maps, out=maps)))
    return out


@dataclass
class ClusterModel:
    """K-means fit: centroids live in the z-normalized input space."""

    centroids: np.ndarray      # (k, dim)
    assignments: np.ndarray    # (n,)
    inertia: float
    inertia_history: list
    norm_mean: np.ndarray
    norm_scale: np.ndarray

    @property
    def k(self):
        return self.centroids.shape[0]

    def assign(self, vectors):
        """Nearest-centroid assignment; exact distance ties go to the lowest id."""
        z = (np.asarray(vectors, dtype=np.float64) - self.norm_mean) / self.norm_scale
        d2 = ((z[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1).astype(np.int64)


def _plus_plus_init(z, k, rng: SeededRng):
    n = z.shape[0]
    centroids = np.empty((k, z.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = z[first]
    closest = ((z - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, n))  # degenerate: all points coincide
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[j] = z[idx]
        closest = np.minimum(closest, ((z - centroids[j]) ** 2).sum(axis=1))
    return centroids


KMEANS_MAX_ITERS = 100


def kmeans(vectors, k, rng: SeededRng, restarts=1):
    """Lloyd's algorithm with k-means++ seeding and empty-cluster repair.

    Inputs are z-normalized per dimension (means and stds live on
    different scales). Runs until the assignment fixpoint or KMEANS_MAX_ITERS
    iterations; the recorded inertia never increases between iterations. With
    restarts > 1 the seeding is redrawn from derived streams and the
    lowest-inertia fit wins, which sidesteps the usual local minima.
    """
    if restarts > 1:
        fits = [kmeans(vectors, k, rng.substream(r)) for r in range(restarts)]
        return min(fits, key=lambda m: m.inertia)
    vectors = np.asarray(vectors, dtype=np.float64)
    k = int(k)
    if k < 2:
        raise ValueError("k must be at least 2")
    if vectors.shape[0] < k:
        raise TooFewSamples(f"{vectors.shape[0]} samples cannot form {k} clusters")

    mean = vectors.mean(axis=0)
    scale = vectors.std(axis=0)
    scale[scale < 1e-12] = 1.0
    z = (vectors - mean) / scale

    centroids = _plus_plus_init(z, k, rng)
    assignments = None
    history = []
    for _ in range(KMEANS_MAX_ITERS):
        d2 = ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        # Repair: an empty cluster reseeds at the point farthest from its own centroid.
        for j in range(k):
            if not np.any(new_assign == j):
                centroids[j] = z[np.argmax(d2[np.arange(len(z)), new_assign])]
                d2[:, j] = ((z - centroids[j]) ** 2).sum(axis=1)
                new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(len(z)), new_assign].sum()))
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for j in range(k):
            members = z[assignments == j]
            if members.shape[0]:
                centroids[j] = members.mean(axis=0)
    d2 = ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    inertia = float(d2[np.arange(len(z)), assignments].sum())
    return ClusterModel(
        centroids=centroids,
        assignments=assignments.astype(np.int64),
        inertia=inertia,
        inertia_history=history,
        norm_mean=mean,
        norm_scale=scale,
    )


DEFAULT_STYLE_CHANNELS = 16
DEFAULT_RESTARTS = 10


def default_style_featurizer(in_channels, rng: SeededRng):
    """Fixed random conv block whose hidden maps feed the style statistics."""
    return ConvFeaturizer.create(in_channels, DEFAULT_STYLE_CHANNELS, 3, rng)


def assign_pseudo_domains(data: MultiDomainDataset, psi, k, rng: SeededRng):
    """Relabel a single-domain dataset with k style clusters as pseudo-domains.

    The clustering is fit on the train split; test samples are assigned to
    their nearest centroid. Classes may come out imbalanced across
    pseudo-domains, in which case downstream per-domain losses raise
    EmptyClass as documented there.
    """
    if data.domain_count != 1:
        raise ValueError("pseudo-domains substitute for missing labels; dataset already has domains")
    train_mask, images = data.splits == 0, data.images
    train_styles = style_stats_batch(images[train_mask], psi)
    model = kmeans(train_styles, k, rng, restarts=DEFAULT_RESTARTS)
    domains = np.empty(len(data), dtype=np.int64)
    domains[train_mask] = model.assignments
    if np.any(~train_mask):
        test_styles = style_stats_batch(images[~train_mask], psi)
        domains[~train_mask] = model.assign(test_styles)
    return data.with_domain_labels(domains, k), model


def cluster_purity(assignments, truth):
    """Fraction of samples whose cluster's majority truth label matches theirs."""
    assignments = np.asarray(assignments)
    truth = np.asarray(truth)
    if assignments.shape != truth.shape or assignments.size == 0:
        raise ValueError("assignments and truth must be equal-length and non-empty")
    hit = 0
    for j in np.unique(assignments):
        members = truth[assignments == j]
        hit += np.bincount(members).max()
    return hit / assignments.size
