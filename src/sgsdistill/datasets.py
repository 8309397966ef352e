"""Multi-domain image datasets, class-indexed views, and synthetic sets.

Images are float64 arrays shaped (N, channels, height, width). Each sample
carries a class id, a domain id, a train/test split flag, and a stable uid so
evaluation protocols can prove which samples ever entered a pipeline. A view
caches its class pixel means and, for the latest featurizer, its class
feature-mean matrix (`dm.class_feature_mean`); the distillation loop reads
neither, as its `dm.MatchingPlan` holds what it needs.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyClass, EmptySet, UnknownDomain

TRAIN = 0
TEST = 1


@dataclass
class DataView:
    """Immutable (images, labels) slice of a dataset with per-class indexing."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int
    uids: np.ndarray | None = None
    _by_class: dict = field(default=None, repr=False)
    _pixel_means: dict = field(default=None, repr=False)
    _feature_means: tuple = field(default=None, repr=False)

    def __len__(self):
        return self.images.shape[0]

    def by_class(self):
        if self._by_class is None:
            self._by_class = {
                c: np.flatnonzero(self.labels == c) for c in range(self.class_count)
            }
        return self._by_class

    def class_indices(self, c):
        idx = self.by_class().get(int(c))
        if idx is None or idx.size == 0:
            raise EmptyClass(f"class {c} has no samples in this view")
        return idx

    def class_images(self, c):
        return self.images[self.class_indices(c)]

    def class_pixel_mean(self, c):
        """Cached per-class pixel mean; feature means of linear maps reuse it."""
        if self._pixel_means is None:
            self._pixel_means = {}
        c = int(c)
        if c not in self._pixel_means:
            self._pixel_means[c] = self.class_images(c).mean(axis=0)
        return self._pixel_means[c]

    def cached_feature_mean(self, psi, compute):
        """The class feature-mean matrix under psi, computed once per
        featurizer (real data is immutable). Only the most recent
        featurizer's matrix is kept. The distillation loop does not call it
        (it draws a new featurizer every iteration, so the cache could not
        hit); perfbench's tracer wraps this name."""
        if self._feature_means is None or self._feature_means[0] != psi.token:
            self._feature_means = (psi.token, compute())
        return self._feature_means[1]

    def require_nonempty(self):
        if len(self) == 0:
            raise EmptySet("view contains no samples")
        return self


@dataclass
class MultiDomainDataset:
    """Labeled image samples partitioned into domains with train/test splits."""

    images: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    splits: np.ndarray
    class_count: int
    domain_count: int
    uids: np.ndarray | None = None
    extras: dict = field(default_factory=dict)  # per-sample annotations, not serialized

    def __post_init__(self):
        n = self.images.shape[0]
        if self.uids is None:
            self.uids = np.arange(n, dtype=np.int64)
        for arr, label in [(self.labels, "labels"), (self.domains, "domains"),
                           (self.splits, "splits"), (self.uids, "uids")]:
            if arr.shape[0] != n:
                raise ValueError(f"{label} length {arr.shape[0]} != {n} samples")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError("class id out of range")
        if n and (self.domains.min() < 0 or self.domains.max() >= self.domain_count):
            raise ValueError("domain id out of range")

    def __len__(self):
        return self.images.shape[0]

    @property
    def image_shape(self):
        return self.images.shape[1:]

    def _mask(self, domain=None, split=None):
        mask = np.ones(len(self), dtype=bool)
        if domain is not None:
            if not 0 <= int(domain) < self.domain_count:
                raise UnknownDomain(f"domain {domain} not in 0..{self.domain_count - 1}")
            mask &= self.domains == int(domain)
        if split is not None:
            mask &= self.splits == split
        return mask

    def view(self, domain=None, split=None):
        idx = np.flatnonzero(self._mask(domain, split))
        return DataView(
            images=self.images[idx],
            labels=self.labels[idx],
            class_count=self.class_count,
            uids=self.uids[idx],
        )

    def train_view(self, domain=None):
        return self.view(domain=domain, split=TRAIN)

    def test_view(self, domain=None):
        return self.view(domain=domain, split=TEST)

    def subset(self, mask):
        idx = np.flatnonzero(mask)
        return replace(
            self,
            images=self.images[idx],
            labels=self.labels[idx],
            domains=self.domains[idx],
            splits=self.splits[idx],
            uids=self.uids[idx],
            extras={k: v[idx] for k, v in self.extras.items()},
        )

    def without_domain(self, domain):
        """Drop one domain and renumber the rest contiguously (order preserved)."""
        if not 0 <= int(domain) < self.domain_count:
            raise UnknownDomain(f"domain {domain} not in 0..{self.domain_count - 1}")
        kept = self.subset(self.domains != int(domain))
        kept.domains = kept.domains.astype(np.int64) - (kept.domains > int(domain))
        kept.domain_count = self.domain_count - 1
        return kept

    def only_domain(self, domain):
        ds = self.subset(self._mask(domain=domain))
        ds.domains = np.zeros(len(ds), dtype=np.int64)
        ds.domain_count = 1
        return ds

    def with_domain_labels(self, new_domains, domain_count):
        """Relabel domains (e.g. with pseudo-domain assignments)."""
        new_domains = np.asarray(new_domains, dtype=np.int64)
        ds = replace(self, domains=new_domains, domain_count=int(domain_count))
        return ds

    def flatten_domains(self):
        """Collapse all domains into a single one; returns (dataset, old labels)."""
        old = self.domains.copy()
        return self.with_domain_labels(np.zeros(len(self), dtype=np.int64), 1), old


@dataclass
class SyntheticSet:
    """The optimizable distilled dataset: IPC images per class with per-sample
    domain assignments used by the domain-specific update signal."""

    images: np.ndarray          # (ipc * class_count, channels, h, w) float64
    labels: np.ndarray          # (n,) int64
    domains: np.ndarray         # (n,) int64 assigned source-domain ids
    iteration: int = 0
    init_uids: np.ndarray | None = None  # real-sample uids that seeded each image (-1 = noise)

    def __post_init__(self):
        if self.init_uids is None:
            self.init_uids = np.full(len(self.labels), -1, dtype=np.int64)

    def __len__(self):
        return self.images.shape[0]

    @property
    def class_count(self):
        return int(self.labels.max()) + 1 if len(self) else 0

    def as_view(self):
        return DataView(images=self.images, labels=self.labels, class_count=self.class_count)

    def copy(self):
        return SyntheticSet(
            images=self.images.copy(),
            labels=self.labels.copy(),
            domains=self.domains.copy(),
            iteration=self.iteration,
            init_uids=self.init_uids.copy(),
        )
