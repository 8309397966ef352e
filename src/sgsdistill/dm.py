"""Distribution-matching losses and their exact pixel-space gradients.

The loss for a view of real data is the sum over classes of the squared
distance between synthetic and real per-class feature means. Means are taken
over the whole view passed in; the loop minibatches by passing class-balanced
subsets of the views (`pipeline._Inputs`).

`matching_rows` yields the pooled gradient and every per-domain gradient
of every class from one pass. What no pass changes is derived once, in a
`MatchingPlan`: one per run (`pipeline.run_distillation`), or a one-off plan
for a single call, through the same code. Each pass then computes only what
depends on the featurizer or the synthetic pixels, in the shapes and
operand order of deriving everything per call, so the bytes are the same:
the synthetic class means (one forward), each view's class-mean features
(under the linear featurizer one gemm of the plan's pixel means, under conv
`real_class_means` over the plan's padded channels-last layout of the view,
which the loop computes ahead on a lane), the pooled real class means as the
count-weighted mix of the domain means, the deltas and losses, and one
pullback of the (S + 1, classes) covectors, which returns distinct gradient
rows plus each image's row (one row per class under the linear featurizer).
Under conv the pullback reuses the synthetic forward's rectifier mask
(`ConvFeaturizer.linearize`), so a pass correlates the synthetic set once.
Every covector row is pulled back on its own, so the pooled row is bitwise
the same whether or not the domain rows ride along (the loop asks for them
only at a positive surgery strength).
`dm_gradient` gathers the pooled rows to the images; `dm_loss` stops before
the pullback.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .datasets import SyntheticSet
from .errors import EmptyClass, ShapeMismatch
from .featurizers import _conv_class_means, _group_means, mean_features


class MatchingPlan:
    """What matching a synthetic set against real views reads that no pass
    changes: each synthetic class's members (`groups`) and covector scale
    2 / ipc_c (`scale`, (K, 1)), the classes each view holds (`held`, (S, K))
    and their mixing weights in the pooled means (`weights`, (S, K, 1)),
    and, with fixed views (batch_per_class 0), each view's members of every
    held class and either their stacked pixel means, when featurizer reads
    pixel means, or the view's images in the layout its correlation reads
    (`featurizer.layout`). featurizer is the featurizer or the
    `pipeline.FeaturizerSpec` a run draws from. With batch_per_class > 0
    each pass's views are class-balanced minibatches
    (`pipeline._subsample_view`) holding min(class size, batch_per_class)
    members of each class, so the counts and weights still hold, and the
    members are read, and laid out, from the pass's views.
    Raises ShapeMismatch when the image shape or count does not match, and
    EmptyClass when the synthetic set lacks a class, no view holds one, or,
    with per_domain (surgery needs every class in every domain), a view
    lacks one.
    """

    def __init__(self, synthetic: SyntheticSet, views, featurizer, per_domain=True,
                 batch_per_class=0):
        shape = synthetic.images.shape[1:]
        if any(view.images.shape[1:] != shape for view in views):
            raise ShapeMismatch(f"synthetic images {shape} do not match every real view")
        if len(synthetic.images) != len(synthetic.labels):
            raise ShapeMismatch(f"{len(synthetic.images)} synthetic images, "
                                f"{len(synthetic.labels)} labels")
        k = synthetic.class_count
        self.labels = synthetic.labels
        self.groups = [np.flatnonzero(self.labels == c) for c in range(k)]
        sizes = np.array([g.size for g in self.groups])
        if not sizes.all():
            raise EmptyClass(f"class {np.argmin(sizes)} has no synthetic samples")
        self.scale = (2.0 / sizes)[:, None]
        counts = np.array([np.bincount(view.labels, minlength=k)[:k] for view in views])
        if batch_per_class:
            counts = np.minimum(counts, batch_per_class)
        self.held = counts > 0
        if not self.held.any(axis=0).all():
            raise EmptyClass(f"class {np.argmin(self.held.any(axis=0))} has no real samples")
        if per_domain and not self.held.all():
            s, c = np.argwhere(~self.held)[0]
            raise EmptyClass(f"class {c} has no samples in source domain {s}; surgery needs "
                             "every class in every source (pseudo-)domain")
        self.weights = (counts / counts.sum(axis=0))[..., None]
        self._layout = None if featurizer.reads_pixel_means else featurizer.layout
        self._members = None if batch_per_class else self._read_members(views)
        self._pixel_means = None
        if self._members is not None and featurizer.reads_pixel_means:
            self._pixel_means = self.real_pixel_means(views)

    def _read_members(self, views):
        return [(view.images if self._layout is None else self._layout(view.images),
                 [np.flatnonzero(view.labels == c) for c in np.flatnonzero(self.held[s])])
                for s, view in enumerate(views)]

    def real_views(self, views):
        """(images, each held class's member indices) of every view, the
        images laid out as the featurizer's correlation reads them (conv,
        `featurizers.padded_layout`) or as they are (linear); views are the
        pass's real views. `real_class_means` reads them."""
        return self._members or self._read_members(views)

    def real_pixel_means(self, views):
        """The held classes' pixel means of each view that holds one,
        stacked (held, *image shape)."""
        if self._pixel_means is not None:
            return self._pixel_means
        return [_group_means(images, groups) for images, groups in self.real_views(views)
                if groups]


def class_feature_mean(view, psi):
    """(class_count, F) mean features of every class in the view, from one
    featurization: a linear map reads the stacked class pixel means, a conv
    map featurizes the view once and averages each class's rows. Classes the
    view lacks get NaN rows. Cached on the view for psi. The matching pass
    does not call it (it reads a `MatchingPlan`); perfbench's tracer wraps
    this name."""
    def compute():
        held = [c for c, idx in view.by_class().items() if idx.size]
        means = np.full((view.class_count, psi.feature_dim), np.nan)
        if held:
            means[held] = mean_features(
                psi, view.images, [view.by_class()[c] for c in held],
                pixel_mean=lambda: np.stack([view.class_pixel_mean(c) for c in held]))
        return means
    return view.cached_feature_mean(psi, compute)


def real_class_means(kernels, views):
    """Each view's held-class mean features, (held, F), under the
    ConvFeaturizer holding kernels (float64), from the (laid-out images,
    member groups) pairs of `MatchingPlan.real_views`; a view that holds no
    class is skipped. Calls numpy only, so a featurizer pool thread may run
    it."""
    return [_conv_class_means(kernels, padded, groups) for padded, groups in views if groups]


@dataclass
class DmGradient:
    """Per-synthetic-sample pixel gradients plus the loss they descend."""

    gradients: np.ndarray  # (n, channels, h, w)
    loss: float


def _class_deltas(plan, synthetic: SyntheticSet, domain_views, psi, real_means):
    """Deltas (S + 1, K, F), their losses (S + 1,) and the synthetic images'
    pullback, a function of (covectors, groups) that gives
    psi.pullback(synthetic.images, covectors, groups). deltas[0, c] is mean
    psi(synthetic_c) minus the pooled real class mean (the count-weighted mix
    of the views holding class c), deltas[1 + s, c] the same against view s;
    a view without class c gets weight 0 and a NaN row, so its loss is NaN.
    real_means, when given, holds real_class_means of the views under psi.
    Under conv the pullback reuses the forward's rectifier mask
    (`ConvFeaturizer.linearize`), so the synthetic set is correlated once.
    """
    if psi.reads_pixel_means:
        mu_syn = psi.features_batch(_group_means(synthetic.images, plan.groups))
        pullback = functools.partial(psi.pullback, synthetic.images)
        if real_means is None:
            real_means = [psi.features_batch(m) for m in plan.real_pixel_means(domain_views)]
    else:
        features, pullback = psi.linearize(synthetic.images)
        mu_syn = _group_means(features, plan.groups)
        if real_means is None:
            real_means = real_class_means(psi.kernels, plan.real_views(domain_views))
    mu_real = np.full(plan.held.shape + mu_syn.shape[1:], np.nan)
    mu_real[plan.held] = np.concatenate(real_means)
    pooled = (plan.weights * np.where(plan.held[..., None], mu_real, 0.0)).sum(axis=0)
    deltas = mu_syn - np.concatenate([pooled[None], mu_real])
    return deltas, np.einsum("rkf,rkf->r", deltas, deltas), pullback


def matching_rows(synthetic: SyntheticSet, domain_views, psi, per_domain=True,
                  real_means=None, plan=None):
    """Gradient rows of dm_loss against the union of the views and each view.

    Returns (rows, index, losses): sample i's gradient of the pooled loss is
    rows[0, index[i]] and of view s's loss rows[1 + s, index[i]]; losses
    (S + 1,) are the pooled loss then each view's. Each member of class c
    receives the covector (2 / ipc_c) * delta_c pulled back at its own
    pixels. With per_domain=False only rows[0] is pulled back, and a view
    missing a class gets a NaN loss. real_means, when given, holds
    real_class_means of the views under psi, which is then not computed
    again. plan is the MatchingPlan of these arguments (built with the same
    per_domain), or None for a one-off one.
    """
    if plan is None:
        plan = MatchingPlan(synthetic, domain_views, psi, per_domain)
    deltas, losses, pullback = _class_deltas(plan, synthetic, domain_views, psi, real_means)
    rows = len(domain_views) + 1 if per_domain else 1
    pulled, index = pullback(plan.scale * deltas[:rows], plan.labels)
    return pulled, index, losses


def dm_loss(synthetic: SyntheticSet, view, psi):
    """Sum over classes of || mean psi(synthetic_c) - mean psi(real_c) ||^2."""
    plan = MatchingPlan(synthetic, [view], psi, per_domain=False)
    return float(_class_deltas(plan, synthetic, [view], psi, None)[1][0])


def dm_gradient(synthetic: SyntheticSet, view, psi):
    """Exact gradient of dm_loss with respect to every synthetic image."""
    rows, index, losses = matching_rows(synthetic, [view], psi, per_domain=False)
    return DmGradient(gradients=rows[0][index], loss=float(losses[0]))
