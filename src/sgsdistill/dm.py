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
the synthetic class-mean features and their pullback (the featurizer's
`class_features`), each view's class-mean features
(`featurizers.real_class_means` over the featurizer's `layout` of the view,
which the plan holds for fixed views; the loop computes them before the
pass, see `pipeline._Inputs`), the pooled real class means as the
count-weighted mix of the domain means, the deltas and losses, and one
pullback of the (S + 1, classes) covectors, which returns distinct gradient
rows plus each image's row. Every covector row is pulled back on its own,
so the pooled row is bitwise the same whether or not the domain rows ride
along (the loop asks for them only at a positive surgery strength).
`dm_gradient` gathers the pooled rows to the images; `dm_loss` stops before
the pullback.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import SyntheticSet
from .errors import EmptyClass, ShapeMismatch
from .featurizers import mean_features, real_class_means


class MatchingPlan:
    """What matching a synthetic set against real views reads that no pass
    changes: each synthetic class's members (`groups`) and covector scale
    2 / ipc_c (`scale`, (K, 1)), the classes each view holds (`held`, (S, K))
    and their mixing weights in the pooled means (`weights`, (S, K, 1)),
    and, with fixed views (batch_per_class 0), the views `laid_out`.
    featurizer is the featurizer or the `pipeline.FeaturizerSpec` a run
    draws from. With batch_per_class > 0 each pass's views are
    class-balanced minibatches (`pipeline._subsample_view`) holding
    min(class size, batch_per_class) members of each class, so the counts
    and weights still hold, and each pass's views are laid out.
    The classes are 0 up to the largest label of the synthetic set or any
    view. Raises ShapeMismatch when the image shape or count does not
    match, and EmptyClass when the synthetic set lacks a class, no view
    holds one, or, with per_domain (surgery needs every class in every
    domain), a view lacks one.
    """

    def __init__(self, synthetic: SyntheticSet, views, featurizer, per_domain=True,
                 batch_per_class=0):
        shape = synthetic.images.shape[1:]
        if any(view.images.shape[1:] != shape for view in views):
            raise ShapeMismatch(f"synthetic images {shape} do not match every real view")
        if len(synthetic.images) != len(synthetic.labels):
            raise ShapeMismatch(f"{len(synthetic.images)} synthetic images, "
                                f"{len(synthetic.labels)} labels")
        k = 1 + max(int(labels.max(initial=-1))
                    for labels in [synthetic.labels] + [view.labels for view in views])
        self.labels = synthetic.labels
        self.groups = [np.flatnonzero(self.labels == c) for c in range(k)]
        sizes = np.array([g.size for g in self.groups])
        if not sizes.all():
            raise EmptyClass(f"class {np.argmin(sizes)} has no synthetic samples")
        self.scale = (2.0 / sizes)[:, None]
        counts = np.array([np.bincount(view.labels, minlength=k) for view in views])
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
        self._layout, self._laid_out = featurizer.layout, None
        if not batch_per_class:
            self._laid_out = self.laid_out(views)

    def laid_out(self, views):
        """What `featurizers.real_class_means` reads of the pass's views: the
        featurizer's `layout` of each view that holds a class, from its
        images and each held class's members. With fixed views the plan's
        own, laid out once."""
        if self._laid_out is not None:
            return self._laid_out
        return [self._layout(view.images, [np.flatnonzero(view.labels == c)
                                           for c in np.flatnonzero(held)])
                for view, held in zip(views, self.held) if held.any()]


def class_feature_mean(view, psi):
    """(class_count, F) mean features of every class in the view, from one
    featurization (`mean_features`). Classes the view lacks get NaN rows.
    Cached on the view for psi. The matching pass does not call it (it
    reads a `MatchingPlan`); perfbench's tracer wraps this name."""
    def compute():
        held = [c for c, idx in view.by_class().items() if idx.size]
        means = np.full((view.class_count, psi.feature_dim), np.nan)
        if held:
            means[held] = mean_features(psi, view.images, [view.by_class()[c] for c in held])
        return means
    return view.cached_feature_mean(psi, compute)


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
    """
    mu_syn, pullback = psi.class_features(synthetic.images, plan.groups)
    if real_means is None:
        real_means = real_class_means(psi.weights, plan.laid_out(domain_views))
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
    per_domain), or None for a one-off one; when it holds fixed views laid
    out, domain_views may be None.
    """
    if plan is None:
        plan = MatchingPlan(synthetic, domain_views, psi, per_domain)
    deltas, losses, pullback = _class_deltas(plan, synthetic, domain_views, psi, real_means)
    rows = len(plan.held) + 1 if per_domain else 1
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
