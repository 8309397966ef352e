"""Distribution-matching losses and their exact pixel-space gradients.

The loss for a view of real data is the sum over classes of the squared
distance between synthetic and real per-class feature means. Means are taken
over the whole view passed in; the loop minibatches by passing class-balanced
subsets of the views (`pipeline._iteration_inputs`).

`matching_rows` yields the pooled gradient and every per-domain gradient
of every class from one pass: each view's class-mean matrix comes from one
featurization (`class_feature_mean`, cached on the view per featurizer), the
pooled real class means are the count-weighted mix of the domain means, the
synthetic class means come from one forward, and one `pullback` of the
(S + 1, classes) covectors returns distinct gradient rows plus each image's
row (one row per class under the linear featurizer). Every covector row is
pulled back on its own, so the pooled row is bitwise the same whether or not
the domain rows ride along. `dm_gradient` gathers the pooled rows to the
images; `dm_loss` stops before the pullback.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import SyntheticSet
from .errors import EmptyClass, ShapeMismatch
from .featurizers import mean_features


def class_feature_mean(view, psi):
    """(class_count, F) mean features of every class in the view, from one
    featurization: a linear map reads the stacked class pixel means, a conv
    map featurizes the view once and averages each class's rows. Classes the
    view lacks get NaN rows. Cached on the view for psi."""
    def compute():
        held = [c for c, idx in view.by_class().items() if idx.size]
        means = np.full((view.class_count, psi.feature_dim), np.nan)
        if held:
            means[held] = mean_features(
                psi, view.images, [view.by_class()[c] for c in held],
                pixel_mean=lambda: np.stack([view.class_pixel_mean(c) for c in held]))
        return means
    return view.cached_feature_mean(psi, compute)


@dataclass
class DmGradient:
    """Per-synthetic-sample pixel gradients plus the loss they descend."""

    gradients: np.ndarray  # (n, channels, h, w)
    loss: float


def _class_deltas(synthetic: SyntheticSet, domain_views, psi, per_domain):
    """Deltas (S + 1, K, F), their losses (S + 1,) and the synthetic class
    sizes (K,). deltas[0, c] is mean psi(synthetic_c) minus the pooled real
    class mean (the count-weighted mix of the views holding class c),
    deltas[1 + s, c] the same against view s. A view without class c raises
    EmptyClass when per_domain is set (surgery needs every class in every
    domain); otherwise it gets weight 0 and a NaN row, so its loss is NaN.
    """
    shape = synthetic.images.shape[1:]
    if any(view.images.shape[1:] != shape for view in domain_views):
        raise ShapeMismatch(f"synthetic images {shape} do not match every real view")
    k = synthetic.class_count
    syn_view = synthetic.as_view()
    sizes = np.array([syn_view.class_indices(c).size for c in range(k)])  # raises EmptyClass
    mu_syn = class_feature_mean(syn_view, psi)
    counts = np.array([np.bincount(view.labels, minlength=k)[:k] for view in domain_views])
    held = counts > 0
    if not held.any(axis=0).all():
        raise EmptyClass(f"class {np.argmin(held.any(axis=0))} has no real samples")
    if per_domain and not held.all():
        s, c = np.argwhere(~held)[0]
        raise EmptyClass(f"class {c} has no samples in source domain {s}; surgery needs "
                         "every class in every source (pseudo-)domain")
    mu_real = np.full((len(domain_views),) + mu_syn.shape, np.nan)
    for s, view in enumerate(domain_views):
        if held[s].any():
            means = class_feature_mean(view, psi)[:k]
            mu_real[s, :len(means)] = means
    weights = (counts / counts.sum(axis=0))[..., None]
    pooled = (weights * np.where(held[..., None], mu_real, 0.0)).sum(axis=0)
    deltas = mu_syn - np.concatenate([pooled[None], mu_real])
    return deltas, np.einsum("rkf,rkf->r", deltas, deltas), sizes


def matching_rows(synthetic: SyntheticSet, domain_views, psi, per_domain=True):
    """Gradient rows of dm_loss against the union of the views and each view.

    Returns (rows, index, losses): sample i's gradient of the pooled loss is
    rows[0, index[i]] and of view s's loss rows[1 + s, index[i]]; losses
    (S + 1,) are the pooled loss then each view's. Each member of class c
    receives the covector (2 / ipc_c) * delta_c pulled back at its own
    pixels. With per_domain=False only rows[0] is pulled back, and a view
    missing a class gets a NaN loss.
    """
    deltas, losses, sizes = _class_deltas(synthetic, domain_views, psi, per_domain)
    rows = len(domain_views) + 1 if per_domain else 1
    pulled, index = psi.pullback(synthetic.images, (2.0 / sizes)[:, None] * deltas[:rows],
                                 groups=synthetic.labels)
    return pulled, index, losses


def dm_loss(synthetic: SyntheticSet, view, psi):
    """Sum over classes of || mean psi(synthetic_c) - mean psi(real_c) ||^2."""
    return float(_class_deltas(synthetic, [view], psi, False)[1][0])


def dm_gradient(synthetic: SyntheticSet, view, psi):
    """Exact gradient of dm_loss with respect to every synthetic image."""
    rows, index, losses = matching_rows(synthetic, [view], psi, per_domain=False)
    return DmGradient(gradients=rows[0][index], loss=float(losses[0]))
