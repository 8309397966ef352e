"""Distribution-matching losses and their exact pixel-space gradients.

The loss for a view of real data is the sum over classes of the squared
distance between synthetic and real per-class feature means. Means are taken
over the full view every call (no minibatching), which keeps the gradients
deterministic and testable against finite differences; callers that need
stochastic behavior can subsample the view first.

`matching_gradients` yields the pooled gradient and every per-domain gradient
from one pass: each real (domain, class) block is featurized once, the pooled
real class mean is the count-weighted mix of the domain means, and the S + 1
covectors of a class are pulled back in one `vjp_batch` call. `dm_gradient`
pulls back the pooled row only; `dm_loss` stops before the pullback.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import MultiDomainDataset, SyntheticSet
from .errors import EmptyClass, ShapeMismatch, UnknownDomain
from .featurizers import mean_features


def class_feature_mean(view, c, psi):
    """Mean feature vector of class c over all samples in the view."""
    view.class_indices(c)  # raises EmptyClass
    return view.cached_feature_mean(
        psi, c,
        lambda: mean_features(psi, lambda: view.class_images(c),
                              pixel_mean=lambda: view.class_pixel_mean(c)),
    )


@dataclass
class DmGradient:
    """Per-synthetic-sample pixel gradients plus the loss they descend."""

    gradients: np.ndarray | None  # (n, channels, h, w); None if not pulled back
    loss: float


def _class_deltas(synthetic: SyntheticSet, domain_views, psi, per_domain):
    """Per class c, yield (synthetic members, deltas): deltas[0] is mean
    psi(synthetic_c) minus the pooled real class mean (the count-weighted mix
    of the views holding class c), deltas[1 + s] the same against view s. A
    view without class c raises EmptyClass when per_domain is set; otherwise
    it gets weight 0 and a NaN row.
    """
    shape = synthetic.images.shape[1:]
    if any(view.images.shape[1:] != shape for view in domain_views):
        raise ShapeMismatch(f"synthetic images {shape} do not match every real view")
    syn_view = synthetic.as_view()
    for c in range(synthetic.class_count):
        mu_syn = class_feature_mean(syn_view, c, psi)  # raises EmptyClass
        counts = np.array([len(v.by_class().get(c, ())) for v in domain_views])
        if not counts.any():
            raise EmptyClass(f"class {c} has no real samples")
        mu_real = np.stack([class_feature_mean(v, c, psi) if per_domain or n
                            else np.full_like(mu_syn, np.nan)
                            for v, n in zip(domain_views, counts)])
        held = counts > 0
        pooled = (counts[held] / counts.sum()) @ mu_real[held]
        yield syn_view.class_indices(c), mu_syn - np.vstack([pooled, mu_real])


def matching_gradients(synthetic: SyntheticSet, domain_views, psi, per_domain=True):
    """Exact gradients of dm_loss against the union of the views and each view.

    Returns (pooled, per_domain) DmGradients. Each member of class c receives
    the covector (2 / ipc_c) * delta_c pulled back at its own pixels. With
    per_domain=False only the pooled row is pulled back; the per-view entries
    carry losses (NaN for a view missing a class) and no gradients.
    """
    rows = len(domain_views) + 1 if per_domain else 1
    grads = np.zeros((rows,) + synthetic.images.shape)
    losses = np.zeros(len(domain_views) + 1)
    for members, deltas in _class_deltas(synthetic, domain_views, psi, per_domain):
        losses += [float(d @ d) for d in deltas]
        grads[:, members] = psi.vjp_batch(synthetic.images[members],
                                          (2.0 / members.size) * deltas[:rows])
    pooled = DmGradient(gradients=grads[0], loss=float(losses[0]))
    return pooled, [DmGradient(gradients=grads[1 + s] if per_domain else None, loss=float(l))
                    for s, l in enumerate(losses[1:])]


def dm_loss(synthetic: SyntheticSet, view, psi):
    """Sum over classes of || mean psi(synthetic_c) - mean psi(real_c) ||^2."""
    return sum(float(d[0] @ d[0]) for _, d in _class_deltas(synthetic, [view], psi, False))


def dm_gradient(synthetic: SyntheticSet, view, psi):
    """Exact gradient of dm_loss with respect to every synthetic image."""
    return matching_gradients(synthetic, [view], psi, per_domain=False)[0]


def domain_gradient(synthetic: SyntheticSet, source: MultiDomainDataset, s, psi):
    """dm_gradient with the real side restricted to source domain s."""
    if not 0 <= int(s) < source.domain_count:
        raise UnknownDomain(f"domain {s} not in 0..{source.domain_count - 1}")
    return dm_gradient(synthetic, source.train_view(domain=int(s)), psi)
