"""The end-to-end distillation loop.

Iteration t draws its featurizer and, when batch_per_class > 0, class-balanced
minibatches of the real domain views from streams keyed by t
(`_iteration_inputs`, shared with the surgery snapshot). Where the featurizer
pool has more than one lane, the loop keeps the weight draws of iterations t
... t + DRAW_DEPTH - 1 queued on it (`featurizers.draw_ahead`) while iteration
t runs. When iteration t's draw has not finished, the loop thread does not
wait: it takes back the furthest queued draw that no lane has started and
draws it itself, until t's is done or none is left. With one lane, and in the
snapshot, the calling thread draws each featurizer when it is needed. Every
draw reads only its own stream, so the outputs are the same bytes whichever
thread drew them, and no draw outlives the call. One matching pass gives the
pooled and per-domain gradients of every class (one featurization per real
view, one synthetic forward and one pullback, see `dm.matching_rows`), and the
distinct gradient rows and each sample's row index go straight to the surgery
kernel, which transforms each distinct per-domain stack once (under the linear
featurizer, once per class, see `surgery.batch_surgery_updates`) and applies
the three-signal step with each sample's assigned domain. At lambda_c =
lambda_d = 0 (plain matching) the pass pulls back only the pooled covectors
(bitwise the gradient surgery starts from), the step is
`DistillConfig.base_scale` (1, or 0 without use_base) times them, and one
source domain or a domain missing a class (NaN loss) is let through. The
synthetic set (images, labels, domain assignments, init provenance and
iteration counter) is the whole loop state, and a checkpoint is one container
holding all of it; keying the streams by iteration makes a restored checkpoint
continue bit-identically to a run that never stopped.
"""

import collections
import concurrent.futures
import functools
from dataclasses import dataclass, field

import numpy as np

from . import storage
from .datasets import DataView, MultiDomainDataset, SyntheticSet
# dm_gradient is not called here; perfbench/tracer.py wraps this name.
from .dm import dm_gradient, matching_rows
from .errors import DistillError, EmptyClass, InvalidConfig, TooFewDomains
from .featurizers import (ConvFeaturizer, LinearFeaturizer, draw_ahead, gaussian_weights,
                          lane_count)
from .rng import SeededRng
from .surgery import batch_consensus_maps, batch_surgery_updates

INIT_STRATEGIES = ("noise", "random", "uniform")

# Substream labels inside a distillation run.
_STREAM_INIT = 1
_STREAM_FEATURIZER = 2
_STREAM_BATCH = 3

# Featurizer draws the loop keeps queued ahead of it where it has lanes to
# draw on; each queued linear draw holds 786 KB. On the distill-linear
# benchmark (2 CPUs, 8 s runs) depths 1, 2, 3, 4 and 6 read about 320, 425,
# 570, 598 and 602 iterations/s.
DRAW_DEPTH = 4


@dataclass(frozen=True)
class FeaturizerSpec:
    """Which fixed random featurizer the loop draws each iteration."""

    kind: str = "linear"
    dim: int = 128        # linear output size
    channels: int = 16    # conv output channels
    kernel: int = 3

    def __post_init__(self):
        if self.kind not in ("linear", "conv"):
            raise InvalidConfig(f"unknown featurizer kind {self.kind!r}")
        if self.dim < 1 or self.channels < 1 or self.kernel < 1 or self.kernel % 2 == 0:
            raise InvalidConfig("featurizer dimensions must be positive (kernel odd)")

    def draw(self, image_shape, rng):
        """Weights for images of image_shape, from a SeededRng or its numpy
        generator (`featurizers.gaussian_weights`)."""
        if self.kind == "linear":
            return gaussian_weights((self.dim, int(np.prod(image_shape))), rng)
        return gaussian_weights((self.channels, image_shape[0], self.kernel, self.kernel), rng)

    def holding(self, weights):
        """The featurizer of this kind with weights that `draw` returned."""
        return (LinearFeaturizer if self.kind == "linear" else ConvFeaturizer)(weights)


@dataclass(frozen=True)
class DistillConfig:
    ipc: int = 10
    iterations: int = 20_000
    eta: float = 1.0
    lambda_c: float = 1.0
    lambda_d: float = 1.0
    epsilon: float = 1e-8
    init: str = "uniform"
    seed: int = 0
    featurizer: FeaturizerSpec = field(default_factory=FeaturizerSpec)
    checkpoint_every: int = 0
    use_base: bool = True        # drop the pooled gradient for ablation modes
    # 0 = full-set means; >0 draws up to this many samples per (domain, class)
    # each iteration, and the pooled batch is the union of the domain batches.
    batch_per_class: int = 0

    def __post_init__(self):
        if self.ipc < 1:
            raise InvalidConfig("ipc must be positive")
        if self.iterations < 0:
            raise InvalidConfig("iterations must be non-negative")
        if self.eta <= 0:
            raise InvalidConfig("eta must be positive")
        if self.lambda_c < 0 or self.lambda_d < 0:
            raise InvalidConfig("lambda_c and lambda_d must be non-negative")
        if self.epsilon <= 0:
            raise InvalidConfig("epsilon must be positive")
        if self.init not in INIT_STRATEGIES:
            raise InvalidConfig(f"init must be one of {INIT_STRATEGIES}")
        if self.checkpoint_every < 0:
            raise InvalidConfig("checkpoint_every must be non-negative")
        if self.batch_per_class < 0:
            raise InvalidConfig("batch_per_class must be non-negative")

    @property
    def surgery(self):
        """Whether a strength is positive; at zero strengths the step is plain DM."""
        return self.lambda_c > 0 or self.lambda_d > 0

    @property
    def base_scale(self):
        """The pooled gradient's weight in the step: 1, or 0 without use_base."""
        return 1.0 if self.use_base else 0.0


def _domain_pattern(ipc, domain_count):
    """Per-class slot -> domain assignment; remainders go round-robin from 0."""
    base, rem = divmod(ipc, domain_count)
    counts = [base + (1 if d < rem else 0) for d in range(domain_count)]
    return np.repeat(np.arange(domain_count), counts).astype(np.int64)


def initialize(source: MultiDomainDataset, cfg: DistillConfig):
    """Build the starting synthetic set and its balanced domain assignments.

    Real-image strategies sample without replacement within each class (per
    domain for uniform init); random init recycles its pool only when a class
    holds fewer than ipc samples. Noise images have init uid -1.
    """
    rng, ipc, classes = SeededRng(cfg.seed), cfg.ipc, range(source.class_count)
    pattern = _domain_pattern(ipc, source.domain_count)
    labels = np.repeat(np.arange(len(classes), dtype=np.int64), ipc)
    domains = np.tile(pattern, len(classes))
    if cfg.init == "noise":
        images = [rng.substream(_STREAM_INIT, c, j).normal(size=source.image_shape)
                  for c in classes for j in range(ipc)]
        return SyntheticSet(images=np.stack(images), labels=labels, domains=domains)
    # (view, index) of each seed image. Views copy their images, so each
    # strategy builds only the ones it reads.
    picks = []
    if cfg.init == "random":
        pooled = source.train_view()
        for c in classes:
            idx = pooled.class_indices(c)
            order = rng.substream(_STREAM_INIT, c).permutation(idx.size)
            picks += [(pooled, idx[order[j % min(ipc, idx.size)]]) for j in range(ipc)]
    else:
        views = [source.train_view(domain=d) for d in range(source.domain_count)]
        counts = np.bincount(pattern, minlength=source.domain_count)
        for c in classes:
            for d in np.flatnonzero(counts):
                idx = views[d].class_indices(c)
                if idx.size < counts[d]:
                    raise EmptyClass(f"domain {d} has only {idx.size} class-{c} samples, "
                                     f"uniform init needs {counts[d]}")
                order = rng.substream(_STREAM_INIT, c, d).permutation(idx.size)
                picks += [(views[d], i) for i in idx[order[:counts[d]]]]
    return SyntheticSet(images=np.stack([view.images[i] for view, i in picks]),
                        labels=labels, domains=domains,
                        init_uids=np.array([view.uids[i] for view, i in picks], dtype=np.int64))


@dataclass
class RunResult:
    synthetic: SyntheticSet
    history: list          # (iteration, pooled loss, *per-domain losses or NaN)
    domain_count: int


def _subsample_view(view, per_class, rng):
    """Per-iteration class-balanced minibatch of a view (kept in index order).

    When per_class covers the whole class the view is returned untouched, so
    an oversized batch knob degrades exactly to full-set means.
    """
    keep = []
    untouched = True
    for c in sorted(view.by_class()):
        idx = view.by_class()[c]
        if idx.size > per_class:
            sel = rng.choice(idx.size, size=per_class, replace=False)
            keep.append(idx[np.sort(sel)])
            untouched = False
        else:
            keep.append(idx)
    if untouched:
        return view
    keep = np.concatenate(keep)
    return DataView(images=view.images[keep], labels=view.labels[keep],
                    class_count=view.class_count,
                    uids=None if view.uids is None else view.uids[keep])


def _draw_featurizer(source, cfg, rng, t):
    """Queue iteration t's featurizer weights on a lane (`featurizers.draw_ahead`)
    and return the Future; the stream is derived here, on the calling thread."""
    return draw_ahead(functools.partial(cfg.featurizer.draw, source.image_shape),
                      rng.substream(_STREAM_FEATURIZER, t))


def _featurizer_weights(source, cfg, rng, t):
    """Iteration t's featurizer weights, drawn on the calling thread through
    SeededRng: the bytes a lane draws from the same stream."""
    return cfg.featurizer.draw(source.image_shape, rng.substream(_STREAM_FEATURIZER, t))


def _take_weights(queue, draw):
    """Pop the first queued draw's weights; draw(i) draws the i-th queued
    one on the calling thread. Until the first has finished, take back the
    furthest queued draw that no lane has started (Future.cancel succeeds
    only then) and draw it here, the first one too; then wait. With nothing
    queued, draw(0)."""
    for i in reversed(range(len(queue))):
        if queue[0].done():
            break
        if queue[i].cancel():
            queue[i] = concurrent.futures.Future()
            queue[i].set_result(draw(i))
    return queue.popleft().result() if queue else draw(0)


def _iteration_inputs(source, cfg, rng, t, domain_views, weights):
    """Iteration t's featurizer, holding the weights drawn from its stream, and
    real views: the domain train views, or their class-balanced minibatches
    when batch_per_class > 0."""
    psi = cfg.featurizer.holding(weights)
    if cfg.batch_per_class == 0:
        return psi, domain_views
    return psi, [_subsample_view(view, cfg.batch_per_class, rng.substream(_STREAM_BATCH, t, s))
                 for s, view in enumerate(domain_views)]


def run_distillation(source: MultiDomainDataset, cfg: DistillConfig, initial=None,
                     checkpoint_dir=None):
    """Distill; returns the final synthetic set plus the loss history.

    Passing `initial` (e.g. a restored checkpoint) continues from its
    iteration counter; with the same config the continuation is
    bit-identical to an uninterrupted run.
    """
    s_count = source.domain_count
    if cfg.surgery and s_count < 2:
        raise TooFewDomains(
            "spectral surgery needs at least two source domains; "
            "derive pseudo-domains first for single-source data"
        )
    rng = SeededRng(cfg.seed)
    synthetic = initial.copy() if initial is not None else initialize(source, cfg)
    domain_views = [source.train_view(domain=s) for s in range(s_count)]
    history = []

    # The Futures of iterations t, t + 1, ... drawn ahead on the lanes.
    queue = collections.deque()
    depth = DRAW_DEPTH if lane_count() > 1 else 0
    try:
        for t in range(synthetic.iteration, cfg.iterations):
            while len(queue) < depth and t + len(queue) < cfg.iterations:
                queue.append(_draw_featurizer(source, cfg, rng, t + len(queue)))
            drawn = _take_weights(
                queue, lambda i: _featurizer_weights(source, cfg, rng, t + i))
            psi, real_domains = _iteration_inputs(source, cfg, rng, t, domain_views, drawn)
            rows, index, losses = matching_rows(synthetic, real_domains, psi,
                                                per_domain=cfg.surgery)
            history.append((t, *losses.tolist()))
            if cfg.surgery:
                updates = batch_surgery_updates(rows[1:], rows[0], synthetic.domains, cfg,
                                                rows=index)
            else:
                updates = cfg.base_scale * rows[0][index]
            synthetic.images = synthetic.images - cfg.eta * updates
            if not np.isfinite(history[-1][1]) or not np.all(np.isfinite(synthetic.images)):
                raise DistillError(f"non-finite state at iteration {t}")
            synthetic.iteration = t + 1
            if checkpoint_dir is not None and cfg.checkpoint_every > 0 \
                    and synthetic.iteration % cfg.checkpoint_every == 0:
                checkpoint(synthetic,
                           f"{checkpoint_dir}/checkpoint_{synthetic.iteration:06d}.dgck")
    finally:   # no draw outlives the call
        for future in queue:
            future.cancel()
        concurrent.futures.wait(queue)
    return RunResult(synthetic=synthetic, history=history, domain_count=s_count)


def surgery_snapshot(source: MultiDomainDataset, cfg: DistillConfig,
                     synthetic: SyntheticSet):
    """Per-sample resultant maps and class signals at the synthetic set's
    current state, from the inputs its next iteration would draw and the
    spectral split the training kernel runs. Feeds the optional
    offline-inspection dump. Needs at least two domains (TooFewDomains).
    """
    domain_views = [source.train_view(domain=s) for s in range(source.domain_count)]
    rng, t = SeededRng(cfg.seed), synthetic.iteration
    psi, real_domains = _iteration_inputs(source, cfg, rng, t, domain_views,
                                          _featurizer_weights(source, cfg, rng, t))
    rows, index, _ = matching_rows(synthetic, real_domains, psi)
    return batch_consensus_maps(rows[1:], cfg.epsilon, rows=index)


def checkpoint(synthetic: SyntheticSet, path):
    """Lossless f64 snapshot of the whole loop state in one atomic write."""
    storage.save_checkpoint_images(synthetic.images, synthetic.labels, synthetic.domains,
                                   synthetic.init_uids, synthetic.iteration, path)


def restore(path):
    """Rebuild the SyntheticSet a checkpoint holds, init provenance included."""
    images, labels, domains, init_uids, iteration = storage.load_checkpoint_images(path)
    return SyntheticSet(images=images, labels=labels, domains=domains,
                        iteration=iteration, init_uids=init_uids)
