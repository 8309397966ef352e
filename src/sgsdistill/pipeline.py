"""The end-to-end distillation loop.

Iteration t's inputs (`_Inputs`, shared with the surgery snapshot) depend on t
and never on the synthetic set: the featurizer drawn from a stream keyed by t;
the real views, which are the domain train views or, when batch_per_class > 0,
class-balanced minibatches of them drawn from streams keyed by t; and each
real view's class-mean features (`featurizers.real_class_means`). Where
`featurizers.lane_count()` is above 1, the loop keeps the inputs of
iterations t ... t + DRAW_DEPTH - 1 queued on the featurizer pool's lanes
while iteration t runs: the loop thread draws an item's views when it
queues it, and a lane draws its weights and, under conv, computes its real
means (`featurizers.run_ahead`); under linear the loop thread computes them
when it takes the item. When iteration t's item has not
finished, the loop thread does not wait: it takes back the furthest queued
item that no lane has started and computes it itself, until t's is done or
none is left. Otherwise, and in the snapshot, the calling thread computes
each item when it is needed. An item reads only its own streams and views,
and each image's features are their own gemm, so the outputs are the same
bytes whichever thread computed it, and no item outlives the call.

What no iteration changes is derived once per run: the run's
`dm.MatchingPlan` (the synthetic class members and covector scales, each
real view's class counts, held classes and mixing weights, the input
checks, and, with fixed views, each view as the featurizer's `layout` gives
it) when it starts and, under surgery, each sample's distinct (gradient
row, assigned domain) pair (`surgery.surgery_pairs`) from the first pass.
Each iteration then runs only what depends on its draw or on the synthetic
pixels: one matching pass gives the pooled and per-domain gradients of
every class (the real class means, the synthetic class means and one
pullback, see `dm.matching_rows`), and the
distinct gradient rows go straight to the surgery kernel, which transforms
each distinct per-domain stack once, on the half plane (under the linear
featurizer, once per class, see `surgery.batch_surgery_updates`), and
applies the three-signal step to each pair. Both keep the shapes and
operand order of deriving everything each iteration, so the outputs are the
same bytes. At lambda_c =
lambda_d = 0 (plain matching) the pass pulls back only the pooled covectors
(bitwise the gradient surgery starts from), the step is
`DistillConfig.base_scale` (1, or 0 without use_base) times them, and one
source domain or a domain missing a class (NaN loss) is let through. The
synthetic set (images, labels, domain assignments, init provenance and
iteration counter) is the whole loop state, and a checkpoint is one container
holding all of it; keying the streams by iteration makes a restored checkpoint
continue bit-identically to a run that never stopped. A run refuses a set
that `initialize` could not have built under its config.
"""

import collections
import concurrent.futures
import functools
from dataclasses import dataclass, field

import numpy as np

from . import storage
from .datasets import DataView, MultiDomainDataset, SyntheticSet
# dm_gradient is not called here; perfbench/tracer.py wraps this name.
from .dm import MatchingPlan, dm_gradient, matching_rows
from .errors import DistillError, EmptyClass, InvalidConfig, TooFewDomains
from .featurizers import (ConvFeaturizer, LinearFeaturizer, _group_means, gaussian_weights,
                          lane_count, padded_layout, real_class_means, run_ahead)
from .rng import SeededRng
from .surgery import batch_consensus_maps, batch_surgery_updates, surgery_pairs

INIT_STRATEGIES = ("noise", "random", "uniform")

# Substream labels inside a distillation run.
_STREAM_INIT = 1
_STREAM_FEATURIZER = 2
_STREAM_BATCH = 3

# Iterations whose inputs the loop keeps queued ahead of it where it has
# lanes to compute them on: each item holds its featurizer weights (786 KB
# for a linear draw) and, under conv, its real views' class means. When only
# weight draws were queued, depths 1, 2, 3, 4 and 6 read about 320, 425, 570,
# 598 and 602 iterations/s on the distill-linear benchmark (2 CPUs, 8 s runs).
DRAW_DEPTH = 4

_KINDS = {"linear": LinearFeaturizer, "conv": ConvFeaturizer}


@dataclass(frozen=True)
class FeaturizerSpec:
    """Which fixed random featurizer the loop draws each iteration."""

    kind: str = "linear"
    dim: int = 128        # linear output size
    channels: int = 16    # conv output channels
    kernel: int = 3

    def __post_init__(self):
        if self.kind not in _KINDS:
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
        return _KINDS[self.kind](weights)

    def layout(self, images, groups):
        """What `featurizers.real_class_means` reads of real images and
        their class member groups under this kind, as its featurizer's
        `layout` gives it, for the run's `dm.MatchingPlan`."""
        if self.kind == "linear":
            return _group_means(images, groups)
        return padded_layout(images, self.kernel), groups


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


class _Inputs:
    """Iteration t's inputs, one item of the loop's queue. Made on the calling
    thread, which draws the real views (through SeededRng) and has the run's
    MatchingPlan lay them out; with fixed views there is nothing to draw
    (domain_views and `views` are None) and the plan's own layout serves.
    `compute(rng)` then gives the featurizer weights drawn from rng and,
    under conv, each real view's class-mean features under them
    (`real_class_means`; else None, and `inputs` computes them). compute
    calls numpy only, so with ahead a lane runs it on the stream's numpy
    generator; otherwise, or when taken back, it runs here through
    SeededRng."""

    def __init__(self, source, cfg, rng, t, domain_views, plan, ahead=False):
        self.spec, self.stream = cfg.featurizer, rng.substream(_STREAM_FEATURIZER, t)
        self.views = None if cfg.batch_per_class == 0 else [
            _subsample_view(view, cfg.batch_per_class, rng.substream(_STREAM_BATCH, t, s))
            for s, view in enumerate(domain_views)]
        self.draw = functools.partial(self.spec.draw, source.image_shape)
        self.real = plan.laid_out(self.views)
        # The linear real pass, one small gemm per view, runs on the loop
        # thread: the lane's weight draw already bounds the linear loop, and
        # with the pass there too distill-linear ran slower in 6 of 6
        # alternating 12 s pairs (2 CPUs, medians 588 against 658
        # iterations/s).
        self.real_on_lane = self.spec.kind == "conv"
        if ahead:
            self.future = run_ahead(self.compute, self.stream.generator)
        else:
            self._compute_here()

    def compute(self, rng):
        weights = self.draw(rng)
        return weights, real_class_means(weights, self.real) if self.real_on_lane else None

    def _compute_here(self):
        result = self.compute(self.stream)
        self.future = concurrent.futures.Future()
        self.future.set_result(result)

    def take_back(self):
        """Compute the item here, through SeededRng, unless a lane has started it."""
        if self.future.cancel():
            self._compute_here()

    def inputs(self):
        """(featurizer, real views or None, their class means), once computed."""
        weights, means = self.future.result()
        if means is None:
            means = real_class_means(weights, self.real)
        return self.spec.holding(weights), self.views, means


def _take(queue):
    """The first queued item's inputs, popped. Until it has been computed,
    take back the furthest queued item that no lane has started and compute
    it here, the first one too; then wait."""
    for item in reversed(queue):
        if queue[0].future.done():
            break
        item.take_back()
    return queue.popleft().inputs()


def _plan(source, cfg, synthetic, per_domain):
    """The MatchingPlan of a run of cfg on source from synthetic, and the
    source's domain train views that each iteration draws its minibatches
    from. With fixed views (batch_per_class 0) the plan holds what the
    matching pass reads of them, so no view is returned (None) and their
    images are freed here. The set must be one initialize(source, cfg)
    could have built, stepped or not: ipc images per class in class order,
    domains in _domain_pattern's balanced order (InvalidConfig otherwise; a
    set built under another ipc would continue as a different run), and the
    source's image shape (ShapeMismatch otherwise)."""
    k, pattern = source.class_count, _domain_pattern(cfg.ipc, source.domain_count)
    if not np.array_equal(synthetic.labels, np.repeat(np.arange(k), cfg.ipc)):
        raise InvalidConfig(f"the synthetic set does not hold ipc={cfg.ipc} images of each "
                            f"of the source's {k} classes in class order")
    if not np.array_equal(synthetic.domains, np.tile(pattern, k)):
        raise InvalidConfig(f"the synthetic set's domains are not the balanced assignment of "
                            f"ipc={cfg.ipc} over {source.domain_count} source domains")
    views = [source.train_view(domain=s) for s in range(source.domain_count)]
    plan = MatchingPlan(synthetic, views, cfg.featurizer, per_domain, cfg.batch_per_class)
    return plan, views if cfg.batch_per_class else None


def run_distillation(source: MultiDomainDataset, cfg: DistillConfig, initial=None,
                     checkpoint_dir=None):
    """Distill; returns the final synthetic set plus the loss history.

    Passing `initial` (e.g. a restored checkpoint) continues from its
    iteration counter; with the same config the continuation is
    bit-identical to an uninterrupted run. What the matching and surgery
    passes read that no iteration changes is derived once: the run's
    MatchingPlan when it starts, and under surgery each sample's distinct
    (row, assigned domain) pair (`surgery.surgery_pairs`) from the first
    pass's gradient row index.
    """
    s_count = source.domain_count
    if cfg.surgery and s_count < 2:
        raise TooFewDomains(
            "spectral surgery needs at least two source domains; "
            "derive pseudo-domains first for single-source data"
        )
    rng = SeededRng(cfg.seed)
    synthetic = initial.copy() if initial is not None else initialize(source, cfg)
    plan, domain_views = _plan(source, cfg, synthetic, cfg.surgery)
    pairs, history = None, []

    # The inputs of iterations t, t + 1, ..., computed ahead on the lanes.
    queue = collections.deque()
    ahead = lane_count() > 1
    try:
        for t in range(synthetic.iteration, cfg.iterations):
            while len(queue) < (DRAW_DEPTH if ahead else 1) and t + len(queue) < cfg.iterations:
                queue.append(_Inputs(source, cfg, rng, t + len(queue), domain_views, plan, ahead))
            psi, real_domains, real_means = _take(queue)
            rows, index, losses = matching_rows(synthetic, real_domains, psi,
                                                per_domain=cfg.surgery, real_means=real_means,
                                                plan=plan)
            history.append((t, *losses.tolist()))
            if cfg.surgery:
                pairs = pairs or surgery_pairs(index, synthetic.domains, s_count)
                updates = batch_surgery_updates(rows[1:], rows[0], synthetic.domains, cfg,
                                                rows=index, pairs=pairs)
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
    finally:   # no item outlives the call; a cancelled one never starts
        concurrent.futures.wait([item.future for item in queue if not item.future.cancel()])
    return RunResult(synthetic=synthetic, history=history, domain_count=s_count)


def surgery_snapshot(source: MultiDomainDataset, cfg: DistillConfig,
                     synthetic: SyntheticSet):
    """Per-sample resultant maps and class signals at the synthetic set's
    current state, from the inputs its next iteration would draw and the
    spectral split the training kernel runs. Feeds the optional
    offline-inspection dump. Needs at least two domains (TooFewDomains).
    """
    plan, domain_views = _plan(source, cfg, synthetic, True)
    psi, real_domains, real_means = _Inputs(source, cfg, SeededRng(cfg.seed), synthetic.iteration,
                                            domain_views, plan).inputs()
    rows, index, _ = matching_rows(synthetic, real_domains, psi, real_means=real_means,
                                   plan=plan)
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
