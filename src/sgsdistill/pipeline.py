"""The end-to-end distillation loop.

Each iteration draws a fresh featurizer from a stream keyed by the absolute
iteration number, computes the pooled gradient and the per-domain gradients
in one matching pass (each real domain featurized once, see
`dm.matching_gradients`), runs the spectral consensus decomposition per
synthetic sample (once per run of identical samples, see
`surgery.batch_surgery_updates`), and applies the three-signal step with
that sample's assigned domain. Plain matching (`algorithm="dm"`) pulls back only the
pooled covectors (bitwise the gradient surgery starts from) and lets a domain
missing a class through with a NaN loss. Keying the stream by iteration
makes a restored checkpoint continue bit-identically to a run that never
stopped.
"""

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import storage
from .datasets import DataView, MultiDomainDataset, SyntheticSet
# dm_gradient is not called here; perfbench/tracer.py wraps this name.
from .dm import dm_gradient, matching_gradients
from .errors import DistillError, EmptyClass, InvalidConfig, IoError, TooFewDomains
from .featurizers import ConvFeaturizer, LinearFeaturizer
from .rng import SeededRng
from .surgery import SurgeryWeights, batch_consensus_maps, batch_surgery_updates

INIT_STRATEGIES = ("noise", "random", "uniform")
ALGORITHMS = ("sgs", "dm")

# Substream labels inside a distillation run.
_STREAM_INIT = 1
_STREAM_FEATURIZER = 2
_STREAM_BATCH = 3


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

    def build(self, image_shape, rng: SeededRng):
        if self.kind == "linear":
            return LinearFeaturizer.create(image_shape, self.dim, rng)
        return ConvFeaturizer.create(image_shape[0], self.channels, self.kernel, rng)


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
    algorithm: str = "sgs"
    use_base: bool = True        # drop the pooled gradient for ablation modes
    momentum: float = 0.0
    clamp: bool = False
    resample_featurizer: bool = True
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
        if self.init not in INIT_STRATEGIES:
            raise InvalidConfig(f"init must be one of {INIT_STRATEGIES}")
        if self.algorithm not in ALGORITHMS:
            raise InvalidConfig(f"algorithm must be one of {ALGORITHMS}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig("momentum must lie in [0, 1)")
        if self.batch_per_class < 0:
            raise InvalidConfig("batch_per_class must be non-negative")

    def weights(self):
        return SurgeryWeights(
            lambda_c=self.lambda_c,
            lambda_d=self.lambda_d,
            eta=self.eta,
            epsilon=self.epsilon,
            base_scale=1.0 if self.use_base else 0.0,
        )


def _domain_pattern(ipc, domain_count):
    """Per-class slot -> domain assignment; remainders go round-robin from 0."""
    base, rem = divmod(ipc, domain_count)
    counts = [base + (1 if d < rem else 0) for d in range(domain_count)]
    return np.repeat(np.arange(domain_count), counts).astype(np.int64)


def initialize(source: MultiDomainDataset, cfg: DistillConfig):
    """Build the starting synthetic set and its balanced domain assignments.

    Real-image strategies sample without replacement within each class (per
    domain for uniform init); random init recycles its pool only when a class
    holds fewer than ipc samples.
    """
    rng = SeededRng(cfg.seed)
    shape = source.image_shape
    pattern = _domain_pattern(cfg.ipc, source.domain_count)
    pooled = source.train_view()
    images, labels, domains, init_uids = [], [], [], []
    for c in range(source.class_count):
        picks, views = [None] * cfg.ipc, [None] * cfg.ipc
        if cfg.init == "random":
            idx = pooled.class_indices(c)
            order = rng.substream(_STREAM_INIT, c).permutation(idx.size)
            take = min(cfg.ipc, idx.size)
            picks = [idx[order[j % take]] for j in range(cfg.ipc)]
            views = [pooled] * cfg.ipc
        elif cfg.init == "uniform":
            picks, views = [], []
            for d in range(source.domain_count):
                count = int(np.sum(pattern == d))
                if count == 0:
                    continue
                dview = source.train_view(domain=d)
                idx = dview.class_indices(c)
                if idx.size < count:
                    raise EmptyClass(
                        f"domain {d} has only {idx.size} class-{c} samples, "
                        f"uniform init needs {count}"
                    )
                order = rng.substream(_STREAM_INIT, c, d).permutation(idx.size)
                picks.extend(idx[order[:count]])
                views.extend([dview] * count)
        for j, d in enumerate(pattern):
            if cfg.init == "noise":
                r = rng.substream(_STREAM_INIT, c, j)
                images.append(r.normal(size=shape))
                init_uids.append(-1)
            else:
                v, pick = views[j], picks[j]
                images.append(v.images[pick].copy())
                init_uids.append(int(v.uids[pick]))
            labels.append(c)
            domains.append(int(d))
    return SyntheticSet(
        images=np.stack(images),
        labels=np.array(labels, dtype=np.int64),
        domains=np.array(domains, dtype=np.int64),
        iteration=0,
        init_uids=np.array(init_uids, dtype=np.int64),
    )


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


def run_distillation(source: MultiDomainDataset, cfg: DistillConfig,
                     featurizer_stream=None, initial=None,
                     checkpoint_dir=None):
    """Distill; returns the final synthetic set plus the loss history.

    featurizer_stream(t) may override the default per-iteration draw. Passing
    `initial` (e.g. a restored checkpoint) continues from its iteration
    counter; with the same config the continuation is bit-identical to an
    uninterrupted run.
    """
    s_count = source.domain_count
    if cfg.algorithm == "sgs" and s_count < 2:
        raise TooFewDomains(
            "spectral surgery needs at least two source domains; "
            "derive pseudo-domains first for single-source data"
        )
    rng = SeededRng(cfg.seed)
    if featurizer_stream is None:
        shape = source.image_shape
        if cfg.resample_featurizer:
            featurizer_stream = lambda t: cfg.featurizer.build(
                shape, rng.substream(_STREAM_FEATURIZER, t))
        else:
            fixed = cfg.featurizer.build(shape, rng.substream(_STREAM_FEATURIZER, 0))
            featurizer_stream = lambda t: fixed

    synthetic = initial.copy() if initial is not None else initialize(source, cfg)
    domain_views = [source.train_view(domain=s) for s in range(s_count)]
    weights = cfg.weights()
    history = []
    velocity = np.zeros_like(synthetic.images) if cfg.momentum > 0 else None

    for t in range(synthetic.iteration, cfg.iterations):
        psi = featurizer_stream(t)
        real_domains = domain_views
        if cfg.batch_per_class > 0:
            real_domains = [
                _subsample_view(view, cfg.batch_per_class, rng.substream(_STREAM_BATCH, t, s))
                for s, view in enumerate(domain_views)
            ]
        pooled, per_domain = matching_gradients(synthetic, real_domains, psi,
                                                per_domain=cfg.algorithm != "dm")
        history.append((t, pooled.loss, *[d.loss for d in per_domain]))
        if cfg.algorithm == "dm":
            updates = pooled.gradients
        else:
            updates = batch_surgery_updates(
                np.stack([d.gradients for d in per_domain]),
                pooled.gradients,
                synthetic.domains,
                weights,
            )
        if velocity is None:
            synthetic.images = synthetic.images - cfg.eta * updates
        else:
            velocity = cfg.momentum * velocity + updates
            synthetic.images = synthetic.images - cfg.eta * velocity
        if cfg.clamp:
            np.clip(synthetic.images, 0.0, 1.0, out=synthetic.images)
        if not np.isfinite(history[-1][1]) or not np.all(np.isfinite(synthetic.images)):
            raise DistillError(f"non-finite state at iteration {t}")
        synthetic.iteration = t + 1
        if checkpoint_dir is not None and cfg.checkpoint_every > 0 \
                and synthetic.iteration % cfg.checkpoint_every == 0:
            checkpoint(synthetic, f"{checkpoint_dir}/checkpoint_{synthetic.iteration:06d}.dgck",
                       config=cfg)
    return RunResult(synthetic=synthetic, history=history, domain_count=s_count)


def surgery_snapshot(source: MultiDomainDataset, cfg: DistillConfig,
                     synthetic: SyntheticSet):
    """Per-sample resultant maps and class signals at the synthetic set's
    current state, using the featurizer its next iteration would draw and
    the spectral split the training kernel runs. Feeds the optional
    offline-inspection dump.
    """
    if source.domain_count < 2:
        raise TooFewDomains("surgery snapshot needs at least two domains")
    rng = SeededRng(cfg.seed)
    psi = cfg.featurizer.build(source.image_shape,
                               rng.substream(_STREAM_FEATURIZER, synthetic.iteration))
    _, per_domain = matching_gradients(
        synthetic, [source.train_view(domain=s) for s in range(source.domain_count)], psi)
    return batch_consensus_maps(np.stack([d.gradients for d in per_domain]), cfg.epsilon)


def config_to_dict(cfg: DistillConfig):
    out = asdict(cfg)
    out["featurizer"] = asdict(cfg.featurizer)
    return out


def config_from_dict(data):
    data = dict(data)
    feat = data.pop("featurizer", None)
    known = set(DistillConfig.__dataclass_fields__) - {"featurizer"}
    unknown = set(data) - known
    if unknown:
        raise InvalidConfig(f"unknown distill config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if feat is not None:
        funknown = set(feat) - set(FeaturizerSpec.__dataclass_fields__)
        if funknown:
            raise InvalidConfig(f"unknown featurizer keys: {sorted(funknown)}")
        kwargs["featurizer"] = FeaturizerSpec(**feat)
    try:
        return DistillConfig(**kwargs)
    except TypeError as exc:
        raise InvalidConfig(str(exc)) from exc


def checkpoint(synthetic: SyntheticSet, path, config: DistillConfig | None = None):
    """Lossless f64 snapshot plus a JSON sidecar with counters and config."""
    storage.save_checkpoint_images(synthetic.images, synthetic.labels,
                                   synthetic.domains, path)
    sidecar = {
        "format": "sgsdistill-checkpoint",
        "version": storage.FORMAT_VERSION,
        "iteration": int(synthetic.iteration),
        "config": config_to_dict(config) if config is not None else None,
    }
    storage.write_json(sidecar, str(path) + ".json")


def restore(path):
    """Rebuild a SyntheticSet from a checkpoint; init provenance is not kept."""
    images, labels, domains = storage.load_checkpoint_images(path)
    try:
        with open(str(path) + ".json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read checkpoint sidecar: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"corrupt checkpoint sidecar: {exc}") from exc
    if sidecar.get("format") != "sgsdistill-checkpoint":
        raise IoError("sidecar is not a checkpoint descriptor")
    if sidecar.get("version") != storage.FORMAT_VERSION:
        raise IoError(f"unsupported checkpoint version {sidecar.get('version')}")
    return SyntheticSet(
        images=images,
        labels=labels,
        domains=domains,
        iteration=int(sidecar["iteration"]),
    )
