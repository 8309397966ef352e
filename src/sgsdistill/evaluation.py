"""Downstream evaluation: train a classifier from scratch on a distilled set,
then measure top-1 accuracy on held-out targets.

The downstream model is multinomial logistic regression on flattened pixels
(full-batch gradient descent on cross-entropy), so training is convex,
deterministic, and finite-difference checkable. Protocols report relative
comparisons between distillation configurations, not absolute benchmark
numbers.

Leave-one-domain-out hygiene is enforced with provenance checks: the target
domain's uids must appear nowhere in the distillation source nor among the
real images that seeded the synthetic set.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import MultiDomainDataset, SyntheticSet
from .errors import DistillError, EmptyClass, EmptySet, InvalidConfig, UnknownDomain
from .pipeline import DistillConfig, FeaturizerSpec, run_distillation
from .pseudo import assign_pseudo_domains, default_style_featurizer
from .rng import SeededRng


def derive_seed(base, *keys):
    """Stable well-mixed 32-bit seed for one protocol cell."""
    return int(np.random.SeedSequence(entropy=(int(base),) + tuple(int(k) for k in keys))
               .generate_state(1)[0])


@dataclass
class SoftmaxClassifier:
    weight: np.ndarray  # (classes, pixels)
    bias: np.ndarray    # (classes,)
    loss_history: list = field(default_factory=list)

    def logits(self, images):
        flat = np.asarray(images, dtype=np.float64).reshape(len(images), -1)
        return flat @ self.weight.T + self.bias

    def predict(self, images):
        # argmax takes the first maximum, so exact ties go to the lowest class.
        return np.argmax(self.logits(images), axis=1)


def softmax_cross_entropy(weight, bias, images, labels):
    """Mean cross-entropy and its exact gradients for a flattened batch."""
    flat = images.reshape(len(images), -1)
    logits = flat @ weight.T + bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(images)
    loss = -float(np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    grad_w = delta.T @ flat / n
    grad_b = delta.sum(axis=0) / n
    return loss, grad_w, grad_b


def train_classifier(view, epochs, lr):
    """Full-batch gradient descent from a zero-initialized classifier.

    Deterministic given its inputs (nothing here is stochastic). Zero epochs
    returns the zero classifier untouched.
    """
    view.require_nonempty()
    for c in range(view.class_count):
        view.class_indices(c)  # EmptyClass when a class is unrepresented
    pixels = int(np.prod(view.images.shape[1:]))
    clf = SoftmaxClassifier(
        weight=np.zeros((view.class_count, pixels)),
        bias=np.zeros(view.class_count),
    )
    images = np.asarray(view.images, dtype=np.float64)
    labels = np.asarray(view.labels)
    for _ in range(int(epochs)):
        loss, grad_w, grad_b = softmax_cross_entropy(clf.weight, clf.bias, images, labels)
        clf.loss_history.append(loss)
        clf.weight -= lr * grad_w
        clf.bias -= lr * grad_b
    return clf


def accuracy(clf: SoftmaxClassifier, view):
    """Fraction of argmax-correct predictions on the view."""
    if len(view) == 0:
        raise EmptySet("cannot score an empty view")
    return float(np.mean(clf.predict(view.images) == view.labels))


@dataclass
class EvalEntry:
    target: int
    seed: int
    accuracy: float


@dataclass
class EvalReport:
    """Per-(target, run) accuracies under one protocol tag."""

    protocol: str  # "MDG" | "SDG" | "ID"
    entries: list

    def accuracies(self):
        return np.array([e.accuracy for e in self.entries])

    def mean(self):
        return float(self.accuracies().mean())

    def std(self):
        vals = self.accuracies()
        return float(vals.std(ddof=1)) if len(vals) > 1 else 0.0

    def targets(self):
        return sorted({e.target for e in self.entries})

    def target_mean(self, target):
        vals = [e.accuracy for e in self.entries if e.target == target]
        if not vals:
            raise EmptySet(f"no entries for target {target}")
        return float(np.mean(vals))

    def summary(self):
        return {
            "protocol": self.protocol,
            "mean": self.mean(),
            "std": self.std(),
            "per_target": {str(t): self.target_mean(t) for t in self.targets()},
            "runs": len(self.entries),
        }


@dataclass(frozen=True)
class EvalConfig:
    runs: int = 5
    epochs: int = 400
    lr: float = 0.05
    base_seed: int = 0

    def __post_init__(self):
        if self.runs < 1 or self.epochs < 0 or self.lr <= 0:
            raise InvalidConfig(f"eval needs runs >= 1, epochs >= 0 and lr > 0, got {self}")


def assert_protocol_isolation(full: MultiDomainDataset, source: MultiDomainDataset,
                              synthetic: SyntheticSet | None, target):
    """Prove the target domain leaked into neither the source nor the init."""
    target = int(target)
    forbidden = set(full.uids[full.domains == target].tolist())
    if set(source.uids.tolist()) & forbidden:
        raise DistillError(f"target domain {target} present in distillation source")
    if synthetic is not None:
        used = set(int(u) for u in synthetic.init_uids if u >= 0)
        if used & forbidden:
            raise DistillError(f"target domain {target} seeded synthetic images")


def toy_protocol_config(**overrides):
    """Calibrated distillation settings for the desk-scale toy protocols.

    Noise init is deliberate: with full-set class means, real-image inits
    start at the matching optimum and nothing separates configurations;
    from noise the distillation does real work. 150 iterations at eta 1 keep
    the domain-signal accumulation proportionate to the class signal.
    """
    base = dict(
        ipc=10,
        iterations=150,
        eta=1.0,
        init="noise",
        featurizer=FeaturizerSpec(kind="linear", dim=128),
    )
    base.update(overrides)
    return DistillConfig(**base)


def config_distiller(cfg: DistillConfig):
    """Adapt a DistillConfig into the (source, seed) -> SyntheticSet shape."""
    def distill(source, seed):
        return run_distillation(source, replace(cfg, seed=int(seed))).synthetic
    return distill


def real_subsample_distiller(ipc):
    """Identity baseline: uniform per-domain real images, no optimization."""
    cfg = DistillConfig(ipc=ipc, iterations=0, init="uniform", lambda_c=0.0, lambda_d=0.0)
    return config_distiller(cfg)


@dataclass
class MdgOutcome:
    ood: EvalReport
    in_distribution: EvalReport


def mdg_protocol(all_domains: MultiDomainDataset, distill_fn, eval_cfg: EvalConfig):
    """Leave-one-domain-out: distill on the rest, score the held-out target.

    Also reports in-distribution accuracy on held-out test splits of the
    source domains. Seeds derive from (base_seed, target, run) only, so two
    protocol runs that differ in distill_fn consume identical seed streams.
    """
    if all_domains.domain_count < 3:
        raise DistillError("leave-one-domain-out needs at least three domains")
    ood_entries, id_entries = [], []
    for target in range(all_domains.domain_count):
        source = all_domains.without_domain(target)
        assert_protocol_isolation(all_domains, source, None, target)
        target_test = all_domains.test_view(domain=target)
        source_test = source.test_view()
        for run in range(eval_cfg.runs):
            seed = derive_seed(eval_cfg.base_seed, target, run)
            synthetic = distill_fn(source, seed)
            assert_protocol_isolation(all_domains, source, synthetic, target)
            clf = train_classifier(synthetic.as_view(), eval_cfg.epochs, eval_cfg.lr)
            ood_entries.append(EvalEntry(target, seed, accuracy(clf, target_test)))
            id_entries.append(EvalEntry(target, seed, accuracy(clf, source_test)))
    return MdgOutcome(
        ood=EvalReport(protocol="MDG", entries=ood_entries),
        in_distribution=EvalReport(protocol="ID", entries=id_entries),
    )


def sdg_protocol(all_domains: MultiDomainDataset, source_domain, k, distill_fn,
                 eval_cfg: EvalConfig):
    """Single-source: cluster the source into k pseudo-domains, distill, then
    score every other domain as an unseen target. Returns the report plus the
    pseudo-domain assignment of the source's train split (for purity checks).
    """
    source_domain = int(source_domain)
    if not 0 <= source_domain < all_domains.domain_count:
        raise UnknownDomain(f"source domain {source_domain} does not exist")
    single = all_domains.only_domain(source_domain)
    style_featurizer = default_style_featurizer(
        all_domains.image_shape[0], SeededRng(derive_seed(eval_cfg.base_seed, 91)))
    pseudo_rng = SeededRng(derive_seed(eval_cfg.base_seed, 92, source_domain))
    pseudo_ds, cluster_model = assign_pseudo_domains(single, style_featurizer, k, pseudo_rng)
    targets = [d for d in range(all_domains.domain_count) if d != source_domain]
    entries = []
    for run in range(eval_cfg.runs):
        seed = derive_seed(eval_cfg.base_seed, source_domain, run)
        synthetic = distill_fn(pseudo_ds, seed)
        clf = train_classifier(synthetic.as_view(), eval_cfg.epochs, eval_cfg.lr)
        for target in targets:
            entries.append(EvalEntry(target, seed,
                                     accuracy(clf, all_domains.test_view(domain=target))))
    report = EvalReport(protocol="SDG", entries=entries)
    return report, cluster_model
