import numpy as np
import pytest

from sgsdistill.datasets import DataView, SyntheticSet
from sgsdistill.errors import DistillError, EmptyClass, EmptySet
from sgsdistill.evaluation import (
    EvalConfig,
    EvalEntry,
    EvalReport,
    SoftmaxClassifier,
    accuracy,
    assert_protocol_isolation,
    config_distiller,
    derive_seed,
    mdg_protocol,
    real_subsample_distiller,
    sdg_protocol,
    softmax_cross_entropy,
    toy_protocol_config,
    train_classifier,
)
from sgsdistill.pipeline import DistillConfig, FeaturizerSpec
from sgsdistill.rng import SeededRng
from sgsdistill.toydata import ToySpec, generate_toy, sdg_toy_spec

from helpers import central_fd_grid, fd_relative_error

SMALL_TOY = ToySpec(train_per_cell=12, test_per_cell=6, class_count=3)
FAST_EVAL = EvalConfig(runs=2, epochs=150, lr=0.05, base_seed=3)


def view_of(images, labels, class_count):
    return DataView(images=np.asarray(images, dtype=np.float64),
                    labels=np.asarray(labels, dtype=np.int64), class_count=class_count)


@pytest.fixture(scope="module")
def toy():
    return generate_toy(SMALL_TOY, seed=0)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = SeededRng(0)
    images = rng.substream(0).normal(size=(6, 1, 3, 3))
    labels = np.array([0, 1, 2, 0, 1, 2])
    weight = rng.substream(1).normal(size=(3, 9)) * 0.3
    bias = rng.substream(2).normal(size=3) * 0.1

    loss, grad_w, grad_b = softmax_cross_entropy(weight, bias, images, labels)

    fd_w = central_fd_grid(
        lambda w: softmax_cross_entropy(w, bias, images, labels)[0], weight)
    assert fd_relative_error(grad_w, fd_w) < 1e-5
    fd_b = central_fd_grid(
        lambda b: softmax_cross_entropy(weight, b, images, labels)[0], bias)
    assert fd_relative_error(grad_b, fd_b) < 1e-5


def test_linearly_separable_data_reaches_full_accuracy():
    rng = SeededRng(1)
    a = rng.substream(0).normal(size=(20, 1, 1, 2)) * 0.3 + np.array([3.0, 0.0]).reshape(1, 1, 1, 2)
    b = rng.substream(1).normal(size=(20, 1, 1, 2)) * 0.3 - np.array([3.0, 0.0]).reshape(1, 1, 1, 2)
    view = view_of(np.concatenate([a, b]), [0] * 20 + [1] * 20, 2)
    clf = train_classifier(view, epochs=500, lr=0.1)
    assert accuracy(clf, view) == 1.0


def test_zero_epochs_is_zero_classifier():
    view = view_of(np.ones((2, 1, 2, 2)), [0, 1], 2)
    clf = train_classifier(view, epochs=0, lr=0.1)
    assert clf.loss_history == []
    assert not clf.weight.any() and not clf.bias.any()


def test_loss_monotone_at_small_lr(toy):
    view = toy.train_view(domain=0)
    clf = train_classifier(view, epochs=120, lr=0.01)
    assert np.all(np.diff(clf.loss_history) <= 1e-12)


def test_training_requires_every_class():
    view = view_of(np.zeros((2, 1, 2, 2)), [0, 0], 2)
    with pytest.raises(EmptyClass):
        train_classifier(view, epochs=1, lr=0.1)


def test_zero_classifier_scores_chance_on_balanced_set():
    # All logits zero: argmax picks class 0 everywhere, balance forces 1/C.
    view = view_of(SeededRng(2).normal(size=(12, 1, 2, 2)), [0, 1, 2] * 4, 3)
    clf = SoftmaxClassifier(weight=np.zeros((3, 4)), bias=np.zeros(3))
    assert accuracy(clf, view) == pytest.approx(1.0 / 3.0)


def test_memorizer_scores_one_on_its_training_set(toy):
    view = toy.train_view(domain=1)
    clf = train_classifier(view, epochs=600, lr=0.1)
    assert accuracy(clf, view) > 0.99


def test_hand_built_three_sample_case():
    # logits = x @ W.T: sample scores are (1,0), (0,1), (1,2); true labels
    # 0, 0, 1 -> predictions 0, 1, 1 -> two of three correct.
    clf = SoftmaxClassifier(weight=np.array([[1.0, 0.0], [0.0, 1.0]]), bias=np.zeros(2))
    images = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]]).reshape(3, 1, 1, 2)
    view = view_of(images, [0, 0, 1], 2)
    assert accuracy(clf, view) == pytest.approx(2.0 / 3.0)


def test_accuracy_rejects_empty_view():
    clf = SoftmaxClassifier(weight=np.zeros((2, 4)), bias=np.zeros(2))
    with pytest.raises(EmptySet):
        accuracy(clf, view_of(np.zeros((0, 1, 2, 2)), [], 2))


def test_report_averages_are_arithmetic_means():
    report = EvalReport(protocol="MDG", entries=[
        EvalEntry(0, 1, 0.5), EvalEntry(0, 2, 0.7), EvalEntry(1, 1, 0.1),
    ])
    assert report.mean() == pytest.approx((0.5 + 0.7 + 0.1) / 3, abs=1e-12)
    assert report.target_mean(0) == pytest.approx(0.6, abs=1e-12)


def test_mdg_report_shape(toy):
    out = mdg_protocol(toy, real_subsample_distiller(4), FAST_EVAL)
    assert out.ood.targets() == [0, 1, 2, 3]
    assert len(out.ood.entries) == 4 * FAST_EVAL.runs
    assert len(out.in_distribution.entries) == 4 * FAST_EVAL.runs
    assert out.ood.protocol == "MDG"
    assert out.in_distribution.protocol == "ID"


def test_identity_distillation_beats_chance(toy):
    eval_cfg = EvalConfig(runs=5, epochs=150, lr=0.05, base_seed=3)
    out = mdg_protocol(toy, real_subsample_distiller(4), eval_cfg)
    assert out.ood.mean() > 1.0 / toy.class_count


def test_matched_seed_streams_across_methods(toy):
    # Identical (base_seed, target, run) cells must see identical seeds no
    # matter which distillation configuration consumes them.
    seeds = {}
    def recording(tag, inner):
        def fn(source, seed):
            seeds.setdefault(tag, []).append(seed)
            return inner(source, seed)
        return fn
    base = real_subsample_distiller(3)
    mdg_protocol(toy, recording("a", base), FAST_EVAL)
    mdg_protocol(toy, recording("b", base), FAST_EVAL)
    assert seeds["a"] == seeds["b"]
    assert derive_seed(3, 1, 0) == derive_seed(3, 1, 0)
    assert derive_seed(3, 1, 0) != derive_seed(3, 1, 1)


def test_protocol_isolation_detects_leaks(toy):
    source = toy.without_domain(0)
    assert_protocol_isolation(toy, source, None, 0)  # clean
    with pytest.raises(DistillError):
        assert_protocol_isolation(toy, toy, None, 0)  # target still present
    synthetic = SyntheticSet(
        images=np.zeros((1, 3, 16, 16)),
        labels=np.array([0]),
        domains=np.array([0]),
        init_uids=np.array([int(toy.uids[toy.domains == 0][0])]),
    )
    with pytest.raises(DistillError):
        assert_protocol_isolation(toy, source, synthetic, 0)


def test_mdg_sources_never_contain_target(toy):
    seen = []
    def spy(source, seed):
        seen.append(np.unique(source.domains).tolist())
        return real_subsample_distiller(3)(source, seed)
    mdg_protocol(toy, spy, FAST_EVAL)
    for domains in seen:
        assert len(domains) == toy.domain_count - 1


def test_sdg_report_shape_and_k_sweep():
    ds = generate_toy(sdg_toy_spec(train_per_cell=12, test_per_cell=6, class_count=3), seed=1)
    cfg = DistillConfig(ipc=4, iterations=5, init="noise",
                        featurizer=FeaturizerSpec(kind="linear", dim=32))
    for k in [2, 3, 4]:
        report, model = sdg_protocol(ds, 0, k, config_distiller(cfg), FAST_EVAL)
        assert report.targets() == [1, 2, 3]
        assert len(report.entries) == 3 * FAST_EVAL.runs
        assert model.k == k
        assert report.protocol == "SDG"


def test_more_pseudo_domains_help_up_to_the_true_count():
    # Directional only: matching the true hidden style count should not score
    # below the coarsest split. Settings verified then frozen.
    ds = generate_toy(sdg_toy_spec(train_per_cell=40, test_per_cell=20), seed=1)
    cfg = toy_protocol_config(lambda_c=1.0, lambda_d=1.0, iterations=100)
    eval_cfg = EvalConfig(runs=3, epochs=300, lr=0.05, base_seed=5)
    means = {}
    for k in [2, 4]:
        report, _ = sdg_protocol(ds, 0, k, config_distiller(cfg), eval_cfg)
        means[k] = report.mean()
    assert means[4] >= means[2]
