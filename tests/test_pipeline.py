import functools
import hashlib
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from sgsdistill.datasets import TRAIN, DataView
from sgsdistill.dm import dm_gradient, dm_loss
from sgsdistill.errors import (DistillError, EmptyClass, InvalidConfig, IoError, ShapeMismatch,
                               TooFewDomains)
from sgsdistill.evaluation import assert_protocol_isolation
from sgsdistill.featurizers import ConvFeaturizer, LinearFeaturizer
from sgsdistill import dm, featurizers, pipeline, storage
from sgsdistill.pipeline import (
    _STREAM_BATCH,
    _STREAM_FEATURIZER,
    DistillConfig,
    FeaturizerSpec,
    checkpoint,
    initialize,
    restore,
    run_distillation,
    surgery_snapshot,
    _Inputs,
    _subsample_view,
)
from sgsdistill.rng import SeededRng
from sgsdistill.storage import write_loss_history_csv
from sgsdistill.toydata import ToySpec, generate_toy

from helpers import (assert_balanced, assert_close_to_full_plane, make_dataset,
                     per_call_matching_rows, per_sample_consensus_maps, per_sample_surgery,
                     zero_strength_surgery_run)

SMALL_TOY = ToySpec(train_per_cell=12, test_per_cell=4, class_count=3)
FAST = dict(featurizer=FeaturizerSpec(kind="linear", dim=32))
KINDS = {"linear": FeaturizerSpec(kind="linear", dim=32),
         "conv": FeaturizerSpec(kind="conv", channels=4)}
# Surgery strengths (lambda_c, lambda_d): positive, and zero (plain DM).
STRENGTHS = pytest.mark.parametrize("strengths", [(1.0, 1.0), (0.0, 0.0)], ids=["sgs", "dm"])
ZERO = dict(lambda_c=0.0, lambda_d=0.0)


@pytest.fixture(scope="module")
def toy():
    return generate_toy(SMALL_TOY, seed=0)


def first_inputs(source, cfg, t=0):
    """Iteration t's featurizer and real views, as the loop draws them (None
    with fixed views, which the plan holds laid out)."""
    plan, views = pipeline._plan(source, cfg, initialize(source, cfg), cfg.surgery)
    return _Inputs(source, cfg, SeededRng(cfg.seed), t, views, plan).inputs()[:2]


def test_uniform_pattern_with_remainder(toy):
    cfg = DistillConfig(ipc=10, iterations=1, seed=1, **FAST)
    syn = initialize(toy, cfg)
    for c in range(3):
        counts = np.bincount(syn.domains[syn.labels == c], minlength=4)
        assert counts.tolist() == [3, 3, 2, 2]
    assert_balanced(syn, 10, 4)


def test_uniform_pattern_divisible(toy):
    cfg = DistillConfig(ipc=8, iterations=1, seed=1, **FAST)
    syn = initialize(toy, cfg)
    counts = np.bincount(syn.domains[syn.labels == 0], minlength=4)
    assert counts.tolist() == [2, 2, 2, 2]


def test_uniform_init_draws_from_assigned_domains(toy):
    cfg = DistillConfig(ipc=8, iterations=1, seed=2, **FAST)
    syn = initialize(toy, cfg)
    uid_to_domain = {int(u): int(d) for u, d in zip(toy.uids, toy.domains)}
    uid_to_split = {int(u): int(s) for u, s in zip(toy.uids, toy.splits)}
    for img_domain, uid in zip(syn.domains, syn.init_uids):
        assert uid >= 0
        assert uid_to_domain[int(uid)] == img_domain
        assert uid_to_split[int(uid)] == TRAIN
    assert len(set(syn.init_uids.tolist())) == len(syn)  # no duplicates


def test_random_init_draws_from_pool_without_duplicates(toy):
    cfg = DistillConfig(ipc=6, iterations=1, seed=3, init="random", **FAST)
    syn = initialize(toy, cfg)
    assert len(set(syn.init_uids.tolist())) == len(syn)
    uid_to_class = {int(u): int(c) for u, c in zip(toy.uids, toy.labels)}
    for label, uid in zip(syn.labels, syn.init_uids):
        assert uid_to_class[int(uid)] == label


def test_noise_init_statistics(toy):
    # Standard-normal pixels: per-image mean within 0.1 of 0 and std within
    # 0.1 of 1 at 16x16x3. Seed frozen after verifying the draw passes.
    cfg = DistillConfig(ipc=10, iterations=1, seed=12, init="noise", **FAST)
    syn = initialize(toy, cfg)
    flat = syn.images.reshape(len(syn), -1)
    assert np.abs(flat.mean(axis=1)).max() < 0.1
    assert np.abs(flat.std(axis=1) - 1.0).max() < 0.1
    assert np.all(syn.init_uids == -1)


def test_init_determinism(toy):
    cfg = DistillConfig(ipc=5, iterations=1, seed=9, **FAST)
    a = initialize(toy, cfg)
    b = initialize(toy, cfg)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.init_uids, b.init_uids)


def test_uniform_init_needs_enough_samples_per_domain():
    tiny = generate_toy(ToySpec(train_per_cell=2, test_per_cell=1, class_count=2), seed=0)
    cfg = DistillConfig(ipc=12, iterations=1, seed=0, **FAST)
    with pytest.raises(EmptyClass):
        initialize(tiny, cfg)


# sha256 of each strategy's images, labels, domains and init uids (with their
# dtypes and shapes), as the code before initialize's one-pass rewrite made them.
INIT_DIGESTS = {
    ("noise", 3, 5): "f3e2b800e9c6bb6bf998f01bfb1e568248826e3f0877aef4b6ac69b84c607b72",
    ("random", 4, 6): "b4fc60aa874ee611a70ab280ce3a611f91ffe8802262efa4d34c7932ec99ecc1",
    ("uniform", 6, 7): "6f99a460cbd6805180a5cf20b5913ba4f8f0b4de81c7b7ff295060c99179948a",
    # 50 above a class's 48 train samples: random init recycles its pool.
    ("random", 50, 8): "44fca396b55c7c1b78ba1df47b1929fee1c229621690f3c2ec20849838bf58ac",
    # 2 below the 4 domains: uniform init skips domains 2 and 3.
    ("uniform", 2, 9): "5d7de714c7b1eed11a1a3e0690acfbe3e560b4694abf106e1e5d9561f65429ca",
}


@pytest.mark.parametrize("init, ipc, seed", sorted(INIT_DIGESTS))
def test_initialize_keeps_its_bytes(toy, init, ipc, seed):
    syn = initialize(toy, DistillConfig(ipc=ipc, iterations=1, seed=seed, init=init))
    digest = hashlib.sha256()
    for array in (syn.images, syn.labels, syn.domains, syn.init_uids):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[init, ipc, seed]


def test_uniform_init_names_the_short_domain(toy):
    # 13 of each class from every domain, which holds 12.
    with pytest.raises(EmptyClass, match="^domain 0 has only 12 class-0 samples, "
                                         "uniform init needs 13$"):
        initialize(toy, DistillConfig(ipc=50, iterations=1, seed=10, init="uniform"))


def test_zero_iterations_returns_initialization(toy):
    cfg = DistillConfig(ipc=4, iterations=0, seed=4, **FAST)
    res = run_distillation(toy, cfg)
    init = initialize(toy, cfg)
    assert res.synthetic.images.tobytes() == init.images.tobytes()
    assert res.history == []


def test_single_domain_requires_dm_or_pseudo(toy):
    single = toy.only_domain(0)
    cfg = DistillConfig(ipc=4, iterations=2, seed=4, **FAST)
    for strengths in (dict(lambda_c=1.0, lambda_d=0.0), dict(lambda_c=0.0, lambda_d=0.5)):
        with pytest.raises(TooFewDomains):
            run_distillation(single, replace(cfg, **strengths))
    res = run_distillation(single, replace(cfg, **ZERO))  # plain DM: no error
    assert res.synthetic.iteration == 2 and res.domain_count == 1


def test_zero_lambda_run_matches_dm_path_bitwise(toy):
    # The pooled-only pass at zero strengths equals stepping through the
    # surgery kernel at zero strengths.
    cfg = DistillConfig(ipc=4, iterations=12, seed=5, **ZERO, **FAST)
    dm = run_distillation(toy, cfg)
    synthetic, history = zero_strength_surgery_run(toy, cfg)
    assert dm.synthetic.images.tobytes() == synthetic.images.tobytes()
    assert np.array_equal(dm.synthetic.labels, synthetic.labels)
    assert dm.history == history


@STRENGTHS
def test_loss_history_csv_rows_match_header_width(tmp_path, toy, strengths):
    lambda_c, lambda_d = strengths
    cfg = DistillConfig(ipc=4, iterations=3, seed=12, lambda_c=lambda_c, lambda_d=lambda_d,
                        **FAST)
    res = run_distillation(toy, cfg)
    path = tmp_path / "loss_history.csv"
    write_loss_history_csv(res.history, res.domain_count, path)
    header, *rows = path.read_text().splitlines()
    assert len(rows) == 3
    assert all(len(row.split(",")) == len(header.split(",")) for row in rows)


@pytest.mark.parametrize("kind", ["linear", "conv"])
def test_dm_run_survives_a_domain_missing_a_class(toy, kind):
    # Domain 1 loses every class-0 train sample, as a K-means pseudo-domain can.
    keep = ~((toy.domains == 1) & (toy.labels == 0) & (toy.splits == TRAIN))
    source = toy.subset(keep)
    spec = FeaturizerSpec(kind=kind, dim=32, channels=4)
    cfg = DistillConfig(ipc=4, iterations=2, seed=18, init="random", featurizer=spec, **ZERO)
    res = run_distillation(source, cfg)
    psi, _ = first_inputs(source, cfg)
    init = initialize(source, cfg)
    expected = dm_gradient(init, source.train_view(), psi)
    assert res.history[0][1] == pytest.approx(expected.loss, rel=1e-12)
    assert np.isnan(res.history[0][3])
    assert all(np.isfinite(res.history[0][s]) for s in (2, 4, 5))
    for strengths in (dict(lambda_c=1.0), dict(lambda_d=1.0)):
        with pytest.raises(EmptyClass, match="every class in every source"):
            run_distillation(source, replace(cfg, **strengths))


def test_noise_init_loss_decreases_over_seeds(toy):
    for seed in range(5):
        cfg = DistillConfig(ipc=4, iterations=40, seed=seed, init="noise", **FAST)
        res = run_distillation(toy, cfg)
        assert res.history[-1][1] < res.history[0][1]
        assert np.all(np.isfinite([row[1] for row in res.history]))


def test_run_is_bit_reproducible(toy):
    cfg = DistillConfig(ipc=3, iterations=8, seed=6, **FAST)
    a = run_distillation(toy, cfg)
    b = run_distillation(toy, cfg)
    assert a.synthetic.images.tobytes() == b.synthetic.images.tobytes()
    assert a.history == b.history


def test_domain_balance_preserved_through_run(toy):
    cfg = DistillConfig(ipc=10, iterations=3, seed=7, **FAST)
    res = run_distillation(toy, cfg)
    assert_balanced(res.synthetic, 10, toy.domain_count)


def test_checkpoint_round_trip(tmp_path, toy):
    cfg = DistillConfig(ipc=4, iterations=6, seed=8, **FAST)
    res = run_distillation(toy, cfg)
    path = tmp_path / "state.dgck"
    checkpoint(res.synthetic, path)
    assert [p.name for p in tmp_path.iterdir()] == ["state.dgck"]
    back = restore(path)
    assert back.images.tobytes() == res.synthetic.images.tobytes()
    assert np.array_equal(back.labels, res.synthetic.labels)
    assert np.array_equal(back.domains, res.synthetic.domains)
    assert back.iteration == res.synthetic.iteration == 6
    assert np.all(res.synthetic.init_uids >= 0)
    assert np.array_equal(back.init_uids, res.synthetic.init_uids)


def test_isolation_check_sees_provenance_through_restore(tmp_path, toy):
    # Seeded from every domain, target 0 included: the restored set must
    # still fail the isolation check, not pass it with blank provenance.
    cfg = DistillConfig(ipc=4, iterations=1, seed=8, **FAST)
    leaky = run_distillation(toy, cfg).synthetic
    checkpoint(leaky, tmp_path / "leaky.dgck")
    source = toy.without_domain(0)
    with pytest.raises(DistillError):
        assert_protocol_isolation(toy, source, restore(tmp_path / "leaky.dgck"), 0)
    clean = run_distillation(source, cfg).synthetic
    checkpoint(clean, tmp_path / "clean.dgck")
    assert_protocol_isolation(toy, source, restore(tmp_path / "clean.dgck"), 0)


def test_checkpoint_truncation_never_partial(tmp_path, toy):
    cfg = DistillConfig(ipc=3, iterations=2, seed=8, **FAST)
    res = run_distillation(toy, cfg)
    path = tmp_path / "state.dgck"
    checkpoint(res.synthetic, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(IoError):
        restore(path)


@STRENGTHS
@pytest.mark.parametrize("batch_per_class", [0, 4])
def test_a_conv_iteration_correlates_the_synthetic_set_once(monkeypatch, toy, strengths,
                                                           batch_per_class):
    # The synthetic forward hands its rectifier mask to the pullback
    # (`ConvFeaturizer.linearize`), so each iteration lays out and
    # correlates the synthetic images once. Every forward correlation reads
    # a padded layout; the real views are laid out once per run when they
    # stay the same, and each minibatch once.
    cfg = DistillConfig(ipc=3, iterations=4, seed=29, featurizer=KINDS["conv"],
                        lambda_c=strengths[0], lambda_d=strengths[1],
                        batch_per_class=batch_per_class)
    laid_out, layout = [], featurizers.padded_layout

    def counting(images, side):
        laid_out.append(len(images))
        return layout(images, side)

    monkeypatch.setattr(featurizers, "padded_layout", counting)
    monkeypatch.setattr(pipeline, "padded_layout", counting)
    res = run_distillation(toy, cfg)
    assert res.synthetic.iteration == cfg.iterations
    synthetic = [n for n in laid_out if n == len(res.synthetic.images)]
    assert sum(synthetic) == len(res.synthetic.images) * cfg.iterations
    views = toy.domain_count * (1 if batch_per_class == 0 else cfg.iterations)
    assert len(laid_out) == cfg.iterations + views


@STRENGTHS
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("batch_per_class", [0, 4])
def test_restore_and_continue_matches_uninterrupted(tmp_path, toy, batch_per_class, kind,
                                                    strengths):
    lambda_c, lambda_d = strengths
    short = DistillConfig(ipc=4, iterations=7, seed=10, featurizer=KINDS[kind], lambda_c=lambda_c,
                          lambda_d=lambda_d, batch_per_class=batch_per_class)
    full = replace(short, iterations=15)
    half = run_distillation(toy, short)
    path = tmp_path / "half.dgck"
    checkpoint(half.synthetic, path)
    resumed = run_distillation(toy, full, initial=restore(path))
    straight = run_distillation(toy, full)
    assert resumed.synthetic.images.tobytes() == straight.synthetic.images.tobytes()
    assert resumed.history == straight.history[short.iterations:]
    assert resumed.synthetic.iteration == straight.synthetic.iteration == 15
    assert np.array_equal(resumed.synthetic.init_uids, straight.synthetic.init_uids)


def test_batch_knob_runs_and_oversized_batch_equals_full_means(toy):
    base = DistillConfig(ipc=3, iterations=6, seed=15, **FAST)
    full = run_distillation(toy, base)
    oversized = run_distillation(toy, replace(base, batch_per_class=10**6))
    assert oversized.synthetic.images.tobytes() == full.synthetic.images.tobytes()
    small = run_distillation(toy, replace(base, batch_per_class=4))
    again = run_distillation(toy, replace(base, batch_per_class=4))
    assert small.synthetic.images.tobytes() == again.synthetic.images.tobytes()
    assert small.synthetic.images.tobytes() != full.synthetic.images.tobytes()


def test_pooled_batch_is_union_of_domain_batches(toy):
    # Domain 1 keeps 5 class-0 train samples, below the batch size of 8, so
    # the drawn domain batches have unequal class counts.
    cell = np.flatnonzero((toy.domains == 1) & (toy.labels == 0) & (toy.splits == TRAIN))
    keep = np.ones(len(toy), dtype=bool)
    keep[cell[:7]] = False
    source = toy.subset(keep)
    cfg = DistillConfig(ipc=4, iterations=1, seed=16, batch_per_class=8, **ZERO, **FAST)
    res = run_distillation(source, cfg)
    psi, drawn = first_inputs(source, cfg)
    rng = SeededRng(cfg.seed)
    batches = [_subsample_view(source.train_view(domain=s), 8, rng.substream(_STREAM_BATCH, 0, s))
               for s in range(source.domain_count)]
    assert [b.class_indices(0).size for b in batches] == [8, 5, 8, 8]
    assert [b.images.tobytes() for b in drawn] == [b.images.tobytes() for b in batches]
    union = DataView(images=np.concatenate([b.images for b in batches]),
                     labels=np.concatenate([b.labels for b in batches]),
                     class_count=source.class_count)
    init = initialize(source, cfg)
    expected = dm_gradient(init, union, psi)
    assert res.history[0][1] == pytest.approx(expected.loss, rel=1e-12)
    step = init.images - res.synthetic.images
    assert np.abs(step - cfg.eta * expected.gradients).max() < 1e-12 * np.abs(step).max()


@pytest.mark.parametrize("kind", ["linear", "conv"])
def test_fixed_featurizer_is_the_first_draw_and_featurizes_each_view_once(monkeypatch, toy, kind):
    spec = KINDS[kind]
    cfg = DistillConfig(ipc=3, iterations=4, seed=19, featurizer=spec)
    # Iteration t's featurizer is the stream's draw keyed by t.
    psi, views = first_inputs(toy, cfg)
    drawn = spec.draw(toy.image_shape, SeededRng(cfg.seed).substream(_STREAM_FEATURIZER, 0))
    weights = psi.weight if kind == "linear" else psi.kernels
    assert weights.tobytes() == drawn.tobytes()
    first = run_distillation(toy, replace(cfg, iterations=1))
    assert first.history[0][1] == pytest.approx(
        dm_loss(initialize(toy, cfg), toy.train_view(), psi), rel=1e-12)

    # Each iteration featurizes the synthetic set once and each real view
    # once, through `real_class_means` (under conv the loop's queued items
    # run it, on a lane or, taken back, on the loop thread) over the view as
    # the run's plan lays it out when the views stay the same: under conv
    # its padded images, under linear the stack of its class pixel means.
    # The conv synthetic forward is `linearize`, which also hands the
    # pullback its rectifier mask. The loop no longer reads the views'
    # feature-mean caches.
    featurized, cached = [], []
    entry = "features_batch" if kind == "linear" else "linearize"
    forward = getattr(type(psi), entry)
    real_class_means = pipeline.real_class_means
    cached_feature_mean = DataView.cached_feature_mean

    def counting_pass(weights, laid_out):
        featurized.extend(view if kind == "linear" else view[0] for view in laid_out)
        return real_class_means(weights, laid_out)

    monkeypatch.setattr(DataView, "cached_feature_mean", lambda view, psi, compute: (
        cached.append(view), cached_feature_mean(view, psi, compute))[1])
    monkeypatch.setattr(pipeline, "real_class_means", counting_pass)
    monkeypatch.setattr(type(psi), entry,
                        lambda self, images: featurized.append(images) or forward(self, images))
    for batch_per_class in (0, 4):
        featurized.clear()
        res = run_distillation(toy, replace(cfg, batch_per_class=batch_per_class))
        assert res.synthetic.iteration == cfg.iterations
        assert len(featurized) == (toy.domain_count + 1) * cfg.iterations
        # The list holds every input, so no two share an id. The synthetic
        # set's input is new each iteration; a real view's is the same
        # array every iteration when the views stay the same.
        distinct = len({id(images) for images in featurized})
        if batch_per_class == 0:
            assert distinct == toy.domain_count + cfg.iterations
        else:
            assert distinct == len(featurized)
    assert cached == []


@STRENGTHS
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("batch_per_class", [0, 4])
def test_plan_path_matches_a_per_call_derivation_bitwise(monkeypatch, toy, kind, batch_per_class,
                                                         strengths):
    # Every matching pass of a run (per-domain rows under surgery, the
    # pooled rows alone at zero strengths) and of the snapshot equals, byte
    # for byte, the same pass derived from scratch on its arguments. Some
    # (domain, class) cells hold fewer train samples than a minibatch takes
    # (2 and 3 < 4) or more than the others (12 against 7), so the classes'
    # mixing weights differ between domains.
    lambda_c, lambda_d = strengths
    train = toy.splits == TRAIN
    keep = np.ones(len(toy), dtype=bool)
    for d, c, drop in [(0, 1, 10), (1, 0, 5), (2, 2, 9), (3, 1, 5)]:
        keep[np.flatnonzero(train & (toy.domains == d) & (toy.labels == c))[:drop]] = False
    source = toy.subset(keep)
    cfg = DistillConfig(ipc=5, iterations=3, seed=27, featurizer=KINDS[kind], lambda_c=lambda_c,
                        lambda_d=lambda_d, batch_per_class=batch_per_class)
    matching, passes = pipeline.matching_rows, []
    # A run with fixed views passes none (its plan holds them laid out); the
    # oracle derives from the views themselves.
    fixed = [source.train_view(domain=s) for s in range(source.domain_count)]

    def checked(synthetic, views, psi, per_domain=True, **kwargs):
        got = matching(synthetic, views, psi, per_domain, **kwargs)
        want = per_call_matching_rows(synthetic, fixed if views is None else views, psi,
                                      per_domain)
        for plan_path, oracle in zip(got, want):
            assert np.asarray(plan_path).tobytes() == np.asarray(oracle).tobytes()
        passes.append(per_domain)
        return got

    monkeypatch.setattr(pipeline, "matching_rows", checked)
    res = run_distillation(source, cfg)
    surgery_snapshot(source, cfg, res.synthetic)
    assert passes == [cfg.surgery] * cfg.iterations + [True]


@STRENGTHS
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_surgery_pairs_are_derived_once_per_run(monkeypatch, tmp_path, toy, kind, strengths):
    # The pairs come from the first pass's gradient row index, which no
    # iteration changes: once per run, a continued one too, and never at
    # zero strengths (plain matching runs no surgery).
    derived, pairs_of = [], pipeline.surgery_pairs
    monkeypatch.setattr(pipeline, "surgery_pairs", lambda *args: (
        derived.append(args), pairs_of(*args))[1])
    cfg = DistillConfig(ipc=3, iterations=3, seed=30, featurizer=KINDS[kind],
                        lambda_c=strengths[0], lambda_d=strengths[1], checkpoint_every=2)
    run_distillation(toy, cfg, checkpoint_dir=tmp_path)
    calls = 1 if cfg.surgery else 0
    assert len(derived) == calls
    run_distillation(toy, replace(cfg, iterations=6),
                     initial=restore(tmp_path / "checkpoint_000002.dgck"))
    assert len(derived) == 2 * calls


@pytest.mark.parametrize("batch_per_class", [0, 4])
def test_linear_real_pixel_means_are_stacked_once_per_run(monkeypatch, toy, batch_per_class):
    # The synthetic set holds 9 images; a real view 36, a minibatch of it 12.
    # With fixed views the run's plan stacks each view's class pixel means
    # (`FeaturizerSpec.layout`) when the run starts; minibatches are new
    # views every iteration.
    cfg = DistillConfig(ipc=3, iterations=5, seed=28, batch_per_class=batch_per_class, **FAST)
    group_means, real = pipeline._group_means, []

    def counting(rows, groups):
        if len(rows) != toy.class_count * cfg.ipc:
            real.append(len(rows))
        return group_means(rows, groups)

    monkeypatch.setattr(pipeline, "_group_means", counting)
    run_distillation(toy, cfg)
    passes = 1 if batch_per_class == 0 else cfg.iterations
    assert real == [36 if batch_per_class == 0 else 12] * toy.domain_count * passes


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_fixed_view_run_frees_its_views_once_the_plan_is_built(monkeypatch, toy, kind):
    # With fixed views the plan holds what every pass reads of them (the
    # class pixel means under linear, the padded layout under conv), so no
    # reference to a view's images outlives the plan's construction. A
    # minibatch run keeps its views to draw from.
    make_plan, held, alive = pipeline.MatchingPlan, [], []
    matching = pipeline.matching_rows

    def planning(synthetic, views, *args):
        held.extend(weakref.ref(view.images) for view in views)
        return make_plan(synthetic, views, *args)

    def counting(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in held))
        return matching(*args, **kwargs)

    monkeypatch.setattr(pipeline, "MatchingPlan", planning)
    monkeypatch.setattr(pipeline, "matching_rows", counting)
    for batch_per_class in (0, 4):
        held.clear()
        alive.clear()
        cfg = DistillConfig(ipc=3, iterations=3, seed=31, featurizer=KINDS[kind],
                            batch_per_class=batch_per_class)
        run_distillation(toy, cfg)
        assert len(held) == toy.domain_count
        assert alive == [toy.domain_count if batch_per_class else 0] * cfg.iterations


def continued_set(synthetic, case):
    """A copy of synthetic that a run of another config would continue."""
    bad = synthetic.copy()
    if case == "ipc":
        pass   # continued under ipc 3
    elif case == "class order":
        bad.labels = bad.labels[::-1].copy()
    elif case == "domains":
        bad.domains[bad.labels == 0] = 0
    else:
        bad.images = bad.images[..., :-1]
    return bad


@pytest.mark.parametrize("case, error", [("ipc", InvalidConfig), ("class order", InvalidConfig),
                                         ("domains", InvalidConfig), ("shape", ShapeMismatch)])
def test_a_run_refuses_to_continue_a_set_its_config_would_not_build(tmp_path, toy, case, error):
    cfg = DistillConfig(ipc=5, iterations=2, seed=29, **FAST)
    checkpoint(run_distillation(toy, cfg).synthetic, tmp_path / "half.dgck")
    restored = restore(tmp_path / "half.dgck")
    resumed = replace(cfg, iterations=4, ipc=3 if case == "ipc" else cfg.ipc)
    with pytest.raises(error):
        run_distillation(toy, resumed, initial=continued_set(restored, case))
    with pytest.raises(error):
        surgery_snapshot(toy, resumed, continued_set(restored, case))
    assert run_distillation(toy, replace(cfg, iterations=4), initial=restored).synthetic.iteration == 4


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("batch_per_class", [0, 4])
def test_surgery_snapshot_matches_the_next_iterations_kernel_input(monkeypatch, toy, kind,
                                                                    batch_per_class):
    cfg = DistillConfig(ipc=5, iterations=2, seed=17, featurizer=KINDS[kind],
                        batch_per_class=batch_per_class)
    synthetic = run_distillation(toy, cfg).synthetic
    maps = surgery_snapshot(toy, cfg, synthetic)
    inputs = []
    kernel = pipeline.batch_surgery_updates

    def spy(domain_gradients, base, assigned, w, rows=None, pairs=None):
        inputs.append((domain_gradients, rows))
        return kernel(domain_gradients, base, assigned, w, rows=rows, pairs=pairs)

    monkeypatch.setattr(pipeline, "batch_surgery_updates", spy)
    run_distillation(toy, replace(cfg, iterations=3), initial=synthetic)
    assert len(inputs) == 1
    want = pipeline.batch_consensus_maps(inputs[0][0], cfg.epsilon, rows=inputs[0][1])
    for got, expected in zip(maps, want):
        assert got.shape == synthetic.images.shape
        assert got.tobytes() == expected.tobytes()


def test_config_validation():
    with pytest.raises(InvalidConfig):
        DistillConfig(ipc=0)
    with pytest.raises(InvalidConfig):
        DistillConfig(init="fancy")
    for bad in [dict(lambda_c=-1.0), dict(lambda_d=-0.5), dict(epsilon=0.0),
                dict(epsilon=-1e-8), dict(checkpoint_every=-5)]:
        with pytest.raises(InvalidConfig):
            DistillConfig(**bad)
    with pytest.raises(InvalidConfig):
        FeaturizerSpec(kind="mlp")


def test_ablation_modes_run(toy):
    # Table-style signal ablations are pure configuration.
    for kw in [
        dict(use_base=True, lambda_c=0.0, lambda_d=0.0),
        dict(use_base=False, lambda_c=1.0, lambda_d=0.0),
        dict(use_base=False, lambda_c=0.0, lambda_d=1.0),
        dict(use_base=False, lambda_c=1.0, lambda_d=1.0),
        dict(use_base=True, lambda_c=1.0, lambda_d=1.0),
    ]:
        cfg = DistillConfig(ipc=3, iterations=2, seed=13, **kw, **FAST)
        res = run_distillation(toy, cfg)
        assert np.all(np.isfinite(res.synthetic.images))


def test_periodic_checkpointing(tmp_path, toy):
    cfg = DistillConfig(ipc=3, iterations=6, seed=14, checkpoint_every=2, **FAST)
    res = run_distillation(toy, cfg, checkpoint_dir=str(tmp_path))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["checkpoint_000002.dgck", "checkpoint_000004.dgck",
                     "checkpoint_000006.dgck"]
    assert restore(tmp_path / "checkpoint_000004.dgck").iteration == 4
    last = restore(tmp_path / "checkpoint_000006.dgck")
    assert last.iteration == 6
    assert np.array_equal(last.init_uids, res.synthetic.init_uids)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_run_matches_per_sample_surgery_bitwise(monkeypatch, tmp_path, toy, kind):
    # ipc 5 over the toy's 4 domains gives the linear featurizer runs of equal
    # (class, domain) rows; the conv featurizer's rows are all distinct.
    short = DistillConfig(ipc=5, iterations=3, seed=16, featurizer=KINDS[kind])
    full = replace(short, iterations=5)
    kernel = run_distillation(toy, full)
    half = run_distillation(toy, short)
    checkpoint(half.synthetic, tmp_path / "half.dgck")
    resumed = run_distillation(toy, full, initial=restore(tmp_path / "half.dgck"))
    monkeypatch.setattr(pipeline, "batch_surgery_updates", per_sample_surgery)
    oracle = run_distillation(toy, full)
    for res in (kernel, resumed):
        assert res.synthetic.images.tobytes() == oracle.synthetic.images.tobytes()
    assert kernel.history == oracle.history
    assert resumed.history == oracle.history[short.iterations:]
    # The full-plane per-sample path rounds differently; five steps keep
    # the images and losses within its tolerance.
    monkeypatch.setattr(pipeline, "batch_surgery_updates",
                        functools.partial(per_sample_surgery, half_plane=False))
    full_plane = run_distillation(toy, full)
    assert_close_to_full_plane(kernel.synthetic.images, full_plane.synthetic.images)
    assert_close_to_full_plane(kernel.history, full_plane.history)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_surgery_snapshot_matches_per_sample_path(monkeypatch, toy, kind):
    cfg = DistillConfig(ipc=5, iterations=2, seed=17, featurizer=KINDS[kind])
    synthetic = run_distillation(toy, cfg).synthetic
    maps = surgery_snapshot(toy, cfg, synthetic)
    monkeypatch.setattr(pipeline, "batch_consensus_maps", per_sample_consensus_maps)
    oracle = surgery_snapshot(toy, cfg, synthetic)
    monkeypatch.setattr(pipeline, "batch_consensus_maps",
                        functools.partial(per_sample_consensus_maps, half_plane=False))
    full_plane = surgery_snapshot(toy, cfg, synthetic)
    for got, want, full in zip(maps, oracle, full_plane):
        assert got.shape == synthetic.images.shape
        assert got.tobytes() == want.tobytes()
        assert_close_to_full_plane(got, full)


def test_failed_checkpoint_write_leaves_no_files(monkeypatch, tmp_path, toy):
    cfg = DistillConfig(ipc=3, iterations=1, seed=18, **FAST)
    synthetic = run_distillation(toy, cfg).synthetic

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(storage.os, "replace", failing_replace)
    with pytest.raises(IoError):
        checkpoint(synthetic, tmp_path / "state.dgck")
    assert list(tmp_path.iterdir()) == []


def spy_draws(monkeypatch, record):
    """Wrap FeaturizerSpec.draw: record(weights, rng) after every draw, on the
    thread that drew."""
    draw = FeaturizerSpec.draw

    def spy(spec, image_shape, rng):
        weights = draw(spec, image_shape, rng)
        record(weights, rng)
        return weights

    monkeypatch.setattr(FeaturizerSpec, "draw", spy)
    return draw


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("batch_per_class", [0, 4])
def test_outputs_do_not_depend_on_the_lane_count(monkeypatch, tmp_path, toy, kind,
                                                 batch_per_class):
    # Iteration t + 1's featurizer is drawn on a lane with two, inline with one.
    cfg = DistillConfig(ipc=3, iterations=5, seed=20, featurizer=KINDS[kind],
                        batch_per_class=batch_per_class, checkpoint_every=2)
    outputs = []
    for lanes in (1, 2):
        monkeypatch.setattr(featurizers, "_usable_cpus", lambda: lanes)
        fresh_dir, resumed_dir = tmp_path / f"fresh{lanes}", tmp_path / f"resumed{lanes}"
        fresh_dir.mkdir()
        resumed_dir.mkdir()
        fresh = run_distillation(toy, cfg, checkpoint_dir=str(fresh_dir))
        resumed = run_distillation(toy, cfg, initial=restore(fresh_dir / "checkpoint_000002.dgck"),
                                   checkpoint_dir=str(resumed_dir))
        outputs.append([(res.synthetic.images.tobytes(), repr(res.history),
                         {p.name: p.read_bytes() for p in folder.iterdir()})
                        for res, folder in ((fresh, fresh_dir), (resumed, resumed_dir))])
    assert sorted(outputs[0][0][2]) == ["checkpoint_000002.dgck", "checkpoint_000004.dgck"]
    assert sorted(outputs[0][1][2]) == ["checkpoint_000004.dgck"]
    assert outputs[0] == outputs[1]


def test_a_run_draws_each_of_its_iterations_once(monkeypatch, toy):
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 2)
    drawn = []
    draw = spy_draws(monkeypatch, lambda weights, rng: drawn.append(weights.tobytes()))
    cfg = DistillConfig(ipc=3, iterations=6, seed=21, **FAST)
    stream = SeededRng(cfg.seed)

    def expected(iterations):
        return sorted(draw(cfg.featurizer, toy.image_shape,
                           stream.substream(_STREAM_FEATURIZER, t).generator).tobytes()
                      for t in iterations)

    half = run_distillation(toy, replace(cfg, iterations=3)).synthetic
    assert sorted(drawn) == expected(range(3))
    drawn.clear()
    done = run_distillation(toy, cfg, initial=half).synthetic
    assert sorted(drawn) == expected(range(3, 6))
    drawn.clear()
    assert run_distillation(toy, cfg, initial=done).history == []
    assert drawn == []


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_failed_run_leaves_no_draw_running_or_queued(monkeypatch, toy, kind):
    # A queued item draws its featurizer, then (conv) featurizes the real views.
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 2)
    events = []
    gaussian_weights = pipeline.gaussian_weights
    monkeypatch.setattr(pipeline, "gaussian_weights",
                        lambda *args: (events.append("started"), gaussian_weights(*args))[1])
    spy_draws(monkeypatch, lambda weights, rng: (time.sleep(0.05), events.append("drawn")))
    matching = pipeline.matching_rows

    def failing(synthetic, *args, **kwargs):
        if synthetic.iteration == 3:
            raise RuntimeError("matching failed")
        return matching(synthetic, *args, **kwargs)

    monkeypatch.setattr(pipeline, "matching_rows", failing)
    with pytest.raises(RuntimeError, match="matching failed"):
        run_distillation(toy, DistillConfig(ipc=3, iterations=8, seed=22, featurizer=KINDS[kind]))
    # Iterations 0-3 have been drawn. Of the DRAW_DEPTH - 1 draws queued
    # behind them, those a lane had started have finished and the rest were
    # cancelled: no draw is running when the call raises, and none starts later.
    drawn = events.count("drawn")
    assert 4 <= drawn <= 3 + pipeline.DRAW_DEPTH
    assert events.count("started") == drawn
    time.sleep(0.2)
    assert len(events) == 2 * drawn


@pytest.mark.parametrize("kind, stage", [("linear", "draw"), ("conv", "draw"),
                                         ("conv", "real means")])
@pytest.mark.parametrize("where", ["lane", "taken back"])
def test_an_error_in_a_queued_item_is_raised(monkeypatch, toy, kind, stage, where):
    # The first item to run on the lane fails there (the matching pass is
    # slowed, so the lane keeps ahead), or the first one the loop thread
    # computes fails there (the lane is slowed, so the loop takes items back).
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 2)
    loop, events, failed = threading.get_ident(), [], []

    def failing(fn):
        def wrapped(*args):
            on_loop = threading.get_ident() == loop
            events.append("started")
            if not on_loop and where == "taken back":
                time.sleep(0.05)
            if on_loop == (where == "taken back") and not failed:
                failed.append(threading.get_ident())
                raise RuntimeError("queued item failed")
            result = fn(*args)
            events.append("done")
            return result
        return wrapped

    if stage == "draw":
        monkeypatch.setattr(FeaturizerSpec, "draw", failing(FeaturizerSpec.draw))
    else:
        monkeypatch.setattr(pipeline, "real_class_means", failing(pipeline.real_class_means))
    matching = pipeline.matching_rows
    monkeypatch.setattr(pipeline, "matching_rows", lambda *args, **kwargs: (
        time.sleep(0.02 if where == "lane" else 0.0), matching(*args, **kwargs))[1])
    with pytest.raises(RuntimeError, match="queued item failed"):
        run_distillation(toy, DistillConfig(ipc=3, iterations=12, seed=26,
                                            featurizer=KINDS[kind]))
    assert (failed[0] == loop) == (where == "taken back")
    # Every other item that had started has finished, and none starts later.
    done = events.count("done")
    assert events.count("started") == done + 1
    time.sleep(0.2)
    assert len(events) == 2 * done + 1


@pytest.mark.parametrize("single", ["one usable cpu", "one_lane"])
def test_a_single_lane_run_starts_no_thread(monkeypatch, toy, single):
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 1 if single == "one usable cpu" else 4)
    if single == "one_lane":
        featurizers.one_lane()
    sources = []
    spy_draws(monkeypatch, lambda weights, rng: sources.append(type(rng)))
    threads = threading.active_count()
    res = run_distillation(toy, DistillConfig(ipc=3, iterations=4, seed=23, **FAST))
    assert res.synthetic.iteration == 4
    assert featurizers._pool is None
    assert threading.active_count() == threads
    # Inline draws go through SeededRng.normal, as perfbench/tracer.py sees them.
    assert sources == [SeededRng] * 4


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("batch_per_class", [0, 4])
def test_lanes_call_no_rng_or_featurizer_method(monkeypatch, toy, kind, batch_per_class):
    # perfbench/tracer.py wraps these names, and its span stack belongs to
    # one thread: lanes may call numpy only. The loop thread draws each
    # iteration's minibatch views and reads their classes; a lane then draws
    # the featurizer and (conv) featurizes the views.
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 2)
    callers = set()

    def recording(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            callers.add(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    for name in ("class_feature_mean", "mean_features"):
        monkeypatch.setattr(dm, name, recording(getattr(dm, name)))
    for cls in (SeededRng, LinearFeaturizer, ConvFeaturizer, DataView, dm.MatchingPlan):
        for name, attr in list(vars(cls).items()):
            if cls is not SeededRng and name.startswith("_") and name != "__init__":
                continue
            if isinstance(attr, classmethod):
                monkeypatch.setattr(cls, name, classmethod(recording(attr.__func__)))
            elif isinstance(attr, property):
                monkeypatch.setattr(cls, name, property(recording(attr.fget)))
            elif callable(attr):
                monkeypatch.setattr(cls, name, recording(attr))
    drawn = []
    draw = spy_draws(monkeypatch, lambda weights, rng: drawn.append(
        (weights.tobytes(), threading.get_ident(), type(rng))))
    cfg = DistillConfig(ipc=3, iterations=4, seed=24, featurizer=KINDS[kind],
                        batch_per_class=batch_per_class)
    res = run_distillation(toy, cfg)
    assert res.synthetic.iteration == 4
    assert callers == {threading.get_ident()}
    # Each iteration's weights are drawn exactly once: on a lane from the
    # numpy generator, or, when the loop thread took the draw back, there
    # through SeededRng, where the tracer sees it.
    stream = SeededRng(cfg.seed)
    assert sorted(weights for weights, _, _ in drawn) == sorted(
        draw(cfg.featurizer, toy.image_shape,
             stream.substream(_STREAM_FEATURIZER, t).generator).tobytes() for t in range(4))
    for _, thread, source in drawn:
        assert (thread, source) == (threading.get_ident(), SeededRng) or (
            thread != threading.get_ident() and source is np.random.Generator)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_outputs_do_not_depend_on_which_thread_draws(monkeypatch, tmp_path, toy, kind):
    # Each queued item draws its featurizer and, under conv, featurizes the
    # real views under it. With one lane every item runs on the loop thread.
    # With a slowed lane the loop thread takes back every queued item the
    # lane has not started (all of iteration 0's queue but its own item, at
    # least). With a slowed matching pass the lane keeps ahead, and only the
    # start's items can be taken back. A restore continues with a fresh queue.
    cfg = DistillConfig(ipc=3, iterations=8, seed=25, checkpoint_every=3,
                        featurizer=KINDS[kind])
    stream, loop = SeededRng(cfg.seed), threading.get_ident()
    iteration_of = {FeaturizerSpec.draw(cfg.featurizer, toy.image_shape,
                                        stream.substream(_STREAM_FEATURIZER, t)).tobytes(): t
                    for t in range(cfg.iterations)}
    slow = {"lane": 0.0, "matching": 0.0}
    on_loop = []

    def record(weights, rng):
        if threading.get_ident() == loop:
            on_loop.append(iteration_of[weights.tobytes()])
        else:
            time.sleep(slow["lane"])

    spy_draws(monkeypatch, record)
    matching = pipeline.matching_rows
    monkeypatch.setattr(pipeline, "matching_rows", lambda *args, **kwargs: (
        time.sleep(slow["matching"]), matching(*args, **kwargs))[1])

    def run(lanes, initial=None, **slowed):
        monkeypatch.setattr(featurizers, "_usable_cpus", lambda: lanes)
        slow.update({"lane": 0.0, "matching": 0.0, **slowed})
        on_loop.clear()
        folder = tmp_path / f"run{len(outputs)}"
        folder.mkdir()
        res = run_distillation(toy, cfg, initial=initial, checkpoint_dir=str(folder))
        outputs.append((res.synthetic.images.tobytes(), res.history))
        return folder, sorted(on_loop)

    outputs = []
    one_lane, drawn = run(1)
    assert drawn == list(range(cfg.iterations))
    _, drawn = run(2, lane=0.05)
    assert len(drawn) >= pipeline.DRAW_DEPTH - 1
    _, drawn = run(2, matching=0.02)
    assert all(t < pipeline.DRAW_DEPTH for t in drawn)
    resumed = run(2, initial=restore(one_lane / "checkpoint_000003.dgck"))[0]
    images, history = outputs[0]
    outputs[3] = (outputs[3][0], history[:3] + outputs[3][1])
    assert [(got, repr(losses)) for got, losses in outputs] == [(images, repr(history))] * 4
    assert ((resumed / "checkpoint_000006.dgck").read_bytes()
            == (one_lane / "checkpoint_000006.dgck").read_bytes())
