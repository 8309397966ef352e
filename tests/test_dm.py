import numpy as np
import pytest

from sgsdistill.datasets import TRAIN, DataView, SyntheticSet
from sgsdistill.dm import class_feature_mean, dm_gradient, dm_loss, matching_rows
from sgsdistill.errors import EmptyClass, ShapeMismatch
from sgsdistill.featurizers import ConvFeaturizer, LinearFeaturizer
from sgsdistill.rng import SeededRng

from helpers import central_fd_grid, fd_relative_error, gathered_vjp, make_dataset, make_synthetic


def view_of(images, labels, class_count):
    return DataView(images=images, labels=np.asarray(labels, dtype=np.int64),
                    class_count=class_count)


def gathered_matching(synthetic, views, psi, per_domain=True):
    """The matching pass gathered to the images: per-sample gradients
    (S + 1, n, ...) of the pooled loss then each view's, and the losses."""
    rows, index, losses = matching_rows(synthetic, views, psi, per_domain)
    return rows[:, index], losses


def domain_gradients(synthetic, ds, psi):
    """Per-sample gradients of each source domain's loss, (S, n, ...)."""
    views = [ds.train_view(domain=s) for s in range(ds.domain_count)]
    return gathered_matching(synthetic, views, psi)[0][1:]


def test_single_sample_class_mean_is_its_own_features():
    rng = SeededRng(0)
    x = rng.substream(0).normal(size=(1, 1, 3, 3))
    psi = LinearFeaturizer.create((1, 3, 3), 4, rng.substream(1))
    mu = class_feature_mean(view_of(x, [0], 1), psi)[0]
    assert np.abs(mu - psi.features(x[0])).max() < 1e-14


def test_opposite_features_average_to_zero():
    rng = SeededRng(1)
    x = rng.substream(0).normal(size=(1, 1, 3, 3))
    imgs = np.concatenate([x, -x])
    psi = LinearFeaturizer.create((1, 3, 3), 4, rng.substream(1))
    mu = class_feature_mean(view_of(imgs, [0, 0], 1), psi)[0]
    assert np.abs(mu).max() < 1e-14


def test_class_mean_matches_accumulate_and_divide_oracle():
    rng = SeededRng(2)
    imgs = rng.substream(0).normal(size=(10, 1, 4, 4))
    for psi in [
        LinearFeaturizer.create((1, 4, 4), 5, rng.substream(1)),
        ConvFeaturizer.create(1, 3, 3, rng.substream(2)),
    ]:
        acc = np.zeros(psi.feature_dim)
        for img in imgs:
            acc += psi.features(img)
        expected = acc / 10.0
        mu = class_feature_mean(view_of(imgs, [0] * 10, 1), psi)[0]
        assert np.abs(mu - expected).max() < 1e-12


def hand_case():
    """One class; synthetic [1, 0], real [0, 0]; identity featurizer."""
    synthetic = SyntheticSet(
        images=np.array([[[[1.0, 0.0]]]]),
        labels=np.array([0]),
        domains=np.array([0]),
    )
    real = view_of(np.array([[[[0.0, 0.0]]]]), [0], 1)
    return synthetic, real, LinearFeaturizer(np.eye(2))


def test_dm_loss_hand_computed():
    synthetic, real, psi = hand_case()
    assert dm_loss(synthetic, real, psi) == pytest.approx(1.0, abs=1e-15)


def test_dm_gradient_hand_computed():
    synthetic, real, psi = hand_case()
    result = dm_gradient(synthetic, real, psi)
    assert np.abs(result.gradients[0].ravel() - np.array([2.0, 0.0])).max() < 1e-15


def test_dm_loss_zero_when_synthetic_equals_real():
    rng = SeededRng(3)
    imgs = rng.substream(0).normal(size=(4, 1, 3, 3))
    labels = np.array([0, 0, 1, 1])
    synthetic = SyntheticSet(images=imgs.copy(), labels=labels, domains=np.zeros(4, dtype=np.int64))
    psi = LinearFeaturizer.create((1, 3, 3), 6, rng.substream(1))
    assert dm_loss(synthetic, view_of(imgs, labels, 2), psi) < 1e-24


def test_gradients_vanish_at_matched_means():
    synthetic, real, psi = hand_case()
    matched = SyntheticSet(images=real.images.copy(), labels=np.array([0]),
                           domains=np.array([0]))
    result = dm_gradient(matched, real, psi)
    assert not result.gradients.any()


def test_loss_invariant_to_sample_order_within_classes():
    rng = SeededRng(4)
    imgs = rng.substream(0).normal(size=(8, 1, 3, 3))
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    synthetic = make_synthetic(rng.substream(1), class_count=2, ipc=2, shape=(1, 3, 3))
    psi = LinearFeaturizer.create((1, 3, 3), 5, rng.substream(2))
    base = dm_loss(synthetic, view_of(imgs, labels, 2), psi)
    perm = np.array([3, 1, 0, 2, 7, 5, 6, 4])
    shuffled = dm_loss(synthetic, view_of(imgs[perm], labels[perm], 2), psi)
    assert shuffled == pytest.approx(base, rel=1e-12)


def test_dm_loss_non_negative_on_random_instances():
    rng = SeededRng(30)
    for trial in range(10):
        ds = make_dataset(rng.substream(trial), class_count=2, domain_count=2,
                          shape=(1, 3, 3))
        synthetic = make_synthetic(rng.substream(100 + trial), class_count=2, ipc=2,
                                   shape=(1, 3, 3))
        psi = LinearFeaturizer.create((1, 3, 3), 4, rng.substream(200 + trial))
        assert dm_loss(synthetic, ds.train_view(), psi) >= 0.0


def test_dm_gradient_matches_finite_differences():
    rng = SeededRng(5)
    real_imgs = rng.substream(0).normal(size=(6, 1, 3, 3))
    real = view_of(real_imgs, [0, 0, 0, 1, 1, 1], 2)
    for psi in [
        LinearFeaturizer.create((1, 3, 3), 4, rng.substream(1)),
        ConvFeaturizer.create(1, 3, 3, rng.substream(2)),
    ]:
        synthetic = make_synthetic(rng.substream(3), class_count=2, ipc=2, shape=(1, 3, 3))
        analytic = dm_gradient(synthetic, real, psi).gradients

        def loss_of_sample(i):
            def f(x):
                probe = synthetic.copy()
                probe.images[i] = x
                return dm_loss(probe, real, psi)
            return f

        for i in range(len(synthetic)):
            fd = central_fd_grid(loss_of_sample(i), synthetic.images[i])
            assert fd_relative_error(analytic[i], fd) < 1e-5


def test_domain_gradient_reduces_to_pooled_for_single_domain():
    rng = SeededRng(6)
    ds = make_dataset(rng.substream(0), class_count=2, domain_count=1, shape=(1, 3, 3))
    synthetic = make_synthetic(rng.substream(1), class_count=2, ipc=2, shape=(1, 3, 3),
                               domain_count=1)
    psi = LinearFeaturizer.create((1, 3, 3), 4, rng.substream(2))
    gathered, losses = gathered_matching(synthetic, [ds.train_view(domain=0)], psi)
    assert np.array_equal(gathered[0], gathered[1])
    assert losses[0] == losses[1]
    pooled = dm_gradient(synthetic, ds.train_view(), psi)
    assert np.array_equal(pooled.gradients, gathered[1])
    assert pooled.loss == losses[1]


def test_identical_domain_means_give_identical_gradients():
    rng = SeededRng(7)
    base = rng.substream(0).normal(size=(4, 1, 3, 3))
    labels = np.array([0, 0, 1, 1], dtype=np.int64)
    # Same images in both domains: per-class means coincide exactly.
    from sgsdistill.datasets import MultiDomainDataset
    ds = MultiDomainDataset(
        images=np.concatenate([base, base]),
        labels=np.concatenate([labels, labels]),
        domains=np.repeat([0, 1], 4).astype(np.int64),
        splits=np.zeros(8, dtype=np.uint8),
        class_count=2,
        domain_count=2,
    )
    synthetic = make_synthetic(rng.substream(1), class_count=2, ipc=2, shape=(1, 3, 3))
    psi = LinearFeaturizer.create((1, 3, 3), 5, rng.substream(2))
    g0, g1 = domain_gradients(synthetic, ds, psi)
    assert np.abs(g0 - g1).max() < 1e-14


def test_domain_gradient_matches_finite_differences():
    rng = SeededRng(8)
    ds = make_dataset(rng.substream(0), class_count=2, domain_count=2, train_per_cell=4,
                      shape=(1, 3, 3))
    synthetic = make_synthetic(rng.substream(1), class_count=2, ipc=2, shape=(1, 3, 3))
    psi = LinearFeaturizer.create((1, 3, 3), 4, rng.substream(2))
    for s, analytic in enumerate(domain_gradients(synthetic, ds, psi)):
        view = ds.train_view(domain=s)
        for i in range(len(synthetic)):
            def f(x, i=i):
                probe = synthetic.copy()
                probe.images[i] = x
                return dm_loss(probe, view, psi)
            fd = central_fd_grid(f, synthetic.images[i])
            assert fd_relative_error(analytic[i], fd) < 1e-5


def test_loss_and_gradient_scaling():
    # Scaling the featurizer by alpha scales the loss by alpha^2 and the
    # gradient by alpha^2 as well (both mean difference and pullback scale).
    rng = SeededRng(10)
    real_imgs = rng.substream(0).normal(size=(5, 1, 3, 3))
    real = view_of(real_imgs, [0] * 5, 1)
    synthetic = make_synthetic(rng.substream(1), class_count=1, ipc=3, shape=(1, 3, 3))
    w = rng.substream(2).normal(size=(4, 9))
    alpha = 1.8
    base_loss = dm_loss(synthetic, real, LinearFeaturizer(w))
    scaled_loss = dm_loss(synthetic, real, LinearFeaturizer(alpha * w))
    assert scaled_loss == pytest.approx(alpha**2 * base_loss, rel=1e-12)
    # Feature-mean differences scale by alpha: loss quadratic in alpha, and the
    # gradient (W^T applied to an alpha-scaled difference) gains alpha^2 total.
    g_base = dm_gradient(synthetic, real, LinearFeaturizer(w)).gradients
    g_scaled = dm_gradient(synthetic, real, LinearFeaturizer(alpha * w)).gradients
    assert np.abs(g_scaled - alpha**2 * g_base).max() < 1e-10 * np.abs(g_scaled).max()


def test_gradient_linear_in_feature_mean_differences():
    # Scaling every image by alpha (featurizer fixed) scales the per-class
    # mean differences by alpha, the loss by alpha^2, and the gradient by alpha.
    rng = SeededRng(21)
    real_imgs = rng.substream(0).normal(size=(5, 1, 3, 3))
    real = view_of(real_imgs, [0] * 5, 1)
    synthetic = make_synthetic(rng.substream(1), class_count=1, ipc=3, shape=(1, 3, 3))
    psi = LinearFeaturizer.create((1, 3, 3), 4, rng.substream(2))
    alpha = 2.5
    scaled_synth = synthetic.copy()
    scaled_synth.images *= alpha
    scaled_real = view_of(alpha * real_imgs, [0] * 5, 1)
    base = dm_gradient(synthetic, real, psi)
    scaled = dm_gradient(scaled_synth, scaled_real, psi)
    assert scaled.loss == pytest.approx(alpha**2 * base.loss, rel=1e-12)
    assert np.abs(scaled.gradients - alpha * base.gradients).max() < 1e-12 * np.abs(
        scaled.gradients
    ).max()


def test_pooled_mean_equals_average_of_domain_means_with_equal_counts():
    rng = SeededRng(11)
    ds = make_dataset(rng.substream(0), class_count=2, domain_count=3, train_per_cell=5,
                      shape=(1, 3, 3))
    psi = LinearFeaturizer.create((1, 3, 3), 6, rng.substream(1))
    pooled = class_feature_mean(ds.train_view(), psi)
    per_domain = np.mean(
        [class_feature_mean(ds.train_view(domain=s), psi) for s in range(3)], axis=0
    )
    assert np.abs(pooled - per_domain).max() < 1e-12 * max(1.0, np.abs(pooled).max())


def test_pooled_loss_differs_from_averaged_domain_losses():
    # The loss is quadratic in the real mean, so averaging per-domain losses
    # does not reproduce the pooled loss even with equal class counts.
    rng = SeededRng(12)
    ds = make_dataset(rng.substream(0), class_count=2, domain_count=3, train_per_cell=5,
                      shape=(1, 3, 3), domain_shift=1.0)
    synthetic = make_synthetic(rng.substream(1), class_count=2, ipc=2, shape=(1, 3, 3),
                               domain_count=3)
    psi = LinearFeaturizer.create((1, 3, 3), 6, rng.substream(2))
    pooled = dm_loss(synthetic, ds.train_view(), psi)
    averaged = np.mean([dm_loss(synthetic, ds.train_view(domain=s), psi) for s in range(3)])
    assert abs(pooled - averaged) > 1e-6


def test_pooled_gradient_differs_from_averaged_domain_gradients_unequal_counts():
    # With unequal per-class counts across domains the pooled real mean is not
    # the average of domain means, so the gradients genuinely differ.
    rng = SeededRng(13)
    from sgsdistill.datasets import MultiDomainDataset
    imgs, labels, domains = [], [], []
    counts = {0: 3, 1: 7}
    for d, count in counts.items():
        block = rng.substream(20 + d).normal(size=(count, 1, 3, 3)) + d
        imgs.append(block)
        labels.extend([0] * count)
        domains.extend([d] * count)
    ds = MultiDomainDataset(
        images=np.concatenate(imgs),
        labels=np.array(labels, dtype=np.int64),
        domains=np.array(domains, dtype=np.int64),
        splits=np.zeros(10, dtype=np.uint8),
        class_count=1,
        domain_count=2,
    )
    synthetic = make_synthetic(rng.substream(1), class_count=1, ipc=2, shape=(1, 3, 3))
    psi = LinearFeaturizer.create((1, 3, 3), 4, rng.substream(2))
    pooled = dm_gradient(synthetic, ds.train_view(), psi).gradients
    averaged = domain_gradients(synthetic, ds, psi).mean(axis=0)
    assert np.abs(pooled - averaged).max() > 1e-6


def reference_dm_gradient(synthetic, view, psi):
    """One view at a time, one sample at a time: per-class means straight from
    features_batch and each member's pullback through psi.vjp."""
    grads = np.zeros_like(synthetic.images)
    loss = 0.0
    for c in range(synthetic.class_count):
        members = np.flatnonzero(synthetic.labels == c)
        delta = (psi.features_batch(synthetic.images[members]).mean(axis=0)
                 - psi.features_batch(view.images[view.labels == c]).mean(axis=0))
        loss += float(delta @ delta)
        for i in members:
            grads[i] = psi.vjp(synthetic.images[i], (2.0 / members.size) * delta)
    return grads, loss


def matching_case(seed, unequal, kind):
    """Three-domain source; with unequal=True the per-class domain counts differ."""
    rng = SeededRng(seed)
    shape = (1, 4, 4)
    ds = make_dataset(rng.substream(0), class_count=2, domain_count=3, train_per_cell=6,
                      shape=shape, domain_shift=1.0)
    if unequal:
        keep = np.ones(len(ds), dtype=bool)
        for d, c, drop in [(0, 0, 4), (1, 1, 2), (2, 0, 1)]:
            cell = np.flatnonzero((ds.domains == d) & (ds.labels == c) & (ds.splits == TRAIN))
            keep[cell[:drop]] = False
        ds = ds.subset(keep)
    if kind == "linear":
        psi = LinearFeaturizer.create(shape, 6, rng.substream(1))
    else:
        psi = ConvFeaturizer.create(1, 3, 3, rng.substream(1))
    synthetic = make_synthetic(rng.substream(2), class_count=2, ipc=3, shape=shape,
                               domain_count=3)
    return ds, synthetic, psi


def max_rel(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@pytest.mark.parametrize("kind", ["linear", "conv"])
@pytest.mark.parametrize("unequal", [False, True])
def test_matching_gradients_match_per_view_reference(kind, unequal):
    ds, synthetic, psi = matching_case(40, unequal, kind)
    views = [ds.train_view(domain=s) for s in range(3)]
    gathered, losses = gathered_matching(synthetic, views, psi)
    assert len(gathered) == len(losses) == 4
    for got, got_loss, view in zip(gathered, losses, [ds.train_view()] + views):
        grads, loss = reference_dm_gradient(synthetic, view, psi)
        assert max_rel(got, grads) < 1e-12
        assert got_loss == pytest.approx(loss, rel=1e-12)


@pytest.mark.parametrize("kind", ["linear", "conv"])
def test_matching_gradients_match_finite_differences(kind):
    ds, synthetic, psi = matching_case(41, True, kind)
    if kind == "conv":
        # Margin-safe setup, as in the acceptance suite: resample until every
        # synthetic pre-activation clears the rectifier kink by more than 1e-3
        # (1000x the FD step).
        rng = SeededRng(42)
        for attempt in range(200):
            if min(np.abs(psi.preactivations(img)).min() for img in synthetic.images) > 1e-3:
                break
            synthetic = make_synthetic(rng.substream(attempt), class_count=2, ipc=3,
                                       shape=(1, 4, 4), domain_count=3)
        else:
            raise AssertionError("no margin-safe synthetic set found")
    views = [ds.train_view(domain=s) for s in range(3)]
    gathered, _ = gathered_matching(synthetic, views, psi)
    for got, view in zip(gathered, [ds.train_view()] + views):
        for i in range(len(synthetic)):
            def f(x, i=i, view=view):
                probe = synthetic.copy()
                probe.images[i] = x
                return dm_loss(probe, view, psi)
            fd = central_fd_grid(f, synthetic.images[i])
            assert fd_relative_error(got[i], fd) < 1e-5


def test_stacked_vjp_batch_equals_one_upstream_at_a_time():
    rng = SeededRng(43)
    images = rng.substream(0).normal(size=(5, 2, 4, 4))
    upstream = rng.substream(1).normal(size=(4, 3))
    for psi in [
        LinearFeaturizer.create((2, 4, 4), 3, rng.substream(2)),
        ConvFeaturizer.create(2, 3, 3, rng.substream(3)),
    ]:
        stacked = gathered_vjp(psi, images, upstream)
        assert stacked.shape == (4, 5, 2, 4, 4)
        assert stacked.flags.writeable
        for k, u in enumerate(upstream):
            single = gathered_vjp(psi, images, u)
            assert single.shape == (5, 2, 4, 4)
            assert single.tobytes() == stacked[k].tobytes()
            for i, x in enumerate(images):
                assert max_rel(single[i], psi.vjp(x, u)) < 1e-12
        for bad in (np.ones(4), np.ones((2, 4)), np.ones((1, 2, 3))):
            with pytest.raises(ShapeMismatch):
                psi.pullback(images, bad)


@pytest.mark.parametrize("kind", ["linear", "conv"])
def test_pooled_only_pass_skips_views_missing_a_class(kind):
    ds, synthetic, psi = matching_case(44, True, kind)
    keep = ~((ds.domains == 2) & (ds.labels == 1) & (ds.splits == TRAIN))
    ds = ds.subset(keep)
    views = [ds.train_view(domain=s) for s in range(3)]
    with pytest.raises(EmptyClass):
        gathered_matching(synthetic, views, psi)
    gathered, losses = gathered_matching(synthetic, views, psi, per_domain=False)
    grads, loss = reference_dm_gradient(synthetic, ds.train_view(), psi)
    assert len(gathered) == 1  # only the pooled covectors are pulled back
    assert max_rel(gathered[0], grads) < 1e-12
    assert losses[0] == pytest.approx(loss, rel=1e-12)
    assert np.isnan(losses[3])
    for got_loss, view in zip(losses[1:3], views[:2]):
        assert got_loss == pytest.approx(reference_dm_gradient(synthetic, view, psi)[1],
                                         rel=1e-12)


@pytest.mark.parametrize("kind", ["linear", "conv"])
def test_pooled_only_pass_skips_a_view_holding_no_class(kind):
    # A view with no samples gets weight 0 in every pooled class mean and a
    # NaN loss; the pooled rows are those of the other view alone.
    ds, synthetic, psi = matching_case(48, True, kind)
    view = ds.train_view(domain=0)
    empty = DataView(images=view.images[:0], labels=view.labels[:0],
                     class_count=view.class_count)
    alone, alone_losses = gathered_matching(synthetic, [view], psi, per_domain=False)
    both, losses = gathered_matching(synthetic, [view, empty], psi, per_domain=False)
    assert both.tobytes() == alone.tobytes()
    assert losses[:2].tobytes() == alone_losses.tobytes()
    assert np.isnan(losses[2])


def test_pooled_row_is_bitwise_the_same_with_or_without_domain_rows():
    for kind in ("linear", "conv"):
        ds, synthetic, psi = matching_case(45, True, kind)
        views = [ds.train_view(domain=s) for s in range(3)]
        full, full_losses = gathered_matching(synthetic, views, psi)
        alone, alone_losses = gathered_matching(synthetic, views, psi, per_domain=False)
        assert full[0].tobytes() == alone[0].tobytes()
        assert full_losses[0] == alone_losses[0]


def test_linear_class_mean_reads_the_pixel_mean_without_indexing():
    imgs = SeededRng(46).substream(0).normal(size=(4, 1, 2, 2))
    view = view_of(imgs, [0, 0, 1, 1], 2)
    pixel_means = np.stack([view.class_pixel_mean(c) for c in (0, 1)])  # cached
    calls = []
    view.class_images = lambda c: calls.append(c) or imgs[view.labels == c]
    psi = LinearFeaturizer(np.eye(4))
    mu = class_feature_mean(view, psi)
    assert calls == []
    assert mu.tobytes() == psi.features_batch(pixel_means).tobytes()
    # A conv map featurizes the view's images once and averages each class's rows.
    class_feature_mean(view, ConvFeaturizer(np.ones((1, 1, 1, 1))))
    assert calls == []


@pytest.mark.parametrize("kind", ["linear", "conv"])
def test_all_class_means_match_one_class_at_a_time(kind):
    rng = SeededRng(47)
    imgs = rng.substream(0).normal(size=(7, 1, 4, 4))
    view = view_of(imgs, [2, 0, 2, 0, 0, 2, 2], 4)  # classes 1 and 3 missing
    if kind == "linear":
        psi = LinearFeaturizer.create((1, 4, 4), 5, rng.substream(1))
    else:
        psi = ConvFeaturizer.create(1, 5, 3, rng.substream(1))
    means = class_feature_mean(view, psi)
    assert means.shape == (4, 5)
    assert np.isnan(means[[1, 3]]).all()
    assert class_feature_mean(view, psi) is means  # cached for psi
    for c in (0, 2):
        one = psi.features_batch(imgs[view.labels == c]).mean(axis=0)
        if kind == "conv":  # conv rows do not depend on the batch they ride in
            assert means[c].tobytes() == one.tobytes()
        else:  # the linear path featurizes the class pixel means instead
            assert max_rel(means[c], one) < 1e-12


@pytest.mark.parametrize("kind", ["linear", "conv"])
@pytest.mark.parametrize("missing", [1, 4])
def test_a_synthetic_set_without_a_class_the_views_hold_is_refused(kind, missing):
    # The classes run up to the largest label of the synthetic set or any
    # view, so a set without the views' top class is refused as one without
    # any other class is, not matched on the classes below it alone.
    rng = SeededRng(49)
    ds = make_dataset(rng.substream(0), class_count=5)
    full = make_synthetic(rng.substream(1), class_count=5)
    keep = full.labels != missing
    synthetic = SyntheticSet(images=full.images[keep], labels=full.labels[keep],
                             domains=full.domains[keep])
    if kind == "linear":
        psi = LinearFeaturizer.create((1, 4, 4), 6, rng.substream(2))
    else:
        psi = ConvFeaturizer.create(1, 4, 3, rng.substream(2))
    views = [ds.train_view(domain=s) for s in range(ds.domain_count)]
    calls = [lambda: dm_loss(synthetic, ds.train_view(), psi),
             lambda: dm_gradient(synthetic, ds.train_view(), psi),
             lambda: matching_rows(synthetic, views, psi),
             lambda: matching_rows(synthetic, views, psi, per_domain=False)]
    for call in calls:
        with pytest.raises(EmptyClass, match=f"class {missing} has no synthetic samples"):
            call()
