import contextlib
import ctypes
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from sgsdistill import featurizers
from sgsdistill.errors import NotConvolutional, ShapeMismatch
from sgsdistill.featurizers import (ADJOINT_BLOCK, IMAGE_BLOCK, ConvFeaturizer, LinearFeaturizer,
                                    mean_features)
from sgsdistill.pseudo import style_stats_batch
from sgsdistill.rng import SeededRng

from helpers import (
    central_fd_grid,
    fd_relative_error,
    gathered_vjp,
    naive_correlate,
    naive_correlate_adjoint,
    naive_matvec,
)


def conv_input_with_margin(psi, shape, rng, margin=1e-3, attempts=200):
    """Draw inputs until every pre-activation sits clear of the rectifier kink."""
    for trial in range(attempts):
        x = rng.substream(trial).normal(size=shape)
        if np.abs(psi.preactivations(x)).min() > margin:
            return x
    raise AssertionError("no input with sufficient pre-activation margin found")


def test_identity_weight_recovers_flattened_input():
    x = SeededRng(0).normal(size=(1, 4, 4))
    psi = LinearFeaturizer(np.eye(16))
    assert np.array_equal(psi.features(x), x.ravel())


def test_linear_features_match_naive_matvec():
    rng = SeededRng(1)
    x = rng.substream(0).normal(size=(2, 5, 5))
    psi = LinearFeaturizer.create((2, 5, 5), 7, rng.substream(1))
    expected = naive_matvec(psi.weight, x.ravel())
    assert np.abs(psi.features(x) - expected).max() < 1e-12


def test_linear_vjp_is_exact_transpose():
    rng = SeededRng(2)
    psi = LinearFeaturizer.create((1, 6, 6), 9, rng.substream(0))
    x = rng.substream(1).normal(size=(1, 6, 6))
    u = rng.substream(2).normal(size=9)
    assert np.array_equal(psi.vjp(x, u), (psi.weight.T @ u).reshape(1, 6, 6))


def test_zero_upstream_gives_zero_grid():
    rng = SeededRng(3)
    lin = LinearFeaturizer.create((1, 4, 4), 5, rng.substream(0))
    conv = ConvFeaturizer.create(1, 3, 3, rng.substream(1))
    x = rng.substream(2).normal(size=(1, 4, 4))
    assert not lin.vjp(x, np.zeros(5)).any()
    assert not conv.vjp(x, np.zeros(3)).any()


def test_linear_featurizer_linearity():
    rng = SeededRng(4)
    psi = LinearFeaturizer.create((1, 8, 8), 12, rng.substream(0))
    x = rng.substream(1).normal(size=(1, 8, 8))
    y = rng.substream(2).normal(size=(1, 8, 8))
    lhs = psi.features(2.5 * x - 0.5 * y)
    rhs = 2.5 * psi.features(x) - 0.5 * psi.features(y)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


def test_seed_determinism():
    a = LinearFeaturizer.create((3, 4, 4), 6, SeededRng(99))
    b = LinearFeaturizer.create((3, 4, 4), 6, SeededRng(99))
    assert a.weight.tobytes() == b.weight.tobytes()
    ca = ConvFeaturizer.create(3, 4, 3, SeededRng(98))
    cb = ConvFeaturizer.create(3, 4, 3, SeededRng(98))
    assert ca.kernels.tobytes() == cb.kernels.tobytes()


def test_zero_input_through_conv_gives_zero_features_and_maps():
    psi = ConvFeaturizer.create(2, 4, 3, SeededRng(5))
    x = np.zeros((2, 6, 6))
    assert not psi.features(x).any()
    assert not psi.hidden_activations(x).any()


def test_pooled_hidden_activations_equal_features():
    rng = SeededRng(6)
    psi = ConvFeaturizer.create(3, 5, 3, rng.substream(0))
    x = rng.substream(1).normal(size=(3, 8, 8))
    pooled = psi.hidden_activations(x).mean(axis=(1, 2))
    assert np.abs(pooled - psi.features(x)).max() < 1e-12


def test_delta_kernel_shifts_positive_part():
    # A 3x3 kernel with a single one at (0, 0) correlates to a shift by
    # (-1, -1) under zero padding: out[i, j] = x[i - 1, j - 1].
    kern = np.zeros((1, 1, 3, 3))
    kern[0, 0, 0, 0] = 1.0
    psi = ConvFeaturizer(kern)
    x = SeededRng(7).normal(size=(1, 6, 6))
    maps = psi.hidden_activations(x)
    expected = np.zeros((6, 6))
    expected[1:, 1:] = np.maximum(x[0, :-1, :-1], 0.0)
    assert np.abs(maps[0] - expected).max() < 1e-15


def test_linear_featurizer_has_no_hidden_maps():
    psi = LinearFeaturizer(np.eye(4))
    with pytest.raises(NotConvolutional):
        psi.hidden_activations(np.zeros((1, 2, 2)))


def test_shape_mismatch_errors():
    psi = LinearFeaturizer(np.eye(16))
    with pytest.raises(ShapeMismatch):
        psi.features(np.zeros((1, 3, 3)))
    with pytest.raises(ShapeMismatch):
        psi.vjp(np.zeros((1, 4, 4)), np.zeros(5))
    conv = ConvFeaturizer.create(3, 2, 3, SeededRng(8))
    with pytest.raises(ShapeMismatch):
        conv.features(np.zeros((2, 4, 4)))


def test_batch_features_match_single_calls():
    rng = SeededRng(9)
    imgs = rng.substream(0).normal(size=(5, 2, 6, 6))
    for psi in [
        LinearFeaturizer.create((2, 6, 6), 4, rng.substream(1)),
        ConvFeaturizer.create(2, 4, 3, rng.substream(2)),
    ]:
        batch = psi.features_batch(imgs)
        singles = np.stack([psi.features(img) for img in imgs])
        assert np.abs(batch - singles).max() < 1e-12


def test_mean_features_pixel_mean_shortcut_matches_batch_path():
    rng = SeededRng(10)
    imgs = rng.substream(0).normal(size=(9, 1, 5, 5))
    psi = LinearFeaturizer.create((1, 5, 5), 6, rng.substream(1))
    groups = [np.arange(4), np.arange(4, 9)]
    direct = np.stack([psi.features_batch(imgs[g]).mean(axis=0) for g in groups])
    via_mean = mean_features(psi, imgs, groups,
                             pixel_mean=lambda: np.stack([imgs[g].mean(axis=0) for g in groups]))
    assert direct.shape == via_mean.shape == (2, 6)
    assert np.abs(direct - via_mean).max() < 1e-12 * max(1.0, np.abs(direct).max())


def test_vjp_against_finite_differences_linear():
    rng = SeededRng(11)
    psi = LinearFeaturizer.create((1, 5, 5), 8, rng.substream(0))
    worst = 0.0
    for trial in range(20):
        x = rng.substream(1, trial).normal(size=(1, 5, 5))
        u = rng.substream(2, trial).normal(size=8)
        fd = central_fd_grid(lambda g: float(u @ psi.features(g)), x)
        worst = max(worst, fd_relative_error(psi.vjp(x, u), fd))
    assert worst < 1e-5


def test_vjp_against_finite_differences_conv():
    rng = SeededRng(12)
    psi = ConvFeaturizer.create(1, 3, 3, rng.substream(0))
    worst = 0.0
    for trial in range(10):
        x = conv_input_with_margin(psi, (1, 5, 5), rng.substream(1, trial))
        u = rng.substream(2, trial).normal(size=3)
        fd = central_fd_grid(lambda g: float(u @ psi.features(g)), x)
        worst = max(worst, fd_relative_error(psi.vjp(x, u), fd))
    assert worst < 1e-5


def test_vjp_fd_agreement_over_100_pairs_per_type():
    # Spot-checks two pixels per (x, u) pair to keep 100 pairs per type fast.
    rng = SeededRng(13)
    step = 1e-6
    for kind in ["linear", "conv"]:
        if kind == "linear":
            psi = LinearFeaturizer.create((1, 5, 5), 6, rng.substream(0))
        else:
            psi = ConvFeaturizer.create(1, 3, 3, rng.substream(1))
        worst = 0.0
        for trial in range(100):
            if kind == "linear":
                x = rng.substream(2, trial).normal(size=(1, 5, 5))
            else:
                x = conv_input_with_margin(psi, (1, 5, 5), rng.substream(3, trial))
            u = rng.substream(4, trial).normal(size=psi.feature_dim)
            grad = psi.vjp(x, u)
            # Entries far below the gradient's own scale sit inside FD noise;
            # floor the denominator there like any gradient checker does.
            floor = max(1e-8, 1e-3 * float(np.abs(grad).max()))
            flat = x.reshape(-1)
            for j in rng.substream(5, trial).integers(0, flat.size, size=2):
                orig = flat[j]
                flat[j] = orig + step
                fp = float(u @ psi.features(x))
                flat[j] = orig - step
                fm = float(u @ psi.features(x))
                flat[j] = orig
                fd = (fp - fm) / (2 * step)
                a = grad.reshape(-1)[j]
                worst = max(worst, abs(a - fd) / max(abs(a) + abs(fd), floor))
        assert worst < 1e-5, f"{kind} worst relative error {worst}"


def _relative_gap(actual, expected):
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


# Kernel sides 1, 3 and 5 on square and non-square grids, one and three input
# channels: a window stride or (i, j, c) column order wrong for k != 3, H != W
# or C != 3 shows here.
CONV_GEOMETRIES = [(k, c, shape) for k in (1, 3, 5) for c in (1, 3)
                   for shape in ((5, 7), (6, 3))]


@pytest.mark.parametrize("k,c,shape", CONV_GEOMETRIES)
def test_conv_forward_matches_naive_correlation(k, c, shape):
    rng = SeededRng(14)
    psi = ConvFeaturizer.create(c, 4, k, rng.substream(k, c))
    xs = rng.substream(k, c, 1).normal(size=(3, c) + shape)
    pre = np.stack([naive_correlate(x, psi.kernels) for x in xs])
    for x, expected in zip(xs, pre):
        assert _relative_gap(psi.preactivations(x), expected) < 1e-12
    pooled = np.maximum(pre, 0.0).mean(axis=(2, 3))
    assert _relative_gap(psi.features_batch(xs), pooled) < 1e-12


@pytest.mark.parametrize("k,c,shape", CONV_GEOMETRIES)
def test_conv_vjp_matches_naive_masked_adjoint(k, c, shape):
    rng = SeededRng(15)
    psi = ConvFeaturizer.create(c, 4, k, rng.substream(k, c))
    xs = rng.substream(k, c, 1).normal(size=(3, c) + shape)
    upstream = rng.substream(k, c, 2).normal(size=(2, 4))
    grads = psi.vjp_batch(xs, upstream)
    assert grads.shape == (2,) + xs.shape
    for x, row in zip(xs, grads.transpose(1, 0, 2, 3, 4)):
        active = naive_correlate(x, psi.kernels) > 0.0
        for u, grad in zip(upstream, row):
            dz = active * (u / (shape[0] * shape[1]))[:, None, None]
            assert _relative_gap(grad, naive_correlate_adjoint(dz, psi.kernels)) < 1e-12


def test_conv_features_batch_rows_do_not_depend_on_the_block():
    # features_batch correlates IMAGE_BLOCK images at a time; a batch spanning
    # two blocks gives each image bitwise the features it gets on its own.
    rng = SeededRng(16)
    psi = ConvFeaturizer.create(3, 4, 3, rng.substream(0))
    imgs = rng.substream(1).normal(size=(IMAGE_BLOCK + 6, 3, 5, 7))
    singles = np.stack([psi.features_batch(img[None])[0] for img in imgs])
    assert np.array_equal(psi.features_batch(imgs), singles)


@pytest.mark.parametrize("kind", ["linear", "conv"])
def test_grouped_vjp_batch_matches_per_image_vjp_and_rows_stand_alone(kind):
    rng = SeededRng(60)
    images = rng.substream(0).normal(size=(37, 2, 5, 4))
    if kind == "linear":
        psi = LinearFeaturizer.create((2, 5, 4), 6, rng.substream(1))
    else:
        psi = ConvFeaturizer.create(2, 6, 3, rng.substream(1))
    groups = rng.substream(2).integers(0, 4, size=37)
    upstream = rng.substream(3).normal(size=(3, 4, 6))
    stacked = gathered_vjp(psi, images, upstream, groups)
    assert stacked.shape == (3, 37, 2, 5, 4)
    # pullback hands back distinct rows: one per group for the input-free
    # linear pullback, one per image for the conv one.
    pulled, index = psi.pullback(images, upstream, groups=groups)
    assert pulled.shape == (3, 4 if kind == "linear" else 37, 2, 5, 4)
    assert pulled[:, index].tobytes() == stacked.tobytes()
    for r, rows in enumerate(upstream):
        alone = gathered_vjp(psi, images, rows, groups)
        assert alone.shape == (37, 2, 5, 4)
        assert alone.tobytes() == stacked[r].tobytes()
        assert gathered_vjp(psi, images, rows[None], groups).tobytes() == alone.tobytes()
        for i, x in enumerate(images):
            want = psi.vjp(x, rows[groups[i]])
            assert np.abs(alone[i] - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
    # Each image's pullback does not depend on the other images.
    single = gathered_vjp(psi, images[20:21], upstream, groups[20:21])
    assert single[:, 0].tobytes() == stacked[:, 20].tobytes()
    bad_groups = [groups[:-1], groups.astype(np.float64), groups + 4, groups - 5,
                  groups.reshape(1, -1)]
    for bad in bad_groups:
        with pytest.raises(ShapeMismatch):
            psi.pullback(images, upstream, groups=bad)
    for bad in (np.ones(6), np.ones((3, 4, 5)), np.ones((2, 3, 4, 6))):
        with pytest.raises(ShapeMismatch):
            psi.pullback(images, bad, groups=groups)


# Batch sizes around the block edges: no block, one short block, a full
# block plus one image, and several blocks with a short last one.
BLOCK_BATCHES = [0, 1, IMAGE_BLOCK - 1, IMAGE_BLOCK + 1, 3 * IMAGE_BLOCK + 5]


def block_sizes(n):
    """(IMAGE_BLOCK, ADJOINT_BLOCK) settings for a batch of n: single images,
    small blocks, the defaults, and one block wider than the batch."""
    return [(1, 1), (3, 3), (IMAGE_BLOCK, ADJOINT_BLOCK), (n + 1, n + 1)]


@pytest.mark.parametrize("n", BLOCK_BATCHES)
def test_conv_outputs_do_not_depend_on_the_block_size(monkeypatch, n):
    rng = SeededRng(70)
    psi = ConvFeaturizer.create(3, 4, 3, rng.substream(0))
    images = rng.substream(1).normal(size=(n, 3, 5, 7))
    groups = rng.substream(2).integers(0, 3, size=n)
    grouped = rng.substream(3).normal(size=(2, 3, 4))
    stacked = rng.substream(4).normal(size=(3, 4))
    results = []
    for image_block, adjoint_block in block_sizes(n):
        monkeypatch.setattr(featurizers, "IMAGE_BLOCK", image_block)
        monkeypatch.setattr(featurizers, "ADJOINT_BLOCK", adjoint_block)
        results.append([psi.features_batch(images),
                        psi.vjp_batch(images, grouped, groups=groups),
                        psi.vjp_batch(images, stacked)])
    for other in results[1:]:
        for want, got in zip(results[0], other):
            assert want.shape == got.shape and want.tobytes() == got.tobytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
@pytest.mark.parametrize("allowed", [True, False])
def test_lane_threads_hold_one_cpu_each_where_allowed(monkeypatch, allowed):
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 2)
    if not allowed:
        def refuse(pid, cpus):
            raise PermissionError("affinity is not ours to set")
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    mask = os.sched_getaffinity(0)
    lane = featurizers.run_ahead(os.sched_getaffinity, 0).result(timeout=60)
    assert os.sched_getaffinity(0) == mask   # the calling thread stays free
    assert lane == ({sorted(mask)[1 % len(mask)]} if allowed else mask)


@contextlib.contextmanager
def busy_pool():
    """Hold the lane pool's thread on an Event until the block ends."""
    held, release = threading.Event(), threading.Event()
    blocker = featurizers.run_ahead(lambda: (held.set(), release.wait(60)))
    assert held.wait(60)
    try:
        yield
    finally:
        release.set()
        blocker.result()


def test_a_busy_pool_does_not_hold_up_a_laned_call(monkeypatch):
    # The conv passes run on the calling thread, not on the held pool, and
    # the results keep their bytes.
    rng = SeededRng(73)
    psi = ConvFeaturizer.create(3, 4, 3, rng.substream(0))
    images = rng.substream(1).normal(size=(3 * IMAGE_BLOCK + 5, 3, 5, 7))
    stacked = rng.substream(2).normal(size=(3, 4))
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 1)
    expected = [psi.features_batch(images), psi.vjp_batch(images, stacked)]
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 2)
    threads = set()
    correlate = featurizers._correlate
    monkeypatch.setattr(featurizers, "_correlate", lambda work, n: (
        threads.add(threading.get_ident()), correlate(work, n))[1])
    with busy_pool():
        got = [psi.features_batch(images), psi.vjp_batch(images, stacked)]
    assert threads == {threading.get_ident()}
    for one, other in zip(expected, got):
        assert one.tobytes() == other.tobytes()


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    mallinfo2 = ctypes.CDLL(None).mallinfo2
    mallinfo2.argtypes = ()
    mallinfo2.restype = _Mallinfo2
    return mallinfo2()


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="not glibc 2.33+")
def test_making_the_lane_pool_stops_large_arrays_growing_the_heap(monkeypatch):
    # By default, freeing a mapped block raises glibc's mmap threshold past it,
    # and the next array of that size that fits no free heap space grows the heap.
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 2)
    featurizers._executor()
    size = _mallinfo2().fordblks + 2 * featurizers.MMAP_THRESHOLD   # fits no free space
    freed = np.ones(size + featurizers.MMAP_THRESHOLD, dtype=np.uint8)
    del freed
    heap = _mallinfo2().arena
    block = np.ones(size, dtype=np.uint8)
    assert _mallinfo2().arena - heap < featurizers.MMAP_THRESHOLD
    assert block.all()


@pytest.mark.parametrize("cpus", ["one usable cpu", "one_lane", "two usable cpus"])
def test_a_single_lane_starts_no_thread(monkeypatch, cpus):
    # Only queued items run on the pool: with any CPU count the conv passes
    # and the style statistics run on the calling thread.
    usable = {"one usable cpu": 1, "one_lane": 4, "two usable cpus": 2}[cpus]
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: usable)
    if cpus == "one_lane":
        featurizers.one_lane()
    threads = threading.active_count()
    rng = SeededRng(71)
    psi = ConvFeaturizer.create(3, 4, 3, rng.substream(0))
    images = rng.substream(1).normal(size=(2 * IMAGE_BLOCK + 1, 3, 5, 7))
    psi.features_batch(images)
    psi.vjp_batch(images, rng.substream(2).normal(size=(3, 4)))
    style_stats_batch(images, psi)
    assert featurizers._pool is None
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_a_forked_child_makes_its_own_lane_pool(monkeypatch):
    # The parent's pool threads do not exist in a forked child; the child's
    # queued items must start their own instead of waiting on them forever.
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 2)
    rng = SeededRng(72)
    psi = ConvFeaturizer.create(3, 4, 3, rng.substream(0))
    images = rng.substream(1).normal(size=(2 * IMAGE_BLOCK + 1, 3, 5, 7))
    expected = psi.features_batch(images).tobytes()

    def queued():
        return featurizers.run_ahead(featurizers._pooled_features, psi.kernels, images).result(60)

    assert queued().tobytes() == expected
    assert featurizers._pool is not None
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if queued().tobytes() == expected else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's queued item did not finish")
    assert os.waitstatus_to_exitcode(status[1]) == 0
