"""Fixed random feature extractors with exact forward and vector-Jacobian products.

Both featurizers are frozen at construction (no training), so every gradient
that flows through them is analytically checkable against finite differences.
Weights are zero-mean Gaussian with variance 1/fan-in, drawn by
`gaussian_weights` from a SeededRng or its numpy generator.

The conv featurizer's forward pass, adjoint and style maps share one
channels-last im2col, `_correlate`: pad the (N, H, W, C) input once, copy
each pixel's k x k window into a row with columns in (i, j, c) order, and
multiply by the kernels as a (k*k*C, O) matrix. In that order each of a
window's k rows is k*C consecutive values of the padded input, so the copy
moves contiguous runs instead of single pixels.

Every forward correlation copies its windows straight out of a batch laid
out padded and channels-last (`padded_layout`), a block of images at a time
in one set of buffers, on the calling thread; `map_blocks` lays out only the
block it correlates. Each image's window matrix is its own gemm, so results
are bitwise the same for any block size and on any thread.

The matching pass reads one contract of both kinds. `class_features` gives
the synthetic set's class-mean features and their pullback: a linear map
featurizes the class pixel means, a conv map correlates the set once
(`linearize`) and its pullback reuses the forward's rectifier mask.
`layout` gives what the real-side pass, `real_class_means`, reads of a real
view: a linear map's class pixel means, a conv map's `padded_layout` and
class members. A run's `dm.MatchingPlan` lays out its views once.

The distillation loop queues whole iterations' inputs on a module thread
pool (`run_ahead`), one thread, or lane, per usable CPU but the caller's, each
held to one CPU; under conv a lane runs `real_class_means` there. With one
usable CPU no thread is started.
"""

import concurrent.futures
import ctypes
import functools
import itertools
import os
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotConvolutional, ShapeMismatch
from .rng import SeededRng

# Distinguishes featurizer instances in feature-mean caches.
_TOKENS = itertools.count()

# Images per correlation in ConvFeaturizer.features_batch and linearize, the
# real-side pass over a laid-out view and pseudo.style_stats_batch. One
# block's buffers take ~94 KB per 16x16x3 image at 16 channels, 3 MB per
# block; small blocks keep that in cache whatever the batch size. On 1,500
# such images, one thread of a 2-vCPU Xeon (BLAS pinned to one, median of 15,
# ms), blocks of 8, 16, 32, 64 and 128 images took 32.1, 31.6, 32.2, 33.0 and
# 33.5 in features_batch, and 28.0, 27.4, 28.2, 28.9 and 28.9 in the pass
# over the layout a run's plan holds (`padded_layout`). End to end it did not
# show, measured before the plan held that layout: on the distill-conv
# benchmark (2 CPUs, 10 alternating 25 s pairs) blocks of 16 ran more
# iterations/s than 32 in only 6 pairs (medians 41.3 and 40.3), and peak RSS
# rose 1.3 MB in 4 of them.
IMAGE_BLOCK = 32
# Images per adjoint correlation in ConvFeaturizer.vjp_batch. Its buffers
# take ~335 KB per 16x16 image at 16 channels (window rows of k*k*O
# columns), 1.3 MB per block. One vjp_batch of 50 images x 4 covector rows
# on the same thread: blocks of 4, 8, 16 and 50 images took 10.4, 12.3,
# 12.6 and 17.1 ms.
ADJOINT_BLOCK = 4

# A block of MMAP_THRESHOLD bytes and up (a toy dataset's images, its container
# bytes) that fits no free heap space is mapped on its own instead of growing
# the heap; the heap keeps TRIM_THRESHOLD bytes of free top, so the loops'
# smaller blocks (3 MB above) are reused without new page faults.
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 64 << 20

# The lanes' thread pool; made on first use.
_pool = None
_pool_lock = threading.Lock()
# At most this many lanes; None is one per usable CPU. A process-pool worker
# sets 1 through one_lane(), so pools never nest.
_lane_cap = None


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start_lane(made):
    """Thread-pool initializer: hold the new lane to one CPU of the affinity
    mask, the k-th thread made to the k-th CPU after the first. Threads left
    free that keep handing the interpreter lock to each other are woken onto
    one CPU by the scheduler, and run no faster than one."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        try:
            os.sched_setaffinity(0, {cpus[next(made) % len(cpus)]})
        except OSError:
            pass   # a sandbox may forbid it; a free thread is slower, not wrong


def _pin_heap_thresholds():
    """Fix glibc's mmap and trim thresholds. By default glibc raises its mmap
    threshold to each large block freed, so dataset-sized arrays move into the
    heap; once the lanes run, whether the next one fits a hole there depends
    on thread timing (the sdg-resume benchmark's peak RSS read 134, 140 or
    148 MB from run to run). Keep one arena too: buffers a pool thread
    allocates would otherwise land in an arena of its own, beside the main
    heap's free space. Other C libraries are left alone."""
    if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, TRIM_THRESHOLD)   # M_TRIM_THRESHOLD in glibc's malloc.h
        mallopt(-3, MMAP_THRESHOLD)   # M_MMAP_THRESHOLD
        mallopt(-8, 1)                # M_ARENA_MAX


def _executor():
    """The lanes' pool, one thread per usable CPU but the caller's, made once."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pin_heap_thresholds()
            _pool = concurrent.futures.ThreadPoolExecutor(
                max(lane_count() - 1, 1), "featurizer-lane", initializer=_start_lane,
                initargs=(itertools.count(1),))
        return _pool


def _drop_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


# A forked child has no pool threads; it makes its own pool when it needs one.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def one_lane():
    """Compute every queued item of this process on the calling thread, and
    start no lane. A process-pool initializer: each worker is already one
    lane of its pool."""
    global _lane_cap
    _lane_cap = 1


def lane_count():
    """The loop thread plus the pool's lanes: one per usable CPU, or 1 under
    one_lane. With more than 1 the distillation loop queues items on the
    lanes."""
    return _lane_cap or _usable_cpus()


def run_ahead(fn, *args):
    """Queue fn(*args) on a thread of the lane pool and return its Future, so
    the caller's next work overlaps it. fn must call numpy only: perfbench's
    tracer wraps the library's public names, and its span stack belongs to
    one thread. For callers with `lane_count() > 1`. A caller may cancel the
    Future before a thread starts it and run fn itself, and cancels or waits
    for every Future before it returns."""
    return _executor().submit(fn, *args)


def gaussian_weights(shape, rng):
    """Featurizer weights of shape (outputs, *fan-in axes): a (features,
    pixels) LinearFeaturizer weight or (out, in, k, k) ConvFeaturizer
    kernels, zero-mean with variance 1/fan-in; rng is a SeededRng or anything
    else with its `normal(loc, scale, size)`."""
    return rng.normal(0.0, 1.0 / np.sqrt(int(np.prod(shape[1:]))), size=shape)


class LinearFeaturizer:
    """Random linear projection of flattened grids: features = W @ x.ravel()."""

    def __init__(self, weight):
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 2 or self.weight.shape[0] < 1:
            raise ShapeMismatch(f"weight must be (features, pixels), got {self.weight.shape}")
        if not np.all(np.isfinite(self.weight)):
            raise ValueError("non-finite featurizer weight")
        self.token = next(_TOKENS)

    @classmethod
    def create(cls, input_shape, feature_dim, rng: SeededRng):
        return cls(gaussian_weights((feature_dim, int(np.prod(input_shape))), rng))

    @property
    def feature_dim(self):
        return self.weight.shape[0]

    @property
    def weights(self):
        return self.weight

    def _check(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.size != self.weight.shape[1]:
            raise ShapeMismatch(f"input has {x.size} pixels, featurizer expects {self.weight.shape[1]}")
        return x

    def features(self, x):
        return self.weight @ self._check(x).ravel()

    def features_batch(self, images):
        images = np.asarray(images, dtype=np.float64)
        flat = images.reshape(images.shape[0], -1)
        if flat.shape[1] != self.weight.shape[1]:
            raise ShapeMismatch(f"batch has {flat.shape[1]} pixels, featurizer expects {self.weight.shape[1]}")
        return flat @ self.weight.T

    def vjp(self, x, upstream):
        x = self._check(x)
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (self.feature_dim,):
            raise ShapeMismatch(f"upstream shape {upstream.shape} != ({self.feature_dim},)")
        return (self.weight.T @ upstream).reshape(x.shape)

    def pullback(self, images, upstream, groups=None):
        """Pullback of every image against upstream, as ConvFeaturizer.vjp_batch
        takes it, left ungathered: (pulled, index), image i's pullback at
        pulled[..., index[i], :, :, :]. W^T u ignores the input point, so each
        covector is pulled back once; the stacked matmul runs one gemm per
        row, so a row's bits do not depend on the rows beside it."""
        images = np.asarray(images, dtype=np.float64)
        if int(np.prod(images.shape[1:])) != self.weight.shape[1]:
            raise ShapeMismatch(f"batch shape {images.shape} incompatible with weight")
        rows, groups, lead = _covector_rows(upstream, self.feature_dim, groups, len(images))
        return (rows @ self.weight).reshape(lead + rows.shape[1:2] + images.shape[1:]), groups

    def class_features(self, images, groups):
        """(G, F) mean features of each group (index arrays into images) and
        the images' pullback, a function of (upstream, groups) as `pullback`
        takes them. A group's mean features are the features of its pixel
        mean, so the images themselves are not featurized."""
        pullback = functools.partial(self.pullback, images)
        return self.features_batch(_group_means(images, groups)), pullback

    def layout(self, images, groups):
        """What `real_class_means` reads of a batch's groups: their stacked
        pixel means."""
        return _group_means(images, groups)

    def hidden_activations(self, x):
        raise NotConvolutional("a linear featurizer has no spatial intermediates")


class ConvFeaturizer:
    """One rectified convolution block with global average pooling.

    Stride-1 cross-correlation with zero padding (odd kernel side), ReLU, then
    a per-output-channel spatial mean. The rectifier subgradient at exactly
    zero is taken as zero.

    Inputs and gradients are (N, C, H, W); the maps in between are
    channels-last (N, H*W, O), as the im2col matmul yields them.
    """

    def __init__(self, kernels):
        self.kernels = np.asarray(kernels, dtype=np.float64)
        if self.kernels.ndim != 4:
            raise ShapeMismatch(f"kernels must be (out, in, k, k), got {self.kernels.shape}")
        k = self.kernels.shape[2]
        if k != self.kernels.shape[3] or k % 2 == 0:
            raise ShapeMismatch("kernel side must be odd and square")
        if not np.all(np.isfinite(self.kernels)):
            raise ValueError("non-finite featurizer kernels")
        self.token = next(_TOKENS)

    @classmethod
    def create(cls, in_channels, out_channels, kernel_size, rng: SeededRng):
        return cls(gaussian_weights((out_channels, in_channels, kernel_size, kernel_size), rng))

    @property
    def feature_dim(self):
        return self.kernels.shape[0]

    @property
    def weights(self):
        return self.kernels

    def _check(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[0] != self.kernels.shape[1]:
            raise ShapeMismatch(
                f"input shape {x.shape} incompatible with kernels {self.kernels.shape}"
            )
        return x

    def _check_batch(self, images):
        """The batch at its own dtype: laying it out into f64 widens it."""
        images = np.asarray(images)
        if images.ndim != 4 or images.shape[1] != self.kernels.shape[1]:
            raise ShapeMismatch(f"batch shape {images.shape} incompatible with kernels")
        return images

    def preactivations(self, x):
        """Pre-rectifier maps (out_channels, H, W); exposed for kink-margin checks."""
        x = self._check(x)
        return next(self.map_blocks(x[None]))[1][0].T.reshape((-1,) + x.shape[1:])

    def hidden_activations(self, x):
        """Post-rectifier feature maps before pooling, one plane per output channel."""
        return np.maximum(self.preactivations(x), 0.0)

    def features(self, x):
        return self.features_batch(self._check(x)[None])[0]

    def map_blocks(self, images):
        """(block, maps) for every IMAGE_BLOCK slice of a batch (N, C, H, W) and
        its pre-rectifier maps (b, H*W, O), which the caller may overwrite;
        they are valid until the next block. Each block is laid out in turn
        into one zero-bordered float64 buffer, which widens it, so the batch
        is never laid out or widened whole."""
        images = self._check_batch(images)
        n, c, h, w = images.shape
        p = self.kernels.shape[2] // 2
        padded = np.zeros((min(n, IMAGE_BLOCK), h + 2 * p, w + 2 * p, c))
        work = _Workspace(self.kernels, padded, len(padded))
        for start in range(0, n, IMAGE_BLOCK):
            block = images[start:start + IMAGE_BLOCK]
            padded[:len(block), p:p + h, p:p + w] = block.transpose(0, 2, 3, 1)
            yield slice(start, start + len(block)), _correlate(work, work.windows[:len(block)])

    def features_batch(self, images):
        return _pooled_features(self.kernels, self._check_batch(images))

    def vjp(self, x, upstream):
        x = self._check(x)
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (self.feature_dim,):
            raise ShapeMismatch(f"upstream shape {upstream.shape} != ({self.feature_dim},)")
        return self.vjp_batch(x[None], upstream)[0]

    def vjp_batch(self, images, upstream, groups=None):
        """vjp of every image against upstream (F,) -> (n, C, H, W), or against
        each row of a stack (K, F) -> (K, n, C, H, W). With groups (n,), the
        upstream holds one covector per group, (G, F) or (R, G, F), and image
        i takes covector groups[i] -> (n, ...) or (R, n, ...).

        The rectifier mask is computed once and shared by every row; each row
        is then pulled back on its own, ADJOINT_BLOCK images per correlation,
        so an image's result depends neither on the other rows nor on the
        other images."""
        return self.pullback(images, upstream, groups)[0]

    def pullback(self, images, upstream, groups=None):
        """As LinearFeaturizer.pullback: vjp_batch and the identity index."""
        return self.linearize(images)[1](upstream, groups)

    def linearize(self, images):
        """features_batch of a batch and its pullback there, from one
        correlation of the batch: the pullback is a function of (upstream,
        groups=None) that gives what `pullback` gives, from this pass's
        rectifier mask. The matching pass featurizes the synthetic set
        through it, so each iteration correlates the set once."""
        images = self._check_batch(images)
        n, _, h, w = images.shape
        active = np.empty((n, h * w, self.feature_dim), dtype=bool)
        features = _pooled_features(self.kernels, images, active)

        def pullback(upstream, groups=None):
            grads = _adjoint(self.kernels, images.shape, active, upstream, groups)
            return grads, np.arange(grads.shape[-4])
        return features, pullback

    def class_features(self, images, groups):
        """As LinearFeaturizer.class_features, from one correlation of the
        images (`linearize`): each group's mean of their pooled features, and
        the pullback that reuses the forward's rectifier mask."""
        features, pullback = self.linearize(images)
        return _group_means(features, groups), pullback

    def layout(self, images, groups):
        """What `real_class_means` reads of a batch (N, C, H, W) and its
        groups: the batch laid out as this featurizer's correlation reads it
        (`padded_layout`), and the groups."""
        return padded_layout(self._check_batch(images), self.kernels.shape[2]), groups


class _Workspace:
    """Buffers for correlating, up to n at a time, the maps of a batch laid
    out as `padded_layout` gives it (padded, (N, h + 2p, w + 2p, C)) with
    kernels (O, C, k, k): the window rows, the product, and the kernels as a
    (k*k*C, O) matrix."""

    def __init__(self, kernels, padded, n):
        o, c, k = kernels.shape[:3]
        hp, wp = padded.shape[1:3]
        self.rows = np.empty((n, (hp - k + 1) * (wp - k + 1), k * k * c))
        self.out = np.empty(self.rows.shape[:2] + (o,))
        self.matrix = kernels.transpose(2, 3, 1, 0).reshape(-1, o)
        # Each padded map's k x k window per pixel, (N, h, w, k, k*C), and the
        # rows as n of them. The last axis is spelled out: -1 does not reshape
        # an empty batch.
        flat = padded.reshape(len(padded), hp, wp * c)
        self.windows = sliding_window_view(flat, (k, k * c), axis=(1, 2))[:, :, ::c]
        self.window_rows = self.rows.reshape((n,) + self.windows.shape[1:])


def padded_layout(images, side):
    """Images (N, C, H, W) as a correlation with side x side kernels reads
    them: channels-last and zero-padded by side // 2 pixels on each border,
    (N, H + 2p, W + 2p, C). Every forward correlation copies its windows
    straight out of it."""
    n, c, h, w = images.shape
    p = side // 2
    out = np.zeros((n, h + 2 * p, w + 2 * p, c))
    out[:, p:p + h, p:p + w] = images.transpose(0, 2, 3, 1)
    return out


def _map_blocks(kernels, padded):
    """ConvFeaturizer.map_blocks of the featurizer holding kernels, from a
    batch laid out whole by `padded_layout`."""
    work = _Workspace(kernels, padded, min(len(padded), IMAGE_BLOCK))
    for start in range(0, len(padded), IMAGE_BLOCK):
        block = slice(start, start + IMAGE_BLOCK)
        yield block, _correlate(work, work.windows[block])


def _pool_blocks(blocks, out, active=None):
    """Fill out (N, O) with each block's rectified, spatially pooled maps and,
    when given active (N, H*W, O), with their rectifier mask."""
    for block, z in blocks:
        if active is not None:
            np.greater(z, 0.0, out=active[block])
        out[block] = spatial_mean(np.maximum(z, 0.0, out=z))
    return out


def _pooled_features(kernels, images, active=None):
    """ConvFeaturizer.features_batch of the featurizer holding kernels, on a
    checked batch: rectified maps, spatially pooled; the rectifier mask goes
    to active (n, H*W, O) when given."""
    return _laid_out_features(kernels, padded_layout(images, kernels.shape[2]), active)


def _laid_out_features(kernels, padded, active=None):
    """_pooled_features of a batch laid out by `padded_layout`."""
    return _pool_blocks(_map_blocks(kernels, padded), np.empty((len(padded), len(kernels))),
                        active)


def _adjoint(kernels, shape, active, upstream, groups):
    """ConvFeaturizer.vjp_batch of the featurizer holding kernels, on a
    checked batch of shape (n, C, H, W) whose rectifier mask is active."""
    n, c, h, w = shape
    o, p = kernels.shape[0], kernels.shape[2] // 2
    rows, groups, lead = _covector_rows(upstream, o, groups, n)
    # The adjoint of the padded correlation correlates the cotangent with
    # the spatially flipped kernels, in and out channels swapped. Its
    # padded buffer is zeroed once, so the border stays zero: each block
    # writes only the interior.
    flipped = kernels[..., ::-1, ::-1].transpose(1, 0, 2, 3)
    per_image = rows[:, groups, None, None, :] / (h * w)
    grads = np.empty((len(rows),) + shape)
    padded = np.zeros((min(n, ADJOINT_BLOCK), h + 2 * p, w + 2 * p, o))
    work = _Workspace(flipped, padded, len(padded))
    for r, start in itertools.product(range(len(rows)), range(0, n, ADJOINT_BLOCK)):
        block = slice(start, start + ADJOINT_BLOCK)
        mask = active[block].reshape(-1, h, w, o)
        np.multiply(mask, per_image[r, block], out=padded[:len(mask), p:p + h, p:p + w])
        grads[r, block] = (_correlate(work, work.windows[:len(mask)])
                           .reshape(-1, h, w, c).transpose(0, 3, 1, 2))
    return grads.reshape(lead + shape)


def _correlate(work, windows):
    """Zero-padded stride-1 cross-correlation of the maps whose windows
    (n, h, w, k, k*C) are given with work's kernels -> (n, H*W, O), a view of
    work.out; the im2col of the module docstring."""
    n = len(windows)
    np.copyto(work.window_rows[:n], windows)
    return np.matmul(work.rows[:n], work.matrix, out=work.out[:n])


@functools.lru_cache(maxsize=None)
def _ones(n):
    """n ones, read-only: spatial_mean's vector, made once per map size."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def spatial_mean(maps):
    """Mean over the H*W axis of channels-last maps (N, H*W, O) -> (N, O)."""
    return _ones(maps.shape[1]) @ maps / maps.shape[1]


def _covector_rows(upstream, feature_dim, groups, n):
    """Covector rows (R, G, F), each image's covector index (n,) and the
    leading shape of the pullback. Without groups, an (F,) covector or a
    (K, F) stack is one covector per row that every image takes (G = 1)."""
    upstream = np.asarray(upstream, dtype=np.float64)
    given = upstream.shape
    if groups is None:
        upstream = upstream.reshape(given[:-1] + (1, -1))
        groups = np.zeros(n, dtype=np.intp)
    groups = np.asarray(groups)
    if upstream.ndim not in (2, 3) or upstream.shape[-1] != feature_dim:
        raise ShapeMismatch(f"upstream {given} does not hold ({feature_dim},) covectors")
    if groups.shape != (n,) or (n and (groups.dtype.kind not in "iu" or groups.min() < 0
                                       or groups.max() >= upstream.shape[-2])):
        raise ShapeMismatch(f"groups must be {n} covector indices in 0..{upstream.shape[-2] - 1}")
    return upstream.reshape((-1,) + upstream.shape[-2:]), groups, upstream.shape[:-2]


def mean_features(psi, images, groups):
    """One mean feature row per group (index arrays into images), (G, F):
    psi's `class_features`."""
    return psi.class_features(images, groups)[0]


def real_class_means(weights, laid_out):
    """The real-side pass: each view's held-class mean features (held, F)
    under the featurizer holding weights (float64, as `FeaturizerSpec.draw`
    gives them, (F, pixels) linear or (O, C, k, k) conv), from what the
    featurizer's `layout` gave for each view. Gives class_features' means,
    bitwise. Calls numpy only, so a lane may run it."""
    if weights.ndim == 2:
        return [means.reshape(len(means), -1) @ weights.T for means in laid_out]
    return [_group_means(_laid_out_features(weights, padded), groups)
            for padded, groups in laid_out]


def _group_means(rows, groups):
    return np.stack([rows[g].mean(axis=0) for g in groups])
