"""Fixed random feature extractors with exact forward and vector-Jacobian products.

Both featurizers are frozen at construction (no training), so every gradient
that flows through them is analytically checkable against finite differences.
Weights are zero-mean Gaussian with variance 1/fan-in, drawn from a SeededRng.

The conv featurizer's forward pass, adjoint and style maps share one
channels-last im2col, `_correlate`: pad the (N, H, W, C) input once, copy
each pixel's k x k window into a row with columns in (i, j, c) order, and
multiply by the kernels as a (k*k*C, O) matrix. In that order each of a
window's k rows is k*C consecutive values of the padded input, so the copy
moves contiguous runs instead of single pixels.
"""

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotConvolutional, ShapeMismatch
from .rng import SeededRng

# Distinguishes featurizer instances in feature-mean caches.
_TOKENS = itertools.count()

# Images per correlation in ConvFeaturizer.features_batch and
# pseudo.style_stats_batch. The window rows and maps take ~90 KB per 16x16x3
# image at 16 channels; blocks keep that transient small whatever the batch
# size, so it fits in cache and in freed memory instead of raising the peak.
# numpy multiplies each image's window matrix on its own, so the block
# changes no result.
IMAGE_BLOCK = 64
# Images per adjoint correlation in ConvFeaturizer.vjp_batch. Its window rows
# take ~290 KB per 16x16 image at 16 channels (k*k*O columns); 16-image
# blocks (4.7 MB) raised the process's peak RSS by 13 MB, 8-image blocks
# did not, and whole 50-image synthetic sets ran 5% slower.
ADJOINT_BLOCK = 8


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
        d = int(np.prod(input_shape))
        return cls(rng.normal(0.0, 1.0 / np.sqrt(d), size=(feature_dim, d)))

    @property
    def feature_dim(self):
        return self.weight.shape[0]

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
        fan_in = in_channels * kernel_size * kernel_size
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        return cls(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape))

    @property
    def feature_dim(self):
        return self.kernels.shape[0]

    def _check(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[0] != self.kernels.shape[1]:
            raise ShapeMismatch(
                f"input shape {x.shape} incompatible with kernels {self.kernels.shape}"
            )
        return x

    def _check_batch(self, images):
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[1] != self.kernels.shape[1]:
            raise ShapeMismatch(f"batch shape {images.shape} incompatible with kernels")
        return images

    def _forward(self, images):
        """Pre-rectifier maps of a checked batch (N, C, H, W), channels-last (N, H*W, O)."""
        return _correlate(images.transpose(0, 2, 3, 1), self.kernels)

    def preactivations(self, x):
        """Pre-rectifier maps (out_channels, H, W); exposed for kink-margin checks."""
        x = self._check(x)
        return self._forward(x[None])[0].T.reshape((-1,) + x.shape[1:])

    def hidden_activations(self, x):
        """Post-rectifier feature maps before pooling, one plane per output channel."""
        return np.maximum(self.preactivations(x), 0.0)

    def features(self, x):
        return spatial_mean(self.activation_maps(self._check(x)[None]))[0]

    def activation_maps(self, images):
        """Post-rectifier maps of a batch (N, C, H, W), channels-last (N, H*W, O)."""
        z = self._forward(self._check_batch(images))
        return np.maximum(z, 0.0, out=z)

    def features_batch(self, images):
        images = self._check_batch(images)
        out = np.empty((len(images), self.feature_dim))
        for i in range(0, len(images), IMAGE_BLOCK):
            out[i:i + IMAGE_BLOCK] = spatial_mean(self.activation_maps(images[i:i + IMAGE_BLOCK]))
        return out

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
        images = self._check_batch(images)
        rows, groups, lead = _covector_rows(upstream, self.feature_dim, groups, len(images))
        n, c, h, w = images.shape
        active = np.empty((n, h * w, self.feature_dim), dtype=bool)
        for i in range(0, n, IMAGE_BLOCK):
            np.greater(self._forward(images[i:i + IMAGE_BLOCK]), 0.0,
                       out=active[i:i + IMAGE_BLOCK])
        # The adjoint of the padded correlation correlates the cotangent with
        # the spatially flipped kernels, in and out channels swapped.
        flipped = self.kernels[..., ::-1, ::-1].transpose(1, 0, 2, 3)
        grads = np.empty((len(rows),) + images.shape)
        for r, u in enumerate(rows):
            per_image = u[groups, None, :] / (h * w)
            for i in range(0, n, ADJOINT_BLOCK):
                block = slice(i, i + ADJOINT_BLOCK)
                cotangent = (active[block] * per_image[block]).reshape(-1, h, w, self.feature_dim)
                grads[r, block] = (_correlate(cotangent, flipped)
                                   .reshape(-1, h, w, c).transpose(0, 3, 1, 2))
        return grads.reshape(lead + images.shape)

    def pullback(self, images, upstream, groups=None):
        """As LinearFeaturizer.pullback: vjp_batch and the identity index."""
        grads = self.vjp_batch(images, upstream, groups)
        return grads, np.arange(grads.shape[-4])


def _correlate(maps, kernels):
    """Zero-padded stride-1 cross-correlation of channels-last maps (N, H, W, C)
    with kernels (O, C, k, k) -> (N, H*W, O); the im2col of the module docstring."""
    n, h, w, c = maps.shape
    k = kernels.shape[2]
    p = k // 2
    padded = np.zeros((n, h + 2 * p, w + 2 * p, c))
    padded[:, p:p + h, p:p + w] = maps
    windows = sliding_window_view(padded.reshape(n, h + 2 * p, -1), (k, k * c), axis=(1, 2))
    matrix = kernels.transpose(2, 3, 1, 0).reshape(-1, kernels.shape[0])
    return windows[:, :, ::c].reshape(n, h * w, -1) @ matrix


def spatial_mean(maps):
    """Mean over the H*W axis of channels-last maps (N, H*W, O) -> (N, O)."""
    return np.ones(maps.shape[1]) @ maps / maps.shape[1]


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


def mean_features(psi, images, groups, pixel_mean):
    """One mean feature row per group (index arrays into images), from one
    featurization. A linear map's feature mean is W applied to the pixel
    mean, so a LinearFeaturizer featurizes the stack of the groups' pixel
    means instead, which the zero-argument callable pixel_mean returns.
    """
    if isinstance(psi, LinearFeaturizer):
        return psi.features_batch(pixel_mean())
    rows = psi.features_batch(images)
    return np.stack([rows[g].mean(axis=0) for g in groups])
