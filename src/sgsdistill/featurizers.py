"""Fixed random feature extractors with exact forward and vector-Jacobian products.

Both featurizers are frozen at construction (no training), so every gradient
that flows through them is analytically checkable against finite differences.
Weights are zero-mean Gaussian with variance 1/fan-in, drawn from a SeededRng.
"""

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotConvolutional, ShapeMismatch
from .rng import SeededRng

# Distinguishes featurizer instances in feature-mean caches.
_TOKENS = itertools.count()


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

    def vjp_batch(self, images, upstream):
        """As ConvFeaturizer.vjp_batch; W^T u ignores the input point, so each
        row is computed once and repeated over the batch."""
        images = np.asarray(images, dtype=np.float64)
        if int(np.prod(images.shape[1:])) != self.weight.shape[1]:
            raise ShapeMismatch(f"batch shape {images.shape} incompatible with weight")
        pulled = np.stack([self.weight.T @ u for u in _upstream_rows(upstream, self.feature_dim)])
        pulled = np.repeat(pulled.reshape((-1, 1) + images.shape[1:]), len(images), axis=1)
        return pulled.reshape(np.shape(upstream)[:-1] + images.shape)

    def hidden_activations(self, x):
        raise NotConvolutional("a linear featurizer has no spatial intermediates")


class ConvFeaturizer:
    """One rectified convolution block with global average pooling.

    Stride-1 cross-correlation with zero padding (odd kernel side), ReLU, then
    a per-output-channel spatial mean. The rectifier subgradient at exactly
    zero is taken as zero.
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

    def _pad(self, arr):
        p = self.kernels.shape[2] // 2
        pad = [(0, 0)] * (arr.ndim - 2) + [(p, p), (p, p)]
        return np.pad(arr, pad)

    def _cols(self, batch):
        """im2col: (N, C, H, W) -> contiguous (N, H*W, C*k*k) for BLAS matmuls."""
        k = self.kernels.shape[2]
        win = sliding_window_view(self._pad(batch), (k, k), axis=(2, 3))
        n, c, h, w = batch.shape
        return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n, h * w, c * k * k)

    def _correlate(self, batch, kernels):
        """Zero-padded stride-1 cross-correlation of a batch with (O, C, k, k)."""
        n, _, h, w = batch.shape
        out = self._cols(batch) @ kernels.reshape(kernels.shape[0], -1).T
        return out.reshape(n, h, w, kernels.shape[0]).transpose(0, 3, 1, 2)

    def preactivations(self, x):
        """Pre-rectifier maps (out_channels, H, W); exposed for kink-margin checks."""
        x = self._check(x)
        return self._correlate(x[None], self.kernels)[0]

    def hidden_activations(self, x):
        """Post-rectifier feature maps before pooling, one plane per output channel."""
        return np.maximum(self.preactivations(x), 0.0)

    def features(self, x):
        return self.hidden_activations(x).mean(axis=(1, 2))

    def features_batch(self, images):
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[1] != self.kernels.shape[1]:
            raise ShapeMismatch(f"batch shape {images.shape} incompatible with kernels")
        z = self._correlate(images, self.kernels)
        return np.maximum(z, 0.0).mean(axis=(2, 3))

    def _adjoint(self, dz):
        """Adjoint of the padded correlation: correlate the cotangent with the
        spatially flipped kernels, swapping the in/out channel roles."""
        flipped = np.ascontiguousarray(self.kernels[..., ::-1, ::-1].transpose(1, 0, 2, 3))
        return self._correlate(dz, flipped)

    def vjp(self, x, upstream):
        x = self._check(x)
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (self.feature_dim,):
            raise ShapeMismatch(f"upstream shape {upstream.shape} != ({self.feature_dim},)")
        return self.vjp_batch(x[None], upstream)[0]

    def vjp_batch(self, images, upstream):
        """vjp of every image against upstream (F,) -> (n, C, H, W), or against
        each row of a stack (K, F) -> (K, n, C, H, W). The rectifier mask is
        computed once and shared by every row; each row is then pulled back on
        its own, so its result does not depend on the rest of the stack."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[1] != self.kernels.shape[1]:
            raise ShapeMismatch(f"batch shape {images.shape} incompatible with kernels")
        rows = _upstream_rows(upstream, self.feature_dim)
        active = self._correlate(images, self.kernels) > 0.0
        h, w = active.shape[2:]
        grads = np.stack([self._adjoint((u / (h * w))[None, :, None, None] * active)
                          for u in rows])
        return grads.reshape(np.shape(upstream)[:-1] + images.shape)


def _upstream_rows(upstream, feature_dim):
    """An (F,) covector or a (K, F) stack as float64 rows (K, F)."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim not in (1, 2) or upstream.shape[-1] != feature_dim:
        raise ShapeMismatch(f"upstream {upstream.shape} is not ({feature_dim},) or (K, {feature_dim})")
    return upstream.reshape(-1, feature_dim)


def mean_features(psi, images, pixel_mean=None):
    """Class-mean features; uses the pixel mean directly when the map is linear.

    For a LinearFeaturizer the feature mean equals W applied to the pixel mean,
    so a cached pixel mean avoids re-featurizing the whole class every call.
    Either argument may be a zero-argument callable, called only on the path
    that reads it.
    """
    if pixel_mean is not None and isinstance(psi, LinearFeaturizer):
        return psi.features(pixel_mean() if callable(pixel_mean) else pixel_mean)
    return psi.features_batch(images() if callable(images) else images).mean(axis=0)
