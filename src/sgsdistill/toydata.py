"""Procedural multi-domain toy datasets.

Classes are bold binary glyphs; domains are style transforms chosen to live in
distinct spectral bands (a contrast inversion, a period-8 sinusoidal
background, a period-2 checkerboard with a color tint), so frequency-domain
agreement between domains has genuine structure to find. A "tinted" style
additionally hides per-sample color variants inside one domain, which gives
single-source experiments a recoverable latent domain structure.

Each sample owns a seeded stream (jitter, tint variant, then noise), so
generation costs one stream and its draws per sample. The noiseless styled
image is built once per distinct (class, dy, dx, variant) of a domain and
added to the noise of every sample that drew it; `cli sweep` generates its
dataset once for all of its cells.
"""

from dataclasses import dataclass, field

import numpy as np

from .datasets import TEST, TRAIN, MultiDomainDataset
from .errors import InvalidSpec
from .rng import SeededRng

STYLE_KINDS = ("clean", "invert", "lowfreq", "checker", "tinted")

# Nominal pixel range after styling is [-0.5, 1.5]; images are not clamped.
SINE_PERIOD = 8.0
SINE_AMPLITUDE = 0.3
CHECKER_AMPLITUDE = 0.2
CHECKER_TINT = (0.15, 0.0, -0.15)

# Strong, well-separated channel offsets for hidden tint variants.
TINT_PALETTE = (
    (0.25, -0.10, -0.15),
    (-0.15, 0.25, -0.10),
    (-0.10, -0.15, 0.25),
    (0.20, 0.20, 0.20),
)


@dataclass(frozen=True)
class StyleSpec:
    """One domain's transform; variants > 1 hides per-sample tint sub-styles."""

    kind: str
    variants: int = 1
    tint_strength: float = 1.0

    def __post_init__(self):
        if self.kind not in STYLE_KINDS:
            raise InvalidSpec(f"unknown style kind {self.kind!r}")
        if self.kind == "tinted":
            if not 2 <= self.variants <= len(TINT_PALETTE):
                raise InvalidSpec(f"tinted style needs 2..{len(TINT_PALETTE)} variants")
        elif self.variants != 1:
            raise InvalidSpec("only the tinted style carries variants")


DEFAULT_STYLES = (
    StyleSpec("clean"),
    StyleSpec("invert"),
    StyleSpec("lowfreq"),
    StyleSpec("checker"),
)


@dataclass(frozen=True)
class ToySpec:
    height: int = 16
    width: int = 16
    channels: int = 3
    class_count: int = 5
    styles: tuple[StyleSpec, ...] = DEFAULT_STYLES
    train_per_cell: int = 100
    test_per_cell: int = 50
    jitter: int = 2
    noise_sigma: float = 0.05
    name: str = "toy"

    def __post_init__(self):
        if self.height < 8 or self.width < 8:
            raise InvalidSpec("grid must be at least 8x8")
        if not 1 <= self.class_count <= 5:
            raise InvalidSpec("between 1 and 5 glyph classes are available")
        if self.channels < 1:
            raise InvalidSpec("need at least one channel")
        if len(self.styles) < 2:
            raise InvalidSpec("need at least two domains")
        if len(set(self.styles)) != len(self.styles):
            raise InvalidSpec("domain styles must be distinct")
        if self.train_per_cell < 1 or self.test_per_cell < 1:
            raise InvalidSpec("every (domain, class, split) cell must be non-empty")
        if self.jitter < 0 or self.noise_sigma < 0:
            raise InvalidSpec("jitter and noise_sigma must be non-negative")
        if self.jitter >= min(self.height, self.width):
            raise InvalidSpec(f"jitter {self.jitter} must be below the grid side "
                              f"{min(self.height, self.width)}")
        if self.name in ("", ".", "..") or any(ch in self.name for ch in "/\\\0"):
            raise InvalidSpec(f"name must be a plain file stem, got {self.name!r}")

    @property
    def domain_count(self):
        return len(self.styles)


def glyph_templates(height, width):
    """Five bold binary shapes with a clear margin for translation jitter."""
    t = np.zeros((5, height, width))
    h4, w4 = height // 4, width // 4
    ch, cw = height / 2 - 0.5, width / 2 - 0.5

    t[0, h4:-h4, w4:-w4] = 1.0  # filled square

    yy, xx = np.mgrid[0:height, 0:width]
    radius = np.hypot(yy - ch, xx - cw)
    ring = (radius <= min(height, width) * 0.33) & (radius >= min(height, width) * 0.18)
    t[1][ring] = 1.0  # hollow ring

    diag = (np.abs((yy - ch) - (xx - cw)) <= 1.0) | (np.abs((yy - ch) + (xx - cw)) <= 1.0)
    inside = (yy >= h4 - 1) & (yy < height - h4 + 1) & (xx >= w4 - 1) & (xx < width - w4 + 1)
    t[2][diag & inside] = 1.0  # X cross

    for row in range(h4, height - h4, 4):  # horizontal stripes
        t[3, row:row + 2, w4:-w4] = 1.0

    bar = 2
    t[4, h4:-h4, int(cw) - bar // 2:int(cw) + bar // 2 + 1] = 1.0  # plus sign
    t[4, int(ch) - bar // 2:int(ch) + bar // 2 + 1, w4:-w4] = 1.0
    return t


def _channel_tint(base, channels, strength=1.0):
    tint = np.array([base[i % len(base)] for i in range(channels)], dtype=np.float64)
    return strength * tint[:, None, None]


def _shift(plane, dy, dx):
    """Integer translation with zero fill."""
    out = np.zeros_like(plane)
    h, w = plane.shape
    src_y = slice(max(0, -dy), min(h, h - dy))
    dst_y = slice(max(0, dy), min(h, h + dy))
    src_x = slice(max(0, -dx), min(w, w - dx))
    dst_x = slice(max(0, dx), min(w, w + dx))
    out[dst_y, dst_x] = plane[src_y, src_x]
    return out


def _apply_style(img, style: StyleSpec, variant, height, width, channels):
    if style.kind == "clean":
        return img
    if style.kind == "invert":
        return 1.0 - img
    if style.kind == "tinted":
        return img + _channel_tint(TINT_PALETTE[variant], channels, style.tint_strength)
    yy, xx = np.mgrid[0:height, 0:width]
    if style.kind == "lowfreq":
        background = SINE_AMPLITUDE * np.sin(2.0 * np.pi * (yy + xx) / SINE_PERIOD)
        return img + background[None, :, :]
    if style.kind == "checker":
        board = CHECKER_AMPLITUDE * np.where((yy + xx) % 2 == 0, 1.0, -1.0)
        return img + board[None, :, :] + _channel_tint(CHECKER_TINT, channels)
    raise InvalidSpec(f"unknown style kind {style.kind!r}")


def generate_toy(spec: ToySpec, seed):
    """Deterministic dataset; train/test draws come from disjoint seed streams.

    Per-sample annotations land in extras: "hidden_style" holds the tint
    variant (-1 where the domain has none) and "jitter" the injected (dy, dx).
    These stay in memory only; the binary container does not carry them.
    """
    templates = glyph_templates(spec.height, spec.width)
    rng = SeededRng(seed)
    n = spec.domain_count * spec.class_count * (spec.train_per_cell + spec.test_per_cell)
    images = np.empty((n, spec.channels, spec.height, spec.width))  # never held twice
    labels, domains, splits = [], [], []
    hidden, jitters = [], []
    for d, style in enumerate(spec.styles):
        drawn = {}  # (class, dy, dx, variant) -> the domain's samples that drew it
        for c in range(spec.class_count):
            for split, count in [(TRAIN, spec.train_per_cell), (TEST, spec.test_per_cell)]:
                for i in range(count):
                    r = rng.substream(d, c, split, i)
                    dy, dx = (
                        (0, 0) if spec.jitter == 0 else
                        tuple(r.integers(-spec.jitter, spec.jitter + 1, size=2))
                    )
                    variant = int(r.integers(0, style.variants)) if style.variants > 1 else -1
                    drawn.setdefault((c, dy, dx, variant), []).append(len(labels))
                    images[len(labels)] = r.normal(
                        0.0, spec.noise_sigma, size=(spec.channels, spec.height, spec.width))
                    labels.append(c)
                    domains.append(d)
                    splits.append(split)
                    hidden.append(variant)
                    jitters.append((dy, dx))
        # Each distinct noiseless image is styled once and added to its samples'
        # noise; addition commutes exactly, so the bytes are styled + noise.
        for (c, dy, dx, variant), rows in drawn.items():
            glyph = _shift(templates[c], dy, dx)
            images[rows] += _apply_style(np.repeat(glyph[None, :, :], spec.channels, axis=0),
                                         style, variant, spec.height, spec.width, spec.channels)
    return MultiDomainDataset(
        images=images,
        labels=np.array(labels, dtype=np.int64),
        domains=np.array(domains, dtype=np.int64),
        splits=np.array(splits, dtype=np.uint8),
        class_count=spec.class_count,
        domain_count=spec.domain_count,
        extras={
            "hidden_style": np.array(hidden, dtype=np.int64),
            "jitter": np.array(jitters, dtype=np.int64),
        },
    )


def sdg_toy_spec(**kwargs):
    """Default spec with the first domain replaced by a hidden-tint source.

    Single-source experiments distill from domain 0 (whose sub-styles are the
    recorded tint variants) and treat the remaining style domains as unseen.
    """
    styles = (StyleSpec("tinted", variants=4, tint_strength=1.5),
              StyleSpec("invert"), StyleSpec("lowfreq"), StyleSpec("checker"))
    return ToySpec(styles=styles, **kwargs)
