import hashlib

import numpy as np
import pytest

from sgsdistill import toydata
from sgsdistill.datasets import TRAIN
from sgsdistill.errors import InvalidSpec
from sgsdistill.featurizers import ConvFeaturizer
from sgsdistill.pseudo import cluster_purity, kmeans, style_stats_batch
from sgsdistill.rng import SeededRng
from sgsdistill.toydata import (
    StyleSpec,
    ToySpec,
    generate_toy,
    glyph_templates,
    sdg_toy_spec,
)

SMALL = ToySpec(train_per_cell=12, test_per_cell=6)

TINTED2 = ToySpec(styles=(StyleSpec("tinted", variants=2, tint_strength=0.5),
                          StyleSpec("checker")), train_per_cell=20, test_per_cell=10)


def _digest(ds):
    h = hashlib.sha256()
    for a in (ds.images, ds.labels, ds.domains, ds.splits,
              ds.extras["hidden_style"], ds.extras["jitter"]):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Digests of an earlier generator that styled every sample from scratch.
@pytest.mark.parametrize("spec, digest", [
    (ToySpec(), "1a6c4f7ec144de0c986c7564bf39f632611b4c5eebb63f5537378fc6024c0453"),
    (sdg_toy_spec(), "fc20cc49a49cf8dd7e6da2b4362a971807bff219303e968ec7a5ad1410fbccbc"),
    (ToySpec(jitter=0, channels=1, height=12, width=10),
     "581d676e994ae48d8a2b09b2f293688c6bb6136dfb34947f40e987d72ec73232"),
    (TINTED2, "07319ee4d9d3c26e27a79a62669bafd07c5480823bd705eb6253e85a1ce4f7b3"),
], ids=["default", "sdg", "plain-12x10", "tinted-2"])
def test_generated_bytes_are_pinned(spec, digest):
    assert _digest(generate_toy(spec, seed=0)) == digest


@pytest.mark.parametrize("spec", [SMALL, TINTED2], ids=["small", "tinted-2"])
def test_each_distinct_glyph_is_styled_once_per_domain(monkeypatch, spec):
    styled, apply_style = [], toydata._apply_style

    def counted(img, style, *rest):
        styled.append(style)
        return apply_style(img, style, *rest)

    monkeypatch.setattr(toydata, "_apply_style", counted)
    ds = generate_toy(spec, seed=4)
    for d, style in enumerate(spec.styles):
        mask = ds.domains == d
        keys = {(c, dy, dx, v) for c, (dy, dx), v in zip(
            ds.labels[mask], ds.extras["jitter"][mask], ds.extras["hidden_style"][mask])}
        assert styled.count(style) == len(keys) < mask.sum()


def test_same_seed_bit_identical():
    a = generate_toy(SMALL, seed=5)
    b = generate_toy(SMALL, seed=5)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.domains, b.domains)
    c = generate_toy(SMALL, seed=6)
    assert a.images.tobytes() != c.images.tobytes()


def test_every_cell_populated():
    ds = generate_toy(SMALL, seed=1)
    for d in range(ds.domain_count):
        for c in range(ds.class_count):
            for split, count in [(0, 12), (1, 6)]:
                mask = (ds.domains == d) & (ds.labels == c) & (ds.splits == split)
                assert mask.sum() == count


def test_pixel_range_nominal():
    ds = generate_toy(SMALL, seed=2)
    assert ds.images.min() > -0.75
    assert ds.images.max() < 1.75


def test_glyphs_have_jitter_margin():
    t = glyph_templates(16, 16)
    assert t.shape == (5, 16, 16)
    for g in t:
        assert g.sum() > 10
        rows = np.flatnonzero(g.any(axis=1))
        cols = np.flatnonzero(g.any(axis=0))
        assert rows[0] >= 2 and rows[-1] <= 13
        assert cols[0] >= 2 and cols[-1] <= 13


def test_clean_domain_correlation_peak_at_injected_shift():
    # Cross-correlating a clean sample with its class template must peak at
    # the jitter offset the generator recorded for that sample.
    ds = generate_toy(SMALL, seed=3)
    templates = glyph_templates(16, 16)
    clean = np.flatnonzero((ds.domains == 0) & (ds.splits == TRAIN))
    hits = 0
    for idx in clean[:40]:
        sample = ds.images[idx].mean(axis=0)
        template = templates[ds.labels[idx]]
        best, best_off = -np.inf, None
        for dy in range(-3, 4):
            for dx in range(-3, 4):
                score = float(np.sum(np.roll(template, (dy, dx), axis=(0, 1)) * sample))
                if score > best:
                    best, best_off = score, (dy, dx)
        if tuple(ds.extras["jitter"][idx]) == best_off:
            hits += 1
    assert hits >= 36  # noise may flip a rare borderline offset


def test_domain_styles_are_separable_in_style_space():
    ds = generate_toy(ToySpec(train_per_cell=25, test_per_cell=5), seed=4)
    psi = ConvFeaturizer.create(3, 16, 3, SeededRng(1000))
    train = ds.subset(ds.splits == TRAIN)
    styles = style_stats_batch(train.images, psi)
    doms = train.domains
    within, between = [], []
    for i in range(0, len(styles), 2):
        for j in range(i + 1, min(i + 30, len(styles))):
            dist = np.linalg.norm(styles[i] - styles[j])
            (within if doms[i] == doms[j] else between).append(dist)
    assert np.mean(between) >= 3.0 * np.mean(within)


def test_default_domains_recoverable_by_clustering():
    ds = generate_toy(ToySpec(train_per_cell=25, test_per_cell=5), seed=0)
    psi = ConvFeaturizer.create(3, 16, 3, SeededRng(1000))
    train = ds.subset(ds.splits == TRAIN)
    styles = style_stats_batch(train.images, psi)
    model = kmeans(styles, 4, SeededRng(7), restarts=10)
    assert cluster_purity(model.assignments, train.domains) >= 0.8


def test_tinted_source_records_hidden_styles():
    spec = sdg_toy_spec(train_per_cell=10, test_per_cell=5)
    ds = generate_toy(spec, seed=9)
    src_mask = ds.domains == 0
    assert set(np.unique(ds.extras["hidden_style"][src_mask])) == {0, 1, 2, 3}
    assert set(np.unique(ds.extras["hidden_style"][~src_mask])) == {-1}


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        ToySpec(class_count=9)
    with pytest.raises(InvalidSpec):
        ToySpec(styles=(StyleSpec("clean"),))
    with pytest.raises(InvalidSpec):
        ToySpec(styles=(StyleSpec("clean"), StyleSpec("clean")))
    with pytest.raises(InvalidSpec):
        StyleSpec("sparkly")
    with pytest.raises(InvalidSpec):
        StyleSpec("clean", variants=3)
    with pytest.raises(InvalidSpec):
        ToySpec(train_per_cell=0)
    for jitter in (8, 9, 12):
        with pytest.raises(InvalidSpec, match="below the grid side"):
            ToySpec(height=8, width=8, jitter=jitter)
        with pytest.raises(InvalidSpec):
            ToySpec(height=16, width=8, jitter=jitter)
    edge = generate_toy(ToySpec(height=8, width=8, jitter=7, train_per_cell=3,
                                test_per_cell=1), seed=0)
    assert np.abs(edge.extras["jitter"]).max() <= 7
