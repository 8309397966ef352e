
import numpy as np
import pytest

from sgsdistill.datasets import TEST, TRAIN, DataView, MultiDomainDataset
from sgsdistill.errors import EmptyClass, EmptySet, UnknownDomain
from sgsdistill.rng import SeededRng
from sgsdistill.toydata import ToySpec, generate_toy

from helpers import make_dataset, materialised, peak_allocation


@pytest.fixture()
def ds():
    return make_dataset(SeededRng(0), class_count=3, domain_count=3,
                        train_per_cell=4, test_per_cell=2)


def test_views_filter_by_domain_and_split(ds):
    assert len(ds.train_view()) == 3 * 3 * 4
    assert len(ds.test_view()) == 3 * 3 * 2
    v = ds.train_view(domain=1)
    assert len(v) == 3 * 4
    assert set(v.labels.tolist()) == {0, 1, 2}


def test_unknown_domain_rejected(ds):
    with pytest.raises(UnknownDomain):
        ds.view(domain=7)
    with pytest.raises(UnknownDomain):
        ds.without_domain(-1)


def test_without_domain_renumbers_contiguously(ds):
    reduced = ds.without_domain(1)
    assert reduced.domain_count == 2
    assert np.unique(reduced.domains).tolist() == [0, 1]
    # old domain 0 stays 0; old domain 2 becomes 1; uids are preserved
    kept_uids = set(ds.uids[ds.domains != 1].tolist())
    assert set(reduced.uids.tolist()) == kept_uids


def test_only_domain_and_flatten(ds):
    single = ds.only_domain(2)
    assert single.domain_count == 1
    assert set(single.domains.tolist()) == {0}
    flat, old = ds.flatten_domains()
    assert flat.domain_count == 1
    assert np.array_equal(old, ds.domains)


def test_subset_carries_extras():
    ds = make_dataset(SeededRng(1), class_count=2, domain_count=2)
    ds.extras["tag"] = np.arange(len(ds))
    sub = ds.subset(ds.labels == 0)
    assert np.array_equal(sub.extras["tag"], ds.uids[ds.labels == 0])


def test_view_class_indexing_and_errors():
    view = DataView(images=np.zeros((3, 1, 2, 2)),
                    labels=np.array([0, 0, 1]), class_count=3)
    assert view.class_indices(0).tolist() == [0, 1]
    with pytest.raises(EmptyClass):
        view.class_indices(2)
    empty = DataView(images=np.zeros((0, 1, 2, 2)), labels=np.array([], dtype=np.int64),
                     class_count=1)
    with pytest.raises(EmptySet):
        empty.require_nonempty()


def test_class_pixel_mean_cached():
    rng = SeededRng(2)
    view = DataView(images=rng.normal(size=(6, 1, 2, 2)),
                    labels=np.array([0, 0, 0, 1, 1, 1]), class_count=2)
    first = view.class_pixel_mean(0)
    assert view.class_pixel_mean(0) is first
    assert np.abs(first - view.images[:3].mean(axis=0)).max() < 1e-15


def test_dataset_validation():
    with pytest.raises(ValueError):
        MultiDomainDataset(
            images=np.zeros((2, 1, 2, 2)),
            labels=np.array([0, 5]),
            domains=np.zeros(2, dtype=np.int64),
            splits=np.zeros(2, dtype=np.uint8),
            class_count=2,
            domain_count=1,
        )
    with pytest.raises(ValueError):
        MultiDomainDataset(
            images=np.zeros((2, 1, 2, 2)),
            labels=np.array([0, 1]),
            domains=np.zeros(1, dtype=np.int64),
            splits=np.zeros(2, dtype=np.uint8),
            class_count=2,
            domain_count=1,
        )


@pytest.mark.parametrize("images", [np.zeros((2, 2, 2), dtype=np.int64),
                                    np.zeros((2, 1, 2, 2), dtype=np.int64),
                                    np.zeros((2, 1, 2, 2), dtype=np.float16),
                                    np.zeros((2, 1, 1, 2, 2))],
                         ids=["3d-int", "4d-int", "4d-f16", "5d-f64"])
def test_pixels_must_be_a_4d_float32_or_float64_array(images):
    with pytest.raises(ValueError, match="float32 or float64"):
        MultiDomainDataset(images=images, labels=np.zeros(2, dtype=np.int64),
                           domains=np.zeros(2, dtype=np.int64),
                           splits=np.zeros(2, dtype=np.uint8), class_count=1, domain_count=1)


@pytest.mark.parametrize("relabel", [
    lambda ds: ds.with_domain_labels(np.arange(len(ds)) % 2, 2),
    lambda ds: ds.flatten_domains()[0],
], ids=["with_domain_labels", "flatten_domains"])
@pytest.mark.parametrize("parent", [lambda ds: ds, lambda ds: ds.only_domain(0)],
                         ids=["root", "only_domain"])
def test_no_write_to_a_relabelled_dataset_reaches_its_parent(relabel, parent):
    toy = generate_toy(ToySpec(height=8, width=8, train_per_cell=3, test_per_cell=2), seed=0)
    toy.extras["style"] = np.arange(len(toy))
    source = parent(toy)
    before = {name: getattr(source, name).copy() for name in ("labels", "splits", "uids")}
    extras = {k: v.copy() for k, v in source.extras.items()}
    rel = relabel(source)
    rel.labels[0] = 4 - rel.labels[0]
    rel.splits[0] = 1 - rel.splits[0]
    rel.uids[0] = -1
    rel.extras["style"][0] = -1
    rel.extras["tag"] = np.zeros(len(rel))
    for name, values in before.items():
        assert getattr(source, name).tobytes() == values.tobytes(), name
    assert sorted(source.extras) == sorted(extras)
    for k, values in extras.items():
        assert source.extras[k].tobytes() == values.tobytes(), k


def test_an_f32_dataset_gathers_f32_and_views_its_f64_widening():
    toy = generate_toy(ToySpec(height=8, width=8, train_per_cell=3, test_per_cell=2), seed=0)
    f32 = materialised(toy, toy.images.astype(np.float32))
    f64 = materialised(toy, f32.images.astype(np.float64))
    for case, (make, rows) in SUBSETS.items():
        sub32, sub64 = make(f32), make(f64)
        assert sub32.images.dtype == np.float32, case
        assert sub32.images.tobytes() == f32.images[rows(toy)].tobytes(), case
        for domain in [None, *range(sub32.domain_count)]:
            got, want = sub32.view(domain, TRAIN), sub64.view(domain, TRAIN)
            assert got.images.dtype == np.float64
            assert got.images.tobytes() == want.images.tobytes(), case


@pytest.fixture(scope="module")
def toy():
    return generate_toy(ToySpec(), seed=0)


def relabelled(ds):
    single = ds.only_domain(0)
    return single.with_domain_labels(np.arange(len(single)) % 3, 3)


# (make a subset of a dataset, the rows of its images that the subset holds)
SUBSETS = {
    **{f"without_domain({t})": (lambda ds, t=t: ds.without_domain(t),
                                lambda ds, t=t: ds.domains != t) for t in range(4)},
    "subset": (lambda ds: ds.subset(ds.labels == 2), lambda ds: ds.labels == 2),
    "only_domain(2)": (lambda ds: ds.only_domain(2), lambda ds: ds.domains == 2),
    "only_domain(0).with_domain_labels": (relabelled, lambda ds: ds.domains == 0),
    "without_domain(1).subset": (lambda ds: ds.without_domain(1).subset(
        ds.labels[ds.domains != 1] == 4), lambda ds: (ds.domains != 1) & (ds.labels == 4)),
}


@pytest.mark.parametrize("case", sorted(SUBSETS))
def test_subsets_share_pixels_and_give_the_bytes_of_a_copy(toy, case):
    make, rows = SUBSETS[case]
    sub, peak = peak_allocation(lambda: make(toy))
    # A subset copies its per-sample arrays only, never its images.
    assert peak < 0.01 * toy.images.nbytes
    copy = materialised(sub, toy.images[rows(toy)])
    assert len(sub) == len(copy)
    assert sub.images.tobytes() == copy.images.tobytes()
    for domain in [None, *range(sub.domain_count)]:
        for split in [None, TRAIN, TEST]:
            got, want = sub.view(domain, split), copy.view(domain, split)
            assert got.images.tobytes() == want.images.tobytes()
            assert got.uids.tobytes() == want.uids.tobytes()


def test_no_write_through_a_subset_reaches_its_parent(toy):
    before = toy.images.copy()
    for make, _ in SUBSETS.values():
        images = make(toy).images
        with pytest.raises(ValueError):
            images[0] = 0.0
    # Views copy, so they stay writable and writing into one changes nothing else.
    view = toy.without_domain(1).train_view()
    view.images[:] = 0.0
    assert toy.images.tobytes() == before.tobytes()
    assert toy.images.flags.writeable
    root = MultiDomainDataset(images=before, labels=toy.labels, domains=toy.domains,
                              splits=toy.splits, class_count=toy.class_count,
                              domain_count=toy.domain_count)
    assert root.images is before
