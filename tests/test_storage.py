import struct
import zlib

import numpy as np
import pytest

from sgsdistill import storage
from sgsdistill.circular import DecayCurve, ResultantSweep
from sgsdistill.errors import (
    BadMagic,
    ChecksumMismatch,
    DimensionMismatch,
    FormatVersionMismatch,
    IoError,
)
from sgsdistill.datasets import MultiDomainDataset
from sgsdistill.evaluation import EvalEntry, EvalReport
from sgsdistill.rng import SeededRng
from sgsdistill.storage import (
    export_metrics_csv,
    import_idx,
    load_checkpoint_images,
    load_dataset,
    load_grids,
    save_checkpoint_images,
    save_dataset,
    save_grids,
    write_csv,
    write_json,
    write_loss_history_csv,
)
from sgsdistill.toydata import ToySpec, generate_toy

from helpers import materialised

SMALL = ToySpec(train_per_cell=4, test_per_cell=2)


def test_a_subset_saves_the_bytes_of_a_copy(tmp_path):
    # A subset shares its root's pixels; the container holds its own rows.
    ds = generate_toy(SMALL, seed=2)
    sub = ds.without_domain(1)
    save_dataset(sub, tmp_path / "subset.dgdd")
    save_dataset(materialised(sub, ds.images[ds.domains != 1]), tmp_path / "copy.dgdd")
    assert (tmp_path / "subset.dgdd").read_bytes() == (tmp_path / "copy.dgdd").read_bytes()


def test_dataset_round_trip_bit_exact_at_f32(tmp_path):
    ds = generate_toy(SMALL, seed=1)
    path = tmp_path / "toy.dgdd"
    save_dataset(ds, path)
    back = load_dataset(path)
    # The loaded root holds the f32 bytes, and every view is their f64 bytes.
    assert back.images.tobytes() == ds.images.astype("<f4").tobytes()
    for view, orig in [(back.train_view(), ds.train_view()),
                       (back.test_view(domain=1), ds.test_view(domain=1))]:
        assert view.images.tobytes() == orig.images.astype("<f4").astype(np.float64).tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.domains, ds.domains)
    assert np.array_equal(back.splits, ds.splits)
    assert back.class_count == ds.class_count
    assert back.domain_count == ds.domain_count


def test_a_loaded_dataset_saves_the_bytes_it_was_loaded_from(tmp_path):
    a, b = tmp_path / "a.dgdd", tmp_path / "b.dgdd"
    save_dataset(generate_toy(SMALL, seed=2), a)
    save_dataset(load_dataset(a), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("dtype, bad", [
    (np.float64, 1e39), (np.float64, -1e39), (np.float64, np.inf), (np.float64, np.nan),
    (np.float32, -np.inf), (np.float32, np.nan)])
def test_pixels_f32_cannot_hold_are_refused_before_any_file(tmp_path, dtype, bad):
    ds = generate_toy(SMALL, seed=2)
    images = ds.images.astype(dtype)
    images[3, 0, 1, 2] = bad
    path = tmp_path / "bad.dgdd"
    with pytest.raises(ValueError, match="finite"):
        save_dataset(materialised(ds, images), path)
    assert list(tmp_path.iterdir()) == []


def test_reexport_is_byte_identical(tmp_path):
    ds = generate_toy(SMALL, seed=2)
    a, b = tmp_path / "a.dgdd", tmp_path / "b.dgdd"
    save_dataset(ds, a)
    save_dataset(ds, b)
    assert a.read_bytes() == b.read_bytes()


def test_flipped_magic_rejected(tmp_path):
    ds = generate_toy(SMALL, seed=3)
    path = tmp_path / "toy.dgdd"
    save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        load_dataset(path)


def test_corrupted_payload_rejected(tmp_path):
    ds = generate_toy(SMALL, seed=3)
    path = tmp_path / "toy.dgdd"
    save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[100] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        load_dataset(path)


def test_truncation_never_yields_partial_data(tmp_path):
    ds = generate_toy(SMALL, seed=4)
    path = tmp_path / "toy.dgdd"
    save_dataset(ds, path)
    blob = path.read_bytes()
    for cut in [3, 5, 20, len(blob) // 2, len(blob) - 1]:
        path.write_bytes(blob[:cut])
        with pytest.raises((IoError, BadMagic, ChecksumMismatch)):
            load_dataset(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_dataset(tmp_path / "nope.dgdd")


def test_grid_dump_round_trip(tmp_path):
    grids = SeededRng(0).normal(size=(4, 3, 8, 8))
    path = tmp_path / "maps.dggr"
    save_grids(grids, path)
    assert load_grids(path).tobytes() == grids.tobytes()


def write_idx_pair(tmp_path, count=7, rows=4, cols=5, image_magic=0x803, label_magic=0x801,
                   label_count=None):
    rng = SeededRng(1)
    pixels = rng.integers(0, 256, size=(count, rows, cols)).astype(np.uint8)
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    ipath, lpath = tmp_path / "img.idx", tmp_path / "lbl.idx"
    ipath.write_bytes(struct.pack(">4i", image_magic, count, rows, cols) + pixels.tobytes())
    lcount = count if label_count is None else label_count
    lpath.write_bytes(struct.pack(">2i", label_magic, lcount) + labels[:lcount].tobytes())
    return ipath, lpath, pixels, labels


def test_idx_import(tmp_path):
    ipath, lpath, pixels, labels = write_idx_pair(tmp_path)
    ds = import_idx(ipath, lpath)
    assert ds.images.shape == (7, 1, 4, 5)
    assert ds.images.max() <= 1.0 and ds.images.min() >= 0.0
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    assert np.abs(ds.images[0, 0] - pixels[0] / 255.0).max() < 1e-12


def test_idx_header_constants_match_published_format(tmp_path):
    # Published IDX layout: images 0x00000803, labels 0x00000801, big-endian.
    ipath, lpath, _, _ = write_idx_pair(tmp_path)
    raw = ipath.read_bytes()
    assert raw[:4] == b"\x00\x00\x08\x03"
    assert lpath.read_bytes()[:4] == b"\x00\x00\x08\x01"
    import_idx(ipath, lpath)  # parses cleanly


def test_idx_count_mismatch(tmp_path):
    ipath, lpath, _, _ = write_idx_pair(tmp_path, label_count=5)
    with pytest.raises(DimensionMismatch):
        import_idx(ipath, lpath)


@pytest.mark.parametrize("header", [(-1, 4, 5), (7, -4, -4)], ids=["count", "rows-cols"])
def test_idx_negative_image_header_counts_are_short_payloads(tmp_path, header):
    ipath, lpath, _, _ = write_idx_pair(tmp_path)
    ipath.write_bytes(struct.pack(">4i", 0x803, *header) + ipath.read_bytes()[16:])
    with pytest.raises(DimensionMismatch, match="image payload shorter"):
        import_idx(ipath, lpath)


def test_idx_negative_label_count_is_a_count_mismatch(tmp_path):
    ipath, lpath, _, _ = write_idx_pair(tmp_path, label_count=-1)
    with pytest.raises(DimensionMismatch, match="^7 images but 4294967295 labels$"):
        import_idx(ipath, lpath)


def test_idx_bad_magic_and_empty(tmp_path):
    ipath, lpath, _, _ = write_idx_pair(tmp_path, image_magic=0x123)
    with pytest.raises(BadMagic):
        import_idx(ipath, lpath)
    empty = tmp_path / "empty.idx"
    empty.write_bytes(b"")
    with pytest.raises(BadMagic):
        import_idx(empty, lpath)


def test_eval_report_csv(tmp_path):
    report = EvalReport(protocol="MDG", entries=[
        EvalEntry(target=0, seed=11, accuracy=0.51234567),
        EvalEntry(target=1, seed=12, accuracy=0.25),
    ])
    path = tmp_path / "report.csv"
    export_metrics_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "target,seed,accuracy"
    assert lines[1] == "0,11,0.512346"
    export_metrics_csv(report, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_decay_curve_csv(tmp_path):
    curve = DecayCurve(
        domain_counts=[4, 16, 64],
        class_magnitudes=np.array([0.25, 0.0625, 0.015625]),
        class_stderr=np.array([0.001, 0.0002, 0.00005]),
        class_slope=-1.0,
        consensus_slope=-0.5,
    )
    path = tmp_path / "curve.csv"
    export_metrics_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "S,mean_class_magnitude,stderr"
    assert lines[1] == "4,0.25,0.001"


def test_resultant_sweep_csv(tmp_path):
    sweep = ResultantSweep(
        halfwidths=np.array([0.0, np.pi]),
        estimates=np.array([1.0, 0.003]),
        stderrs=np.array([0.0, 0.001]),
        expected=np.array([1.0, 0.0]),
    )
    path = tmp_path / "sweep.csv"
    export_metrics_csv(sweep, path)
    assert path.read_text().splitlines()[0] == "a,estimate,stderr"


# -- golden layouts, built by hand from the README "File formats" section ----

def container(magic, dims, records, version=None):
    """magic | version u16 | dims u32 | records | crc32 over dims and records."""
    version = version or {b"DGCK": 2}.get(magic, 1)
    payload = struct.pack(f"<{len(dims)}I", *dims) + records
    return magic + struct.pack("<H", version) + payload + struct.pack("<I", zlib.crc32(payload))


def golden_dataset():
    images = (np.arange(2 * 2 * 2 * 3, dtype=np.float64) / 4 - 1).reshape(2, 2, 2, 3)
    ds = MultiDomainDataset(images=images, labels=np.array([2, 0]), domains=np.array([0, 4]),
                            splits=np.array([1, 0], dtype=np.uint8), class_count=3,
                            domain_count=5)
    records = b"".join(struct.pack("<HHB", int(c), int(d), int(s)) +
                       struct.pack(f"<{images[i].size}f", *images[i].ravel())
                       for i, (c, d, s) in enumerate(zip(ds.labels, ds.domains, ds.splits)))
    # N, H, W, channels, classes, domains
    return ds, (2, 2, 3, 2, 3, 5), records


def golden_checkpoint():
    images = (np.arange(2 * 1 * 2 * 2, dtype=np.float64) * 0.1).reshape(2, 1, 2, 2)
    labels, domains = np.array([1, 65535]), np.array([3, 0])
    init_uids, iteration = np.array([-1, 2**40 + 7]), 123456
    records = b"".join(struct.pack("<HHq", int(labels[i]), int(domains[i]), int(init_uids[i])) +
                       struct.pack("<4d", *images[i].ravel()) for i in range(2))
    # N, H, W, channels, iteration
    return (images, labels, domains, init_uids, iteration), (2, 2, 2, 1, iteration), records


def test_dataset_golden_layout(tmp_path):
    ds, dims, records = golden_dataset()
    path = tmp_path / "golden.dgdd"
    save_dataset(ds, path)
    assert path.read_bytes() == container(b"DGDD", dims, records)
    back = load_dataset(path)
    assert np.array_equal(back.images, ds.images)
    assert back.labels.tolist() == [2, 0] and back.domains.tolist() == [0, 4]
    assert back.splits.tolist() == [1, 0]
    assert (back.class_count, back.domain_count) == (3, 5)


def test_checkpoint_golden_layout(tmp_path):
    state, dims, records = golden_checkpoint()
    path = tmp_path / "golden.dgck"
    save_checkpoint_images(*state, path)
    assert path.read_bytes() == container(b"DGCK", dims, records, version=2)
    images, labels, domains, init_uids, iteration = load_checkpoint_images(path)
    assert images.tobytes() == state[0].tobytes()
    assert labels.tolist() == [1, 65535] and domains.tolist() == [3, 0]
    assert init_uids.tolist() == [-1, 2**40 + 7] and iteration == 123456


def test_version_1_checkpoint_rejected(tmp_path):
    # The v1 layout: four dims, no init_uid field, iteration in a JSON sidecar.
    images = np.ones((1, 1, 2, 2))
    path = tmp_path / "old.dgck"
    path.write_bytes(container(b"DGCK", (1, 2, 2, 1), struct.pack("<HH4d", 0, 1, *images.ravel()),
                               version=1))
    with pytest.raises(FormatVersionMismatch):
        load_checkpoint_images(path)
    # The other containers are still version 1.
    assert storage.FORMAT_VERSION == {b"DGDD": 1, b"DGCK": 2, b"DGGR": 1}


def test_grids_golden_layout(tmp_path):
    grids = (np.arange(8, dtype=np.float64) * 0.3).reshape(1, 2, 2, 2)
    path = tmp_path / "golden.dggr"
    save_grids(grids, path)
    assert path.read_bytes() == container(b"DGGR", (1, 2, 2, 2),
                                          struct.pack("<8d", *grids.ravel()))
    assert load_grids(path).tobytes() == grids.tobytes()


@pytest.mark.parametrize("delta", [-1, 1])
def test_record_count_must_match_header(tmp_path, delta):
    _, dims, records = golden_dataset()
    (_, ck_dims, ck_records) = golden_checkpoint()
    cases = [
        (load_dataset, b"DGDD", dims, records),
        (load_checkpoint_images, b"DGCK", ck_dims, ck_records),
        (load_grids, b"DGGR", (2, 1, 1, 1), struct.pack("<2d", 0.5, 1.5)),
    ]
    for loader, magic, head, body in cases:
        path = tmp_path / "bad.bin"
        # Valid magic, version and checksum; only the claimed record count is off.
        path.write_bytes(container(magic, (head[0] + delta,) + head[1:], body))
        with pytest.raises(IoError):
            loader(path)


@pytest.mark.parametrize("counts", [(2, 5), (3, 4)], ids=["class", "domain"])
def test_ids_beyond_the_header_counts_rejected(tmp_path, counts):
    # The golden records hold label 2 and domain 4; the CRC is valid.
    _, dims, records = golden_dataset()
    path = tmp_path / "bad.dgdd"
    path.write_bytes(container(b"DGDD", dims[:4] + counts, records))
    with pytest.raises(DimensionMismatch):
        load_dataset(path)


def test_split_byte_other_than_train_or_test_rejected(tmp_path):
    _, dims, records = golden_dataset()
    bad = bytearray(records)
    bad[4] = 2   # the first record's split byte, after class u16 and domain u16
    path = tmp_path / "bad.dgdd"
    path.write_bytes(container(b"DGDD", dims, bytes(bad)))
    with pytest.raises(DimensionMismatch):
        load_dataset(path)


# -- ids that do not fit their u16 field ---------------------------------------

def test_label_beyond_u16_refused_and_no_file(tmp_path):
    ds = MultiDomainDataset(images=np.zeros((2, 1, 2, 2)), labels=np.array([0, 69999]),
                            domains=np.array([0, 0]), splits=np.zeros(2, dtype=np.uint8),
                            class_count=70000, domain_count=1)
    with pytest.raises(ValueError):
        save_dataset(ds, tmp_path / "wide.dgdd")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_ids_beyond_u16_refused_and_no_file(tmp_path):
    images = np.zeros((2, 1, 2, 2))
    for labels, domains in [([0, 65536], [0, 0]), ([0, 1], [-1, 0])]:
        with pytest.raises(ValueError):
            save_checkpoint_images(images, np.array(labels), np.array(domains),
                                   np.array([-1, -1]), 0, tmp_path / "wide.dgck")
    assert list(tmp_path.iterdir()) == []


# -- every artifact writer is all-or-nothing -------------------------------------

WRITERS = {
    "save_dataset": lambda path: save_dataset(generate_toy(SMALL, seed=5), path),
    "save_checkpoint_images": lambda path: save_checkpoint_images(
        np.ones((2, 1, 2, 2)), np.array([0, 1]), np.array([1, 0]), np.array([5, -1]), 3, path),
    "save_grids": lambda path: save_grids(np.ones((1, 1, 2, 2)), path),
    "write_json": lambda path: write_json({"a": 1}, path),
    "export_metrics_csv": lambda path: export_metrics_csv(
        EvalReport(protocol="MDG", entries=[EvalEntry(target=0, seed=1, accuracy=0.5)]), path),
    "write_loss_history_csv": lambda path: write_loss_history_csv([[0, 1.5, 0.5]], 1, path),
    "write_csv": lambda path: write_csv(["a", "b"], [[1, 0.25]], path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_rename_leaves_old_artifact(monkeypatch, tmp_path, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"old bytes")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(storage.os, "replace", failing_replace)
    with pytest.raises(IoError):
        WRITERS[writer](path)
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    assert path.read_bytes() == b"old bytes"


def test_write_csv_formats_each_cell(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(["param", "value", "mean"], [("k", 2.0, 1 / 3), ("k", np.int64(3), 0.5)], path)
    assert path.read_bytes() == b"param,value,mean\nk,2,0.333333\nk,3,0.5\n"
