"""Binary containers, JSON descriptors, IDX import, and CSV export.

Dataset container ("DGDD", version 1, little-endian):
    magic[4] | version u16 | N,H,W,channels,C,S u32 each
    per sample: class u16 | domain u16 | split u8 (0 train, 1 test) | pixels f32
    crc32 u32 over everything between the version field and the checksum
Pixels are stored at f32: a documented lossy step for float64 pipelines. A
loaded dataset holds those f32 pixels as they are, and its views are their
exact f64 widening (see datasets).

Checkpoint container ("DGCK", version 2) is a synthetic set's whole state:
    dims N,H,W,channels,iteration u32 each
    per sample: class u16 | domain u16 | init_uid i64 | pixels f64 row-major
f64 pixels make restoring a run bit-lossless; version 1 checkpoints are
refused. Grid dumps ("DGGR", version 1) hold bare f64 grids. One record codec
serves all three: each sample is a packed numpy record, so a container is a
header, one record array and a checksum.
Every container, JSON and CSV write goes through a temp file and an atomic
rename (the temp file is removed when a write fails); all reads either return
a complete object or raise.
"""

import contextlib
import json
import os
import struct
import zlib

import numpy as np

from .datasets import MultiDomainDataset
from .errors import (
    BadMagic,
    ChecksumMismatch,
    DimensionMismatch,
    FormatVersionMismatch,
    IoError,
)

DATASET_MAGIC = b"DGDD"
CHECKPOINT_MAGIC = b"DGCK"
GRIDS_MAGIC = b"DGGR"
FORMAT_VERSION = {DATASET_MAGIC: 1, CHECKPOINT_MAGIC: 2, GRIDS_MAGIC: 1}

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _atomic_write(path, *chunks):
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_json(payload, path):
    """Indented, key-sorted UTF-8 JSON, written through the same atomic rename."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, text.encode("utf-8"))


def _read_file(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _dataset_record(ch, h, w):
    return np.dtype([("label", "<u2"), ("domain", "<u2"), ("split", "u1"),
                     ("pixels", "<f4", (ch, h, w))])


def _checkpoint_record(ch, h, w):
    return np.dtype([("label", "<u2"), ("domain", "<u2"), ("init_uid", "<i8"),
                     ("pixels", "<f8", (ch, h, w))])


def _grid_record(ch, h, w):
    return np.dtype([("pixels", "<f8", (ch, h, w))])


def _records(dtype, **fields):
    """Pack per-sample columns into one record array; ids must fit their field."""
    records = np.empty(len(fields["pixels"]), dtype)
    for name, values in fields.items():
        if dtype[name].kind == "u" and len(values):
            top = np.iinfo(dtype[name]).max
            if np.min(values) < 0 or np.max(values) > top:
                raise ValueError(f"{name} ids must lie in 0..{top}")
        records[name] = values
    return records


def _write_container(path, magic, dims, records):
    """magic | version | dims as u32 | records | crc32 over dims and records."""
    head = struct.pack(f"<{len(dims)}I", *dims)
    crc = zlib.crc32(records, zlib.crc32(head))
    _atomic_write(path, magic, struct.pack("<H", FORMAT_VERSION[magic]), head, records,
                  struct.pack("<I", crc))


def _read_container(path, magic, dim_count, record_type):
    """Check a container and return its dims and a read-only record array.

    The dims start with N, H, W, channels; `record_type(channels, H, W)` gives
    the record dtype.
    """
    data = memoryview(_read_file(path))
    start = 6 + 4 * dim_count
    if len(data) >= 4 and data[:4] != magic:
        raise BadMagic(f"expected magic {magic!r}")
    supported = FORMAT_VERSION[magic]
    if len(data) >= 6 and (version := struct.unpack_from("<H", data, 4)[0]) != supported:
        raise FormatVersionMismatch(f"format version {version}, supported {supported}")
    if len(data) < start + 4:
        raise IoError("truncated file")
    if zlib.crc32(data[6:-4]) != struct.unpack_from("<I", data, len(data) - 4)[0]:
        raise ChecksumMismatch("payload checksum mismatch")
    dims = struct.unpack_from(f"<{dim_count}I", data, 6)
    n, h, w, ch = dims[:4]
    dtype = record_type(ch, h, w)
    if len(data) != start + n * dtype.itemsize + 4:
        raise IoError("truncated or padded sample records")
    return dims, np.frombuffer(data, dtype, count=n, offset=start)


def save_dataset(dataset, path):
    """Write the DGDD container (pixels quantized to f32). Pixels f32 cannot
    hold (not finite, or beyond its largest magnitude) are a ValueError,
    raised before any file is opened."""
    ch, h, w = dataset.image_shape
    images, top = dataset.images, np.finfo(np.float32).max
    if len(images) and not (images.min() >= -top and images.max() <= top):
        raise ValueError(f"pixels must be finite and within +-{top:.4g} to be stored at f32")
    records = _records(_dataset_record(ch, h, w), label=dataset.labels,
                       domain=dataset.domains, split=dataset.splits, pixels=images)
    dims = (len(records), h, w, ch, dataset.class_count, dataset.domain_count)
    _write_container(path, DATASET_MAGIC, dims, records)


def load_dataset(path):
    """Read a DGDD container back into a MultiDomainDataset over one f32 copy
    of the file's pixels (its views are f64); ids at or above the header's
    class or domain count, and split bytes other than 0 (train) or 1 (test),
    are DimensionMismatch."""
    dims, records = _read_container(path, DATASET_MAGIC, 6, _dataset_record)
    for name, count in (("label", dims[4]), ("domain", dims[5]), ("split", 2)):
        if len(records) and (top := records[name].max()) >= count:
            raise DimensionMismatch(f"{name} {top} outside 0..{count - 1}")
    return MultiDomainDataset(
        images=records["pixels"].astype(np.float32),
        labels=records["label"].astype(np.int64),
        domains=records["domain"].astype(np.int64),
        splits=records["split"].astype(np.uint8),
        class_count=dims[4], domain_count=dims[5],
    )


def save_checkpoint_images(images, labels, domains, init_uids, iteration, path):
    """Write the f64 checkpoint container for a synthetic set."""
    n, ch, h, w = images.shape
    records = _records(_checkpoint_record(ch, h, w), label=labels, domain=domains,
                       init_uid=init_uids, pixels=images)
    _write_container(path, CHECKPOINT_MAGIC, (n, h, w, ch, iteration), records)


def load_checkpoint_images(path):
    """(images, labels, domains, init_uids, iteration) of a checkpoint container."""
    dims, records = _read_container(path, CHECKPOINT_MAGIC, 5, _checkpoint_record)
    return (records["pixels"].astype(np.float64), records["label"].astype(np.int64),
            records["domain"].astype(np.int64), records["init_uid"].astype(np.int64),
            dims[4])


def save_grids(grids, path):
    """Dump a stack of f64 grids (e.g. resultant maps) for offline inspection."""
    n, ch, h, w = np.shape(grids)
    _write_container(path, GRIDS_MAGIC, (n, h, w, ch),
                     _records(_grid_record(ch, h, w), pixels=grids))


def load_grids(path):
    _, records = _read_container(path, GRIDS_MAGIC, 4, _grid_record)
    return records["pixels"].astype(np.float64)


def import_idx(images_path, labels_path):
    """Parse the classic big-endian IDX image/label pair into a dataset.

    Pixels are rescaled from u8 to [0, 1]; every sample lands in domain 0 of
    one, in the train split.
    """
    img_data = _read_file(images_path)
    if len(img_data) < 16:
        raise BadMagic("image file too short for an IDX header")
    magic, count, rows, cols = struct.unpack(">4I", img_data[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise BadMagic(f"image magic {magic:#010x}, expected {IDX_IMAGES_MAGIC:#010x}")
    expected = 16 + count * rows * cols
    if len(img_data) < expected:
        raise DimensionMismatch("image payload shorter than the declared count")
    pixels = np.frombuffer(img_data[16:expected], dtype=np.uint8)

    lbl_data = _read_file(labels_path)
    if len(lbl_data) < 8:
        raise BadMagic("label file too short for an IDX header")
    lmagic, lcount = struct.unpack(">2I", lbl_data[:8])
    if lmagic != IDX_LABELS_MAGIC:
        raise BadMagic(f"label magic {lmagic:#010x}, expected {IDX_LABELS_MAGIC:#010x}")
    if lcount != count:
        raise DimensionMismatch(f"{count} images but {lcount} labels")
    if len(lbl_data) < 8 + lcount:
        raise DimensionMismatch("label payload shorter than the declared count")
    labels = np.frombuffer(lbl_data[8:8 + lcount], dtype=np.uint8).astype(np.int64)

    images = pixels.reshape(count, 1, rows, cols).astype(np.float64) / 255.0
    return MultiDomainDataset(
        images=images,
        labels=labels,
        domains=np.zeros(count, dtype=np.int64),
        splits=np.zeros(count, dtype=np.uint8),
        class_count=int(labels.max()) + 1 if count else 10,
        domain_count=1,
    )


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def write_csv(header, rows, path):
    """Deterministic UTF-8 CSV: a header row, integers as is, other numbers at
    6 significant digits, written through the atomic rename."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _rows_for(obj):
    from .circular import DecayCurve, ResultantSweep
    from .evaluation import EvalReport

    if isinstance(obj, EvalReport):
        header = ["target", "seed", "accuracy"]
        rows = [[e.target, e.seed, e.accuracy] for e in obj.entries]
        return header, rows
    if isinstance(obj, DecayCurve):
        header = ["S", "mean_class_magnitude", "stderr"]
        rows = [[s, m, e] for s, m, e in
                zip(obj.domain_counts, obj.class_magnitudes, obj.class_stderr)]
        return header, rows
    if isinstance(obj, ResultantSweep):
        header = ["a", "estimate", "stderr"]
        rows = [[a, m, e] for a, m, e in zip(obj.halfwidths, obj.estimates, obj.stderrs)]
        return header, rows
    raise TypeError(f"no CSV layout for {type(obj).__name__}")


def export_metrics_csv(obj, path):
    """CSV of an EvalReport, DecayCurve or ResultantSweep (see write_csv)."""
    write_csv(*_rows_for(obj), path)


def write_loss_history_csv(history, domain_count, path):
    """Columns: iteration, pooled loss, one loss column per source domain."""
    header = ["iteration", "dm_loss"] + [f"domain_{s}" for s in range(domain_count)]
    write_csv(header, history, path)
