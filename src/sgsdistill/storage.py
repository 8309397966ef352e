"""Binary containers, JSON descriptors, IDX import, and CSV export.

Dataset container ("DGDD", version 1, little-endian):
    magic[4] | version u16 | N,H,W,channels,C,S u32 each
    per sample: class u16 | domain u16 | split u8 | pixels f32 row-major
    crc32 u32 over everything between the version field and the checksum
Pixels are stored at f32: a documented lossy step for float64 pipelines.

Checkpoint container ("DGCK") keeps the same layout without the split byte and
with f64 pixels, so restoring a run is bit-lossless. Grid dumps ("DGGR") hold
bare f64 grids. Container and JSON writes go through a temp file and an atomic
rename (the temp file is removed when a write fails); all reads either return
a complete object or raise.
"""

import contextlib
import json
import os
import struct
import zlib

import numpy as np

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
FORMAT_VERSION = 1

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _atomic_write(path, data):
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
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


class _Reader:
    """Bounds-checked cursor over raw bytes; truncation surfaces as IoError."""

    def __init__(self, data, offset=0):
        self.data = data
        self.offset = offset

    def take(self, n):
        if self.offset + n > len(self.data):
            raise IoError("truncated file")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def _check_header(reader, magic):
    if reader.take(4) != magic:
        raise BadMagic(f"expected magic {magic!r}")
    version = reader.u16()
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(f"format version {version}, supported {FORMAT_VERSION}")


def _check_crc(data, payload_start):
    if len(data) < payload_start + 4:
        raise IoError("truncated file")
    payload, stored = data[payload_start:-4], data[-4:]
    if zlib.crc32(payload) != struct.unpack("<I", stored)[0]:
        raise ChecksumMismatch("payload checksum mismatch")
    return payload


def save_dataset(dataset, path):
    """Write the DGDD container (pixels quantized to f32)."""
    n = len(dataset)
    ch, h, w = dataset.image_shape
    body = bytearray()
    body += struct.pack("<6I", n, h, w, ch, dataset.class_count, dataset.domain_count)
    for i in range(n):
        body += struct.pack("<HHB", int(dataset.labels[i]), int(dataset.domains[i]),
                            int(dataset.splits[i]))
        body += dataset.images[i].astype("<f4").tobytes()
    blob = DATASET_MAGIC + struct.pack("<H", FORMAT_VERSION) + bytes(body)
    blob += struct.pack("<I", zlib.crc32(bytes(body)))
    _atomic_write(path, blob)


def load_dataset(path):
    """Read a DGDD container back into a MultiDomainDataset (pixels as f64)."""
    from .datasets import MultiDomainDataset

    data = _read_file(path)
    reader = _Reader(data)
    _check_header(reader, DATASET_MAGIC)
    payload = _check_crc(data, reader.offset)
    reader = _Reader(payload)
    n, h, w, ch, classes, domains_count = (reader.u32() for _ in range(6))
    record = 5 + 4 * ch * h * w
    if len(payload) != 24 + n * record:
        raise IoError("truncated or padded sample records")
    images = np.empty((n, ch, h, w), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    domains = np.empty(n, dtype=np.int64)
    splits = np.empty(n, dtype=np.uint8)
    for i in range(n):
        labels[i], domains[i], splits[i] = struct.unpack("<HHB", reader.take(5))
        pix = np.frombuffer(reader.take(4 * ch * h * w), dtype="<f4")
        images[i] = pix.reshape(ch, h, w).astype(np.float64)
    return MultiDomainDataset(
        images=images, labels=labels, domains=domains, splits=splits,
        class_count=classes, domain_count=domains_count,
    )


def save_checkpoint_images(images, labels, domains, path):
    """Write the f64 checkpoint container for a synthetic set."""
    n, ch, h, w = images.shape
    body = bytearray()
    body += struct.pack("<4I", n, h, w, ch)
    for i in range(n):
        body += struct.pack("<HH", int(labels[i]), int(domains[i]))
        body += images[i].astype("<f8").tobytes()
    blob = CHECKPOINT_MAGIC + struct.pack("<H", FORMAT_VERSION) + bytes(body)
    blob += struct.pack("<I", zlib.crc32(bytes(body)))
    _atomic_write(path, blob)


def load_checkpoint_images(path):
    data = _read_file(path)
    reader = _Reader(data)
    _check_header(reader, CHECKPOINT_MAGIC)
    payload = _check_crc(data, reader.offset)
    reader = _Reader(payload)
    n, h, w, ch = (reader.u32() for _ in range(4))
    record = 4 + 8 * ch * h * w
    if len(payload) != 16 + n * record:
        raise IoError("truncated or padded sample records")
    images = np.empty((n, ch, h, w), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    domains = np.empty(n, dtype=np.int64)
    for i in range(n):
        labels[i], domains[i] = struct.unpack("<HH", reader.take(4))
        pix = np.frombuffer(reader.take(8 * ch * h * w), dtype="<f8")
        images[i] = pix.reshape(ch, h, w)
    return images, labels, domains


def save_grids(grids, path):
    """Dump a stack of f64 grids (e.g. resultant maps) for offline inspection."""
    grids = np.asarray(grids, dtype=np.float64)
    n, ch, h, w = grids.shape
    body = struct.pack("<4I", n, h, w, ch) + grids.astype("<f8").tobytes()
    blob = GRIDS_MAGIC + struct.pack("<H", FORMAT_VERSION) + body
    blob += struct.pack("<I", zlib.crc32(body))
    _atomic_write(path, blob)


def load_grids(path):
    data = _read_file(path)
    reader = _Reader(data)
    _check_header(reader, GRIDS_MAGIC)
    payload = _check_crc(data, reader.offset)
    reader = _Reader(payload)
    n, h, w, ch = (reader.u32() for _ in range(4))
    if len(payload) != 16 + 8 * n * ch * h * w:
        raise IoError("truncated grid payload")
    return np.frombuffer(reader.take(8 * n * ch * h * w), dtype="<f8").reshape(n, ch, h, w).copy()


def import_idx(images_path, labels_path, domain_id=0, split=0):
    """Parse the classic big-endian IDX image/label pair into a dataset.

    Pixels are rescaled from u8 to [0, 1]; the single resulting domain gets
    the given id and every sample the given split flag.
    """
    from .datasets import MultiDomainDataset

    img_data = _read_file(images_path)
    if len(img_data) < 16:
        raise BadMagic("image file too short for an IDX header")
    magic, count, rows, cols = struct.unpack(">4i", img_data[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise BadMagic(f"image magic {magic:#010x}, expected {IDX_IMAGES_MAGIC:#010x}")
    expected = 16 + count * rows * cols
    if len(img_data) < expected:
        raise DimensionMismatch("image payload shorter than the declared count")
    pixels = np.frombuffer(img_data[16:expected], dtype=np.uint8)

    lbl_data = _read_file(labels_path)
    if len(lbl_data) < 8:
        raise BadMagic("label file too short for an IDX header")
    lmagic, lcount = struct.unpack(">2i", lbl_data[:8])
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
        domains=np.full(count, int(domain_id), dtype=np.int64),
        splits=np.full(count, int(split), dtype=np.uint8),
        class_count=int(labels.max()) + 1 if count else 10,
        domain_count=int(domain_id) + 1,
    )


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


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
    """Deterministic UTF-8 CSV with a header row and 6-significant-digit floats."""
    header, rows = _rows_for(obj)
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_loss_history_csv(history, domain_count, path):
    """Columns: iteration, pooled loss, one loss column per source domain."""
    header = ["iteration", "dm_loss"] + [f"domain_{s}" for s in range(domain_count)]
    lines = [",".join(header)]
    for row in history:
        lines.append(",".join(_fmt(v) for v in row))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
