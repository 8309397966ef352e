"""Storage round trips: the dataset container, checkpoints, and IDX import."""

import os
import struct
import tempfile
import tracemalloc

import numpy as np

from sgsdistill import (
    ToySpec,
    checkpoint,
    generate_toy,
    import_idx,
    load_dataset,
    restore,
    run_distillation,
    save_dataset,
    toy_protocol_config,
)

with tempfile.TemporaryDirectory() as td:
    dataset = generate_toy(ToySpec(train_per_cell=10, test_per_cell=5), seed=0)
    path = os.path.join(td, "toy.dgdd")
    save_dataset(dataset, path)
    size = os.path.getsize(path)
    tracemalloc.start()
    back = load_dataset(path)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    f32 = dataset.images.astype("<f4")
    view = back.train_view().images
    widened = dataset.train_view().images.astype("<f4").astype(np.float64)
    print(f"dataset container: {size / 1024:.0f} KiB for {len(dataset)} samples")
    print(f"  loaded pixels ({back.images.dtype}) bit-exact with the f32 values: "
          f"{back.images.tobytes() == f32.tobytes()}")
    print(f"  a view ({view.dtype}) bit-exact with their f64 widening: "
          f"{view.tobytes() == widened.tobytes()}")
    print(f"  labels/domains/splits exact: "
          f"{np.array_equal(back.labels, dataset.labels)}")
    # A load streams the records through one chunk of at most 1 MiB: it holds
    # the pixels once, never the file's bytes beside them.
    print(f"  load peak {peak / 1024:.0f} KiB next to the {size / 1024:.0f} KiB file, "
          f"within one f32 copy of the pixels plus one 1 MiB record chunk: "
          f"{peak < back.images.nbytes * 1.05 + 2**20}")

    cfg = toy_protocol_config(ipc=4, iterations=10, init="uniform")
    half = run_distillation(dataset, cfg)
    ck = os.path.join(td, "half.dgck")
    checkpoint(half.synthetic, ck)
    restored = restore(ck)
    resumed = run_distillation(dataset, toy_protocol_config(ipc=4, iterations=20, init="uniform"),
                               initial=restored)
    straight = run_distillation(dataset, toy_protocol_config(ipc=4, iterations=20, init="uniform"))
    print(f"\ncheckpoint at iteration {restored.iteration} (one file: {os.path.basename(ck)}), "
          f"resumed to 20:")
    print(f"  bit-identical to an uninterrupted run: "
          f"{resumed.synthetic.images.tobytes() == straight.synthetic.images.tobytes()}")
    print(f"  init provenance survives restore: "
          f"{np.array_equal(restored.init_uids, half.synthetic.init_uids)} "
          f"(seed uids {restored.init_uids[:4].tolist()} ...)")

    # A miniature file in the published IDX layout (big-endian magic 0x803/0x801).
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(12, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=12).astype(np.uint8)
    ipath, lpath = os.path.join(td, "img.idx"), os.path.join(td, "lbl.idx")
    with open(ipath, "wb") as fh:
        fh.write(struct.pack(">4i", 0x803, 12, 28, 28) + pixels.tobytes())
    with open(lpath, "wb") as fh:
        fh.write(struct.pack(">2i", 0x801, 12) + labels.tobytes())
    digits = import_idx(ipath, lpath)
    print(f"\nIDX import: {digits.images.shape[0]} images at "
          f"{digits.images.shape[2]}x{digits.images.shape[3]}, "
          f"pixel range [{digits.images.min():.2f}, {digits.images.max():.2f}]")
