"""A dataset loaded from a DGDD container holds the file's f32 pixels, and
every result computed from it is the same bytes as from its f64 copy: views
widen their rows to f64, and the conv style pass widens one block at a time."""

import os
from pathlib import Path

import numpy as np
import pytest

from sgsdistill import storage
from sgsdistill.cli import run
from sgsdistill.datasets import MultiDomainDataset
from sgsdistill.evaluation import EvalConfig, config_distiller, sdg_protocol, toy_protocol_config
from sgsdistill.pipeline import FeaturizerSpec, run_distillation, surgery_snapshot
from sgsdistill.pseudo import default_style_featurizer, style_stats_batch
from sgsdistill.rng import SeededRng
from sgsdistill.toydata import ToySpec, generate_toy, sdg_toy_spec

from helpers import peak_allocation


def widened(ds):
    """ds over an f64 copy of its pixels: what loading returned before it kept f32."""
    return MultiDomainDataset(images=ds.images.astype(np.float64), labels=ds.labels,
                              domains=ds.domains, splits=ds.splits,
                              class_count=ds.class_count, domain_count=ds.domain_count)


def loaded(ds, path):
    storage.save_dataset(ds, path)
    return storage.load_dataset(path)


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    back = loaded(generate_toy(ToySpec(height=8, width=8, train_per_cell=6, test_per_cell=3,
                                       class_count=3), seed=4),
                  tmp_path_factory.mktemp("data") / "toy.dgdd")
    assert back.images.dtype == np.float32
    return back, widened(back)


@pytest.mark.parametrize("kind", ["linear", "conv"])
@pytest.mark.parametrize("strength", [1.0, 0.0], ids=["sgs", "dm"])
def test_a_run_on_loaded_data_is_the_bytes_of_a_run_on_its_f64_copy(pair, kind, strength):
    cfg = toy_protocol_config(ipc=2, iterations=4, lambda_c=strength, lambda_d=strength,
                              featurizer=FeaturizerSpec(kind=kind, dim=32, channels=4))
    back, copy = pair
    got, want = run_distillation(back, cfg), run_distillation(copy, cfg)
    assert got.synthetic.images.tobytes() == want.synthetic.images.tobytes()
    assert np.asarray(got.history).tobytes() == np.asarray(want.history).tobytes()
    for a, b in zip(surgery_snapshot(back, cfg, got.synthetic),
                    surgery_snapshot(copy, cfg, want.synthetic)):
        assert a.tobytes() == b.tobytes()


def test_sdg_protocol_on_loaded_data_is_the_bytes_of_its_f64_copy(tmp_path):
    back = loaded(generate_toy(sdg_toy_spec(train_per_cell=12, test_per_cell=6,
                                            class_count=3), seed=1), tmp_path / "sdg.dgdd")
    cfg = toy_protocol_config(ipc=4, iterations=5, lambda_c=0.0, lambda_d=0.0,
                              featurizer=FeaturizerSpec(kind="linear", dim=32))
    eval_cfg = EvalConfig(runs=2, epochs=50, lr=0.05, base_seed=3)
    (got, got_model), (want, want_model) = (
        sdg_protocol(ds, 0, 3, config_distiller(cfg), eval_cfg) for ds in (back, widened(back)))
    assert got_model.assignments.tobytes() == want_model.assignments.tobytes()
    assert [e.accuracy for e in got.entries] == [e.accuracy for e in want.entries]


def test_cli_distill_on_a_container_writes_the_bytes_of_its_f64_copy(tmp_path, monkeypatch):
    data = tmp_path / "toy.dgdd"
    storage.save_dataset(generate_toy(ToySpec(height=8, width=8, train_per_cell=6,
                                              test_per_cell=3, class_count=2), seed=0), data)
    flags = ["distill", "--data", str(data), "--seed", "2", "--ipc", "2",
             "--iters", "2", "--dump-rmaps"]
    assert run([*flags, "--out", str(tmp_path / "f32")]) == 0
    load = storage.load_dataset
    monkeypatch.setattr(storage, "load_dataset", lambda path: widened(load(path)))
    assert run([*flags, "--out", str(tmp_path / "f64")]) == 0
    names = sorted(os.listdir(tmp_path / "f32"))
    assert names == sorted(os.listdir(tmp_path / "f64"))
    assert {"distilled.dgck", "loss_history.csv", "resultant_maps.dggr"} <= set(names)
    for name in names:
        assert Path(tmp_path / "f32" / name).read_bytes() == \
            Path(tmp_path / "f64" / name).read_bytes(), name


def test_loading_makes_one_f32_copy_and_no_f64_array(tmp_path):
    path = tmp_path / "toy.dgdd"
    storage.save_dataset(generate_toy(ToySpec(train_per_cell=20, test_per_cell=5), seed=0), path)
    back, peak = peak_allocation(lambda: storage.load_dataset(path))
    # The file's bytes and one f32 copy of its pixels; the per-sample arrays
    # are ~1% of the pixels. An f64 array alone would be twice the f32 bytes.
    assert peak < os.path.getsize(path) + back.images.nbytes * 1.05
    assert back.images.dtype == np.float32 and back.images.flags.c_contiguous


def test_style_stats_widen_an_f32_batch_a_block_at_a_time():
    images = generate_toy(ToySpec(train_per_cell=60, test_per_cell=1), seed=0).images
    f32, f64 = images.astype(np.float32), images.astype(np.float32).astype(np.float64)
    psi = default_style_featurizer(3, SeededRng(5))
    want, f64_peak = peak_allocation(lambda: style_stats_batch(f64, psi))
    got, f32_peak = peak_allocation(lambda: style_stats_batch(f32, psi))
    assert got.tobytes() == want.tobytes()
    # An f64 batch is read in place; an f32 one costs no whole-batch copy on top.
    assert f32_peak < f64_peak + 0.05 * f64.nbytes
