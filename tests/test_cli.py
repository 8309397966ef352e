import concurrent.futures
import json
import os
import re
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sgsdistill import cli, featurizers, pipeline, storage
from sgsdistill.cli import run
from sgsdistill.errors import DistillError, InvalidConfig, IoError
from sgsdistill.evaluation import EvalConfig
from sgsdistill.featurizers import ConvFeaturizer
from sgsdistill.pipeline import DistillConfig, FeaturizerSpec
from sgsdistill.rng import SeededRng
from sgsdistill.toydata import ToySpec, generate_toy, sdg_toy_spec

SMALL_CFG = {
    "toy": {"train_per_cell": 10, "test_per_cell": 5, "class_count": 3},
    "distill": {"ipc": 4, "iterations": 8},
    "eval": {"runs": 1, "epochs": 40, "lr": 0.05},
}


# 8x8 toy data and two iterations, each writing a periodic checkpoint.
TINY_CFG = {
    "toy": {"height": 8, "width": 8, "train_per_cell": 10, "test_per_cell": 3,
            "class_count": 2},
    "distill": {"ipc": 2, "iterations": 2, "checkpoint_every": 1},
    "eval": {"runs": 1, "epochs": 5, "lr": 0.05},
    "oracle": {"s_list": [4, 8, 16], "trials": 3, "halfwidths": [0, 1],
               "sweep_domains": 50, "sweep_trials": 2},
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CFG))
    return str(path)


def _nothing_left(out):
    """Neither `out` nor a staging directory beside it exists."""
    return not out.exists() and not list(out.parent.glob(f".{out.name}.staging-*"))


def test_gen_data_outputs(tmp_path, cfg_path):
    out = tmp_path / "data"
    assert run(["gen-data", "--config", cfg_path, "--out", str(out), "--seed", "3"]) == 0
    assert (out / "toy.dgdd").exists()
    assert (out / "toy.meta.json").exists()
    assert (out / "resolved_config.json").exists()
    meta = json.loads((out / "toy.meta.json").read_text())
    assert meta["samples"] == 3 * 4 * 15


@pytest.mark.parametrize("flags", [[], ["--lambda-c", "0", "--lambda-d", "0"]],
                         ids=["sgs", "dm"])
def test_removed_algorithm_key_at_its_old_default_changes_no_output(tmp_path, cfg_path, flags):
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({**SMALL_CFG, "distill": {**SMALL_CFG["distill"],
                                                           "algorithm": "sgs"}}))
    outs = []
    for name, path in (("plain", cfg_path), ("legacy", str(legacy))):
        outs.append(tmp_path / name)
        assert run(["distill", "--config", path, "--out", str(outs[-1]), "--seed", "3",
                    *flags]) == 0
    for name in ("resolved_config.json", "distilled.dgck", "loss_history.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_removed_algorithm_dm_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, "distill": {**SMALL_CFG["distill"],
                                                        "algorithm": "dm"}}))
    out = tmp_path / "out"
    assert run(["distill", "--config", str(cfg), "--out", str(out)]) == 1
    assert "distill option 'algorithm' was removed" in capsys.readouterr().err
    assert not out.exists()


# (flags resolved_config.json records, flags it does not, files to compare)
ROUND_TRIPS = {
    "gen-data": ([], [], ["toy.dgdd", "toy.meta.json"]),
    "distill": (["--lambda-c", "0.5", "--iters", "6"], ["--dump-rmaps"],
                ["distilled.dgck", "loss_history.csv", "resultant_maps.dggr"]),
    "eval": (["--eta", "0.5"], ["--protocol", "mdg"], ["mdg_ood.csv", "summary.json"]),
    "oracle": (["--s-list", "4,8,16", "--trials", "20"], [],
               ["decay_curve.csv", "resultant_sweep.csv", "summary.json"]),
    "cluster": ([], ["--k", "3"], ["assignments.csv", "summary.json"]),
    "sweep": ([], ["--param", "lambda-c", "--values", "0,1"], ["sweep.csv"]),
}


@pytest.mark.parametrize("command", list(ROUND_TRIPS))
def test_resolved_config_round_trip(tmp_path, command):
    recorded, unrecorded, names = ROUND_TRIPS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, "oracle": {"halfwidths": [0, 0.5, 1],
                                                       "sweep_domains": 500,
                                                       "sweep_trials": 3}}))
    first = tmp_path / "first"
    assert run([command, *recorded, *unrecorded, "--config", str(cfg), "--out", str(first),
                "--seed", "9"]) == 0
    second = tmp_path / "second"
    assert run([command, *unrecorded, "--config", str(first / "resolved_config.json"),
                "--out", str(second)]) == 0
    for name in ["resolved_config.json", *names]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_distill_dump_rmaps(tmp_path, cfg_path):
    out = tmp_path / "dump"
    assert run(["distill", "--config", cfg_path, "--out", str(out), "--seed", "3",
                "--dump-rmaps"]) == 0
    from sgsdistill.storage import load_grids
    rmaps = load_grids(out / "resultant_maps.dggr")
    assert rmaps.shape == (12, 3, 16, 16)
    assert rmaps.min() >= 0.0 and rmaps.max() < 1.0
    assert (out / "class_signals.dggr").exists()


def test_eval_mdg_outputs(tmp_path, cfg_path):
    out = tmp_path / "ev"
    assert run(["eval", "--config", cfg_path, "--out", str(out), "--protocol", "mdg",
                "--seed", "3"]) == 0
    lines = (out / "mdg_ood.csv").read_text().splitlines()
    assert lines[0] == "target,seed,accuracy"
    assert len(lines) == 1 + 4 * SMALL_CFG["eval"]["runs"]
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) >= {"config_hash", "ood", "in_distribution"}
    assert (out / "mdg_id.csv").exists()


def test_eval_missing_dataset_is_io_error(tmp_path, cfg_path):
    out = tmp_path / "ev"
    code = run(["eval", "--config", cfg_path, "--out", str(out), "--protocol", "mdg",
                "--data", str(tmp_path / "missing.dgdd")])
    assert code == 3


def test_unknown_config_keys_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery": 1}))
    assert run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    bad.write_text(json.dumps({"distill": {"warp": 9}}))
    assert run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("flags", [["--lambda-c", "-1"], ["--lambda-d", "-0.5"],
                                   ["--epsilon", "0"]])
def test_invalid_surgery_knobs_fail_before_any_output(tmp_path, cfg_path, flags):
    out = tmp_path / "o"
    assert run(["distill", "--config", cfg_path, "--out", str(out), *flags]) == 1
    assert not (out / "resolved_config.json").exists()


def test_removed_distill_option_is_a_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distill": {"momentum": 0.5}}))
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    cfg.write_text(json.dumps({"distill": {"momentum": 0.0, "clamp": False,
                                           "resample_featurizer": True}}))
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    resolved = json.loads((tmp_path / "o" / "resolved_config.json").read_text())
    assert "momentum" not in resolved["distill"]


def test_usage_errors(tmp_path):
    assert run(["distill"]) == 1                       # missing --out
    assert run(["eval", "--out", str(tmp_path)]) == 1  # missing --protocol


def test_oracle_outputs(tmp_path):
    out = tmp_path / "oracle"
    assert run(["oracle", "--out", str(out), "--s-list", "4,16,64",
                "--trials", "60", "--seed", "1"]) == 0
    lines = (out / "decay_curve.csv").read_text().splitlines()
    assert lines[0] == "S,mean_class_magnitude,stderr"
    assert len(lines) == 4
    sweep_lines = (out / "resultant_sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "a,estimate,stderr"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["class_slope"] == pytest.approx(-1.0, abs=0.4)


def test_cluster_outputs(tmp_path, cfg_path):
    out = tmp_path / "cl"
    assert run(["cluster", "--config", cfg_path, "--out", str(out), "--k", "4",
                "--seed", "3"]) == 0
    lines = (out / "assignments.csv").read_text().splitlines()
    assert lines[0] == "sample_index,pseudo_domain"
    assert len(lines) == 1 + 180
    summary = json.loads((out / "summary.json").read_text())
    assert summary["purity_vs_domains"] >= 0.8


def test_sweep_outputs_and_grid_limit(tmp_path, cfg_path):
    out = tmp_path / "sw"
    assert run(["sweep", "--config", cfg_path, "--out", str(out), "--param", "lambda-c",
                "--values", "0,1", "--seed", "3"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,value,mean_ood_accuracy,std"
    assert len(lines) == 3
    too_many = ",".join(str(v) for v in range(65))
    assert run(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw2"),
                "--param", "lambda-c", "--values", too_many]) == 1
    assert run(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw3"),
                "--param", "eta", "--values", "1"]) == 1


def test_sweep_zero_cell_equals_dm_baseline(tmp_path):
    # With lambda_d pinned to 0, the lambda_c = 0 sweep cell is exactly the
    # plain-matching baseline; shared seed streams make the means identical.
    cfg = dict(SMALL_CFG)
    cfg["distill"] = {**SMALL_CFG["distill"], "lambda_d": 0.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    sweep_out = tmp_path / "sw"
    assert run(["sweep", "--config", str(cfg_path), "--out", str(sweep_out),
                "--param", "lambda-c", "--values", "0,1", "--seed", "3"]) == 0
    rows = (sweep_out / "sweep.csv").read_text().splitlines()[1:]
    zero_row_mean = float(rows[0].split(",")[2])
    eval_out = tmp_path / "ev"
    assert run(["eval", "--config", str(cfg_path), "--out", str(eval_out),
                "--protocol", "mdg", "--seed", "3", "--lambda-c", "0"]) == 0
    baseline = json.loads((eval_out / "summary.json").read_text())["ood"]["mean"]
    assert zero_row_mean == pytest.approx(baseline, abs=5e-7)  # CSV keeps 6 digits


def test_sweep_workers_after_a_laned_call_match_a_serial_sweep(monkeypatch, tmp_path):
    # The parent's lane pool has started its threads before the sweep forks
    # its workers; each worker is one lane and the cells give the serial bytes.
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: 2)
    psi = ConvFeaturizer.create(3, 4, 3, SeededRng(5))
    featurizers.run_ahead(featurizers._pooled_features, psi.kernels,
                          np.zeros((2 * featurizers.IMAGE_BLOCK, 3, 8, 8))).result(60)
    assert featurizers._pool is not None and featurizers._pool._threads
    cfg = {**SMALL_CFG, "distill": {"ipc": 4, "iterations": 3, "featurizer": {"kind": "conv"}}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csvs = []
    for jobs in ("2", "1"):
        out = tmp_path / f"jobs{jobs}"
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out), "--param",
                    "lambda-c", "--values", "0,1", "--seed", "3", "--jobs", jobs]) == 0
        csvs.append((out / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_a_serial_sweep_generates_its_dataset_once(monkeypatch, tmp_path):
    calls = []

    def counted(spec, seed):
        calls.append(seed)
        return generate_toy(spec, seed)

    monkeypatch.setattr(cli, "generate_toy", counted)
    seen = []
    monkeypatch.setattr(cli, "_sweep_cell",
                        lambda resolved, param, value, ds: seen.append(ds) or (value, 0.0))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"toy": TINY_CFG["toy"]}))
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
                "--param", "lambda-c", "--values", "0,1,2", "--seed", "3"]) == 0
    assert calls == [3]
    assert len(seen) == 3 and all(ds is seen[0] for ds in seen)


def test_sweep_over_pseudo_domain_counts(tmp_path):
    # Enough samples per cell that every (pseudo-domain, class) pair stays
    # populated after clustering the tinted source.
    cfg = {
        "toy": {
            "train_per_cell": 24, "test_per_cell": 5, "class_count": 3,
            "styles": [
                {"kind": "tinted", "variants": 4, "tint_strength": 1.5},
                {"kind": "invert"}, {"kind": "lowfreq"}, {"kind": "checker"},
            ],
        },
        "distill": {"ipc": 4, "iterations": 6},
        "eval": {"runs": 1, "epochs": 40, "lr": 0.05},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "swk"
    assert run(["sweep", "--config", str(cfg_path), "--out", str(out),
                "--param", "k", "--values", "2,3,4", "--seed", "3"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("k,") for line in lines[1:])


def test_outputs_confined_to_out_dir(tmp_path, cfg_path):
    # The input dataset file is read, never rewritten.
    data_dir = tmp_path / "data"
    run(["gen-data", "--config", cfg_path, "--out", str(data_dir), "--seed", "3"])
    before = (data_dir / "toy.dgdd").read_bytes()
    out = tmp_path / "dist"
    assert run(["distill", "--config", cfg_path, "--out", str(out),
                "--data", str(data_dir / "toy.dgdd"), "--seed", "4"]) == 0
    assert (data_dir / "toy.dgdd").read_bytes() == before


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs nothing in parallel."""

    sizes = []

    def __init__(self, max_workers, initializer):
        assert initializer is featurizers.one_lane   # never nest pools
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs, values, cpus, pool", [
    (8, "0,1,2", 4, 3),     # capped by the cell count
    (8, "0,1,2,3,4", 2, 2),  # capped by the cpu count
    (2, "0,1,2", 4, 2),      # as asked
    (1, "0,1,2", 4, None),   # serial
    (4, "0", 4, None),       # one cell runs serially
    (2, "0,1,2", 1, None),   # one CPU in the affinity mask runs serially
])
def test_sweep_pool_size(monkeypatch, tmp_path, jobs, values, cpus, pool):
    _InlinePool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli, "_sweep_cell", lambda resolved, param, value, ds: (value, 0.0))
    monkeypatch.setattr(cli, "_dataset_for", lambda data, resolved: "dataset")
    # The pool counts the CPUs in the affinity mask, not the machine's.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(featurizers, "_usable_cpus", lambda: cpus)
    out = tmp_path / "sw"
    assert run(["sweep", "--out", str(out), "--param", "lambda-c", "--values", values,
                "--jobs", str(jobs)]) == 0
    assert _InlinePool.sizes == ([] if pool is None else [pool])
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[2]) for row in rows] == [float(v) for v in values.split(",")]


@pytest.mark.parametrize("flags, message", [
    (["--values", "0,1", "--jobs", "0"], "--jobs must be at least 1"),
    (["--values", "0,1", "--jobs", "-3"], "--jobs must be at least 1"),
    (["--values", "abc"], "--values"),
    (["--values", "1,-1"], "must be non-negative"),
    (["--values", ",".join(str(v) for v in range(65))], "65 cells exceed the sweep budget of 64"),
])
def test_sweep_rejects_bad_input_before_any_output(monkeypatch, tmp_path, capsys, flags,
                                                   message):
    monkeypatch.setattr(cli, "_sweep_cell", lambda *cell: pytest.fail("a cell ran"))
    out = tmp_path / "sw"
    assert run(["sweep", "--out", str(out), "--param", "lambda-c", *flags]) == 1
    assert message in capsys.readouterr().err
    assert _nothing_left(out)


@pytest.mark.parametrize("argv", [
    ["cluster", "--k", "1"],
    ["cluster", "--k", "-2"],
    ["eval", "--protocol", "sdg", "--k", "1"],
    ["sweep", "--param", "k", "--values", "2,1"],
    ["sweep", "--param", "k", "--values", "2.5"],
])
def test_pseudo_domain_count_is_checked_before_any_output(tmp_path, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 1
    assert _nothing_left(out)


@pytest.mark.parametrize("name", ["../escape", "", ".", "..", "a/b", "a\\b"])
def test_toy_name_must_be_a_plain_file_stem(tmp_path, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"toy": {"name": name}}))
    out = tmp_path / "o"
    assert run(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("jitter", [8, 9, 12])
def test_jitter_past_the_grid_is_a_config_error(tmp_path, capsys, jitter):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"toy": {"height": 8, "width": 8, "jitter": jitter}}))
    out = tmp_path / "o"
    assert run(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
    assert re.match(r"error: .*jitter \d+ must be below the grid side 8", capsys.readouterr().err)
    assert _nothing_left(out)


@pytest.mark.parametrize("data", ["generated", "file"])
def test_unknown_sdg_source_domain_fails_before_any_output(tmp_path, capsys, cfg_path, data):
    flags = []
    if data == "file":
        assert run(["gen-data", "--config", cfg_path, "--out", str(tmp_path / "data")]) == 0
        flags = ["--data", str(tmp_path / "data" / "toy.dgdd")]
    out = tmp_path / "out"
    out.mkdir()
    assert run(["eval", "--config", cfg_path, "--out", str(out), "--protocol", "sdg",
                "--source-domain", "9", *flags]) == 2
    assert "source domain 9 does not exist" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.fixture()
def data_files(tmp_path):
    """DGDD files of the small toy data's first one and first two domains, of
    all four with domain 1's class-0 samples removed ("gap"), of all of it
    with a header claiming two of its three classes and a valid checksum
    ("header"), and a path that does not exist ("missing")."""
    from sgsdistill.toydata import generate_toy

    toy = generate_toy(ToySpec(**SMALL_CFG["toy"]), seed=0)
    paths = {key: str(tmp_path / f"{key}.dgdd") for key in (1, 2, "gap", "header", "missing")}
    for count in (1, 2):
        storage.save_dataset(toy.subset(toy.domains < count).with_domain_labels(
            toy.domains[toy.domains < count], count), paths[count])
    storage.save_dataset(toy.subset((toy.domains != 1) | (toy.labels != 0)), paths["gap"])
    storage.save_dataset(toy, paths["header"])
    data = bytearray(Path(paths["header"]).read_bytes())
    data[22:26] = (2).to_bytes(4, "little")   # the class count, after N, H, W, channels
    data[-4:] = zlib.crc32(data[6:-4]).to_bytes(4, "little")
    Path(paths["header"]).write_bytes(data)
    return paths


# The exit code and error each data file gives.
DATA_ERRORS = {1: (2, "the data has 1"), 2: (2, "the data has 2"),
               "gap": (2, "class 0 has no samples in source domain 1"),
               "header": (3, "label 2 outside 0..1"),
               "missing": (3, "cannot read")}


# Besides too few domains, the data errors a command meets only once it runs.
@pytest.mark.parametrize("argv, data", [
    (["distill"], 1),
    (["distill", "--lambda-c", "0", "--lambda-d", "0", "--dump-rmaps"], 1),
    (["eval", "--protocol", "mdg"], 1),
    (["eval", "--protocol", "mdg"], 2),
    (["eval", "--protocol", "id"], 2),
    (["sweep", "--param", "lambda-c", "--values", "0,1"], 2),
    (["distill"], "gap"),
    (["distill", "--lambda-c", "0", "--lambda-d", "0", "--dump-rmaps"], "gap"),
    (["cluster"], "missing"),
    (["distill"], "header"),
])
def test_too_few_domains_fail_before_any_output(tmp_path, capsys, cfg_path, data_files,
                                                argv, data):
    code, message = DATA_ERRORS[data]
    out = tmp_path / "out"
    assert run([*argv, "--config", cfg_path, "--out", str(out),
                "--data", data_files[data]]) == code
    assert message in capsys.readouterr().err
    assert _nothing_left(out)


def test_zero_strength_distill_runs_on_one_domain(tmp_path, cfg_path, data_files):
    out = tmp_path / "out"
    assert run(["distill", "--config", cfg_path, "--out", str(out), "--lambda-c", "0",
                "--lambda-d", "0", "--data", data_files[1]]) == 0
    assert (out / "loss_history.csv").read_text().splitlines()[0].count(",") == 2


def test_readme_sdg_example_runs_on_the_default_toy_data(tmp_path):
    # The README command, at reduced size: without --data or toy styles, the
    # SDG paths generate the latent-style source, so every pseudo-domain
    # holds every class.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distill": {"iterations": 3},
                               "eval": {"runs": 1, "epochs": 40}}))
    out = tmp_path / "sdg"
    assert run(["eval", "--config", str(cfg), "--out", str(out), "--protocol", "sdg",
                "--k", "4", "--seed", "0"]) == 0
    assert (out / "sdg_ood.csv").read_text().splitlines()[0] == "target,seed,accuracy"
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["toy"]["styles"][0] == {"kind": "tinted", "variants": 4,
                                            "tint_strength": 1.5}
    again = tmp_path / "again"
    assert run(["eval", "--config", str(out / "resolved_config.json"), "--out", str(again),
                "--protocol", "sdg", "--k", "4"]) == 0
    for name in ("sdg_ood.csv", "resolved_config.json"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


SUBCOMMANDS = [
    ["gen-data"],
    ["distill"],
    ["eval", "--protocol", "mdg"],
    ["eval", "--protocol", "sdg"],
    ["oracle"],
    ["cluster"],
    ["sweep", "--param", "lambda-c", "--values", "0,1"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: "-".join(argv[:3:2]))
def test_every_failed_write_leaves_no_output(monkeypatch, tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CFG))
    write, calls, fail_at = storage._atomic_write, [], None

    def faulty(path, *chunks):
        calls.append(path)
        if len(calls) == fail_at:
            raise IoError(f"injected fault writing {path}")
        write(path, *chunks)

    monkeypatch.setattr(storage, "_atomic_write", faulty)
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    reached = len(calls)
    assert reached >= 2
    parent = tmp_path / "faults"
    parent.mkdir()
    for fail_at in range(1, reached + 1):
        calls.clear()
        assert run([*argv, "--config", str(cfg), "--out", str(parent / "out")]) == 3
        assert "injected fault" in capsys.readouterr().err
        assert list(parent.iterdir()) == []


@pytest.mark.parametrize("fault, code", [(DistillError, 2), (KeyboardInterrupt, None)],
                         ids=["error", "interrupt"])
def test_a_loop_failing_after_a_checkpoint_leaves_no_output(monkeypatch, tmp_path, fault,
                                                            code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CFG))
    parent = tmp_path / "runs"
    parent.mkdir()
    matching_rows, calls = pipeline.matching_rows, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            # Iteration 1's checkpoint went to the staging directory, not --out.
            assert list(parent.glob(".out.staging-*/checkpoint_000001.dgck"))
            raise fault("injected mid-run fault")
        return matching_rows(*args, **kwargs)

    monkeypatch.setattr(pipeline, "matching_rows", failing)
    argv = ["distill", "--config", str(cfg), "--out", str(parent / "out")]
    if code is None:
        with pytest.raises(fault):
            run(argv)
    else:
        assert run(argv) == code
    assert len(calls) == 2
    assert list(parent.iterdir()) == []


def test_out_must_be_missing_or_an_empty_directory(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CFG))
    argv = ["gen-data", "--config", str(cfg), "--out"]
    full = tmp_path / "full"
    full.mkdir()
    mine = {"notes.txt": b"keep me\n", "resolved_config.json": b"{}\n"}
    for name, data in mine.items():
        (full / name).write_bytes(data)
    assert run([*argv, str(full)]) == 1
    assert "must not exist or must be an empty directory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in full.iterdir()} == mine
    a_file = tmp_path / "a_file"
    a_file.write_bytes(b"data\n")
    assert run([*argv, str(a_file)]) == 1
    assert a_file.read_bytes() == b"data\n"
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run([*argv, str(empty)]) == 0
    assert sorted(p.name for p in empty.iterdir()) == ["resolved_config.json", "toy.dgdd",
                                                       "toy.meta.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "cfg.json", "empty",
                                                          "full"]


@pytest.mark.parametrize("argv", SUBCOMMANDS)
@pytest.mark.parametrize("bad", [{"runs": 0}, {"epochs": -1}, {"lr": 0.0}])
def test_invalid_eval_settings_fail_before_any_output(tmp_path, argv, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, "eval": {**SMALL_CFG["eval"], **bad}}))
    out = tmp_path / "out"
    assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: "-".join(argv[:3:2]))
@pytest.mark.parametrize("section, bad", [
    ("eval", {"runs": 1.5}),
    ("eval", {"runs": "2"}),
    ("distill", {"use_base": "no"}),
    ("distill", {"ipc": 2.5}),
    ("toy", {"height": 16.5}),
    (None, {"seed": "7"}),
    (None, {"seed": -1}),
    ("distill", {"eta": float("nan")}),
    ("distill", {"featurizer": {"dim": 8.5}}),
    ("oracle", {"trials": "5"}),
    ("distill", {"checkpoint_every": -5}),
], ids=lambda v: v if isinstance(v, str) or v is None else json.dumps(v))
def test_malformed_config_values_fail_before_any_output(tmp_path, capsys, argv, section, bad):
    cfg = {**SMALL_CFG, **bad} if section is None else \
        {**SMALL_CFG, section: {**SMALL_CFG.get(section, {}), **bad}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))   # a NaN is written as the JSON extension NaN
    out = tmp_path / "out"
    assert run([*argv, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--seed", "-1"],
    ["distill", "--lambda-c", "nan"],
    ["distill", "--eta", "inf"],
    ["eval", "--protocol", "mdg", "--lambda-d", "-inf"],
    ["sweep", "--param", "lambda-c", "--values", "nan"],
    ["sweep", "--param", "lambda-d", "--values", "0,inf"],
    ["oracle", "--s-list", "4,2,8"],
    ["oracle", "--s-list", "4,x,8"],
    ["oracle", "--s-list", "1,4,8"],
    ["oracle", "--s-list", "4,8"],
    ["oracle", "--trials", "0"],
    ["oracle", "--trials", "1", "--s-list", "4,8,16"],
])
def test_malformed_flag_values_fail_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_loader_round_trip_and_unknown_keys():
    cfg = DistillConfig(ipc=7, iterations=3, lambda_c=0.5,
                        featurizer=FeaturizerSpec(kind="conv", channels=4))
    as_dict = json.loads(json.dumps(asdict(cfg)))
    assert cli._from_dict(DistillConfig, as_dict) == cfg
    with pytest.raises(InvalidConfig, match="mystery"):
        cli._from_dict(DistillConfig, {**as_dict, "mystery": 1})
    with pytest.raises(InvalidConfig, match="bogus"):
        cli._from_dict(DistillConfig, {**as_dict, "featurizer": {"bogus": 2}})
    spec = sdg_toy_spec(class_count=3)
    assert cli._from_dict(ToySpec, json.loads(json.dumps(asdict(spec)))) == spec
    with pytest.raises(InvalidConfig, match="shade"):
        cli._from_dict(ToySpec, {"styles": [{"kind": "clean", "shade": 1}, {"kind": "invert"}]})


def test_loader_keeps_json_numbers_as_written():
    loaded = cli._from_dict(EvalConfig, {"runs": 2, "lr": 1})
    assert loaded == EvalConfig(runs=2, lr=1) and type(loaded.lr) is int


@pytest.mark.parametrize("cls, data", [
    (EvalConfig, {"runs": True}),
    (EvalConfig, {"lr": False}),
    (EvalConfig, {"lr": float("inf")}),
    (EvalConfig, {"lr": "0.1"}),
    (DistillConfig, {"use_base": 1}),
    (DistillConfig, {"init": 3}),
    (DistillConfig, {"featurizer": "conv"}),
    (ToySpec, {"styles": {"kind": "clean"}}),
    (ToySpec, {"styles": [{"variants": 1}, {"kind": "clean"}]}),
    (ToySpec, {"noise_sigma": -0.1}),
    (cli.OracleConfig, {"s_list": [4, 8.0, 16]}),
    (cli.OracleConfig, {"s_list": [4, 4, 8]}),
    (cli.OracleConfig, {"sweep_trials": 0}),
    (cli.OracleConfig, {"trials": 1}),
    (cli.OracleConfig, {"sweep_trials": 1}),
    (cli.OracleConfig, {"sweep_domains": 1}),
    (cli.OracleConfig, {"halfwidths": [0.5, None]}),
    (cli.OracleConfig, {"halfwidths": [0.5, 1.5]}),
    (cli.OracleConfig, {"halfwidths": [-0.25]}),
    (cli.OracleConfig, {"halfwidths": []}),
], ids=lambda v: v.__name__ if isinstance(v, type) else json.dumps(v))
def test_loader_rejects_ill_typed_and_out_of_range_values(cls, data):
    with pytest.raises(InvalidConfig):
        cli._from_dict(cls, data)


def _resolve(tmp_path, distill):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"distill": distill}))
    return cli._resolve(cli.build_parser().parse_args(
        ["distill", "--config", str(path), "--out", str(tmp_path / "o")]))


def test_removed_options_load_only_at_their_old_defaults(tmp_path):
    plain = {"ipc": 7, "iterations": 3, "lambda_c": 0.5}
    legacy = {**plain, "momentum": 0.0, "clamp": False, "resample_featurizer": True,
              "algorithm": "sgs"}
    assert _resolve(tmp_path, legacy) == _resolve(tmp_path, plain)
    for key, value in [("momentum", 0.5), ("clamp", True), ("resample_featurizer", False),
                       ("algorithm", "dm")]:
        with pytest.raises(InvalidConfig, match=key):
            _resolve(tmp_path, {**legacy, key: value})


def test_top_level_seed_sets_the_distill_and_eval_seeds(tmp_path):
    settings = _resolve(tmp_path, {"seed": 5})
    assert settings.seed == settings.distill.seed == settings.eval.base_seed == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eval": {"base_seed": 3}}))
    with pytest.raises(InvalidConfig, match="base_seed"):
        cli._resolve(cli.build_parser().parse_args(["gen-data", "--config", str(cfg),
                                                    "--out", "o"]))


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("sgsdistill ")]
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)   # a renamed or removed flag raises a usage error


def test_readme_names_every_removed_option_at_its_old_default():
    # A later removal cannot skip the README's migration note.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    note = " ".join(readme.split())
    keys = note.split("Earlier versions wrote", 1)[1].split("keys,", 1)[1].split(";", 1)[0]
    defaults = note.split("at their old defaults (", 1)[1].split(")", 1)[0]
    assert re.findall(r"`(\w+)`", keys) == list(cli._REMOVED_OPTIONS)
    assert re.findall(r"`([^`]+)`", defaults) == [json.dumps(v)
                                                   for v in cli._REMOVED_OPTIONS.values()]
