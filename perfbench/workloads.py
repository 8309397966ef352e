"""The benchmark's four workloads: set-up, one operation, and its output check.

Every workload builds its inputs from the seed alone and calls the library
only through module attributes (`pipeline.run_distillation`, ...), so the
tracer can wrap those names. Operation j of a run uses distillation seeds
derived from (seed, j): no two operations of a run repeat the same inputs.

`small=True` gives the reduced case whose outputs are compared with the
stored reference (`reference.npz`, written by `make_reference.py`).
"""

import hashlib
import os
import shutil
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from sgsdistill import evaluation, pipeline, pseudo, storage, toydata
from sgsdistill.evaluation import EvalConfig, derive_seed, toy_protocol_config
from sgsdistill.pipeline import FeaturizerSpec
from sgsdistill.rng import SeededRng

EPOCHS = 400
LR = 0.05
CONV_ITERATIONS = 20      # 150 conv iterations take about 30 s; 20 keep an op near 4 s
SDG_K = 4
CHECKPOINT_EVERY = 10

# The acceptance suite's ablation modes.
MODES = {
    "g_only": dict(use_base=True, lambda_c=0.0, lambda_d=0.0),
    "class_only": dict(use_base=False, lambda_c=1.0, lambda_d=0.0),
    "domain_only": dict(use_base=False, lambda_c=0.0, lambda_d=1.0),
    "class_domain": dict(use_base=False, lambda_c=1.0, lambda_d=1.0),
    "all_three": dict(use_base=True, lambda_c=1.0, lambda_d=1.0),
}
MODE_ORDER = ("all_three", "g_only", "class_only", "domain_only", "class_domain")

# Reduced sizes for the reference case. Style clustering needs 16x16 grids and
# about 40 train samples per cell to give every pseudo-domain every class.
SMALL_SPEC = dict(height=8, width=8, train_per_cell=24, test_per_cell=6)
SDG_SMALL_SPEC = dict(train_per_cell=40, test_per_cell=6)
SMALL_DISTILL = dict(ipc=2, iterations=20)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class OpResult:
    cells: int            # distill-then-evaluate cells the operation completed
    iterations: int       # distillation iterations run
    distill_s: float      # seconds inside run_distillation
    ood_acc: float        # mean held-out accuracy of the operation's cells
    final_dm_loss: float  # mean pooled loss at the last iteration
    arrays: dict          # named outputs: checked, digested and compared to the reference
    evidence: object = None  # what check() needs beyond the outputs

    def digest(self):
        h = hashlib.sha256()
        for key in sorted(self.arrays):
            arr = np.ascontiguousarray(self.arrays[key])
            h.update(key.encode() + str(arr.dtype).encode() + str(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _timed_distill(source, cfg, **kwargs):
    start = perf_counter()
    run = pipeline.run_distillation(source, cfg, **kwargs)
    return run, perf_counter() - start


def _check_run(run, cfg, start_iteration=0):
    _require(run.synthetic.iteration == cfg.iterations, "run stopped early")
    _require(len(run.history) == cfg.iterations - start_iteration, "loss history length")
    _require(np.all(np.isfinite(run.synthetic.images)), "non-finite synthetic images")
    _require(np.all(np.isfinite(np.asarray(run.history, dtype=np.float64))),
             "non-finite loss")


@dataclass
class _DistillState:
    seed: int
    toy: object
    source: object
    target_test: object
    cfg: object


class DistillWorkload:
    """One leave-domain-0-out cell: run_distillation, then train and score."""

    def __init__(self, name, featurizer, iterations):
        self.name = name
        self.featurizer = featurizer
        self.iterations = iterations

    def setup(self, seed, small=False):
        spec = toydata.ToySpec(**SMALL_SPEC) if small else toydata.ToySpec()
        toy = toydata.generate_toy(spec, seed)
        overrides = SMALL_DISTILL if small else dict(iterations=self.iterations)
        cfg = toy_protocol_config(featurizer=self.featurizer, **overrides)
        return _DistillState(seed=seed, toy=toy, source=toy.without_domain(0),
                             target_test=toy.test_view(domain=0), cfg=cfg)

    def op(self, st, j, workdir):
        cfg = replace(st.cfg, seed=derive_seed(st.seed, j))
        run, distill_s = _timed_distill(st.source, cfg)
        clf = evaluation.train_classifier(run.synthetic.as_view(), EPOCHS, LR)
        acc = evaluation.accuracy(clf, st.target_test)
        return OpResult(
            cells=1, iterations=cfg.iterations, distill_s=distill_s, ood_acc=acc,
            final_dm_loss=run.history[-1][1],
            arrays={"images": run.synthetic.images,
                    "losses": np.asarray(run.history, dtype=np.float64),
                    "acc": np.array([acc])},
            evidence=(cfg, run),
        )

    def check(self, st, res, workdir):
        cfg, run = res.evidence
        _check_run(run, cfg)
        evaluation.assert_protocol_isolation(st.toy, st.source, run.synthetic, 0)
        _require(0.0 <= res.ood_acc <= 1.0, "accuracy outside [0, 1]")


@dataclass
class _MdgState:
    seed: int
    toy: object
    overrides: dict


class MdgWorkload:
    """One mdg_protocol call: one ablation mode, all four held-out targets."""

    name = "mdg-grid"

    def setup(self, seed, small=False):
        spec = toydata.ToySpec(**SMALL_SPEC) if small else toydata.ToySpec()
        return _MdgState(seed=seed, toy=toydata.generate_toy(spec, seed),
                         overrides=dict(SMALL_DISTILL) if small else {})

    def op(self, st, j, workdir):
        mode = MODE_ORDER[j % len(MODE_ORDER)]
        cfg = toy_protocol_config(**MODES[mode], **st.overrides)
        runs = []

        def distill(source, seed):
            run, seconds = _timed_distill(source, replace(cfg, seed=int(seed)))
            runs.append((source, run, seconds))
            return run.synthetic

        eval_cfg = EvalConfig(runs=1, epochs=EPOCHS, lr=LR, base_seed=derive_seed(st.seed, j))
        outcome = evaluation.mdg_protocol(st.toy, distill, eval_cfg)
        arrays = {"acc_ood": outcome.ood.accuracies(),
                  "acc_id": outcome.in_distribution.accuracies()}
        for k, (_, run, _) in enumerate(runs):
            arrays[f"images_{k}"] = run.synthetic.images
            arrays[f"losses_{k}"] = np.asarray(run.history, dtype=np.float64)
        return OpResult(
            cells=len(outcome.ood.entries),
            iterations=sum(r.synthetic.iteration for _, r, _ in runs),
            distill_s=sum(s for _, _, s in runs),
            ood_acc=outcome.ood.mean(),
            final_dm_loss=float(np.mean([r.history[-1][1] for _, r, _ in runs])),
            arrays=arrays,
            evidence=(cfg, runs, outcome),
        )

    def check(self, st, res, workdir):
        cfg, runs, outcome = res.evidence
        toy = st.toy
        targets = set()
        for source, run, _ in runs:
            _check_run(run, cfg)
            present = set(np.unique(toy.domains[np.isin(toy.uids, source.uids)]).tolist())
            missing = set(range(toy.domain_count)) - present
            _require(len(missing) == 1, "a cell's source must lack exactly one domain")
            target = missing.pop()
            evaluation.assert_protocol_isolation(toy, source, run.synthetic, target)
            targets.add(target)
        _require(targets == set(range(toy.domain_count)), "not every target was held out")
        accs = np.concatenate([res.arrays["acc_ood"], res.arrays["acc_id"]])
        _require(np.all((accs >= 0.0) & (accs <= 1.0)), "accuracy outside [0, 1]")


@dataclass
class _SdgState:
    seed: int
    full: object
    overrides: dict


class SdgWorkload:
    """Single source: container round trip, pseudo-domains, checkpointed
    distillation, restore-and-continue, surgery snapshot, train and score."""

    name = "sdg-resume"

    def setup(self, seed, small=False):
        spec = toydata.sdg_toy_spec(**SDG_SMALL_SPEC) if small else toydata.sdg_toy_spec()
        return _SdgState(seed=seed, full=toydata.generate_toy(spec, seed),
                         overrides=dict(SMALL_DISTILL) if small else {})

    def op(self, st, j, workdir):
        opdir = os.path.join(workdir, f"op{j}")
        os.makedirs(opdir, exist_ok=True)
        data_path = os.path.join(opdir, "toy.dgdd")
        storage.save_dataset(st.full, data_path)
        data = storage.load_dataset(data_path)

        single = data.only_domain(0)
        psi = pseudo.default_style_featurizer(data.image_shape[0],
                                              SeededRng(derive_seed(st.seed, 91)))
        pseudo_ds, _ = pseudo.assign_pseudo_domains(
            single, psi, SDG_K, SeededRng(derive_seed(st.seed, 92, 0)))

        cfg = toy_protocol_config(seed=derive_seed(st.seed, j),
                                  checkpoint_every=CHECKPOINT_EVERY, **st.overrides)
        run, first_s = _timed_distill(pseudo_ds, cfg, checkpoint_dir=opdir)
        middle = cfg.iterations // 2 // CHECKPOINT_EVERY * CHECKPOINT_EVERY
        restored = pipeline.restore(os.path.join(opdir, f"checkpoint_{middle:06d}.dgck"))
        resumed, second_s = _timed_distill(pseudo_ds, cfg, initial=restored)

        resultants, class_signals = pipeline.surgery_snapshot(pseudo_ds, cfg, run.synthetic)
        storage.save_grids(resultants, os.path.join(opdir, "resultant_maps.dggr"))
        storage.save_grids(class_signals, os.path.join(opdir, "class_signals.dggr"))

        clf = evaluation.train_classifier(run.synthetic.as_view(), EPOCHS, LR)
        targets = [d for d in range(data.domain_count) if d != 0]
        accs = np.array([evaluation.accuracy(clf, data.test_view(domain=t)) for t in targets])
        return OpResult(
            cells=1,
            iterations=cfg.iterations + (cfg.iterations - middle),
            distill_s=first_s + second_s,
            ood_acc=float(accs.mean()),
            final_dm_loss=run.history[-1][1],
            arrays={"images": run.synthetic.images,
                    "resumed_images": resumed.synthetic.images,
                    "losses": np.asarray(run.history, dtype=np.float64),
                    "pseudo_domains": pseudo_ds.domains,
                    "resultants": resultants,
                    "class_signals": class_signals,
                    "acc": accs},
            evidence=(cfg, run, resumed, middle, data, pseudo_ds, opdir),
        )

    def check(self, st, res, workdir):
        cfg, run, resumed, middle, data, pseudo_ds, opdir = res.evidence
        try:
            _check_run(run, cfg)
            _check_run(resumed, cfg, start_iteration=middle)
            _require(resumed.synthetic.images.tobytes() == run.synthetic.images.tobytes(),
                     "resumed run differs from the uninterrupted run")
            _require(resumed.history == run.history[middle:],
                     "resumed loss history differs from the uninterrupted run")
            full = st.full
            _require(np.array_equal(data.labels, full.labels)
                     and np.array_equal(data.domains, full.domains)
                     and np.array_equal(data.splits, full.splits),
                     "container round trip changed labels, domains or splits")
            _require(np.array_equal(data.images, full.images.astype(np.float32)),
                     "container round trip is not the f32 quantization")
            _require(pseudo_ds.domain_count == SDG_K, "pseudo-domain count")
            for name, key in (("resultant_maps", "resultants"),
                              ("class_signals", "class_signals")):
                grids = storage.load_grids(os.path.join(opdir, f"{name}.dggr"))
                _require(grids.tobytes() == res.arrays[key].tobytes(),
                         f"{name} grid dump does not read back")
            accs = res.arrays["acc"]
            _require(np.all((accs >= 0.0) & (accs <= 1.0)), "accuracy outside [0, 1]")
        finally:
            shutil.rmtree(opdir, ignore_errors=True)


WORKLOADS = {
    "distill-linear": DistillWorkload("distill-linear", FeaturizerSpec(kind="linear", dim=128),
                                      iterations=150),
    "distill-conv": DistillWorkload("distill-conv", FeaturizerSpec(kind="conv"),
                                    iterations=CONV_ITERATIONS),
    "mdg-grid": MdgWorkload(),
    "sdg-resume": SdgWorkload(),
}


def reference_deviation(arrays, reference, prefix):
    """Largest deviations from the stored reference: (relative, accuracy).

    Float outputs are compared relative to the reference array's largest
    magnitude, so reordered reductions (rounding-level drift) pass;
    accuracies are compared as absolute differences; integer outputs must
    match exactly. Raises CheckFailed on a missing key or a shape change.
    """
    rel, acc = 0.0, 0.0
    for key, value in sorted(arrays.items()):
        name = f"{prefix}/{key}"
        if name not in reference:
            raise CheckFailed(f"reference has no entry {name}")
        want = reference[name]
        got = np.asarray(value)
        if got.shape != want.shape:
            raise CheckFailed(f"{name}: shape {got.shape} != reference {want.shape}")
        if np.issubdtype(want.dtype, np.integer):
            if not np.array_equal(got, want):
                raise CheckFailed(f"{name}: integer output differs from the reference")
            continue
        diff = float(np.max(np.abs(got - want))) if want.size else 0.0
        if key.startswith("acc"):
            acc = max(acc, diff)
        else:
            rel = max(rel, diff / max(float(np.max(np.abs(want))), 1e-300))
    return rel, acc
