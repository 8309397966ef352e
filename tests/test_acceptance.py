"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The protocol-level criteria
(8-10) share one grid of distillation runs through module-scoped fixtures;
everything is seeded, so the whole suite is deterministic.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sgsdistill.circular import SpectralModel, attenuation_curve, resultant_sweep
from sgsdistill.datasets import SyntheticSet
from sgsdistill.dm import dm_gradient, dm_loss
from sgsdistill.errors import DistillError
from sgsdistill.evaluation import (
    EvalConfig,
    assert_protocol_isolation,
    config_distiller,
    mdg_protocol,
    real_subsample_distiller,
    sdg_protocol,
    toy_protocol_config,
)
from sgsdistill.featurizers import ConvFeaturizer, LinearFeaturizer
from sgsdistill.fourier import (
    fft2,
    frequency_negation,
    ifft2,
    ifft2_with_residue,
    naive_dft2,
)
from sgsdistill.pipeline import checkpoint, restore, run_distillation
from sgsdistill.pseudo import cluster_purity
from sgsdistill.rng import SeededRng
from sgsdistill.storage import load_dataset, save_dataset
from sgsdistill.surgery import DomainGradientStack, consensus, decompose
from sgsdistill.toydata import ToySpec, generate_toy, sdg_toy_spec

from helpers import central_fd_grid, make_dataset, make_synthetic, zero_strength_surgery_run

EVAL_CFG = EvalConfig(runs=5, epochs=400, lr=0.05, base_seed=11)

MODES = {
    "g_only": dict(use_base=True, lambda_c=0.0, lambda_d=0.0),
    "class_only": dict(use_base=False, lambda_c=1.0, lambda_d=0.0),
    "domain_only": dict(use_base=False, lambda_c=0.0, lambda_d=1.0),
    "class_domain": dict(use_base=False, lambda_c=1.0, lambda_d=1.0),
    "all_three": dict(use_base=True, lambda_c=1.0, lambda_d=1.0),
}


def report(number, name, ok, detail):
    print(f"\n[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def toy():
    return generate_toy(ToySpec(), seed=0)


@pytest.fixture(scope="module")
def mode_outcomes(toy):
    """MDG outcome per ablation mode; criteria 8 and 9 read from this grid."""
    outcomes = {}
    for name, kw in MODES.items():
        cfg = toy_protocol_config(**kw)
        outcomes[name] = mdg_protocol(toy, config_distiller(cfg), EVAL_CFG)
    return outcomes


def test_criterion_01_dm_recovery(toy):
    start = time.time()
    cfg = toy_protocol_config(iterations=500, lambda_c=0.0, lambda_d=0.0)
    plain_path = run_distillation(toy, cfg).synthetic
    surgery_path, _ = zero_strength_surgery_run(toy, cfg)
    same = (
        surgery_path.images.tobytes() == plain_path.images.tobytes()
        and np.array_equal(surgery_path.labels, plain_path.labels)
        and np.array_equal(surgery_path.domains, plain_path.domains)
    )
    report(1, "zero-strength surgery equals the plain update path", same,
           f"500 iterations bit-identical={same}, {time.time() - start:.0f}s")


def test_criterion_02_decomposition_identities():
    start = time.time()
    rng = SeededRng(202)
    worst = {"mean_dev": 0.0, "r_min": 1.0, "r_max": 0.0, "sym": 0.0,
             "shrink": -np.inf, "residue": 0.0}
    count = 0
    for trial in range(200):
        s = [2, 3, 4, 8][trial % 4]
        grads = rng.substream(trial).normal(size=(s, 2, 8, 8))
        stack = DomainGradientStack.from_gradients(0, grads)
        cons = consensus(stack, 1e-8)
        bundle = decompose(stack, cons)
        worst["mean_dev"] = max(worst["mean_dev"],
                                float(np.abs(bundle.domain_signals.mean(axis=0)).max()))
        worst["r_min"] = min(worst["r_min"], float(cons.resultant.min()))
        worst["r_max"] = max(worst["r_max"], float(cons.resultant.max()))
        worst["sym"] = max(worst["sym"], float(np.abs(
            frequency_negation(cons.resultant) - cons.resultant).max()))
        worst["shrink"] = max(worst["shrink"],
                              float(np.linalg.norm(bundle.class_signal)
                                    - np.linalg.norm(ifft2(cons.mean_spectrum))))
        _, res_class = ifft2_with_residue(cons.mean_spectrum * cons.resultant)
        worst["residue"] = max(worst["residue"], res_class)
        for spec in stack.spectra:
            _, res_dom = ifft2_with_residue(spec - cons.mean_spectrum)
            worst["residue"] = max(worst["residue"], res_dom)
        count += 1
    ok = (
        count == 200
        and worst["mean_dev"] < 1e-10
        and worst["r_min"] >= 0.0
        and worst["r_max"] < 1.0
        and worst["sym"] < 1e-12
        and worst["shrink"] <= 1e-12
        and worst["residue"] < 1e-9
    )
    report(2, "decomposition identities on 200 random stacks", ok,
           f"zero-mean {worst['mean_dev']:.1e}, r in [{worst['r_min']:.2e}, "
           f"{worst['r_max']:.6f}], symmetry {worst['sym']:.1e}, "
           f"shrink slack {worst['shrink']:.1e}, residue {worst['residue']:.1e}, "
           f"{time.time() - start:.0f}s")


def test_criterion_03_fft_correctness():
    start = time.time()
    rng = SeededRng(303)
    worst_naive = worst_round = worst_parseval = 0.0
    for trial in range(50):
        side = 4 if trial % 2 == 0 else 8
        g = rng.substream(trial).normal(size=(2, side, side))
        spec = fft2(g)
        worst_naive = max(worst_naive, float(np.abs(spec - naive_dft2(g)).max()))
        worst_round = max(worst_round, float(np.abs(ifft2(spec) - g).max()))
        pix = float(np.sum(g**2))
        freq = float(np.sum(np.abs(spec) ** 2) / (side * side))
        worst_parseval = max(worst_parseval, abs(pix - freq) / pix)
    ok = worst_naive < 1e-12 and worst_round < 1e-10 and worst_parseval < 1e-9
    report(3, "transform vs brute-force reference, round trip, energy", ok,
           f"naive gap {worst_naive:.1e}, round trip {worst_round:.1e}, "
           f"Parseval {worst_parseval:.1e}, {time.time() - start:.0f}s")


def _fd_probes(synthetic, view, grad_fn, loss_fn, probes, rng):
    """Worst relative FD error over random (sample, pixel) probes."""
    analytic = grad_fn()
    gmax = float(np.abs(analytic).max())
    floor = max(1e-8, 1e-3 * gmax)
    worst = 0.0
    pixels = synthetic.images[0].size
    for p in range(probes):
        r = rng.substream(p)
        i = int(r.integers(0, len(synthetic)))
        j = int(r.integers(0, pixels))
        x = synthetic.images[i].reshape(-1)
        orig = x[j]
        step = 1e-6
        x[j] = orig + step
        fplus = loss_fn()
        x[j] = orig - step
        fminus = loss_fn()
        x[j] = orig
        fd = (fplus - fminus) / (2 * step)
        a = analytic[i].reshape(-1)[j]
        worst = max(worst, abs(a - fd) / max(abs(a) + abs(fd), floor))
    return worst


def test_criterion_04_gradient_exactness():
    start = time.time()
    rng = SeededRng(404)
    ds = make_dataset(rng.substream(0), class_count=2, domain_count=2,
                      train_per_cell=6, shape=(1, 5, 5))
    union = ds.train_view()
    dom0 = ds.train_view(domain=0)
    worst = {}
    for kind in ["linear", "conv"]:
        if kind == "linear":
            psi = LinearFeaturizer.create((1, 5, 5), 6, rng.substream(1))
            synthetic = make_synthetic(rng.substream(2), class_count=2, ipc=2,
                                       shape=(1, 5, 5))
        else:
            psi = ConvFeaturizer.create(1, 3, 3, rng.substream(3))
            # Resample until every synthetic pre-activation clears the
            # rectifier kink by more than 1e-3 (1000x the FD step).
            for attempt in range(200):
                synthetic = make_synthetic(rng.substream(4, attempt), class_count=2,
                                           ipc=2, shape=(1, 5, 5))
                margins = [np.abs(psi.preactivations(img)).min()
                           for img in synthetic.images]
                if min(margins) > 1e-3:
                    break
            else:
                raise AssertionError("no margin-safe synthetic set found")
        worst[f"{kind}_pooled"] = _fd_probes(
            synthetic, union,
            lambda: dm_gradient(synthetic, union, psi).gradients,
            lambda: dm_loss(synthetic, union, psi),
            50, rng.substream(5, 0 if kind == "linear" else 1))
        worst[f"{kind}_domain"] = _fd_probes(
            synthetic, dom0,
            lambda: dm_gradient(synthetic, dom0, psi).gradients,
            lambda: dm_loss(synthetic, dom0, psi),
            50, rng.substream(6, 0 if kind == "linear" else 1))
    ok = all(v < 1e-5 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(4, "analytic gradients vs central finite differences", ok,
           f"{detail}, {time.time() - start:.0f}s")


S_GRID = [4, 16, 64, 256, 1024]


def test_criterion_05_preservation():
    start = time.time()
    model = SpectralModel(shared=1.0 + 0.0j, phase_halfwidth=0.0, mag_low=1.0,
                          mag_high=1.0)
    curve = attenuation_curve(model, S_GRID, SeededRng(505), trials=2000)
    mag_err = float(np.abs(curve.class_magnitudes - 1.0).max())
    ok = mag_err < 0.01 and abs(curve.class_slope) <= 0.05
    report(5, "aligned phases preserve the shared signal", ok,
           f"max |E - shared| {mag_err:.2e} (<1%), slope {curve.class_slope:+.4f} "
           f"(within 0.05), {time.time() - start:.0f}s")


def test_criterion_06_attenuation():
    start = time.time()
    model = SpectralModel(shared=1.0 + 0.0j, phase_halfwidth=np.pi, mag_low=1.0,
                          mag_high=1.0)
    curve = attenuation_curve(model, S_GRID, SeededRng(606), trials=2000)
    ok = abs(curve.class_slope + 1.0) <= 0.15 and abs(curve.consensus_slope + 0.5) <= 0.1
    report(6, "uniform phases suppress the filtered mean", ok,
           f"filtered slope {curve.class_slope:.4f} (-1 +/- 0.15), raw mean slope "
           f"{curve.consensus_slope:.4f} (-0.5 +/- 0.1), {time.time() - start:.0f}s")


def test_criterion_07_resultant_convergence():
    start = time.time()
    grid = [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]
    sweep = resultant_sweep(grid, 100_000, SeededRng(707), trials=10)
    err = float(np.abs(sweep.estimates - sweep.expected).max())
    ok = err < 0.005
    report(7, "empirical resultant converges to sin(a)/a", ok,
           f"max error {err:.4f} over a in {{0, pi/4, pi/2, 3pi/4, pi}} at S=1e5, "
           f"{time.time() - start:.0f}s")


def test_criterion_08_mdg_directional(mode_outcomes):
    start = time.time()
    dm = mode_outcomes["g_only"].ood
    sgs = mode_outcomes["all_three"].ood
    wins = sum(sgs.target_mean(t) > dm.target_mean(t) for t in dm.targets())
    ok = sgs.mean() >= dm.mean() and wins >= 2
    report(8, "surgery beats plain matching on held-out domains", ok,
           f"mean {sgs.mean():.3f} vs {dm.mean():.3f}, strict wins {wins}/4 "
           f"(need >=2), {time.time() - start:.0f}s incremental")


def test_criterion_09_ablation_ordering(mode_outcomes):
    start = time.time()
    means = {name: out.ood.mean() for name, out in mode_outcomes.items()}
    stds = {name: out.ood.std() for name, out in mode_outcomes.items()}
    pooled = float(np.sqrt(np.mean([s**2 for s in stds.values()])))
    all_three = means["all_three"]
    domain_below = means["domain_only"] < all_three
    within_std = all(all_three >= m - pooled for m in means.values())
    ok = domain_below and within_std
    detail = ", ".join(f"{k}={v:.3f}" for k, v in means.items())
    report(9, "domain-only collapses; full update stays on top", ok,
           f"{detail}, pooled std {pooled:.3f}, {time.time() - start:.0f}s incremental")


def test_criterion_10_sdg_pipeline():
    start = time.time()
    sdg_ds = generate_toy(sdg_toy_spec(), seed=1)
    results = {}
    purity = None
    for tag, (lc, ld) in [("dm", (0.0, 0.0)), ("sgs", (1.0, 1.0))]:
        cfg = toy_protocol_config(lambda_c=lc, lambda_d=ld)
        rep, model = sdg_protocol(sdg_ds, 0, 4, config_distiller(cfg), EVAL_CFG)
        results[tag] = rep.mean()
        if tag == "sgs":
            src = sdg_ds.only_domain(0)
            tints = src.extras["hidden_style"][src.splits == 0]
            purity = cluster_purity(model.assignments, tints)
    ok = results["sgs"] >= results["dm"] and purity >= 0.8
    report(10, "pseudo-domain pipeline keeps the surgery advantage", ok,
           f"sgs {results['sgs']:.3f} >= dm {results['dm']:.3f}, purity {purity:.2f} "
           f"(>=0.8), {time.time() - start:.0f}s")


def test_criterion_11_protocol_hygiene(toy):
    start = time.time()
    checked = []

    def auditing_distiller(source, seed):
        synthetic = real_subsample_distiller(4)(source, seed)
        # Every cell re-proves isolation for all four candidate targets.
        present = set(np.unique(
            [int(toy.domains[np.flatnonzero(toy.uids == u)[0]])
             for u in source.uids]))
        target = (set(range(toy.domain_count)) - present).pop()
        assert_protocol_isolation(toy, source, synthetic, target)
        checked.append(target)
        return synthetic

    mdg_protocol(toy, auditing_distiller, EvalConfig(runs=2, epochs=10, lr=0.05,
                                                     base_seed=1))
    tampered = False
    try:
        assert_protocol_isolation(toy, toy, None, 0)
    except DistillError:
        tampered = True
    ok = sorted(set(checked)) == [0, 1, 2, 3] and tampered
    report(11, "held-out domains provably absent from training inputs", ok,
           f"{len(checked)} cells audited across targets {sorted(set(checked))}, "
           f"leak detection works={tampered}, {time.time() - start:.0f}s")


def test_criterion_12_format_round_trips(toy, tmp_path):
    start = time.time()
    path = tmp_path / "toy.dgdd"
    save_dataset(toy, path)
    back = load_dataset(path)
    dataset_ok = (
        back.images.tobytes() == toy.images.astype("<f4").tobytes()
        and back.train_view().images.tobytes()
        == toy.train_view().images.astype("<f4").astype(np.float64).tobytes()
        and np.array_equal(back.labels, toy.labels)
        and np.array_equal(back.domains, toy.domains)
        and np.array_equal(back.splits, toy.splits)
    )
    short_cfg = toy_protocol_config(ipc=4, iterations=10)
    full_cfg = replace(short_cfg, iterations=20)
    half = run_distillation(toy, short_cfg)
    ck = tmp_path / "half.dgck"
    checkpoint(half.synthetic, ck)
    resumed = run_distillation(toy, full_cfg, initial=restore(ck))
    straight = run_distillation(toy, full_cfg)
    continue_ok = resumed.synthetic.images.tobytes() == straight.synthetic.images.tobytes()
    ok = dataset_ok and continue_ok
    report(12, "container and checkpoint round trips are exact", ok,
           f"dataset f32 bit-exact={dataset_ok}, restored continuation "
           f"bit-identical={continue_ok}, {time.time() - start:.0f}s")
