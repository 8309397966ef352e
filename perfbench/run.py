"""Run one benchmark workload for a fixed time and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload distill-linear --seed 1 --seconds 25 --trace 0

The run builds its inputs from --seed, sets up SETUP_REPEATS times (the
median is `setup_s`), then runs operations back to back (closed loop, one
client) for --seconds, checking every operation's output. The last
operation repeats operation 0's inputs and must give identical bytes. After
the loop, the reduced reference case is compared with `reference.npz`; a
traced run also repeats operation 0 untraced and requires identical bytes.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the library's public names are wrapped by the tracer and the last
line holds the per-layer metrics. A run record (machine facts, checks,
every metric) and, when traced, the spans go to `.perfbench_out/`.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

SETUP_REPEATS = 5
MIN_OPS = 2
REFERENCE_SEED = 20261017
REFERENCE_REL_TOL = 1e-6   # relative to each output's largest magnitude
REFERENCE_ACC_TOL = 0.05   # absolute: one flipped prediction in a 30-image test domain
PROBE_REFERENCE_S = 0.033  # the speed probe's time on the host the baseline was measured on
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


class HostClock:
    """Wall seconds scaled to the reference host speed.

    A shared host's speed drifts: on the 2-core machine the baseline was
    measured on, everything ran up to 40% slower for minutes at a time. A
    fixed probe of numpy work (no library code: a BLAS matmul, FFTs, a fancy
    index, a loop of small calls) runs before and after every timed call,
    and the call's wall time is multiplied by PROBE_REFERENCE_S over the mean
    of the two probe times. A change to the library moves the call's time,
    not the probe's.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._x = rng.normal(size=(1500, 768))
        self._w = rng.normal(size=(768, 128))
        self._planes = rng.normal(size=(4, 50, 3, 16, 16))
        self._rows = rng.permutation(1500)[:500]
        self._probe()  # the first call pays one-off set-up costs
        self.probes = [self._probe()]
        self.factor = PROBE_REFERENCE_S / self.probes[0]

    def _probe(self):
        np = self._np
        start = perf_counter()
        for _ in range(3):
            self._x @ self._w
            np.fft.ifft2(np.fft.fft2(self._planes, axes=(-2, -1)).sum(axis=0), axes=(-2, -1))
            self._x[self._rows].mean(axis=0)
            for i in range(200):
                float(self._planes[0, i % 50].sum())
        return perf_counter() - start

    def scale(self, seconds):
        """Scale wall seconds that ended just now; the factor stays for related sums."""
        self.probes.append(self._probe())
        self.factor = PROBE_REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)
        return seconds * self.factor

    def run_factor(self):
        return PROBE_REFERENCE_S / statistics.median(self.probes)


def _pin_threads():
    # One BLAS thread: on a 2-core machine two threads were slower and noisier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _machine_facts(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np):
    """Thread count the bundled OpenBLAS reports, or the pinned setting."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _quantiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def _ratio(num, den):
    return num / den if den else 0.0


def _fail(failures, what, exc):
    failures.append(f"{what}: {type(exc).__name__}: {exc}")
    traceback.print_exc(file=sys.stderr)


def _per_layer(tracer, n_ops, factor, wall_total_s, untraced_op_s, traced_op_s):
    """Per-layer metrics of a traced run; seconds are scaled by the run's
    HostClock factor, like the end-to-end times."""
    from tracer import RNG_DRAWS

    def self_s(layer):
        return tracer.self_s["op", layer] * factor / n_ops

    def incl(name):
        return tracer.inclusive_s["op", name] * factor / n_ops

    c = tracer.counts
    iters = c["distill_iters"]
    return {
        "surgery.self_s": self_s("surgery"),
        "surgery.rows_per_call": _ratio(c["surgery_rows"], c["surgery_calls"]),
        "surgery.useful_row_frac": _ratio(c["surgery_distinct_rows"], c["surgery_rows"]),
        "surgery.fft_planes_per_iter": _ratio(c["surgery_planes"], iters),
        "featurizers.self_s": self_s("featurizers"),
        "featurizers.fwd_rows_per_iter": _ratio(c["fwd_rows"], iters),
        "featurizers.vjp_rows_per_iter": _ratio(c["vjp_rows"], iters),
        "dm.self_s": self_s("dm"),
        "dm.calls_per_iter": _ratio(c["dm_calls"], iters),
        "dm.real_featurize_ratio": _ratio(c["real_rows"], c["real_row_iters"]),
        "datasets.self_s": self_s("datasets"),
        "datasets.class_images_calls_per_iter": _ratio(c["class_images_calls"], iters),
        "rng.self_s": self_s("rng"),
        "rng.draw_s": sum(incl(f"rng.SeededRng.{d}") for d in RNG_DRAWS),
        "pipeline.self_s": self_s("pipeline"),
        "pipeline.init_s": incl("pipeline.initialize"),
        "pipeline.ckpt_s": incl("pipeline.checkpoint") + incl("pipeline.restore"),
        "evaluation.self_s": self_s("evaluation"),
        "evaluation.train_s": incl("evaluation.train_classifier"),
        "evaluation.score_s": incl("evaluation.accuracy"),
        "evaluation.isolation_s": incl("evaluation.assert_protocol_isolation"),
        "evaluation.distill_share": _ratio(tracer.inclusive_s["op", "pipeline.run_distillation"],
                                           wall_total_s),
        "pseudo.self_s": self_s("pseudo"),
        "pseudo.style_stats_s": incl("pseudo.style_stats_batch"),
        "pseudo.kmeans_s": incl("pseudo.kmeans"),
        "pseudo.kmeans_iters": c["kmeans_iters"] / n_ops,
        "storage.self_s": self_s("storage"),
        "storage.bytes_written": c["bytes_written"] / n_ops,
        "storage.bytes_read": c["bytes_read"] / n_ops,
        "storage.write_MBps": _ratio(c["bytes_written"], c["write_s"] * factor) / 1e6,
        "storage.read_MBps": _ratio(c["bytes_read"], c["read_s"] * factor) / 1e6,
        "fourier.self_s": self_s("fourier"),
        "toydata.generate_s": tracer.inclusive_s["setup", "toydata.generate_toy"] * factor
        / SETUP_REPEATS,
        "trace.overhead_frac": _ratio(traced_op_s, untraced_op_s) - 1.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _pin_threads()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "sgsdistill", "__init__.py")):
        print("error: src/sgsdistill not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        return _run(args, workloads.WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, workdir):
    import numpy as np

    import sgsdistill
    import workloads
    from tracer import CHECK, Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(sgsdistill)

    clock = HostClock(np)
    setup_raw, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        state = wl.setup(args.seed)
        setup_raw.append(perf_counter() - start)
        setup_times.append(clock.scale(setup_raw[-1]))

    attempted = failed = cells = iterations = 0
    distill_s = 0.0
    first = None           # (ood_acc, final_dm_loss) of the first completed operation
    raw, durations, digests, failures, checks = [], [], {}, [], {}
    loop_start = perf_counter()
    j = 0
    while True:
        expected = statistics.median(raw) if raw else 0.0
        # The last operation repeats operation 0's inputs; it must give the same bytes.
        last = j + 1 >= MIN_OPS and perf_counter() - loop_start + expected >= args.seconds
        key = 0 if last else j
        attempted += 1
        if tracer:
            tracer.op = j
        start = perf_counter()
        try:
            res = wl.op(state, key, workdir)
        except Exception as exc:  # a failed operation is counted, not fatal
            res = None
            _fail(failures, f"op {j} (inputs {key})", exc)
        else:
            # The work was done: its time counts even if the output is wrong.
            raw.append(perf_counter() - start)
            durations.append(clock.scale(raw[-1]))
            cells += res.cells
            iterations += res.iterations
            distill_s += res.distill_s * clock.factor
            first = first or (res.ood_acc, res.final_dm_loss)
            if tracer:
                tracer.op = CHECK
            try:
                wl.check(state, res, workdir)
            except Exception as exc:
                res = None
                _fail(failures, f"check of op {j} (inputs {key})", exc)
        if res is None:
            failed += 1
        elif last:
            checks["repeat_identical"] = digests.get(0) == res.digest()
        else:
            digests[j] = res.digest()
        j += 1
        if last:
            break
    checks.setdefault("repeat_identical", False)
    if tracer:
        tracer.uninstall()
        tracer.op = CHECK
    if not durations:
        print("error: no operation completed: " + "; ".join(failures), file=sys.stderr)
        return 1

    repeat_s = None
    if tracer:
        # Operation 0 once more, untraced: the same bytes, and the tracing overhead.
        start = perf_counter()
        try:
            repeat = wl.op(state, 0, workdir)
            repeat_s = clock.scale(perf_counter() - start)
            wl.check(state, repeat, workdir)
            checks["traced_untraced_identical"] = digests.get(0) == repeat.digest()
        except Exception as exc:
            checks["traced_untraced_identical"] = False
            _fail(failures, "untraced op 0", exc)

    # The reduced case must match the stored reference within tolerance.
    try:
        small = wl.setup(REFERENCE_SEED, small=True)
        probe = wl.op(small, 0, workdir)
        wl.check(small, probe, workdir)
        with np.load(os.path.join(HERE, "reference.npz")) as ref:
            rel, acc = workloads.reference_deviation(probe.arrays, dict(ref), wl.name)
        checks["reference_max_rel_dev"] = rel
        checks["reference_max_acc_dev"] = acc
        checks["reference_ok"] = rel <= REFERENCE_REL_TOL and acc <= REFERENCE_ACC_TOL
    except Exception as exc:
        checks["reference_ok"] = False
        _fail(failures, "reference case", exc)

    correct = failed == 0 and all(v for k, v in checks.items() if k.endswith(("_ok", "_identical")))
    # ood_acc and final_dm_loss are exact functions of the seed and fail_frac is
    # 0 on a correct program: recorded and printed, not gated. The reference
    # check guards the outputs far more tightly than a bound could.
    recorded = {
        "ood_acc": (first[0], "ratio"),
        "final_dm_loss": (first[1], "loss"),
        "fail_frac": (failed / attempted, "ratio"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine_facts(np),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "checks": checks,
        "op_s": durations,
        "op_s_quartiles": _quantiles(durations),
        "op_s_wall": raw,
        "setup_s_all": setup_times,
        "setup_s_wall": setup_raw,
        "probe_s": clock.probes,
    }
    if args.trace:
        metrics = _per_layer(tracer, len(durations), clock.run_factor(), sum(raw), repeat_s,
                             statistics.median(durations))
        units = _per_layer_units()
        shown = {k: (v, units[k]) for k, v in metrics.items()}
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.dump(spans_path)
        record["spans"] = spans_path
        record["span_count"] = len(tracer.spans)
        record["traced_op_s_p50"] = statistics.median(durations)
        record["untraced_op0_s"] = repeat_s
    else:
        shown = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s_p50": (statistics.median(durations), "s"),
            "distill_iters_per_s": (iterations / distill_s, "1/s"),
            "cells_per_s": (cells / sum(durations), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in {**shown, **recorded}.items()}
    record_path = os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  ops {attempted} "
          f"(failed {failed})  correct {correct}  record {record_path}")
    for name, (value, unit) in {**shown, **recorded}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, value in checks.items():
        print(f"  check {name}: {value}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


def _per_layer_units():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
