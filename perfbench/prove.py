"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/prove.py --seeds 1-10 [--workloads a,b] [--trace-seeds 1-3] [--out FILE]

Runs are made one after another, never in parallel. For every workload and
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (interquartile distance over the median) next to the
metric's bound and a third of it. --trace-seeds adds one traced run per
listed seed and reports the per-layer medians. --out writes all of it, with
the machine facts of the last run record, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

def _seeds(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    trace_seeds = _seeds(args.trace_seeds) if args.trace_seeds else []
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for name in names:
        e2e, layers, walls, failures = {}, {}, [], 0
        for seed in seeds:
            result, wall = _run(spec, name, seed, 0)
            walls.append(wall)
            failures += result["failed"] + (not result["correct"])
            for metric, entry in result["metrics"].items():
                e2e.setdefault(metric, []).append(entry["value"])
        for seed in trace_seeds:
            result, _ = _run(spec, name, seed, 1)
            failures += result["failed"] + (not result["correct"])
            for metric, entry in result["metrics"].items():
                layers.setdefault(metric, []).append(entry["value"])
        entry = {"why": whys[name], "failed_or_incorrect": failures, "max_run_wall_s": max(walls),
                 "mean_run_wall_s": statistics.mean(walls),
                 "end_to_end": {m: _summary(v) for m, v in e2e.items()}}
        if layers:
            entry["per_layer_median"] = {m: statistics.median(v) for m, v in layers.items()}
        report["workloads"][name] = entry
        print(f"{name}: failed/incorrect {failures}, runs {statistics.mean(walls):.1f} s "
              f"mean, {max(walls):.1f} s slowest")
        for metric, s in entry["end_to_end"].items():
            third = bounds[metric] / 3
            flag = "" if metric == "setup_s" or s["spread"] < third else "  <-- above bound/3"
            if metric != "setup_s":
                worst = max(worst, s["spread"] / bounds[metric])
            print(f"  {metric:22s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f} (bound {bounds[metric]}, "
                  f"bound/3 {third:.4f}){flag}")
        sys.stdout.flush()
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.out:
        record = os.path.join(".perfbench_out", f"record-{names[-1]}-seed{seeds[-1]}-trace0.json")
        with open(record, encoding="utf-8") as fh:
            report["machine"] = json.load(fh)["machine"]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
