"""Command-line front end.

Subcommands: gen-data, distill, eval, oracle, cluster, sweep. A JSON config
file carries the toy-data spec, distillation settings, and eval settings;
flags override config values. Every run writes resolved_config.json next to
its outputs, and re-feeding that file reproduces the outputs byte for byte.

Exit codes: 0 success, 1 usage or config error, 2 runtime data error,
3 I/O error.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import storage
from .circular import SpectralModel, attenuation_curve, resultant_sweep
from .errors import (
    DistillError,
    GridTooLarge,
    InvalidConfig,
    InvalidSpec,
    IoError,
)
from .evaluation import (
    EvalConfig,
    config_distiller,
    mdg_protocol,
    sdg_protocol,
    toy_protocol_config,
)
from .pipeline import (
    checkpoint,
    config_from_dict,
    config_to_dict,
    run_distillation,
    surgery_snapshot,
)
from .pseudo import assign_pseudo_domains, cluster_purity, default_style_featurizer
from .rng import SeededRng
from .toydata import ToySpec, generate_toy, toyspec_from_dict, toyspec_to_dict


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_EVAL_KEYS = {"runs", "epochs", "lr"}
_ORACLE_KEYS = {"s_list", "trials", "halfwidths", "sweep_domains", "sweep_trials"}
_TOP_KEYS = {"seed", "toy", "distill", "eval", "oracle"}

_DEFAULT_ORACLE = {
    "s_list": [4, 16, 64, 256, 1024],
    "trials": 2000,
    "halfwidths": [0.0, 0.25, 0.5, 0.75, 1.0],  # multiples of pi
    "sweep_domains": 100_000,
    "sweep_trials": 10,
}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfig("config root must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    for section, keys in [("eval", _EVAL_KEYS), ("oracle", _ORACLE_KEYS)]:
        extra = set(data.get(section, {})) - keys
        if extra:
            raise InvalidConfig(f"unknown {section} config keys: {sorted(extra)}")
    return data


def _resolve(args):
    """Merge defaults, config file, and flag overrides into one plain dict."""
    file_cfg = _load_config(getattr(args, "config", None))
    seed = file_cfg.get("seed", 0)
    if getattr(args, "seed", None) is not None:
        seed = args.seed

    toy = toyspec_to_dict(toyspec_from_dict(file_cfg.get("toy", {})))

    distill_dict = config_to_dict(toy_protocol_config())
    distill_dict.update(file_cfg.get("distill", {}))
    overrides = {
        "lambda_c": getattr(args, "lambda_c", None),
        "lambda_d": getattr(args, "lambda_d", None),
        "ipc": getattr(args, "ipc", None),
        "iterations": getattr(args, "iters", None),
        "eta": getattr(args, "eta", None),
        "epsilon": getattr(args, "epsilon", None),
        "init": getattr(args, "init", None),
    }
    distill_dict.update({k: v for k, v in overrides.items() if v is not None})
    distill_dict["seed"] = seed
    distill = config_from_dict(distill_dict)

    eval_dict = {"runs": 5, "epochs": 400, "lr": 0.05}
    eval_dict.update(file_cfg.get("eval", {}))
    eval_cfg = EvalConfig(base_seed=seed, **eval_dict)

    oracle = dict(_DEFAULT_ORACLE)
    oracle.update(file_cfg.get("oracle", {}))
    if getattr(args, "s_list", None) is not None:
        oracle["s_list"] = [int(v) for v in args.s_list.split(",")]
    if getattr(args, "trials", None) is not None:
        oracle["trials"] = args.trials

    resolved = {
        "seed": seed,
        "toy": toy,
        "distill": config_to_dict(distill),
        "eval": {"runs": eval_cfg.runs, "epochs": eval_cfg.epochs, "lr": eval_cfg.lr},
        "oracle": oracle,
    }
    return resolved, toyspec_from_dict(toy), distill, eval_cfg, oracle


def _ensure_out(args):
    out = args.out
    os.makedirs(out, exist_ok=True)
    return out


def _write_resolved(resolved, out):
    storage.write_json(resolved, os.path.join(out, "resolved_config.json"))
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _dataset_for(args, toy_spec, seed):
    if getattr(args, "data", None):
        return storage.load_dataset(args.data)
    return generate_toy(toy_spec, seed=seed)


def _cmd_gen_data(args):
    resolved, toy_spec, _, _, _ = _resolve(args)
    out = _ensure_out(args)
    _write_resolved(resolved, out)
    ds = generate_toy(toy_spec, seed=resolved["seed"])
    data_path = os.path.join(out, f"{toy_spec.name}.dgdd")
    storage.save_dataset(ds, data_path)
    meta = {
        "name": toy_spec.name,
        "seed": resolved["seed"],
        "class_count": ds.class_count,
        "domain_count": ds.domain_count,
        "samples": len(ds),
        "hidden_style": ds.extras["hidden_style"].tolist(),
    }
    storage.write_json(meta, os.path.join(out, f"{toy_spec.name}.meta.json"))
    print(f"wrote {data_path} ({len(ds)} samples)")
    return 0


def _cmd_distill(args):
    resolved, toy_spec, distill_cfg, _, _ = _resolve(args)
    out = _ensure_out(args)
    _write_resolved(resolved, out)
    source = _dataset_for(args, toy_spec, resolved["seed"])
    result = run_distillation(source, distill_cfg, checkpoint_dir=out)
    final_path = os.path.join(out, "distilled.dgck")
    checkpoint(result.synthetic, final_path, config=distill_cfg)
    storage.write_loss_history_csv(result.history, result.domain_count,
                                   os.path.join(out, "loss_history.csv"))
    if getattr(args, "dump_rmaps", False):
        resultants, class_signals = surgery_snapshot(source, distill_cfg,
                                                     result.synthetic)
        storage.save_grids(resultants, os.path.join(out, "resultant_maps.dggr"))
        storage.save_grids(class_signals, os.path.join(out, "class_signals.dggr"))
    print(f"wrote {final_path} after {result.synthetic.iteration} iterations")
    return 0


def _cmd_eval(args):
    resolved, toy_spec, distill_cfg, eval_cfg, _ = _resolve(args)
    out = _ensure_out(args)
    config_hash = _write_resolved(resolved, out)
    ds = _dataset_for(args, toy_spec, resolved["seed"])
    distiller = config_distiller(distill_cfg)
    summary = {"config_hash": config_hash, "protocol": args.protocol}
    if args.protocol in ("mdg", "id"):
        outcome = mdg_protocol(ds, distiller, eval_cfg)
        if args.protocol == "mdg":
            storage.export_metrics_csv(outcome.ood, os.path.join(out, "mdg_ood.csv"))
            summary["ood"] = outcome.ood.summary()
        storage.export_metrics_csv(outcome.in_distribution,
                                   os.path.join(out, "mdg_id.csv"))
        summary["in_distribution"] = outcome.in_distribution.summary()
    else:
        k = args.k if args.k is not None else 4
        source = args.source_domain if args.source_domain is not None else 0
        report, _ = sdg_protocol(ds, source, k, distiller, eval_cfg)
        storage.export_metrics_csv(report, os.path.join(out, "sdg_ood.csv"))
        summary["ood"] = report.summary()
        summary["k"] = k
        summary["source_domain"] = source
    storage.write_json(summary, os.path.join(out, "summary.json"))
    print(f"wrote evaluation summary to {out}/summary.json")
    return 0


def _cmd_oracle(args):
    resolved, _, _, _, oracle = _resolve(args)
    out = _ensure_out(args)
    config_hash = _write_resolved(resolved, out)
    seed = resolved["seed"]
    uniform = SpectralModel(shared=1.0 + 0.0j, phase_halfwidth=np.pi,
                            trials=oracle["trials"])
    decay = attenuation_curve(uniform, oracle["s_list"], SeededRng(seed, (1,)),
                              trials=oracle["trials"])
    storage.export_metrics_csv(decay, os.path.join(out, "decay_curve.csv"))
    sweep = resultant_sweep([a * np.pi for a in oracle["halfwidths"]],
                            oracle["sweep_domains"], SeededRng(seed, (2,)),
                            trials=oracle["sweep_trials"])
    storage.export_metrics_csv(sweep, os.path.join(out, "resultant_sweep.csv"))
    summary = {
        "config_hash": config_hash,
        "class_slope": decay.class_slope,
        "consensus_slope": decay.consensus_slope,
        "sweep_max_abs_error": float(np.abs(sweep.estimates - sweep.expected).max()),
    }
    storage.write_json(summary, os.path.join(out, "summary.json"))
    print(f"class slope {decay.class_slope:.3f}, consensus slope {decay.consensus_slope:.3f}")
    return 0


def _cmd_cluster(args):
    resolved, toy_spec, _, _, _ = _resolve(args)
    out = _ensure_out(args)
    _write_resolved(resolved, out)
    ds = _dataset_for(args, toy_spec, resolved["seed"])
    flat, truth = ds.flatten_domains()
    k = args.k if args.k is not None else 4
    seed = resolved["seed"]
    psi = default_style_featurizer(ds.image_shape[0], SeededRng(seed, (11,)))
    relabeled, model = assign_pseudo_domains(flat, psi, k, SeededRng(seed, (12,)))
    lines = ["sample_index,pseudo_domain"]
    lines += [f"{i},{int(d)}" for i, d in enumerate(relabeled.domains)]
    assign_path = os.path.join(out, "assignments.csv")
    with open(assign_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {"k": k, "inertia": model.inertia}
    if ds.domain_count > 1:
        summary["purity_vs_domains"] = cluster_purity(relabeled.domains, truth)
    hidden = ds.extras.get("hidden_style")
    if hidden is not None and (hidden >= 0).all():
        summary["purity_vs_hidden_styles"] = cluster_purity(relabeled.domains, hidden)
    storage.write_json(summary, os.path.join(out, "summary.json"))
    print(f"wrote {assign_path}")
    return 0


def _sweep_cell(resolved, param, value, data_path):
    """One sweep cell; module-level so process pools can pickle it."""
    distill_cfg = config_from_dict(resolved["distill"])
    eval_cfg = EvalConfig(base_seed=resolved["seed"], **resolved["eval"])
    toy_spec = toyspec_from_dict(resolved["toy"])
    ds = storage.load_dataset(data_path) if data_path else \
        generate_toy(toy_spec, seed=resolved["seed"])
    if param == "k":
        report, _ = sdg_protocol(ds, 0, int(value),
                                 config_distiller(distill_cfg), eval_cfg)
    else:
        cfg = replace(distill_cfg, **{param: float(value)})
        report = mdg_protocol(ds, config_distiller(cfg), eval_cfg).ood
    return report.mean(), report.std()


def _cmd_sweep(args):
    resolved, _, _, _, _ = _resolve(args)
    out = _ensure_out(args)
    _write_resolved(resolved, out)
    param = args.param.replace("-", "_")
    if param not in ("lambda_c", "lambda_d", "k"):
        raise InvalidConfig(f"cannot sweep parameter {args.param!r}")
    values = [float(v) for v in args.values.split(",")]
    if len(values) > 64:
        raise GridTooLarge(f"{len(values)} cells exceed the sweep budget of 64")
    cells = [(resolved, param, v, getattr(args, "data", None)) for v in values]
    if args.jobs and args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_sweep_cell, *cell) for cell in cells]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_cell(*cell) for cell in cells]
    lines = ["param,value,mean_ood_accuracy,std"]
    for v, (mean, std) in zip(values, results):
        lines.append(f"{param},{v:.6g},{mean:.6g},{std:.6g}")
    sweep_path = os.path.join(out, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {sweep_path}")
    return 0


def build_parser():
    parser = _Parser(prog="sgsdistill",
                     description="Distribution-matching distillation with "
                                 "spectral gradient surgery, at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, data_flag=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="global seed override")
        if data_flag:
            p.add_argument("--data", help="DGDD dataset file (default: generate toy data)")

    p = sub.add_parser("gen-data", help="generate the procedural toy dataset")
    common(p, data_flag=False)

    p = sub.add_parser("distill", help="run distillation")
    common(p)
    p.add_argument("--lambda-c", type=float, dest="lambda_c")
    p.add_argument("--lambda-d", type=float, dest="lambda_d")
    p.add_argument("--ipc", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--init", choices=["noise", "random", "uniform"])
    p.add_argument("--dump-rmaps", action="store_true", dest="dump_rmaps")

    p = sub.add_parser("eval", help="run an evaluation protocol")
    common(p)
    p.add_argument("--protocol", choices=["mdg", "sdg", "id"], required=True)
    p.add_argument("--k", type=int, help="pseudo-domain count for SDG")
    p.add_argument("--source-domain", type=int, dest="source_domain")
    p.add_argument("--lambda-c", type=float, dest="lambda_c")
    p.add_argument("--lambda-d", type=float, dest="lambda_d")
    p.add_argument("--ipc", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--init", choices=["noise", "random", "uniform"])

    p = sub.add_parser("oracle", help="Monte-Carlo verification curves")
    common(p, data_flag=False)
    p.add_argument("--s-list", dest="s_list", help="comma-separated domain counts")
    p.add_argument("--trials", type=int)

    p = sub.add_parser("cluster", help="pseudo-domain clustering")
    common(p)
    p.add_argument("--k", type=int)

    p = sub.add_parser("sweep", help="hyperparameter sweep (distill + eval per cell)")
    common(p)
    p.add_argument("--param", required=True, help="lambda-c, lambda-d, or k")
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.add_argument("--jobs", type=int, default=1)

    return parser


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "distill": _cmd_distill,
    "eval": _cmd_eval,
    "oracle": _cmd_oracle,
    "cluster": _cmd_cluster,
    "sweep": _cmd_sweep,
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidConfig, InvalidSpec, GridTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
