"""Command-line front end.

Subcommands: gen-data, distill, eval, oracle, cluster, sweep. A JSON config
file carries the toy-data spec and the distill, eval and oracle settings;
only this module knows its format, and flags override its values. Every run
writes resolved_config.json (the typed Settings record) next to its outputs,
and re-feeding that file reproduces the outputs byte for byte.

`run` alone decides when --out appears: it must not exist or be an empty
directory. A command writes into a fresh `.<name>.staging-XXXX` directory
beside it, renamed onto --out on success and removed on any exception, so a
failed command leaves no --out and a killed one only its staging directory.

Exit codes: 0 success, 1 usage or config error, 2 runtime data error,
3 I/O error.
"""

import argparse
import concurrent.futures
import contextlib
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import get_args, get_origin

import numpy as np

from . import storage
from .circular import SpectralModel, attenuation_curve, resultant_sweep
from .errors import DistillError, InvalidConfig, InvalidSpec, IoError, TooFewDomains
from .evaluation import (
    EvalConfig,
    config_distiller,
    mdg_protocol,
    sdg_protocol,
    toy_protocol_config,
)
from . import featurizers
from .pipeline import (INIT_STRATEGIES, DistillConfig, checkpoint, run_distillation,
                       surgery_snapshot)
from .pseudo import assign_pseudo_domains, cluster_purity, default_style_featurizer
from .rng import SeededRng
from .toydata import ToySpec, generate_toy, sdg_toy_spec


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Options an earlier version had. Their defaults are what the loop does now,
# so a resolved config an earlier version wrote still reproduces its outputs.
_REMOVED_OPTIONS = {"momentum": 0.0, "clamp": False, "resample_featurizer": True,
                    "algorithm": "sgs"}

# The distill fields a flag of the same name overrides (--iters sets iterations).
_DISTILL_FLAGS = ("lambda_c", "lambda_d", "ipc", "iterations", "eta", "epsilon", "init")


@dataclass(frozen=True)
class OracleConfig:
    """Monte-Carlo verification settings; halfwidths are multiples of pi."""

    s_list: tuple[int, ...] = (4, 16, 64, 256, 1024)
    trials: int = 2000
    halfwidths: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    sweep_domains: int = 100_000
    sweep_trials: int = 10

    def __post_init__(self):
        s = self.s_list
        if len(s) < 3 or s[0] < 2 or any(b <= a for a, b in zip(s, s[1:])):
            raise InvalidConfig("s_list needs at least three strictly increasing "
                                f"domain counts of at least 2, got {list(s)}")
        if self.trials < 2 or self.sweep_trials < 2:
            raise InvalidConfig("trials and sweep_trials must be at least 2")
        if self.sweep_domains < 2:
            raise InvalidConfig("sweep_domains must be at least 2")
        if not self.halfwidths or not all(0 <= a <= 1 for a in self.halfwidths):
            raise InvalidConfig("halfwidths must be a non-empty list in [0, 1]")


@dataclass(frozen=True)
class Settings:
    """Everything a run reads from config and flags, as resolved_config.json records it."""

    seed: int
    toy: ToySpec
    distill: DistillConfig
    eval: EvalConfig
    oracle: OracleConfig

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")


def _checked(kind, value, where):
    """A JSON value of the annotated field type, kept as it is (no coercion)."""
    if is_dataclass(kind):
        return _from_dict(kind, value, where)
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidConfig(f"{where} must be a list, got {value!r}")
        return tuple(_checked(get_args(kind)[0], v, where) for v in value)
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        ok = is_int or (isinstance(value, float) and math.isfinite(value))
    elif kind is int:
        ok = is_int
    else:
        ok = isinstance(value, kind)
    if not ok:
        name = {int: "an integer", float: "a finite number", bool: "true or false",
                str: "a string"}[kind]
        raise InvalidConfig(f"{where} must be {name}, got {value!r}")
    return value


def _from_dict(cls, data, where="config"):
    """Build config dataclass `cls` from a JSON object, nested sections included.

    Unknown keys and ill-typed values are config errors, and so are the range
    errors the dataclasses raise themselves; `where` names the section.
    """
    if not isinstance(data, dict):
        raise InvalidConfig(f"{where} must be a JSON object, got {data!r}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise InvalidConfig(f"unknown keys in {where}: {sorted(unknown)}")
    kwargs = {k: _checked(t, data[k], f"{where}.{k}") for k, t in types.items() if k in data}
    try:
        return cls(**kwargs)
    except (InvalidConfig, InvalidSpec, ValueError, TypeError) as exc:
        raise InvalidConfig(f"{where}: {exc}") from exc


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
    return data


def _section(file_cfg, name):
    section = file_cfg.get(name, {})
    if not isinstance(section, dict):
        raise InvalidConfig(f"config.{name} must be a JSON object, got {section!r}")
    return dict(section)


def _numbers(flag, text, kind):
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise InvalidConfig(f"{flag}: {exc}") from exc


def _resolve(args):
    """Merge the config file, the defaults and the flags, then load them once."""
    file_cfg = _load_config(args.config)
    seed = file_cfg.get("seed", 0) if args.seed is None else args.seed

    toy = _section(file_cfg, "toy")
    # Pseudo-domains need latent styles: with one style per domain, K-means
    # splits the source by class.
    if (getattr(args, "protocol", None) == "sdg" or getattr(args, "param", None) == "k") \
            and "styles" not in toy and not getattr(args, "data", None):
        toy["styles"] = asdict(sdg_toy_spec())["styles"]

    distill = {**asdict(toy_protocol_config()), **_section(file_cfg, "distill")}
    for key, default in _REMOVED_OPTIONS.items():
        if key in distill and distill.pop(key) != default:
            raise InvalidConfig(f"distill option {key!r} was removed; "
                                f"only its old default {default!r} is accepted")
    flags = {k: getattr(args, k, None) for k in _DISTILL_FLAGS}
    distill.update({k: v for k, v in flags.items() if v is not None}, seed=seed)

    evals = _section(file_cfg, "eval")
    if "base_seed" in evals:   # the top-level seed sets it
        raise InvalidConfig("unknown keys in config.eval: ['base_seed']")

    oracle = _section(file_cfg, "oracle")
    if getattr(args, "s_list", None) is not None:
        oracle["s_list"] = _numbers("--s-list", args.s_list, int)
    if getattr(args, "trials", None) is not None:
        oracle["trials"] = args.trials

    return _from_dict(Settings, {**file_cfg, "seed": seed, "toy": toy, "distill": distill,
                                 "eval": {**evals, "base_seed": seed}, "oracle": oracle})


@contextlib.contextmanager
def _staged(out):
    """A fresh staging directory beside `out`, renamed onto `out` on success and
    removed, with nothing else touched, on any exception."""
    out = os.path.normpath(out)
    if os.path.lexists(out) and not (os.path.isdir(out) and not os.listdir(out)):
        raise InvalidConfig(f"--out {out} must not exist or must be an empty directory")
    parent, name = os.path.split(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=f".{name}.staging-", dir=parent)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(stage, 0o777 & ~umask)   # the mode os.mkdir would give --out
        yield stage
        os.replace(stage, out)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise


def _write_resolved(settings, out):
    """Start the output directory with resolved_config.json; returns the config hash."""
    resolved = asdict(settings)
    del resolved["eval"]["base_seed"]   # the top-level seed
    storage.write_json(resolved, os.path.join(out, "resolved_config.json"))
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _pseudo_domain_count(k):
    """The pseudo-domain count; a bad one is a config error, not kmeans' ValueError."""
    if not float(k).is_integer() or k < 2:
        raise InvalidConfig(f"pseudo-domain count k must be an integer of at least 2, got {k}")
    return int(k)


def _dataset_for(data_path, settings):
    if data_path:
        return storage.load_dataset(data_path)
    return generate_toy(settings.toy, seed=settings.seed)


def _cmd_gen_data(args, settings, out, config_hash):
    ds = generate_toy(settings.toy, seed=settings.seed)
    name = settings.toy.name
    storage.save_dataset(ds, os.path.join(out, f"{name}.dgdd"))
    meta = {
        "name": name,
        "seed": settings.seed,
        "class_count": ds.class_count,
        "domain_count": ds.domain_count,
        "samples": len(ds),
        "hidden_style": ds.extras["hidden_style"].tolist(),
    }
    storage.write_json(meta, os.path.join(out, f"{name}.meta.json"))
    return f"wrote {os.path.join(args.out, f'{name}.dgdd')} ({len(ds)} samples)"


def _cmd_distill(args, settings, out, config_hash):
    source = _dataset_for(args.data, settings)
    # --dump-rmaps needs two domains too: fail before the distillation, not after.
    if (settings.distill.surgery or args.dump_rmaps) and source.domain_count < 2:
        raise TooFewDomains(f"surgery needs 2 domains, the data has {source.domain_count}")
    result = run_distillation(source, settings.distill, checkpoint_dir=out)
    checkpoint(result.synthetic, os.path.join(out, "distilled.dgck"))
    storage.write_loss_history_csv(result.history, result.domain_count,
                                   os.path.join(out, "loss_history.csv"))
    if args.dump_rmaps:
        resultants, class_signals = surgery_snapshot(source, settings.distill,
                                                     result.synthetic)
        storage.save_grids(resultants, os.path.join(out, "resultant_maps.dggr"))
        storage.save_grids(class_signals, os.path.join(out, "class_signals.dggr"))
    return (f"wrote {os.path.join(args.out, 'distilled.dgck')} "
            f"after {result.synthetic.iteration} iterations")


def _cmd_eval(args, settings, out, config_hash):
    k = _pseudo_domain_count(args.k) if args.protocol == "sdg" else None
    ds = _dataset_for(args.data, settings)
    distiller = config_distiller(settings.distill)
    summary = {"config_hash": config_hash, "protocol": args.protocol}
    if args.protocol in ("mdg", "id"):
        outcome = mdg_protocol(ds, distiller, settings.eval)
        if args.protocol == "mdg":
            storage.export_metrics_csv(outcome.ood, os.path.join(out, "mdg_ood.csv"))
            summary["ood"] = outcome.ood.summary()
        storage.export_metrics_csv(outcome.in_distribution,
                                   os.path.join(out, "mdg_id.csv"))
        summary["in_distribution"] = outcome.in_distribution.summary()
    else:
        report, _ = sdg_protocol(ds, args.source_domain, k, distiller, settings.eval)
        storage.export_metrics_csv(report, os.path.join(out, "sdg_ood.csv"))
        summary["ood"] = report.summary()
        summary["k"] = k
        summary["source_domain"] = args.source_domain
    storage.write_json(summary, os.path.join(out, "summary.json"))
    return f"wrote evaluation summary to {args.out}/summary.json"


def _cmd_oracle(args, settings, out, config_hash):
    seed, oracle = settings.seed, settings.oracle
    uniform = SpectralModel(shared=1.0 + 0.0j, phase_halfwidth=np.pi)
    decay = attenuation_curve(uniform, oracle.s_list, SeededRng(seed, (1,)),
                              trials=oracle.trials)
    storage.export_metrics_csv(decay, os.path.join(out, "decay_curve.csv"))
    sweep = resultant_sweep([a * np.pi for a in oracle.halfwidths],
                            oracle.sweep_domains, SeededRng(seed, (2,)),
                            trials=oracle.sweep_trials)
    storage.export_metrics_csv(sweep, os.path.join(out, "resultant_sweep.csv"))
    summary = {
        "config_hash": config_hash,
        "class_slope": decay.class_slope,
        "consensus_slope": decay.consensus_slope,
        "sweep_max_abs_error": float(np.abs(sweep.estimates - sweep.expected).max()),
    }
    storage.write_json(summary, os.path.join(out, "summary.json"))
    return f"class slope {decay.class_slope:.3f}, consensus slope {decay.consensus_slope:.3f}"


def _cmd_cluster(args, settings, out, config_hash):
    k = _pseudo_domain_count(args.k)
    ds = _dataset_for(args.data, settings)
    flat, truth = ds.flatten_domains()
    seed = settings.seed
    psi = default_style_featurizer(ds.image_shape[0], SeededRng(seed, (11,)))
    relabeled, model = assign_pseudo_domains(flat, psi, k, SeededRng(seed, (12,)))
    storage.write_csv(["sample_index", "pseudo_domain"], enumerate(relabeled.domains),
                      os.path.join(out, "assignments.csv"))
    summary = {"k": k, "inertia": model.inertia}
    if ds.domain_count > 1:
        summary["purity_vs_domains"] = cluster_purity(relabeled.domains, truth)
    hidden = ds.extras.get("hidden_style")
    if hidden is not None and (hidden >= 0).all():
        summary["purity_vs_hidden_styles"] = cluster_purity(relabeled.domains, hidden)
    storage.write_json(summary, os.path.join(out, "summary.json"))
    return f"wrote {os.path.join(args.out, 'assignments.csv')}"


def _sweep_cell(settings, param, value, data_path):
    """One sweep cell; module-level so process pools can pickle it."""
    ds = _dataset_for(data_path, settings)
    if param == "k":
        report, _ = sdg_protocol(ds, 0, int(value),
                                 config_distiller(settings.distill), settings.eval)
    else:
        cfg = replace(settings.distill, **{param: float(value)})
        report = mdg_protocol(ds, config_distiller(cfg), settings.eval).ood
    return report.mean(), report.std()


def _cmd_sweep(args, settings, out, config_hash):
    if args.jobs < 1:
        raise InvalidConfig("--jobs must be at least 1")
    param = args.param.replace("-", "_")
    if param not in ("lambda_c", "lambda_d", "k"):
        raise InvalidConfig(f"cannot sweep parameter {args.param!r}")
    values = _numbers("--values", args.values, float)
    if len(values) > 64:
        raise InvalidConfig(f"{len(values)} cells exceed the sweep budget of 64")
    for v in values:   # an invalid cell fails before any cell runs
        if param == "k":
            _pseudo_domain_count(v)
        else:
            replace(settings.distill, **{param: _checked(float, v, "--values")})
    cells = [(settings, param, v, args.data) for v in values]
    workers = min(args.jobs, len(cells), featurizers._usable_cpus())
    if workers > 1:
        # Each worker process is one lane of this pool: it computes its
        # distillation's queued items itself, so pools never nest.
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=featurizers.one_lane) as pool:
            futures = [pool.submit(_sweep_cell, *cell) for cell in cells]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_cell(*cell) for cell in cells]
    storage.write_csv(["param", "value", "mean_ood_accuracy", "std"],
                      [(param, v, mean, std) for v, (mean, std) in zip(values, results)],
                      os.path.join(out, "sweep.csv"))
    return f"wrote {os.path.join(args.out, 'sweep.csv')}"


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

    def distill_flags(p):
        p.add_argument("--lambda-c", type=float, dest="lambda_c")
        p.add_argument("--lambda-d", type=float, dest="lambda_d")
        p.add_argument("--ipc", type=int)
        p.add_argument("--iters", type=int, dest="iterations")
        p.add_argument("--eta", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--init", choices=INIT_STRATEGIES)

    p = sub.add_parser("gen-data", help="generate the procedural toy dataset")
    common(p, data_flag=False)

    p = sub.add_parser("distill", help="run distillation")
    common(p)
    distill_flags(p)
    p.add_argument("--dump-rmaps", action="store_true", dest="dump_rmaps")

    p = sub.add_parser("eval", help="run an evaluation protocol")
    common(p)
    p.add_argument("--protocol", choices=["mdg", "sdg", "id"], required=True)
    p.add_argument("--k", type=int, default=4, help="pseudo-domain count for SDG")
    p.add_argument("--source-domain", type=int, dest="source_domain", default=0)
    distill_flags(p)

    p = sub.add_parser("oracle", help="Monte-Carlo verification curves")
    common(p, data_flag=False)
    p.add_argument("--s-list", dest="s_list", help="comma-separated domain counts")
    p.add_argument("--trials", type=int)

    p = sub.add_parser("cluster", help="pseudo-domain clustering")
    common(p)
    p.add_argument("--k", type=int, default=4)

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
        settings = _resolve(args)
        with _staged(args.out) as out:
            config_hash = _write_resolved(settings, out)
            line = _COMMANDS[args.command](args, settings, out, config_hash)
        print(line)
        return 0
    except (_UsageError, InvalidConfig, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
