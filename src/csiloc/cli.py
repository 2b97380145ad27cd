"""Operator entry point: generate -> split -> train -> evaluate -> report.

Every command writes a manifest.json next to its outputs with the fully
resolved parameters and seeds; re-running the same command reproduces the
numeric outputs bit for bit (timestamps and wall-clock columns aside).

Exit codes: 0 success, 1 numeric/validation failure, 2 usage error.
"""

import argparse
import datetime
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .data import (CANONICAL_FILES, SPLIT_KINDS, NormStats, SplitStrategy, SynthConfig,
                   fit_normalizer, generate_synthetic, import_npy, load_canonical, make_output_dir,
                   split, write_canonical)
from .errors import CsilocError
from .models import (DEFAULT_ARCH, DEFAULT_INPUT_SHAPE, MODEL_KINDS, ArchConfig, _weights_to_build,
                     build_model, build_tiny, load_checkpoint, save_checkpoint, weights_millions)
from . import network
from .train import TrainConfig, train
from .evaluation import REPORT_FILES, evaluate, emit_reports

MANIFEST = "manifest.json"


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _utc_now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(directory, command, params, started):
    manifest = {
        "command": command,
        "parameters": params,
        "tool": "csiloc",
        "version": __version__,
        "started_utc": started,
        "ended_utc": _utc_now(),
    }
    (Path(directory) / MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _check_output_names(directory, names):
    """Fail before any work when a file the command writes in directory is a directory."""
    for name in (*names, MANIFEST):
        path = Path(directory) / name
        if path.is_dir():
            raise CsilocError(f"cannot write {path}: it is a directory")


def _load_config_file(path):
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CsilocError(f"cannot read config file {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise CsilocError(f"config file {path} must hold a flat JSON object")
    return cfg


def _fits(value, kind):
    """JSON value check for a dataclass field annotated int or float."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) if kind is int else isinstance(value, (int, float))


def _split_config(flat, kind):
    """Partition a flat config dict into (architecture fields, TrainConfig kwargs). Its
    seed is the CNN init seed, which fcnn and linear do not take; train_seed seeds training."""
    arch_fields = ArchConfig.__dataclass_fields__
    train_fields = TrainConfig.__dataclass_fields__
    arch, train_kw = {}, {}
    for key, value in flat.items():
        name = "seed" if key == "train_seed" else key
        if key == "hidden":
            dest, ok = arch, isinstance(value, list) and all(_fits(u, int) and u >= 1 for u in value)
        elif key in arch_fields:
            dest, ok = arch, _fits(value, arch_fields[key].type)
        elif name in train_fields:
            dest, ok = train_kw, _fits(value, train_fields[name].type)
        else:
            raise CsilocError(f"unknown config field {key!r}")
        if not ok:
            raise CsilocError(f"config field {key!r} has the wrong type: {value!r}")
        dest[name] = value
    if "seed" in arch and kind not in DEFAULT_ARCH:
        raise CsilocError(f"seed does not apply to {kind}")
    return arch, train_kw


def cmd_gen(args):
    started = _utc_now()
    cfg = SynthConfig(num_samples=args.samples, num_subcarriers=args.subcarriers,
                      num_reflectors=args.reflectors, seed=args.seed,
                      snr_db_range=(args.snr_low, args.snr_high))
    _check_output_names(args.out, CANONICAL_FILES)
    ds = generate_synthetic(cfg)
    write_canonical(args.out, ds)
    _write_manifest(args.out, "gen", {**asdict(cfg), "out": str(args.out)}, started)
    print(f"wrote {len(ds)} samples ({ds.n_antennas} antennas x {ds.n_subcarriers} subcarriers) to {args.out}")
    return 0


def cmd_import(args):
    started = _utc_now()
    _check_output_names(args.out, CANONICAL_FILES)
    ds = import_npy(args.csi, args.snr, args.pos)
    write_canonical(args.out, ds)
    _write_manifest(args.out, "import", {"csi": str(args.csi), "snr": str(args.snr),
                                         "pos": str(args.pos), "out": str(args.out)}, started)
    print(f"imported {len(ds)} samples to {args.out}")
    return 0


def cmd_split(args):
    started = _utc_now()
    out = Path(args.out)
    _check_output_names(out, [Path(sub, name) for sub in ("train", "eval") for name in CANONICAL_FILES])
    ds = load_canonical(args.data)
    strat = SplitStrategy(args.kind, args.fraction, args.seed)
    train_ds, eval_ds = split(ds, strat)
    write_canonical(out / "train", train_ds)
    write_canonical(out / "eval", eval_ds)
    _write_manifest(out, "split", {"data": str(args.data), "kind": args.kind,
                                   "fraction": args.fraction, "seed": args.seed,
                                   "out": str(out), "n_train": len(train_ds),
                                   "n_eval": len(eval_ds)}, started)
    print(f"split {len(ds)} samples -> train {len(train_ds)} / eval {len(eval_ds)} ({args.kind})")
    return 0


def cmd_train(args):
    started = _utc_now()
    # save_checkpoint writes model.ckpt.tmp first, then renames it
    _check_output_names(args.out, ("model.ckpt", "model.ckpt.tmp", "history.csv"))
    arch_fields, train_kw = _split_config(_load_config_file(args.config), args.model)
    if args.seed is not None:
        train_kw["seed"] = args.seed
    if args.max_epochs is not None:
        train_kw["max_epochs"] = args.max_epochs
    if args.batch_size is not None:
        train_kw["batch_size"] = args.batch_size
    train_cfg = TrainConfig(**train_kw)
    ds = load_canonical(args.train)

    net = build_model(args.model, arch_fields, (2, ds.n_antennas, ds.n_subcarriers))

    norm = fit_normalizer(ds)
    out = make_output_dir(args.out)
    ckpt = out / "model.ckpt"
    net, history = train(net, ds, train_cfg, norm, checkpoint_path=ckpt)
    save_checkpoint(ckpt, net, norm_scale=norm.scale,
                    meta={"stop_reason": history.stop_reason, "epochs": len(history.records)})
    history.to_csv(out / "history.csv")
    _write_manifest(out, "train", {"train": str(args.train), "model": args.model,
                                   "config_file": None if args.config is None else str(args.config),
                                   "arch": net.arch, "train_config": asdict(train_cfg),
                                   "out": str(out)}, started)
    last = history.records[-1] if history.records else None
    print(f"trained {args.model} for {len(history.records)} epochs "
          f"(stop: {history.stop_reason}); "
          + (f"final monitor MDE {last.monitor_mde:.4f} m" if last else "no epochs run"))
    return 0


def cmd_eval(args):
    started = _utc_now()
    _check_output_names(args.out, REPORT_FILES)
    net, norm_scale, _meta = load_checkpoint(args.checkpoint)
    if norm_scale is None:
        raise CsilocError(f"{args.checkpoint} carries no normalizer scale; cannot evaluate")
    ds = load_canonical(args.eval)
    report = evaluate(net, ds, NormStats(norm_scale),
                      metadata={"split": args.split_label, "dataset": str(args.eval)})
    emit_reports(report, args.out)
    _write_manifest(args.out, "eval", {"checkpoint": str(args.checkpoint),
                                       "eval": str(args.eval), "out": str(args.out),
                                       "split_label": args.split_label}, started)
    print(f"evaluated {report.n_samples} samples: MDE {report.mde_m:.4f} m, "
          f"RMSE {report.rmse_m:.4f} m, NMDE {report.nmde_percent:.2f} %")
    return 0


def cmd_gradcheck(args):
    net, x, target = build_tiny(args.model)
    result = network.gradient_check(net, x, target)
    print(result)
    if result.max_rel_err < network.GRADCHECK_TOLERANCE:
        print(f"gradcheck {args.model}: OK (< {network.GRADCHECK_TOLERANCE})")
        return 0
    print(f"gradcheck {args.model}: FAILED at layer parameter {result.worst_param} "
          f"index {result.worst_index}", file=sys.stderr)
    return 1


def cmd_count_weights(args):
    arch_fields, train_kw = _split_config(_load_config_file(args.config), args.model)
    if train_kw:
        raise CsilocError(f"count-weights config must not carry training fields: {sorted(train_kw)}")
    # counted from the architecture's numbers: building it would allocate every weight
    count = _weights_to_build(args.model, arch_fields, (2, args.antennas, args.subcarriers))
    print(f"{count} {weights_millions(count)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csiloc",
        description="CSI-fingerprint indoor positioning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--subcarriers", type=_positive_int, default=SynthConfig.num_subcarriers)
    p.add_argument("--reflectors", type=int, default=SynthConfig.num_reflectors)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--snr-low", type=float, default=SynthConfig.snr_db_range[0])
    p.add_argument("--snr-high", type=float, default=SynthConfig.snr_db_range[1])
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("import", help="import NPY dumps into the canonical container")
    p.add_argument("--csi", required=True)
    p.add_argument("--snr", required=True)
    p.add_argument("--pos", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("split", help="split a dataset into train/ and eval/")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True, choices=SPLIT_KINDS)
    p.add_argument("--fraction", type=_fraction, default=SplitStrategy.eval_fraction)
    p.add_argument("--seed", type=int, default=SplitStrategy.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model on a canonical dataset")
    p.add_argument("--train", required=True)
    p.add_argument("--model", required=True, choices=list(MODEL_KINDS))
    p.add_argument("--config", default=None, help="flat JSON of architecture/training fields")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--batch-size", type=_positive_int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint and emit report files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split-label", default="unspecified")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of a shrunken model")
    p.add_argument("--model", required=True, choices=list(MODEL_KINDS))
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("count-weights", help="print trainable weight count")
    p.add_argument("--model", required=True, choices=list(MODEL_KINDS))
    p.add_argument("--config", default=None)
    p.add_argument("--subcarriers", type=_positive_int, default=DEFAULT_INPUT_SHAPE[2])
    p.add_argument("--antennas", type=_positive_int, default=DEFAULT_INPUT_SHAPE[1])
    p.set_defaults(func=cmd_count_weights)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CsilocError, ValueError) as e:
        print(f"csiloc {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
