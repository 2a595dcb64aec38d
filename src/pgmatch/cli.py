"""Command-line entry point: dataset generation, training, evaluation,
the ablation grid, and the verification suites.

Exit codes: 0 success, 1 user error, 2 internal failure, 3 verification
failure. PGMATCH_DATA_DIR supplies the default dataset directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import PG_MODES, REWARD_MODES, ModelConfig, parse_config_file
from .data import (DatasetError, dataset_fingerprint, export_dataset, generate_dataset,
                   load_dataset, read_json)
from .model import CheckpointError, MatchingModel
from .training import (
    TrainingDiverged,
    evaluate,
    format_ablation_table,
    record_line,
    run_ablation,
    train,
    _eval_ks,
)
from .verify import SUITES, run_suites

ENV_DATA_DIR = "PGMATCH_DATA_DIR"


class UserError(Exception):
    """Invalid invocation or inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(message)


def _data_dir(value) -> str:
    if value:
        return value
    env = os.environ.get(ENV_DATA_DIR)
    if env:
        return env
    raise UserError(f"no dataset directory given and {ENV_DATA_DIR} is unset")


def build_parser() -> _Parser:
    parser = _Parser(prog="pgmatch", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pgmatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic paired dataset")
    gen.add_argument("--out", default=None, help=f"output directory (default ${ENV_DATA_DIR})")
    gen.add_argument("--classes", type=int, default=32)
    gen.add_argument("--regions", type=int, default=8)
    gen.add_argument("--tokens", type=int, default=6)
    gen.add_argument("--dim", type=int, default=64)
    gen.add_argument("--noise", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--train-per-class", type=int, default=1)
    gen.add_argument("--val-per-class", type=int, default=1)
    gen.add_argument("--test-per-class", type=int, default=1)
    gen.add_argument("--force", action="store_true", help="overwrite a non-empty directory")

    tr = sub.add_parser("train", help="train a model on a generated dataset")
    tr.add_argument("--data", default=None, help=f"dataset directory (default ${ENV_DATA_DIR})")
    tr.add_argument("--out", required=True, help="run directory for manifest/logs/checkpoints")
    tr.add_argument("--config", default=None, help="config file of key = value lines")
    _config_flags(tr)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", default=None)
    ev.add_argument("--split", default="test", choices=["train", "val", "test"])

    ab = sub.add_parser("ablate", help="run the ablation grid")
    ab.add_argument("--data", default=None)
    ab.add_argument("--out", required=True)
    ab.add_argument("--grid", default="default", help="'default' or a JSON grid file")
    ab.add_argument("--config", default=None)
    ab.add_argument("--seeds", type=int, default=5, help="number of seeds per cell")
    ab.add_argument("--jobs", type=int, default=1)
    _config_flags(ab)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("suite", nargs="?", default="all",
                     help=f"one of: {', '.join(sorted(SUITES))}, all")
    return parser


def _config_flags(cmd):
    """Flags whose ``dest`` is a config field (all but ``--set``)."""
    cmd.add_argument("--pg", dest="pg_mode", default=None, choices=PG_MODES)
    cmd.add_argument("--reward", dest="reward_mode", default=None, choices=REWARD_MODES)
    cmd.add_argument("--lambda", dest="lam", type=float, default=None)
    cmd.add_argument("--beta", type=float, default=None)
    cmd.add_argument("--heads", type=int, default=None)
    cmd.add_argument("--margin", type=float, default=None)
    cmd.add_argument("--epochs", type=int, default=None)
    cmd.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    cmd.add_argument("--lr", type=float, default=None)
    cmd.add_argument("--seed", type=int, default=None)
    cmd.add_argument("--set", dest="extra", action="append", default=[],
                     metavar="KEY=VALUE", help="set any config field")


def _flag_overrides(args) -> dict:
    fields = ModelConfig.__dataclass_fields__
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    for item in args.extra:
        if "=" not in item:
            raise UserError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _resolve(args) -> ModelConfig:
    """The config of flags over the ``--config`` file over the defaults."""
    try:
        file_values = parse_config_file(args.config) if args.config else {}
    except OSError as exc:
        raise UserError(f"{args.config}: cannot read config file ({exc.strerror})") from exc
    except ValueError as exc:
        raise UserError(exc.args[0]) from exc
    flags = _flag_overrides(args)
    try:
        return ModelConfig.from_dict({**file_values, **flags})
    except (KeyError, ValueError) as exc:
        # each file line was checked alone; name the file if its values take part
        source = f"{args.config}{' and the flags' if flags else ''}: " if file_values else ""
        raise UserError(source + exc.args[0]) from exc


def _match_dataset(config: ModelConfig, dataset):
    if config.feature_dim != dataset.feature_dim:
        raise UserError(
            f"config feature_dim {config.feature_dim} != dataset feature dim {dataset.feature_dim}")


def _split(data_dir, dataset, name: str, minimum: int, purpose: str) -> list:
    """Split ``name`` of a loaded dataset, which ``purpose`` needs to hold
    at least ``minimum`` instances; a user error naming the manifest and
    the split otherwise."""
    manifest = os.path.join(data_dir, "manifest.json")
    if name not in dataset.splits:
        raise UserError(f"{manifest}: no split {name!r} for {purpose} "
                        f"(have {sorted(dataset.splits)})")
    split = dataset.splits[name]
    if len(split) < minimum:
        raise UserError(f"{manifest}: split {name!r} has {len(split)} instances; "
                        f"{purpose} needs at least {minimum}")
    return split


def _check_training_splits(data_dir, dataset):
    _split(data_dir, dataset, "train", 2, "training")
    _split(data_dir, dataset, "val", 1, "validation")


def cmd_gen(args) -> int:
    out = _data_dir(args.out)
    try:
        ds = generate_dataset(classes=args.classes, regions=args.regions, tokens=args.tokens,
                              dim=args.dim, noise_scale=args.noise, seed=args.seed,
                              train_per_class=args.train_per_class,
                              val_per_class=args.val_per_class,
                              test_per_class=args.test_per_class)
        export_dataset(ds, out, force=args.force)
    except (ValueError, FileExistsError) as exc:
        raise UserError(str(exc)) from exc
    total = sum(len(v) for v in ds.splits.values())
    print(f"wrote {total} instances ({ds.classes} classes, seed {ds.seed}) to {out}")
    return 0


def cmd_train(args) -> int:
    config = _resolve(args)
    data_dir = _data_dir(args.data)
    dataset = load_dataset(data_dir)
    _match_dataset(config, dataset)
    _check_training_splits(data_dir, dataset)
    os.makedirs(args.out, exist_ok=True)

    manifest = {
        "tool": "pgmatch",
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
        "dataset": {"path": os.path.abspath(data_dir),
                    "fingerprint": dataset_fingerprint(data_dir)},
        "artifacts": {"metrics": "metrics.jsonl",
                      "checkpoint_best": "checkpoint-best",
                      "checkpoint_final": "checkpoint-final"},
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")

    start = time.perf_counter()
    with open(os.path.join(args.out, "metrics.jsonl"), "w", encoding="utf-8") as log_fh:
        try:
            result = train(config, dataset, log_fh=log_fh)
        except TrainingDiverged as exc:
            log_fh.write(record_line({"type": "abort", "epoch": exc.epoch, "step": exc.step,
                                      "components": exc.components, "term": exc.term,
                                      "parameter": exc.parameter}) + "\n")
            print(f"training diverged: {exc}", file=sys.stderr)
            return 2
    result.rebuild(best=True).save_checkpoint(os.path.join(args.out, "checkpoint-best"))
    result.rebuild(best=False).save_checkpoint(os.path.join(args.out, "checkpoint-final"))
    final_eval = [r for r in result.records if r["type"] == "eval"][-1]
    print(f"trained {config.epochs} epochs in {time.perf_counter() - start:.1f}s; "
          f"best epoch {result.best_epoch} (val R@1 sum {result.best_metric:.3f})")
    print(record_line({k: v for k, v in final_eval.items() if k != "wall_time"}))
    return 0


def cmd_eval(args) -> int:
    if not os.path.isdir(args.checkpoint):
        raise UserError(f"checkpoint directory {args.checkpoint} does not exist")
    data_dir = _data_dir(args.data)
    dataset = load_dataset(data_dir)
    model = MatchingModel.load_checkpoint(args.checkpoint)
    if model.config.feature_dim != dataset.feature_dim:
        raise UserError(f"checkpoint feature_dim {model.config.feature_dim} != "
                        f"dataset feature dim {dataset.feature_dim}")
    if model.vocab_size != dataset.vocab_size:
        raise UserError(f"checkpoint vocab {model.vocab_size} != dataset vocab {dataset.vocab_size}")
    split = _split(data_dir, dataset, args.split, 1, "evaluation")
    metrics = evaluate(model, split, ks=_eval_ks(len(split)))
    print(f"{'direction':<12}" + "".join(f"R@{k:<8}" for k in (1, 5, 10) if f"r{k}_i2t" in metrics))
    for direction in ("i2t", "t2i"):
        row = [metrics[f"r{k}_{direction}"] for k in (1, 5, 10) if f"r{k}_{direction}" in metrics]
        print(f"{direction:<12}" + "".join(f"{v:<10.4f}" for v in row))
    print(record_line({"type": "eval", "split": args.split, **metrics}))
    return 0


DEFAULT_GRID = [
    ("triplet_only", {"pg_mode": "off", "loss_instance": False, "loss_decode": False}),
    ("baseline_no_pg", {"pg_mode": "off"}),
    ("discrete_pg", {"pg_mode": "discrete"}),
    ("continuous_pg", {"pg_mode": "continuous"}),
    ("compound_pg", {"pg_mode": "compound"}),
    ("reward_r1", {"reward_mode": "r1"}),
    ("reward_ap", {"reward_mode": "ap"}),
    ("lambda_10", {"lam": 10.0}),
    ("lambda_30", {"lam": 30.0}),
    ("no_pg_baseline", {"beta": 0.0}),
    ("multi_head", {"heads": 2}),
]


def _load_grid(source: str, base: ModelConfig):
    """(name, overrides) pairs, each of which must give a valid config on
    top of ``base``: every run would fail on one that does not, one error
    per seed, so the grid is refused up front."""
    if source == "default":
        grid = DEFAULT_GRID
    else:
        raw = read_json(source, UserError)
        try:
            grid = [(entry["name"], entry.get("overrides", {})) for entry in raw]
        except (KeyError, TypeError) as exc:
            raise UserError(f"{source}: expected a JSON list of objects with a 'name' field "
                            f"({type(exc).__name__}: {exc})") from exc
    for name, overrides in grid:
        try:
            if not isinstance(name, str) or not isinstance(overrides, dict):
                raise ValueError("'name' must be a string and 'overrides' an object")
            base.replaced(**overrides)
        except (KeyError, ValueError) as exc:
            where = "the default grid" if source == "default" else source
            raise UserError(f"{where}: entry {name!r}: {exc.args[0]}") from exc
    return grid


def cmd_ablate(args) -> int:
    config = _resolve(args)
    data_dir = _data_dir(args.data)
    dataset = load_dataset(data_dir)
    _match_dataset(config, dataset)
    _check_training_splits(data_dir, dataset)
    _split(data_dir, dataset, "test", 1, "the ablation's test evaluation")
    grid = _load_grid(args.grid, config)
    seeds = list(range(args.seeds))
    runs, rows = run_ablation(config, grid, dataset, seeds=seeds, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "runs.jsonl"), "w", encoding="utf-8") as fh:
        for run in runs:
            fh.write(record_line(run) + "\n")
    table = format_ablation_table(rows)
    with open(os.path.join(args.out, "table.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    failures = [r for r in runs if "error" in r]
    if failures:
        print(f"{len(failures)} grid cells failed; see runs.jsonl", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    try:
        results = run_suites(names)
    except KeyError as exc:
        raise UserError(str(exc.args[0])) from exc
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}")
        failed += 0 if r.passed else 1
    total = len(results)
    print(f"{total - failed}/{total} checks passed")
    return 0 if failed == 0 else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval,
                   "ablate": cmd_ablate, "verify": cmd_verify}[args.command]
        return handler(args)
    except (UserError, DatasetError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # noqa: BLE001 - report, then exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
