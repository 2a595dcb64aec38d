"""Training loop, retrieval evaluation, and the ablation grid runner.

Runs are deterministic: one seed drives independent init / rollout /
shuffle streams, and every logging record is a JSON object (one per line
in the on-disk metric log). Wall-time fields are informational only;
determinism comparisons strip them via ``canonical_records``.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._heap import release_freed_pages
from .autodiff import (
    Adam,
    NonFiniteGradient,
    ParamSource,
    active_tape,
    backward,
    clear_tape,
    concat,
    matmul,
    transpose,
)
from .config import ModelConfig
from .data import SyntheticDataset
from .losses import (
    continuous_pg_loss,
    discrete_pg_loss,
    instance_loss,
    text_decoding_loss,
    total_loss,
    triplet_loss,
)
from .model import MatchingModel
from .rewards import diagonal_ranks, instance_rewards, pg_baseline, similarity_matrix


class TrainingDiverged(RuntimeError):
    """A non-finite loss, or with ``parameter`` set, a non-finite gradient
    of that parameter (the first one, in optimizer order)."""

    def __init__(self, epoch: int, step: int, components: dict, parameter: str | None = None):
        self.epoch = epoch
        self.step = step
        self.components = components
        self.parameter = parameter
        what = "loss" if parameter is None else f"gradient of {parameter}"
        super().__init__(f"non-finite {what} at epoch {epoch}, step {step}: {components}")


@dataclass
class TrainResult:
    records: list
    final_params: dict
    best_params: dict
    best_epoch: int
    best_metric: float
    config: ModelConfig
    vocab_size: int
    num_instances: int

    def rebuild(self, best: bool = True) -> MatchingModel:
        """A model holding a copy of the best (or final) parameters."""
        params = self.best_params if best else self.final_params
        stored = {name: values.copy() for name, values in params.items()}
        return MatchingModel(self.config, self.vocab_size, self.num_instances,
                             ParamSource(stored=stored))


def canonical_records(records) -> list:
    """Records with the wall-time field removed, for determinism checks."""
    return [{k: v for k, v in rec.items() if k != "wall_time"} for rec in records]


def record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _batch_losses(model: MatchingModel, instances, labels, rollout_rng):
    cfg = model.config
    regions = np.stack([inst.regions for inst in instances])
    tokens = np.stack([inst.tokens for inst in instances])
    img_noise, txt_noise = model.draw_noise(rollout_rng, len(instances),
                                            (regions.shape[1], tokens.shape[1]))
    img, img_trace = model.embed_image(regions, img_noise, mode="stochastic")
    txt, txt_trace = model.embed_text(tokens, txt_noise, mode="stochastic")

    sim = matmul(img, transpose(txt))
    rewards = instance_rewards(sim.values, cfg.reward_mode)
    _, advantages = pg_baseline(rewards, cfg.beta)

    parts = {}
    if cfg.loss_triplet:
        parts["triplet"] = triplet_loss(sim, cfg.margin)
    if cfg.loss_instance:
        parts["instance"] = instance_loss(concat([img, txt], axis=0), list(labels) * 2,
                                          model.classifier)
    if cfg.loss_decode:
        parts["text_decode_image"] = text_decoding_loss(img, tokens, model.decoder)
        parts["text_decode_text"] = text_decoding_loss(txt, tokens, model.decoder)
    if cfg.pg_mode in ("discrete", "compound"):
        parts["pg_discrete_image"] = discrete_pg_loss(img_trace, advantages, cfg.pg_batch_mean)
        parts["pg_discrete_text"] = discrete_pg_loss(txt_trace, advantages, cfg.pg_batch_mean)
    if cfg.pg_mode in ("continuous", "compound"):
        parts["pg_continuous_image"] = continuous_pg_loss(img_trace, advantages,
                                                          cfg.pg_batch_mean)
        parts["pg_continuous_text"] = continuous_pg_loss(txt_trace, advantages,
                                                         cfg.pg_batch_mean)
    bundle = total_loss(**parts)
    return bundle, float(np.mean(rewards))


def train(config: ModelConfig, dataset: SyntheticDataset, log_fh=None) -> TrainResult:
    """Run the full training recipe: seeded shuffling, stochastic rollouts,
    all configured losses, Adam with the two-phase learning rate, per-epoch
    deterministic validation, and best-validation checkpoint selection."""
    config.validate()
    train_split = dataset.split("train")
    val_split = dataset.split("val")
    if len(train_split) < 2:
        raise ValueError("training needs at least 2 instances")

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    rollout_rng = np.random.default_rng(seeds[1])
    shuffle_rng = np.random.default_rng(seeds[2])

    model = MatchingModel(config, dataset.vocab_size, len(train_split), init_rng)
    opt = Adam(model.trainable_parameters(), lr=config.lr)
    names = {id(t): name for name, t in model.named_parameters().items()}

    records = []
    start = time.perf_counter()

    def emit(record):
        record["wall_time"] = round(time.perf_counter() - start, 6)
        records.append(record)
        if log_fh is not None:
            log_fh.write(record_line(record) + "\n")
            log_fh.flush()

    best_metric = -1.0
    best_epoch = 0
    best_params = model.state_arrays()
    step = 0
    eval_ks = _eval_ks(len(val_split))

    for epoch in range(1, config.epochs + 1):
        opt.lr = config.lr if epoch <= config.lr_drop_epoch else config.lr_after_drop
        order = shuffle_rng.permutation(len(train_split))
        for lo in range(0, len(order), config.batch_size):
            chunk = order[lo:lo + config.batch_size]
            if chunk.size < 2:
                continue  # ranking losses need a gallery
            instances = [train_split[i] for i in chunk]
            labels = [int(i) for i in chunk]
            clear_tape()
            bundle, mean_reward = _batch_losses(model, instances, labels, rollout_rng)
            floats = bundle.as_floats()
            if not np.isfinite(floats["total"]):
                raise TrainingDiverged(epoch, step, floats)
            backward(bundle.total)
            try:
                opt.step()
            except NonFiniteGradient as exc:
                raise TrainingDiverged(epoch, step, floats, names[id(exc.tensor)]) from None
            step += 1
            emit({"type": "train", "epoch": epoch, "step": step,
                  "reward_mean": mean_reward, **floats})
        metrics = evaluate(model, val_split, ks=eval_ks)
        emit({"type": "eval", "epoch": epoch, "step": step, **metrics})
        score = metrics["r1_i2t"] + metrics["r1_t2i"]
        if score > best_metric:
            best_metric = score
            best_epoch = epoch
            best_params = model.state_arrays()

    clear_tape()
    release_freed_pages()  # the heap kept the steps' pages; nothing reuses them now
    return TrainResult(records=records, final_params=model.state_arrays(),
                       best_params=best_params, best_epoch=best_epoch,
                       best_metric=best_metric, config=config,
                       vocab_size=dataset.vocab_size, num_instances=len(train_split))


def _eval_ks(split_size: int):
    return tuple(k for k in (1, 5, 10) if k <= split_size)


def evaluate(model: MatchingModel, instances, ks=(1, 5, 10)) -> dict:
    """Recall at K over a full split, both directions, with deterministic
    rollouts; the split is embedded as one batch, with tape recording off.
    The correct item must rank within the top K (descending similarity,
    ties by index)."""
    if len(instances) < max(ks):
        raise ValueError(f"split of {len(instances)} is smaller than K={max(ks)}")
    clear_tape()
    regions = np.stack([inst.regions for inst in instances])
    tokens = np.stack([inst.tokens for inst in instances])
    tape = active_tape()
    tape.recording = False
    try:
        img = model.embed_image(regions, None, mode="deterministic")[0].values
        txt = model.embed_text(tokens, None, mode="deterministic")[0].values
    finally:
        tape.recording = True
    sim = similarity_matrix(img, txt)
    out = {}
    for direction, view in (("i2t", sim), ("t2i", sim.T)):
        ranks = diagonal_ranks(view)
        for k in ks:
            out[f"r{k}_{direction}"] = float(np.mean(ranks <= k))
    return out


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------


def _run_cell(args):
    base_dict, name, overrides, seed, dataset = args
    config = ModelConfig.from_dict({**base_dict, **overrides, "seed": seed})
    result = train(config, dataset)
    model = result.rebuild(best=True)
    metrics = evaluate(model, dataset.split("test"), ks=_eval_ks(len(dataset.split("test"))))
    return {"cell": name, "seed": seed, "best_epoch": result.best_epoch, **metrics}


def run_ablation(base_config: ModelConfig, grid, dataset: SyntheticDataset,
                 seeds=(0, 1, 2, 3, 4), jobs: int = 1):
    """Train and evaluate every (cell, seed) combination. ``grid`` is a list
    of (name, config-overrides) pairs. Failures are captured per cell, not
    propagated. Returns (per-run records, aggregated rows)."""
    cells = [(base_config.to_dict(), name, overrides, int(seed), dataset)
             for name, overrides in grid for seed in seeds]
    runs = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        # every cell is submitted before the first result is awaited
        calls = [pool.submit(_run_cell, cell).result if pool else partial(_run_cell, cell)
                 for cell in cells]
        for cell, call in zip(cells, calls):
            try:
                try:
                    runs.append(call())
                except BrokenProcessPool:
                    # a dying worker fails every pending cell: rerun this one
                    # alone (it is seeded), so only the cell that kills its
                    # worker records an error
                    with ProcessPoolExecutor(max_workers=1) as alone:
                        runs.append(alone.submit(_run_cell, cell).result())
            except Exception as exc:  # noqa: BLE001 - cell errors must not kill the grid
                runs.append({"cell": cell[1], "seed": cell[3], "error": str(exc)})

    rows = []
    metric_names = sorted({k for run in runs for k in run
                           if k.startswith("r") and "_" in k})
    for name in dict.fromkeys(name for name, _ in grid):
        ok = [r for r in runs if r["cell"] == name and "error" not in r]
        failed = [r for r in runs if r["cell"] == name and "error" in r]
        row = {"cell": name, "runs": len(ok), "failures": len(failed)}
        for m in metric_names:
            vals = [r[m] for r in ok if m in r]
            if vals:
                row[f"{m}_mean"] = float(np.mean(vals))
                row[f"{m}_std"] = float(np.std(vals))
        rows.append(row)
    return runs, rows


def format_ablation_table(rows) -> str:
    """Aligned text table of the aggregated grid results."""
    metrics = sorted({k[:-5] for row in rows for k in row if k.endswith("_mean")})
    headers = ["cell", "runs"] + metrics
    lines = []
    widths = [max(len(h), 18) for h in headers]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        cells = [str(row["cell"]).ljust(widths[0]), str(row["runs"]).ljust(widths[1])]
        for m, w in zip(metrics, widths[2:]):
            if f"{m}_mean" in row:
                cells.append(f"{row[f'{m}_mean']:.4f} ± {row[f'{m}_std']:.4f}".ljust(w))
            else:
                cells.append("-".ljust(w))
        lines.append("  ".join(cells))
    return "\n".join(lines)
