"""Training loop, retrieval evaluation, and the ablation grid runner.

Runs are deterministic: one seed drives independent init / rollout /
shuffle streams, and every logging record is a JSON object (one per line
in the on-disk metric log). Wall-time fields are informational only;
determinism comparisons strip them via ``canonical_records``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from ._heap import release_freed_pages
from .autodiff import (
    Adam,
    NonFiniteGradient,
    ParamSource,
    active_tape,
    backward,
    clear_tape,
    matmul,
    transpose,
)
from .config import ModelConfig
from .data import SyntheticDataset
from .losses import (
    COMPONENTS,
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
    of that parameter (the first one, in optimizer order). For a loss,
    ``term`` names its first non-finite component in ``COMPONENTS``
    order, or ``total`` if every component is finite."""

    def __init__(self, epoch: int, step: int, components: dict, parameter: str | None = None):
        self.epoch = epoch
        self.step = step
        self.components = components
        self.parameter = parameter
        self.term = None if parameter is not None else next(
            (name for name in COMPONENTS if not np.isfinite(components[name])), "total")
        what = f"loss ({self.term})" if parameter is None else f"gradient of {parameter}"
        super().__init__(f"non-finite {what} at epoch {epoch}, step {step}: {components}")


@dataclass
class TrainResult:
    records: list
    final_params: np.ndarray  # a model's ``flat`` vector
    best_params: np.ndarray
    best_epoch: int
    best_metric: float
    config: ModelConfig
    vocab_size: int
    num_instances: int

    def rebuild(self, best: bool = True) -> MatchingModel:
        """A model holding a copy of the best (or final) parameters."""
        params = self.best_params if best else self.final_params
        return MatchingModel(self.config, self.vocab_size, self.num_instances,
                             ParamSource(flat=params.copy()))


def canonical_records(records) -> list:
    """Records with the wall-time field removed, for determinism checks."""
    return [{k: v for k, v in rec.items() if k != "wall_time"} for rec in records]


def record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


# ``train`` runs the text branch of its steps in a worker process
# (``_stepworker``) when this process may use two CPUs; the bits are those
# of one process (README, "Train step on two processes").
TWO_PROCESS_STEPS = True


@contextmanager
def _two_processes(model: MatchingModel, regions: int):
    """The step worker of a ``train`` call, or ``None`` where its steps run
    in one process: with ``TWO_PROCESS_STEPS`` off, on one usable CPU,
    without ``os.memfd_create``, or where numpy's BLAS thread count cannot
    be set. The worker and this process run one BLAS thread each while
    the block runs; the worker ends with the block."""
    if not (TWO_PROCESS_STEPS and _usable_cpus() >= 2 and hasattr(os, "memfd_create")):
        yield None
        return
    # imported here, so that importing pgmatch does not load the transport
    from ._stepworker import TextWorker

    with one_blas_thread() as single:
        if not single:
            yield None
            return
        worker = TextWorker(model, regions)
        try:
            yield worker
        finally:
            worker.close()


def _batch_losses(model: MatchingModel, instances, labels, rollout_rng, worker=None):
    """The loss bundle of one batch and its mean reward. A step ``worker``
    (whose ``model`` is ``model``) runs the text branch once it serves."""
    cfg = model.config
    regions = np.stack([inst.regions for inst in instances])
    tokens = np.stack([inst.tokens for inst in instances])
    remote = worker is not None and worker.serves()
    if remote:  # the worker embeds the text branch meanwhile, and owns the rollout rng
        noise = [worker.start(tokens, regions.shape[1], rollout_rng)]
    else:
        noise = model.draw_noise(rollout_rng, len(instances),
                                 (regions.shape[1], tokens.shape[1]))
    # each branch's noise is handed over and freed once its rollout has run
    img, img_trace = model.embed_image(regions, noise.pop(0), mode="stochastic")
    if remote:
        txt, txt_trace = worker.finish()
    else:
        txt, txt_trace = model.embed_text(tokens, noise.pop(0), mode="stochastic")

    sim = matmul(img, transpose(txt))
    rewards = instance_rewards(sim.values, cfg.reward_mode)
    _, advantages = pg_baseline(rewards, cfg.beta)

    parts = {}
    if cfg.loss_triplet:
        parts["triplet"] = triplet_loss(sim, cfg.margin)
    if cfg.loss_instance:
        parts["instance"] = instance_loss(img, txt, labels, model.classifier)
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
    with _two_processes(model, len(train_split[0].regions)) as worker:
        if worker is not None:
            model = worker.model  # its parameters are shared with the worker
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

        # epoch 1's R@1 sum is >= 0, so it always replaces this
        best_metric = -1.0
        best_epoch = 0
        best_params = None
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
                bundle, mean_reward = _batch_losses(model, instances, labels, rollout_rng,
                                                    worker)
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
                best_params = model.flat.copy()

    clear_tape()
    release_freed_pages()  # the heap kept the steps' pages; nothing reuses them now
    return TrainResult(records=records, final_params=model.flat.copy(),
                       best_params=best_params, best_epoch=best_epoch,
                       best_metric=best_metric, config=config,
                       vocab_size=dataset.vocab_size, num_instances=len(train_split))


def _eval_ks(split_size: int):
    return tuple(k for k in (1, 5, 10) if k <= split_size)


# A split of at least this many instances embeds its text branch on a
# worker thread while the caller embeds the image branch; the break-even
# on a 2-core box is about 48 rows (README, "Read path").
PARALLEL_MIN_ROWS = 64

_worker = None


def _text_worker():
    """The one thread pool of ``embed_split``, made on first use. It is
    imported here, as the process pool is: importing pgmatch does not
    load concurrent.futures."""
    global _worker
    if _worker is None:
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(max_workers=1)
    return _worker


def _drop_worker():
    global _worker
    _worker = None  # a forked child has no thread behind it; it makes its own


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1

@cache
def _blas_threads():
    """The getter and setter of the thread count of numpy's bundled
    OpenBLAS, found once per process by ``ctypes`` in the numpy extension
    that links it, or ``None`` where numpy's BLAS has no such pair."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


@contextmanager
def one_blas_thread():
    """Run the block with one thread in numpy's bundled OpenBLAS, and
    yield whether that was possible. The count before is restored after
    the block. While pgmatch runs work on a second core, every thread and
    process involved runs one BLAS thread."""
    pair = _blas_threads()
    if pair is None:
        yield False
        return
    get, set_threads = pair
    previous = get()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(previous)


def embed_split(model: MatchingModel, instances):
    """The deterministic image and text embeddings of ``instances`` as
    arrays, each branch embedded as one batch with tape recording off. A
    split of ``PARALLEL_MIN_ROWS`` or more, on a process that may use two
    CPUs, embeds its text branch on a worker thread meanwhile, both under
    ``one_blas_thread``; the two branches share no array, so the bits are
    those of the serial path."""
    clear_tape()
    regions = np.stack([inst.regions for inst in instances])
    tokens = np.stack([inst.tokens for inst in instances])
    tape = active_tape()
    tape.recording = False
    try:
        if len(instances) < PARALLEL_MIN_ROWS or _usable_cpus() < 2:
            img = model.embed_image(regions, None, mode="deterministic")[0].values
            txt = model.embed_text(tokens, None, mode="deterministic")[0].values
            return img, txt
        with one_blas_thread():
            text = _text_worker().submit(model.embed_text, tokens, None, mode="deterministic")
            try:
                img = model.embed_image(regions, None, mode="deterministic")[0].values
            finally:
                text.exception()  # waits for the worker, also when the image branch raised
        return img, text.result()[0].values
    finally:
        tape.recording = True


def evaluate(model: MatchingModel, instances, ks=(1, 5, 10)) -> dict:
    """Recall at K over a full split, both directions, with deterministic
    rollouts, on the embeddings of ``embed_split``. The correct item must
    rank within the top K (descending similarity, ties by index). It runs
    under ``one_blas_thread``, the similarity product too: BLAS threads
    left busy by a multi-threaded product would hold the second core
    into the next call's two-thread branch."""
    if len(instances) < max(ks):
        raise ValueError(f"split of {len(instances)} is smaller than K={max(ks)}")
    with one_blas_thread():
        sim = similarity_matrix(*embed_split(model, instances))
    out = {}
    for direction, view in (("i2t", sim), ("t2i", sim.T)):
        ranks = diagonal_ranks(view)
        for k in ks:
            out[f"r{k}_{direction}"] = float(np.mean(ranks <= k))
    return out


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------


def _one_process_steps():
    """A pool worker's initializer: the pool keeps every CPU busy already,
    and a step worker per cell made the criterion-7 grid twice as slow
    with ``jobs=2`` (CHANGES.md)."""
    global TWO_PROCESS_STEPS
    TWO_PROCESS_STEPS = False


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
    # imported here: the process pool's modules cost every process that
    # imports pgmatch about 1 MB of RSS
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    cells = [(base_config.to_dict(), name, overrides, int(seed), dataset)
             for name, overrides in grid for seed in seeds]
    runs = []
    pooled = partial(ProcessPoolExecutor, initializer=_one_process_steps)
    with pooled(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
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
                    with pooled(max_workers=1) as alone:
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
