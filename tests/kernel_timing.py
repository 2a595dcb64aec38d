"""Time the GRU kernels layer by layer, the read path, the noise draw and
the train step, in ms per call.

    PYTHONPATH=src python tests/kernel_timing.py [--src TREE ...] [--rounds N] [--default-threads]

For each of the model's four GRUs at the ``stress`` workload's widths and
lengths (policy and fusion, image and text branch) and each batch size
in ``BATCHES``, it times three calls of ``encoders.GruSequence``: ``forward`` of a kept
sequence (the training path; building the sequence is part of the
call), ``forward`` of an unkept one (the read path) and ``backward`` of
a kept one with one per-step state part, as a rollout sends it.

The read-path cases time ``training.evaluate`` on a model of the
criterion-6 recipe's widths (``reference_run.json``, the config both
perfbench workloads train), at each workload's regions and tokens and at
each split size in ``READ_ROWS``, twice: ``serial`` with the worker
thread gated off, and ``parallel`` with it forced on (the CPU check
patched, so a 1-CPU box runs it too). Their ratio is where the break-even
behind ``training.PARALLEL_MIN_ROWS`` lies. A tree without that constant
runs both cases serially.

The noise cases time ``MatchingModel.draw_noise`` of one batch of each
perfbench workload's shapes (the criterion-6 recipe's widths and action
mode). The train-step cases time a warm step, ``training._batch_losses``,
``backward`` and ``Adam.step`` on one batch of the same shapes, twice:
``serial`` in this process and ``worker`` with the text branch in the
step worker process (``_stepworker``; its start is not timed), under the
one BLAS thread ``train`` sets for it. The calls are consecutive steps
of one training, so the worker draws each step's noise during the one
before, as in ``train``. A tree without the step worker runs both cases
serially.

Each round runs every case once in a fresh child process: a few warm-up
calls, then ``BLOCKS`` blocks of as many calls as fill about
``TARGET_MS``, each block timed with ``time.perf_counter``. A round's
reading is the fastest block's mean per call: noise from a shared
machine only ever adds time. The table gives the median and the
interquartile range of the readings over the rounds. The children run
single-threaded BLAS, as perfbench does; with ``--default-threads`` they
run the BLAS threads of the environment they inherit.

``--src`` names source trees (checkouts whose ``src`` holds a
``pgmatch``) to compare, for example a parent and a change. Each round
runs one child per tree, and the order of the trees flips from round to
round, so that a drift of the machine's speed reaches every tree alike.
With two trees, two last columns pair the trees' readings round by
round: ``ratio`` is the median over the rounds of the first tree's
reading over the second's (above 1 the second tree is faster), and
``wins`` counts the rounds in which the second tree was faster. The
machine's speed drifts from one process to the next more than the
trees differ, so the paired ratio is steadier than the ratio of the
two medians. Without ``--src`` the children import the ``pgmatch`` on
the current ``PYTHONPATH``.

perfbench times whole phases of a training or a gallery pass; this is
the kernel-level number it cannot give.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import time

# name, input width p, hidden width q, length T: the stress workload's
# GRUs (feature_dim 64, word_dim 32, hidden 64; 16 regions, 12 tokens)
GRUS = (("img.policy", 64, 64, 16), ("txt.policy", 32, 64, 12),
        ("img.fusion", 64, 64, 16), ("txt.fusion", 32, 32, 12))
KERNELS = ("forward.kept", "forward.unkept", "backward")
BATCHES = (1, 16, 32, 128)
# name, regions, tokens: the perfbench workloads' instance shapes
READ_SHAPES = (("reference", 8, 6), ("stress", 16, 12))
READ_ROWS = (32, 48, 64, 128, 256)
# name, batch, regions, tokens: the perfbench workloads' train steps
TRAIN_SHAPES = (("reference", 16, 8, 6), ("stress", 32, 16, 12))
WARMUP = 3
BLOCKS = 5
TARGET_MS = 20.0


def _quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _ms_per_call(fn) -> float:
    """The fastest block's mean ms per call of ``fn``."""
    start = time.perf_counter()
    for _ in range(WARMUP):
        fn()
    per_call = (time.perf_counter() - start) / WARMUP
    n = max(1, int(TARGET_MS / 1e3 / per_call))
    blocks = []
    for _ in range(BLOCKS):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        blocks.append((time.perf_counter() - start) / n * 1e3)
    return min(blocks)


def gru_cases() -> dict:
    import numpy as np

    from pgmatch.encoders import GruParams, GruSequence

    out = {}
    for name, p, q, length in GRUS:
        for batch in BATCHES:
            rng = np.random.default_rng(0)
            gru = GruParams.init(p, q, rng, scale=0.3)
            x = rng.standard_normal((length, batch, p))
            part = rng.standard_normal((length, batch, q))
            kept = GruSequence(gru, batch, length, keep=True)
            kept.forward(x)
            calls = {
                "forward.kept": lambda: GruSequence(gru, batch, length, True).forward(x),
                "forward.unkept": lambda: GruSequence(gru, batch, length, False).forward(x),
                "backward": lambda: kept.backward((part,)),
            }
            for kernel in KERNELS:
                out[f"{name} B={batch} {kernel}"] = _ms_per_call(calls[kernel])
    return out


def _reference_config():
    from pgmatch.config import ModelConfig

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_run.json"),
              encoding="utf-8") as fh:
        return ModelConfig.from_dict(json.load(fh)["config"])


def read_cases() -> dict:
    import numpy as np

    from pgmatch import training
    from pgmatch.data import generate_dataset
    from pgmatch.model import MatchingModel

    config = _reference_config()
    training._usable_cpus = lambda: 2
    classes = 16
    out = {}
    for name, regions, tokens in READ_SHAPES:
        for rows in READ_ROWS:
            ds = generate_dataset(classes=classes, regions=regions, tokens=tokens,
                                  dim=config.feature_dim, test_per_class=rows // classes)
            model = MatchingModel(config, ds.vocab_size, classes, np.random.default_rng(0))
            split = ds.split("test")
            for path, gate in (("serial", rows + 1), ("parallel", 0)):
                training.PARALLEL_MIN_ROWS = gate
                out[f"read.{name} rows={rows} {path}"] = _ms_per_call(
                    lambda: training.evaluate(model, split))
    return out


def noise_cases() -> dict:
    import numpy as np

    from pgmatch.model import MatchingModel

    config = _reference_config()
    out = {}
    for name, batch, regions, tokens in TRAIN_SHAPES:
        model = MatchingModel(config, 64, batch, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        out[f"noise.{name} B={batch}"] = _ms_per_call(
            lambda: model.draw_noise(rng, batch, (regions, tokens)))
    return out


def train_cases() -> dict:
    import numpy as np

    from pgmatch import autodiff, training
    from pgmatch.data import generate_dataset
    from pgmatch.model import MatchingModel

    try:
        from pgmatch import _stepworker
        TextWorker = _stepworker.TextWorker
    except ImportError:  # a tree without the step worker
        _stepworker = TextWorker = None
    # a tree that hands the worker to its steps in a module global
    legacy = "worker" not in inspect.signature(training._batch_losses).parameters
    # the BLAS thread count ``train`` sets while the worker serves
    one_thread = getattr(training, "one_blas_thread",
                         getattr(_stepworker, "one_blas_thread", contextlib.nullcontext))
    config = _reference_config()
    out = {}
    for name, batch, regions, tokens in TRAIN_SHAPES:
        ds = generate_dataset(classes=batch, regions=regions, tokens=tokens,
                              dim=config.feature_dim)
        instances, labels = ds.split("train"), list(range(batch))
        for path in ("serial", "worker"):
            model = MatchingModel(config.replaced(batch_size=batch), ds.vocab_size, batch,
                                  np.random.default_rng(0))
            worker = None
            if path == "worker" and TextWorker is not None:
                # a tree whose worker has no noise slots takes the model alone
                sized = "regions" in inspect.signature(TextWorker).parameters
                worker = TextWorker(model, *[regions] * sized)
                worker.start_timeout = 60.0
                model = worker.model
                if legacy:
                    training._step_worker = worker
                assert worker.serves(*[model] * legacy)
            opt = autodiff.Adam(model.trainable_parameters(), lr=config.lr)
            rng = np.random.default_rng(1)
            passed = [worker] if worker is not None and not legacy else []

            def step():
                autodiff.clear_tape()
                bundle, _ = training._batch_losses(model, instances, labels, rng, *passed)
                autodiff.backward(bundle.total)
                opt.step()

            try:
                with one_thread() if worker is not None else contextlib.nullcontext():
                    out[f"train.{name} B={batch} {path}"] = _ms_per_call(step)
            finally:
                if worker is not None:
                    worker.close()
                if legacy:
                    training._step_worker = None
    return out


def child() -> dict:
    """One round in this process: {case: ms per call}."""
    return {**gru_cases(), **read_cases(), **noise_cases(), **train_cases()}


def run_round(tree, pin: bool) -> dict:
    env = dict(os.environ)
    if pin:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    if tree is not None:
        env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    command = [sys.executable, os.path.abspath(__file__), "--child"]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the GRU kernels, the read path, the noise draw and the train "
                    "step in ms per call.")
    parser.add_argument("--src", action="append", default=None, metavar="TREE",
                        help="a source tree to time (repeat to compare; default: the "
                             "pgmatch on PYTHONPATH)")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--default-threads", action="store_true",
                        help="leave the children's BLAS threads at the environment's default "
                             "instead of pinning one")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child()))
        return 0
    trees = args.src or [None]
    readings = {tree: [] for tree in trees}
    for k in range(args.rounds):
        for tree in (trees if k % 2 == 0 else trees[::-1]):
            readings[tree].append(run_round(tree, pin=not args.default_threads))

    labels = [tree or "PYTHONPATH" for tree in trees]
    threads = "the environment's BLAS threads" if args.default_threads else "one BLAS thread"
    for tree, label in zip(trees, labels):
        print(f"# {label}: {args.rounds} rounds, {threads}")
    head = "".join(f"  {'median':>8}  {'iqr':>7}" for _ in trees)
    print(f"{'case':<36}{head}" + ("  ratio  wins" if len(trees) == 2 else ""))
    for case in readings[trees[0]][0]:
        row = ""
        for tree in trees:
            q1, med, q3 = _quartiles([r[case] for r in readings[tree]])
            row += f"  {med:8.4f}  {q3 - q1:7.4f}"
        if len(trees) == 2:
            ratios = [a[case] / b[case] for a, b in zip(*readings.values())]
            row += f"  {_quartiles(ratios)[1]:5.3f}  {sum(r > 1 for r in ratios):>2}/{len(ratios)}"
        print(f"{case:<36}{row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
