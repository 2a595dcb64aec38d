"""Print bit-identity digests of whole training runs.

    PYTHONPATH=src python tests/recipe_digests.py [RECIPE ...] [--kernel NAME] [--expect FILE]

For each recipe it trains once and prints four sha256 digests: one of
the metric log (``canonical_records`` as newline-joined ``record_line``s,
so wall time is stripped), one of the final parameters (their raw bytes,
in name order), one of the read path: the final model's test-split
image embeddings then text embeddings (raw bytes), from
``training.embed_split``, the forward pass ``training.evaluate`` runs
(one batch, deterministic rollouts, tape recording off; no recipe's test
split is large enough for its worker thread), and one of a reload: the
final model saved with ``save_checkpoint`` and read back with
``load_checkpoint``, digested as its parameters then its read-path
embeddings. A change that claims to
keep training, the read path and checkpoints bit-identical must print
the same lines as its parent. The recipes are the two benchmark
recipes (``perfbench/workloads.py``: dataset seed 7, training seed 0) and
the criterion-9 config of ``test_acceptance.py`` with its heads-2,
``pg_mode`` and PG-losses-only variants.

Each OpenBLAS kernel sums a GEMM's products in its own order, so the
digests depend on the kernel. By default the recipes run in a child
process with ``OPENBLAS_CORETYPE`` pinned to ``PINNED_KERNEL``, which
every x86-64 CPU runs; ``--kernel native`` runs them in this process on
the kernel OpenBLAS picked for the CPU. The first line printed names the
kernel OpenBLAS reports and the OpenBLAS and numpy versions.

``--expect FILE`` compares each line with the same recipe's line in
FILE (saved runs of this script, one line set per kernel) under the
kernel in use, and exits 1 at the first recipe whose digests differ,
naming it, or 3 if FILE has no line set for that kernel.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

import pgmatch
from pgmatch.config import ModelConfig
from pgmatch.data import generate_dataset
from pgmatch.model import MatchingModel
from pgmatch.training import canonical_records, embed_split, record_line, train

# The oldest x86-64 kernel of a DYNAMIC_ARCH OpenBLAS (SSE3). OpenBLAS
# 0.3.31 reports it under the first of its aliases, "Katmai".
PINNED_KERNEL = "Prescott"
NO_LINE_SET = 3

# The criterion-6 recipe the benchmark workloads train, with each
# workload's batch size, epochs and dataset shape.
_BENCH_CONFIG = dict(batch_size=16, beta=0.5, decoder_dim=32, decoder_init_scale=0.2,
                     embed_dim=64, feature_dim=64, gcn_layers=1, heads=1, hidden=64,
                     init_scale=0.05, lam=20.0, lr=0.001, lr_after_drop=0.0001,
                     lr_drop_epoch=35, margin=0.2, n_actions=100, pg_mode="compound",
                     reward_mode="r1+ap", seed=0, temperature=1.0, word_dim=32)
_BENCH_DATA = dict(classes=32, dim=64, noise_scale=0.1, seed=7)
_CRITERION_9_DATA = dict(classes=8, regions=4, tokens=4, dim=16, noise_scale=0.15, seed=5)
_CRITERION_9_CONFIG = dict(feature_dim=16, word_dim=8, hidden=16, embed_dim=16,
                           decoder_dim=8, batch_size=4, epochs=3, seed=2)


def recipes():
    """(name, dataset arguments, config) for every recipe, in print order."""
    yield ("reference", dict(_BENCH_DATA, regions=8, tokens=6, train_per_class=1),
           ModelConfig(**_BENCH_CONFIG).replaced(epochs=20))
    yield ("stress", dict(_BENCH_DATA, regions=16, tokens=12, train_per_class=2),
           ModelConfig(**_BENCH_CONFIG).replaced(batch_size=32, epochs=12))
    base = ModelConfig(**_CRITERION_9_CONFIG)
    yield "criterion9", _CRITERION_9_DATA, base
    yield "criterion9.heads2", _CRITERION_9_DATA, base.replaced(heads=2)
    for pg_mode in ("discrete", "continuous", "off"):
        yield f"criterion9.{pg_mode}", _CRITERION_9_DATA, base.replaced(pg_mode=pg_mode)
    # only the PG losses: no gradient reaches the fusion
    yield "criterion9.pg_only", _CRITERION_9_DATA, base.replaced(
        loss_triplet=False, loss_instance=False, loss_decode=False)


def read_path_bytes(model, instances) -> bytes:
    """The raw bytes of the image then the text embeddings of
    ``instances``, embedded as ``training.evaluate`` embeds a split."""
    img, txt = embed_split(model, instances)
    return img.tobytes() + txt.tobytes()


def params_digest(model):
    """sha256 over the raw bytes of ``model``'s parameters, in name order."""
    digest = hashlib.sha256()
    for _name, t in sorted(model.named_parameters().items()):
        digest.update(t.values.tobytes())
    return digest


def reload_digest(model, instances) -> str:
    """sha256 of ``model`` saved and loaded back: the loaded parameters,
    then the loaded model's read-path embeddings of ``instances``."""
    with tempfile.TemporaryDirectory() as tmp:
        model.save_checkpoint(os.path.join(tmp, "checkpoint"))
        loaded = MatchingModel.load_checkpoint(os.path.join(tmp, "checkpoint"))
    digest = params_digest(loaded)
    digest.update(read_path_bytes(loaded, instances))
    return digest.hexdigest()


def digests(dataset_args: dict, config: ModelConfig) -> tuple[str, str, str, str]:
    dataset = generate_dataset(**dataset_args)
    result = train(config, dataset)
    records = "\n".join(record_line(r) for r in canonical_records(result.records))
    final = result.rebuild(best=False)
    test = dataset.split("test")
    return (hashlib.sha256(records.encode()).hexdigest(),
            params_digest(final).hexdigest(),
            hashlib.sha256(read_path_bytes(final, test)).hexdigest(),
            reload_digest(final, test))


def blas_kernel() -> tuple:
    """The name OpenBLAS gives the kernel it runs in this process and the
    OpenBLAS version, or ``(None, None)`` if numpy's BLAS is not an
    OpenBLAS this can query."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            corename = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if corename is not None and config is not None:
                corename.argtypes = config.argtypes = ()
                corename.restype = config.restype = ctypes.c_char_p
                return corename().decode(), config().decode().split()[1]
    return None, None


def parse_lines(lines) -> dict:
    """{kernel: {recipe: fields}} for the non-blank lines of saved runs:
    a ``kernel NAME ...`` line opens the line set of the lines below it,
    and lines above the first one belong to no line set."""
    sets, current = {}, {}
    for fields in map(str.split, lines):
        if fields and fields[0] == "kernel":
            current = sets.setdefault(fields[1], {})
        elif fields:
            current[fields[0]] = fields
    return sets


def differs(line: str, expected: dict) -> bool:
    """Whether ``line`` is not its recipe's line in ``expected`` (one line
    set; spacing aside); a recipe missing from ``expected`` differs."""
    fields = line.split()
    return expected.get(fields[0]) != fields


def run_pinned(argv: list, kernel: str) -> int:
    """Run this script with ``argv`` in a child process whose OpenBLAS
    runs ``kernel``, and relay its output."""
    path = os.path.dirname(os.path.dirname(os.path.abspath(pgmatch.__file__)))
    pythonpath = os.pathsep.join(filter(None, [path, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=pythonpath)
    command = [sys.executable, os.path.abspath(__file__), *argv, "--kernel", "native"]
    child = subprocess.run(command, env=env, capture_output=True, text=True, check=False)
    sys.stdout.write(child.stdout)
    sys.stderr.write(child.stderr)
    return child.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print bit-identity digests of training runs.")
    parser.add_argument("recipes", nargs="*", help="recipes to run (default: all)")
    parser.add_argument("--kernel", default=PINNED_KERNEL,
                        help="the OPENBLAS_CORETYPE of a child process that runs the recipes "
                             "(default %(default)s), or 'native' for this process's kernel")
    parser.add_argument("--expect", metavar="FILE", help="saved runs to compare with")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.kernel != "native":
        return run_pinned(argv, args.kernel)
    kernel, version = blas_kernel()
    print(f"kernel {kernel} openblas {version} numpy {np.__version__}", flush=True)
    expected = None
    if args.expect is not None:
        with open(args.expect, encoding="utf-8") as fh:
            expected = parse_lines(fh).get(kernel)
        if expected is None:
            print(f"{args.expect} has no line set for kernel {kernel}", file=sys.stderr)
            return NO_LINE_SET
    for name, dataset_args, config in recipes():
        if args.recipes and name not in args.recipes:
            continue
        records, params, embeddings, reload = digests(dataset_args, config)
        line = (f"{name:22s} records {records} params {params} embeddings {embeddings} "
                f"reload {reload}")
        print(line, flush=True)
        if expected is not None and differs(line, expected):
            print(f"{name}: digests differ from {args.expect} (kernel {kernel})",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
