"""Print where a training's memory peaks, phase by phase.

    PYTHONPATH=src python tests/peak_memory.py [RECIPE ...]

For each recipe (default: the two benchmark recipes of
``recipe_digests.recipes``, ``reference`` and ``stress``) it runs the
imports, the dataset build and one ``training.train`` in a fresh child
process, twice: once with ``tracemalloc`` on, which counts what Python
and numpy allocate, and once with it off, since its own bookkeeping
would inflate the resident set. Each row is one phase:

- ``imports``: ``import pgmatch``; ``data``: ``generate_dataset``;
- ``forward``: ``training._batch_losses``; ``backward``:
  ``autodiff.backward``; ``adam``: ``Adam.step``; ``validation``:
  ``training.evaluate``, each over every call that ``train`` makes;
- ``end``: what is left when ``train`` returns.

``traced`` is the largest traced size inside the phase (for ``end``:
the traced size when ``train`` returns). ``tracemalloc`` restarts
before each of ``imports``, ``data`` and ``train``, so each counts only
what it allocated: the training rows leave out the modules and the
dataset. ``maxrss`` is ``ru_maxrss`` after the phase's last call, and
``grew`` is how much ``ru_maxrss`` rose during the phase's calls. All
three are in MiB, the unit of ``perfbench``'s ``peak_rss_mb``. The phase
with the largest ``traced`` sets the traced peak; the last phase that
grew sets the resident peak. No gallery pass runs, so unlike
``perfbench`` the numbers do not grow with the run's length.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc

PHASES = ("imports", "data", "forward", "backward", "adam", "validation", "end")
MIB = float(1 << 20)


def _maxrss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB


class _Phases:
    """Per phase: the largest traced size, ``ru_maxrss`` at its end, and
    how much ``ru_maxrss`` rose inside it."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.rows = {}

    def run(self, phase, fn, *args, **kwargs):
        if self.traced:
            tracemalloc.reset_peak()
        before = _maxrss()
        try:
            return fn(*args, **kwargs)
        finally:
            self._note(phase, tracemalloc.get_traced_memory()[1] if self.traced else 0.0,
                       before)

    def _note(self, phase, traced, before):
        after = _maxrss()
        row = self.rows.setdefault(phase, {"traced": 0.0, "maxrss": 0.0, "grew": 0.0})
        row["traced"] = max(row["traced"], traced / MIB)
        row["maxrss"] = after
        row["grew"] += after - before

    def wrap(self, phase, fn):
        return lambda *args, **kwargs: self.run(phase, fn, *args, **kwargs)


def child(recipe: str, traced: bool) -> dict:
    """One recipe's phases in this process (``--child``)."""
    phases = _Phases(traced)

    def restart_tracing():
        if traced:
            tracemalloc.stop()
            tracemalloc.start()

    restart_tracing()
    phases.run("imports", __import__, "pgmatch")
    import pgmatch.autodiff as ad
    import pgmatch.training as training
    import recipe_digests
    from pgmatch.data import generate_dataset

    _, data_args, config = next(r for r in recipe_digests.recipes() if r[0] == recipe)
    restart_tracing()
    dataset = phases.run("data", generate_dataset, **data_args)
    training._batch_losses = phases.wrap("forward", training._batch_losses)
    training.backward = phases.wrap("backward", training.backward)
    training.evaluate = phases.wrap("validation", training.evaluate)
    ad.Adam.step = phases.wrap("adam", ad.Adam.step)
    restart_tracing()
    training.train(config, dataset)
    phases._note("end", tracemalloc.get_traced_memory()[0] if traced else 0.0, _maxrss())
    return phases.rows


def measure(recipe: str) -> dict:
    """{phase: (traced, maxrss, grew)} in MiB, from two child processes."""
    rows = {}
    for traced in (True, False):
        command = [sys.executable, os.path.abspath(__file__), recipe, "--child",
                   "--traced", str(int(traced))]
        out = subprocess.run(command, capture_output=True, text=True, check=True).stdout
        rows["traced" if traced else "untraced"] = json.loads(out.splitlines()[-1])
    return {phase: (rows["traced"][phase]["traced"], rows["untraced"][phase]["maxrss"],
                    rows["untraced"][phase]["grew"]) for phase in PHASES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print a training's memory peaks by phase.")
    parser.add_argument("recipes", nargs="*", default=["reference", "stress"],
                        help="recipes to run (default: reference stress)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.recipes[0], bool(args.traced))))
        return 0
    for recipe in args.recipes:
        print(f"{recipe} (MiB)\n  {'phase':<10}  {'traced':>6}  {'maxrss':>6}  {'grew':>6}")
        for phase, (traced, maxrss, grew) in measure(recipe).items():
            print(f"  {phase:<10}  {traced:6.2f}  {maxrss:6.2f}  {grew:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
