#!/usr/bin/env python3
"""pgmatch benchmark: one workload per process, or every workload in turn.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1

A single run trains the workload's recipe through ``training.train``,
reloads the best checkpoint through ``MatchingModel.load_checkpoint`` and
ranks the workload's gallery through ``training.evaluate``. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-module metrics (see tracing.py). The last line of
standard output is the JSON result; the lines before it are a readable
report. ``--all`` runs every workload untraced and traced, each in a fresh
process, and prints every metric with its unit and the correctness verdict.

Correctness failures (an exception, a non-finite loss, a missed R@1
target, or results that differ from an earlier run of the same code and
seed in this checkout) are counted as failed operations, not raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")

SETUP_ROUNDS = 15
MIN_GALLERY_PASSES = 8
TAIL_BEYOND = 10   # the tail percentile leaves at least this many samples above it


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def code_hash() -> str:
    """sha256 over the package and benchmark sources: runs are compared
    only with earlier runs of the same code."""
    digest = hashlib.sha256()
    for folder in (os.path.join(SRC, "pgmatch"), BENCH):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                digest.update(name.encode())
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "code_sha256": code_hash(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


class StepLog:
    """File-like sink for the record stream of ``training.train``. Each
    record closes one timeline operation (a train step or a validation
    pass) and opens the next. With a tracer, tracing is on for even steps
    and off for odd ones, so traced and untraced steps interleave."""

    def __init__(self, timeline, tracer=None):
        self.records = []
        self.timeline = timeline
        self.tracer = tracer

    def write(self, line):
        record = json.loads(line)
        self.records.append(record)
        self.timeline.end(record["type"])
        if self.tracer is not None and record["type"] == "train":
            (self.tracer.enable if record["step"] % 2 else self.tracer.disable)()
        self.timeline.begin()

    def flush(self):
        pass


def records_digest(records) -> str:
    from pgmatch.training import canonical_records
    return hashlib.sha256(json.dumps(canonical_records(records), sort_keys=True)
                          .encode()).hexdigest()


def remember(key: str, entry: dict) -> bool:
    """Store ``entry`` under ``key`` in this checkout's run state; False if
    an earlier run stored a different entry under the same key."""
    path = os.path.join(WORK, "state.json")
    state = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    if key in state:
        return state[key] == entry
    state[key] = entry
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(state, fh, sort_keys=True, indent=1)
    os.replace(path + ".tmp", path)
    return True


def run_workload(name: str, seed: int, seconds: float, trace: bool, report) -> dict:
    """Run one workload in this process. Returns the metric values, the
    operation counts and the checks; ``report`` receives readable lines."""
    from pgmatch import data, training
    from pgmatch.config import ModelConfig
    from timeline import PROBE_NOMINAL_S, Timeline
    from workloads import TARGET_R1, WORKLOADS, generate

    workload = WORKLOADS[name]
    paths = generate(workload, seed, os.path.join(WORK, "inputs", f"{name}-seed{seed}"))
    with open(paths["config"], "r", encoding="utf-8") as fh:
        config = ModelConfig.from_dict(json.load(fh))
    timeline = Timeline()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(timeline)
        if tracer.missing:
            report(f"trace targets missing from the package: {', '.join(tracer.missing)}")

    checks = {}
    values = {}
    attempted = workload.steps + workload.epochs
    failed = 0

    dataset = data.load_dataset(paths["data"])
    log = StepLog(timeline, tracer)
    with timeline:
        timeline.begin()
        try:
            result = training.train(config, dataset, log_fh=log)
        except Exception:  # noqa: BLE001 - a failed run is reported, not raised
            traceback.print_exc()
            result = None
        timeline.end("idle")
    if tracer is not None:
        tracer.enable()

    train_records = [r for r in log.records if r["type"] == "train"]
    failed += attempted - len(log.records)
    nonfinite = sum(1 for r in train_records
                    if not all(math.isfinite(v) for v in r.values() if isinstance(v, float)))
    failed += nonfinite
    checks["losses_finite"] = nonfinite == 0 and result is not None
    # Operation i of the timeline closed with record i.
    reached = next((i for i, r in enumerate(log.records) if r["type"] == "eval"
                    and r["r1_i2t"] >= TARGET_R1 and r["r1_t2i"] >= TARGET_R1), None)
    checks["validation_target"] = reached is not None
    if reached is None:
        failed += 1
    else:
        values["time_to_target_s"] = sum(timeline.duration(i) for i in range(reached + 1))
        report(f"validation R@1 >= {TARGET_R1} both ways at epoch "
               f"{log.records[reached]['epoch']}, {log.records[reached]['wall_time']:.3f} s raw")
    step_ms = [1e3 * t for t in timeline.seconds("train")]
    if step_ms:
        training_s = sum(timeline.duration(i) for i in range(len(log.records)))
        values["train_steps_per_s"] = len(step_ms) / training_s
        values["train_step_ms_p50"] = statistics.median(step_ms)
        report(f"raw train_step_ms_p50 "
               f"{1e3 * statistics.median(timeline.seconds('train', normalized=False)):.3f}")
    if len(step_ms) > TAIL_BEYOND:
        import numpy as np
        q = 1.0 - TAIL_BEYOND / len(step_ms)
        values["train_step_ms_tail"] = float(np.percentile(step_ms, 100 * q))
        report(f"train_step_ms_tail is p{100 * q:.1f} of {len(step_ms)} steps "
               f"({TAIL_BEYOND} beyond it)")

    if result is not None:
        budget_s = seconds - (timeline.clock() - timeline.ops[0][1])
        outputs = {}
        try:
            with timeline:
                failed += measure_read_path(result, paths, config, budget_s, timeline,
                                            values, checks, outputs, report)
        except Exception:  # noqa: BLE001
            traceback.print_exc()
            failed += 1
            checks["read_path"] = False
        attempted += 1 + len(timeline.indices("gallery"))  # the test pass, the gallery
        outputs["records_sha256"] = records_digest(log.records)
        report(f"canonical records sha256 {outputs['records_sha256']}")
        checks["repeats_earlier_runs"] = remember(
            f"{name}|seed={seed}|code={code_hash()}", outputs)
        failed += 0 if checks["repeats_earlier_runs"] else 1
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report(f"speed probe median {1e3 * timeline.probe_median():.3f} ms "
           f"(times are normalized to {1e3 * PROBE_NOMINAL_S:.1f} ms)")

    timeline.dump(os.path.join(WORK, f"timeline-{name}-seed{seed}-trace{int(trace)}.json"))
    layers = {}
    if tracer is not None:
        from tracing import per_layer
        layers, summary = per_layer(tracer)
        report(f"trace: {json.dumps(summary, sort_keys=True)}")
        tracer.dump(os.path.join(WORK, f"spans-{name}.json"))
    return {"values": values, "layers": layers, "checks": checks,
            "attempted": attempted, "failed": min(failed, attempted)}


def measure_read_path(result, paths, config, budget_s, timeline, values, checks, outputs,
                      report) -> int:
    """Save the best checkpoint, time the set-up rounds, check the test
    target, then rank the gallery until ``budget_s`` is spent. Fills the
    metric ``values``, the ``checks`` and the test and gallery recall in
    ``outputs``; returns the number of failed operations."""
    from pgmatch import data, training
    from pgmatch.autodiff import Adam, clear_tape
    from pgmatch.model import MatchingModel
    from workloads import TARGET_R1

    def set_up():
        dataset = data.load_dataset(paths["data"])
        model = MatchingModel.load_checkpoint(paths["checkpoint"])
        Adam(model.trainable_parameters(), lr=config.lr)
        first = dataset.split("gallery")[0]
        model.embed_image(first.regions, None, mode="deterministic")
        model.embed_text(first.tokens, None, mode="deterministic")
        clear_tape()
        return dataset, model

    result.rebuild(best=True).save_checkpoint(paths["checkpoint"])
    deadline = timeline.clock() + budget_s
    for _ in range(SETUP_ROUNDS):
        dataset, model = timeline.run("setup", set_up)
    values["setup_s"] = statistics.median(timeline.seconds("setup"))

    failed = 0
    test = timeline.run("test", training.evaluate, model, dataset.split("test"))
    values["test_r1_mean"] = (test["r1_i2t"] + test["r1_t2i"]) / 2
    outputs["test"] = test
    checks["test_target"] = test["r1_i2t"] >= TARGET_R1 and test["r1_t2i"] >= TARGET_R1
    failed += 0 if checks["test_target"] else 1
    report(f"test recall {json.dumps(test, sort_keys=True)}")

    gallery = dataset.split("gallery")
    passes = []
    while len(passes) < MIN_GALLERY_PASSES or timeline.clock() < deadline:
        passes.append(timeline.run("gallery", training.evaluate, model, gallery))
    same = sum(1 for r in passes if r == passes[0])
    checks["gallery_repeats"] = same == len(passes)
    failed += len(passes) - same
    values["eval_instances_per_s"] = len(gallery) / statistics.median(timeline.seconds("gallery"))
    outputs["gallery"] = passes[0]
    report(f"gallery of {len(gallery)}: {len(passes)} passes, "
           f"recall {json.dumps(passes[0], sort_keys=True)}")
    report("gallery pass ms " + " ".join(f"{1e3 * t:.1f}" for t in timeline.seconds("gallery")))
    return failed


def result_line(spec, run, trace: bool) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = run["layers"] if trace else run["values"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared
               if m["name"] in measured and math.isfinite(measured[m["name"]])}
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    correct = run["failed"] == 0 and all(run["checks"].values()) and not missing
    return {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def single(args, spec) -> int:
    if not os.path.isfile(os.path.join(SRC, "pgmatch", "__init__.py")):
        print(f"perfbench: no pgmatch package under {SRC}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2
    # OpenBLAS reads these when numpy loads it; a 64-thread build would
    # otherwise oversubscribe a small box.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)

    def report(line):
        print(line, flush=True)

    report(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
           f"trace {args.trace}")
    report(f"env {json.dumps(environment(), sort_keys=True)}")
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), report)
    report(f"checks {json.dumps(run['checks'], sort_keys=True)}")
    line = result_line(spec, run, bool(args.trace))
    for metric, entry in line["metrics"].items():
        report(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(line), flush=True)
    return 0


def run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload["name"],
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload['name']} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            env = next((l[4:] for l in lines if l.startswith("env ")), "{}")
            print(f"== {workload['name']} (trace {trace}, seed {args.seed}) env {env}")
            for line in lines[:-1]:
                if line.startswith(("train_step_ms_tail is", "trace", "checks", "test recall",
                                    "gallery", "validation", "raw", "speed probe")):
                    print(f"   {line}")
            error_rate = result["failed"] / result["attempted"]
            print(f"   correct {result['correct']}  attempted {result['attempted']}  "
                  f"failed {result['failed']}  error_rate {error_rate:.4f}")
            for metric, entry in result["metrics"].items():
                print(f"   {metric:36s} {entry['value']:14.6g} {entry['unit']}")
            status = status or (0 if result["correct"] else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.all:
        return run_all(args, spec)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required without --all")
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
