"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with ``pytest -s`` to see them all).

The end-to-end criterion re-runs the oracle reference recipe recorded in
``tests/reference_run.json``; regenerate that file by rerunning this
module's reference fixture and copying the achieved numbers.
"""

import json
import os
import time

import numpy as np
import pytest

from pgmatch.config import ModelConfig
from pgmatch.data import generate_dataset
from pgmatch.rewards import pg_baseline
from pgmatch.training import canonical_records, evaluate, run_ablation, train
from pgmatch.verify import (
    bandit_suite,
    distributions_suite,
    gradcheck_suite,
    metrics_suite,
)

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference_run.json")


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _suite_outcome(results, elapsed, budget):
    failed = [r for r in results if not r.passed]
    ok = not failed and elapsed < budget
    notes = "; ".join(f"{r.name}: {r.detail}" for r in failed) or f"{len(results)} checks"
    return ok, f"{notes}; runtime {elapsed:.1f}s (budget {budget}s)"


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    dataset = generate_dataset(**record["dataset"])
    config = ModelConfig.from_dict(record["config"])
    start = time.perf_counter()
    result = train(config, dataset)
    runtime = time.perf_counter() - start
    model = result.rebuild(best=True)
    metrics = evaluate(model, dataset.split("test"))
    return {"record": record, "result": result, "metrics": metrics, "runtime": runtime}


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    results = gradcheck_suite()
    ok, detail = _suite_outcome(results, time.perf_counter() - start, 60)
    _report(1, "gradient correctness", ok, detail)


def test_criterion_2_distribution_correctness():
    start = time.perf_counter()
    results = distributions_suite()
    ok, detail = _suite_outcome(results, time.perf_counter() - start, 30)
    _report(2, "distribution correctness", ok, detail)


def test_criterion_3_metric_oracle_equivalence():
    start = time.perf_counter()
    results = metrics_suite()
    ok, detail = _suite_outcome(results, time.perf_counter() - start, 10)
    _report(3, "metric oracle equivalence", ok, detail)


def test_criterion_4_reinforce_sanity():
    start = time.perf_counter()
    results = bandit_suite()
    ok, detail = _suite_outcome(results, time.perf_counter() - start, 60)
    _report(4, "REINFORCE sanity", ok, detail)


def test_criterion_5_baseline_identity():
    baselines, _ = pg_baseline([1.0, 2.0, 3.0], beta=0.5)
    exact = np.array_equal(baselines, [2.5, 2.0, 1.5])

    rng = np.random.default_rng(123)
    worst = 0.0
    for size in range(2, 13):
        for _ in range(200):
            _, adv = pg_baseline(rng.random(size) * 2.0, beta=1.0)
            worst = max(worst, abs(float(adv.sum())))
    ok = exact and worst < 1e-12
    _report(5, "baseline identity", ok,
            f"baselines {baselines.tolist()} exact={exact}; "
            f"max |sum of beta=1 advantages| = {worst:.2e} (tol 1e-12)")


def test_criterion_6_end_to_end_training(reference):
    record = reference["record"]
    metrics = reference["metrics"]
    target = record["target"]
    ok = (metrics["r1_i2t"] >= target["r1_i2t"]
          and metrics["r1_t2i"] >= target["r1_t2i"]
          and record["config"]["epochs"] <= target["max_epochs"]
          and reference["runtime"] < target["max_runtime_seconds"])
    _report(6, "end-to-end training", ok,
            f"R@1 i2t {metrics['r1_i2t']:.4f} / t2i {metrics['r1_t2i']:.4f} "
            f"(target >= {target['r1_i2t']}, recorded oracle "
            f"{record['achieved']['r1_i2t']:.4f}/{record['achieved']['r1_t2i']:.4f}); "
            f"runtime {reference['runtime']:.0f}s < {target['max_runtime_seconds']}s")


def test_criterion_7_ablation_ordering():
    dataset = generate_dataset(classes=16, regions=6, tokens=5, dim=32,
                               noise_scale=0.3, seed=11)
    base = ModelConfig(feature_dim=32, word_dim=16, hidden=32, embed_dim=32,
                       decoder_dim=16, batch_size=8, epochs=15, lr_drop_epoch=12)
    grid = [("no_pg", {"pg_mode": "off"}),
            ("compound", {"pg_mode": "compound"}),
            ("reward_r1", {"reward_mode": "r1"}),
            ("reward_ap", {"reward_mode": "ap"})]
    jobs = min(4, os.cpu_count() or 1)
    runs, rows = run_ablation(base, grid, dataset, seeds=(0, 1, 2, 3, 4), jobs=jobs)
    failures = [r for r in runs if "error" in r]

    def mean_r1(cell):
        row = next(r for r in rows if r["cell"] == cell)
        return (row["r1_i2t_mean"] + row["r1_t2i_mean"]) / 2

    no_pg, compound = mean_r1("no_pg"), mean_r1("compound")
    r1_only, ap_only = mean_r1("reward_r1"), mean_r1("reward_ap")
    pg_beats_baseline = compound >= no_pg
    reward_ordering = compound >= r1_only - 0.01
    # directional observation, reported either way: AP-only vs R@1-only
    ap_vs_r1 = "holds" if ap_only >= r1_only else f"violated ({ap_only:.4f} < {r1_only:.4f})"
    ok = not failures and pg_beats_baseline and reward_ordering
    _report(7, "ablation ordering", ok,
            f"mean R@1 over 5 seeds: compound {compound:.4f} vs no-PG {no_pg:.4f} "
            f"(compound >= no-PG: {pg_beats_baseline}); "
            f"R@1+AP {compound:.4f} vs R@1-only {r1_only:.4f} "
            f"(within 1% tolerance: {reward_ordering}); "
            f"AP-only {ap_only:.4f} vs R@1-only ordering {ap_vs_r1}; "
            f"failed cells: {len(failures)}")


def _epoch_means(records, key, epochs):
    by_epoch = {}
    for rec in records:
        if rec["type"] == "train" and rec["epoch"] <= epochs:
            by_epoch.setdefault(rec["epoch"], []).append(rec[key])
    return np.array([np.mean(by_epoch[e]) for e in sorted(by_epoch)])


def _smooth(series, window=3):
    kernel = np.ones(window) / window
    return np.convolve(series, kernel, mode="valid")


def test_criterion_8_curve_shapes(reference):
    records = reference["result"].records
    reward = _smooth(_epoch_means(records, "reward_mean", 10))
    triplet = _smooth(_epoch_means(records, "triplet", 10))
    instance = _smooth(_epoch_means(records, "instance", 10))
    decode = _smooth(_epoch_means(records, "text_decode_text", 10))

    reward_up = reward[-1] >= reward[0]
    losses_down = triplet[-1] < triplet[0] and instance[-1] < instance[0] and decode[-1] < decode[0]
    ok = reward_up and losses_down
    _report(8, "curve shapes", ok,
            f"smoothed over epochs 1-10: reward {reward[0]:.3f}->{reward[-1]:.3f} "
            f"(non-decreasing: {reward_up}); triplet {triplet[0]:.3f}->{triplet[-1]:.3f}, "
            f"instance {instance[0]:.3f}->{instance[-1]:.3f}, "
            f"decode {decode[0]:.3f}->{decode[-1]:.3f} (all decreasing: {losses_down})")


def test_criterion_9_determinism():
    dataset = generate_dataset(classes=8, regions=4, tokens=4, dim=16,
                               noise_scale=0.15, seed=5)
    config = ModelConfig(feature_dim=16, word_dim=8, hidden=16, embed_dim=16,
                         decoder_dim=8, batch_size=4, epochs=3, seed=2)
    a = train(config, dataset)
    b = train(config, dataset)
    logs_equal = canonical_records(a.records) == canonical_records(b.records)
    params_equal = np.array_equal(a.final_params, b.final_params)
    ok = logs_equal and params_equal
    _report(9, "determinism", ok,
            f"metric logs bit-identical (wall-time stripped): {logs_equal}; "
            f"final parameters bit-identical: {params_equal}")
