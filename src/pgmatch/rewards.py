"""On-line ranking rewards over a batch gallery.

Every instance in the batch is its own retrieval class; the diagonal of
the similarity matrix marks the positive pair. All computations here are
plain numpy on detached values: rewards are constants to the policy
gradient, never part of the differentiation graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REWARD_MODES = ("r1", "ap", "r1+ap")
DIRECTIONS = ("i2t", "t2i", "both")


@dataclass
class RewardRecord:
    """Per-instance reward components; baseline/advantage filled once the
    whole batch is known."""

    r_at_1: float
    ap: float
    reward: float
    baseline: float = float("nan")
    advantage: float = float("nan")


def similarity_matrix(img_embs, txt_embs) -> np.ndarray:
    """K x K dot products of (K, D) unit-normalized embeddings, rows images
    and columns texts; a Tensor is read detached, off the tape."""
    img, txt = (np.asarray(getattr(e, "values", e), dtype=np.float64) for e in (img_embs, txt_embs))
    if img.shape[0] != txt.shape[0]:
        raise ValueError(f"gallery size mismatch: {img.shape[0]} images vs {txt.shape[0]} texts")
    return img @ txt.T


def recall_at_1(sim: np.ndarray, k: int) -> float:
    """1.0 iff column k wins row k; ties go to the lowest index."""
    return 1.0 if int(np.argmax(sim[k])) == k else 0.0


def rank_of(row: np.ndarray, k: int) -> int:
    """1-based rank of entry k under descending sort, ties by index."""
    idx = np.arange(row.size)
    return int(1 + (row > row[k]).sum() + ((row == row[k]) & (idx < k)).sum())


def average_precision(sim: np.ndarray, k: int) -> float:
    """Single-relevant AP: 1 / rank of the paired item in row k."""
    return 1.0 / rank_of(sim[k], k)


def instance_rewards(sim: np.ndarray, direction: str = "both",
                     mode: str = "r1+ap") -> list[RewardRecord]:
    """Reward each instance by its retrieval quality in the batch gallery.

    ``direction`` picks image->text (rows), text->image (columns), or the
    average of both. ``mode`` selects which metric combination feeds the
    reward."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if mode not in REWARD_MODES:
        raise ValueError(f"reward mode must be one of {REWARD_MODES}, got {mode!r}")
    k_total = sim.shape[0]
    views = [v for d, v in (("i2t", sim), ("t2i", sim.T)) if direction in (d, "both")]
    records = []
    for k in range(k_total):
        r1 = float(np.mean([recall_at_1(v, k) for v in views]))
        ap = float(np.mean([average_precision(v, k) for v in views]))
        if mode == "r1":
            reward = r1
        elif mode == "ap":
            reward = ap
        else:
            reward = r1 + ap
        records.append(RewardRecord(r_at_1=r1, ap=ap, reward=reward))
    return records


def pg_baseline(rewards, beta: float = 0.5):
    """Leave-one-out batch baseline: b_k = mean of the other rewards.
    Returns (baselines, advantages) with advantage_k = reward_k - beta*b_k."""
    r = np.asarray(rewards, dtype=np.float64)
    k = r.size
    if k < 2:
        raise ValueError(f"baseline needs at least 2 instances, got {k}")
    baselines = (r.sum() - r) / (k - 1)
    advantages = r - beta * baselines
    return baselines, advantages


def attach_baseline(records: list[RewardRecord], beta: float = 0.5) -> list[RewardRecord]:
    """Fill baseline/advantage fields in place from the batch rewards."""
    baselines, advantages = pg_baseline([rec.reward for rec in records], beta)
    for rec, b, a in zip(records, baselines, advantages):
        rec.baseline = float(b)
        rec.advantage = float(a)
    return records
