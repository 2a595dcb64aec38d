"""On-line ranking rewards over a batch gallery.

Every instance in the batch is its own retrieval class; the diagonal of
the similarity matrix marks the positive pair. All computations here are
plain numpy on detached values: rewards are constants to the policy
gradient, never part of the differentiation graph.
"""

from __future__ import annotations

import numpy as np

from .config import REWARD_MODES


def similarity_matrix(img_embs, txt_embs) -> np.ndarray:
    """K x K dot products of (K, D) unit-normalized embeddings, rows images
    and columns texts; a Tensor is read detached, off the tape."""
    img, txt = (np.asarray(getattr(e, "values", e), dtype=np.float64) for e in (img_embs, txt_embs))
    if img.shape[0] != txt.shape[0]:
        raise ValueError(f"gallery size mismatch: {img.shape[0]} images vs {txt.shape[0]} texts")
    return img @ txt.T


def diagonal_ranks(sim: np.ndarray) -> np.ndarray:
    """1-based rank of each row's diagonal entry under a descending sort of
    that row, ties going to the lower column index. R@K of row k is
    ``rank <= K``; with one relevant item its AP is ``1 / rank``."""
    idx = np.arange(sim.shape[0])
    diag = sim[idx, idx][:, None]
    ahead = (sim > diag) | ((sim == diag) & (idx[None, :] < idx[:, None]))
    return 1 + ahead.sum(axis=1)


def instance_rewards(sim: np.ndarray, mode: str = "r1+ap") -> np.ndarray:
    """Reward each instance by its retrieval quality in the batch gallery,
    averaged over image->text (rows of ``sim``) and text->image (columns).
    ``mode`` picks R@1, AP, or their sum."""
    if mode not in REWARD_MODES:
        raise ValueError(f"reward mode must be one of {REWARD_MODES}, got {mode!r}")
    i2t, t2i = diagonal_ranks(sim), diagonal_ranks(sim.T)
    r1 = ((i2t == 1) * 1.0 + (t2i == 1)) / 2
    ap = (1.0 / i2t + 1.0 / t2i) / 2
    return {"r1": r1, "ap": ap, "r1+ap": r1 + ap}[mode]


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
