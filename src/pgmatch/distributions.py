"""Sampling machinery for the compound action distribution: the action
space, the Gumbel noise that perturbs the logits, the categorical draw
and the greedy label of a deterministic rollout. The two-stage sampler
itself, with its log-densities and its gradients, is part of the rollout
kernel, ``attention.policy_rollout``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import _softmax

# A logit within this distance of its row's largest one may round to the
# same probability; such rows take the argmax of the softmax itself.
NEAR_TIE = 1e-9


@dataclass(frozen=True)
class ActionSpace:
    """Discrete action layout: labels run 0..n inclusive, so logits have
    n+1 entries; n is also the divisor in the label -> mean map."""

    n: int = 100
    temperature: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"action space needs n >= 2, got {self.n}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def num_labels(self) -> int:
        return self.n + 1


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard Gumbel variates from uniform draws on [0, 1)."""
    return -np.log(-np.log(np.clip(u, 1e-300, 1.0 - 1e-16)))


def categorical_sample(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Draw one index per row of a (B, C) matrix of simplex rows: the first
    position whose running total exceeds the row's uniform draw on [0, 1)
    (scaled by the row total)."""
    if probs.ndim != 2:
        raise ValueError(f"categorical_sample expects a (B, C) matrix, got shape {probs.shape}")
    if np.any(probs < 0):
        raise ValueError("categorical_sample: negative probability entry")
    total = probs.sum(axis=-1)
    if np.any(np.abs(total - 1.0) > 1e-6):
        raise ValueError(f"categorical_sample: probabilities sum to {total}, not 1")
    cum = np.cumsum(probs, axis=-1)
    return np.minimum((cum <= (uniforms * total)[:, None]).sum(axis=-1), probs.shape[-1] - 1)


def greedy_label(logits: np.ndarray) -> np.ndarray:
    """The deterministic action of each row of ``logits`` (..., C): exactly
    ``np.argmax(softmax(logits), -1)``, read off the logits without the
    exp pass where that is safe.

    The softmax is monotone and its largest entry is ``exp(0) / total``, so
    a row whose largest logit is finite and beats every other one by more
    than ``NEAR_TIE`` has its softmax argmax at its logit argmax: the
    runner-up's ``exp`` is at most ``1 - 1e-9``, far below the top's 1.
    Rows with a near tie (a one-ulp gap can round to equal probabilities,
    and the first index wins the tie) or a non-finite maximum (the softmax
    is NaN) fall back to the softmax."""
    rows = logits.reshape(-1, logits.shape[-1])
    hard = np.argmax(rows, axis=-1)
    top = rows[np.arange(len(rows)), hard][:, None]
    near = rows >= top - NEAR_TIE
    finite = np.isfinite(top[:, 0])
    # every row counts its finite top once; more counts mean a near tie
    if np.count_nonzero(near) > len(rows) or not finite.all():
        unsure = (np.count_nonzero(near, axis=-1) > 1) | ~finite
        hard[unsure] = np.argmax(_softmax(rows[unsure]), axis=-1)
    return hard.reshape(logits.shape[:-1])
