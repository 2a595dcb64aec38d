"""Sampling machinery for the compound action distribution.

A discrete category is drawn through a Gumbel-softmax relaxation, mapped
to the mean of a Normal via a logistic squash, and the continuous action
is a reparameterized draw from that Normal. Log-densities of both stages
are kept on the tape so policy-gradient losses can differentiate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DomainError,
    Tensor,
    add,
    constant,
    div,
    log,
    mul,
    pick,
    record_op,
    scalar_mul,
    softmax,
    square,
    sub,
    tsum,
)

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
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


def gumbel_softmax(logits: Tensor, temperature: float, rng: np.random.Generator,
                   noise: np.ndarray | None = None) -> Tensor:
    """Relaxed categorical sample on the simplex, differentiable w.r.t.
    logits. Works row-wise on matrices. ``noise`` replaces the Gumbel draw
    (pre-drawn rollout noise, or frozen randomness in gradient checks)."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if noise is None:
        noise = gumbel_from_uniform(rng.random(logits.shape))
    perturbed = add(logits, constant(noise))
    return softmax(scalar_mul(perturbed, 1.0 / temperature), axis=-1)


def categorical_sample(probs, rng: np.random.Generator | None = None,
                       uniforms=None):
    """Draw one index per row of a simplex vector (returns an int) or
    matrix (returns an index vector). ``uniforms``, one per row, replace
    the ``rng.random()`` draws."""
    p = probs.values if isinstance(probs, Tensor) else np.asarray(probs, dtype=np.float64)
    if p.ndim not in (1, 2):
        raise ValueError(f"categorical_sample expects a vector or matrix, got shape {p.shape}")
    if np.any(p < 0):
        raise ValueError("categorical_sample: negative probability entry")
    total = p.sum(axis=-1)
    if np.any(np.abs(total - 1.0) > 1e-6):
        raise ValueError(f"categorical_sample: probabilities sum to {total}, not 1")
    if uniforms is None:
        uniforms = rng.random() if p.ndim == 1 else rng.random(p.shape[0])
    cum = np.cumsum(p, axis=-1)
    # first position whose running total exceeds the draw
    idx = np.minimum((cum <= (uniforms * total)[..., None]).sum(axis=-1), p.shape[-1] - 1)
    return int(idx) if p.ndim == 1 else idx


def discrete_logprob(probs: Tensor, index) -> Tensor:
    """log(probs[..., index]) as a tape node, differentiable into the
    probs: one index per row (an int for a vector), one log-prob per row
    as a (..., 1) column."""
    idx = np.asarray(index, dtype=np.intp)[..., None]
    if np.any(np.take_along_axis(probs.values, idx, axis=-1) <= 0.0):
        raise DomainError(f"discrete_logprob: zero probability at index {index}")
    return log(pick(probs, idx))


def action_to_mu(index: int, n: int) -> float:
    """Logistic squash of the label fraction: 1 / (1 + exp(-index / n))."""
    index = int(index)
    if not 0 <= index <= n:
        raise ValueError(f"action label {index} outside [0, {n}]")
    return 1.0 / (1.0 + math.exp(-index / n))


def straight_through(hard_index, soft_probs: Tensor, n: int) -> Tensor:
    """Pre-squash mean input, one per row as a (..., 1) column: the
    forward value is exactly hard_index/n, the backward pass sees the
    relaxed expectation sum_i (i/n) * probs[i]."""
    labels = np.arange(soft_probs.shape[-1], dtype=np.float64) / n
    out = np.asarray(hard_index, dtype=np.float64)[..., None] / n

    def bw(g):
        return (g * labels,)

    return record_op("straight_through", (soft_probs,), out, bw)


def soft_action_value(soft_probs: Tensor, n: int) -> Tensor:
    """The relaxed path on its own: sum_i (i/n) * probs[i] per row, as a
    (..., 1) column. This is what ``straight_through`` routes gradients
    through."""
    labels = np.arange(soft_probs.shape[-1], dtype=np.float64) / n
    return tsum(mul(soft_probs, constant(labels)), axis=-1, keepdims=True)


def normal_sample_reparam(mu: Tensor, sigma: Tensor, rng: np.random.Generator,
                          eps=None) -> Tensor:
    """mu + sigma * eps with eps a standard-normal constant (one per
    entry of sigma), so gradients flow into both mu and sigma."""
    if np.any(sigma.values <= 0.0):
        raise DomainError(f"normal_sample_reparam: sigma must be positive, got {sigma.values}")
    if eps is None:
        eps = rng.standard_normal() if sigma.values.ndim == 0 else rng.standard_normal(sigma.shape)
    return add(mu, mul(sigma, constant(eps)))


def normal_logprob(x, mu, sigma) -> Tensor:
    """Normal log-density -log(2*pi)/2 - log(sigma) - (x-mu)^2 / (2*sigma^2),
    evaluated on the raw (pre-sigmoid) sample."""
    x = x if isinstance(x, Tensor) else constant(np.asarray(float(x)))
    mu = mu if isinstance(mu, Tensor) else constant(np.asarray(float(mu)))
    sigma = sigma if isinstance(sigma, Tensor) else constant(np.asarray(float(sigma)))
    if np.any(sigma.values <= 0.0):
        raise DomainError(f"normal_logprob: sigma must be positive, got {sigma.values}")
    quad = div(square(sub(x, mu)), scalar_mul(square(sigma), 2.0))
    return sub(sub(constant(np.asarray(-0.5 * LOG_2PI)), log(sigma)), quad)
