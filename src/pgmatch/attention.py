"""Policy-gradient attention: roll a GRU policy over region or token
features, sample one compound-distribution attention weight per timestep,
and fuse the adjusted features into a single embedding.

A rollout runs a whole batch at once, looping over timesteps only; each
instance's row is one episode. The trace keeps the per-step attention
weights plus the per-instance episode log-probability sums that the PG
losses differentiate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DomainError,
    ShapeError,
    Tensor,
    _matmul_grads,
    _matmul_values,
    _sigmoid,
    _softmax,
    _softmax_grad,
    add,
    constant,
    mul,
    parameter,
    pick,
    record_op,
    reshape,
    scalar_mul,
)
from .distributions import ActionSpace, categorical_sample, gumbel_from_uniform
from .encoders import GruParams, gru_step

SIGMA_FLOOR = 1e-3
LOG_2PI = math.log(2.0 * math.pi)

ACTION_MODES = ("compound", "discrete", "continuous")
ROLLOUT_MODES = ("stochastic", "deterministic")


@dataclass
class PolicyParams:
    """Weights for one branch's attention policy: the shared policy GRU,
    per-head mean/std projection heads, and the fusion GRU."""

    gru: GruParams
    w_mu: list
    w_std: list
    fusion_gru: GruParams

    def __post_init__(self):
        if len(self.w_mu) not in (1, 2) or len(self.w_mu) != len(self.w_std):
            raise ValueError(f"head count must be 1 or 2, got {len(self.w_mu)}/{len(self.w_std)}")
        hidden = self.gru.hidden_size
        for w in self.w_mu:
            if w.values.ndim != 2 or w.shape[0] != hidden:
                raise ShapeError(f"w_mu shape {w.shape} does not match hidden size {hidden}")
        for w in self.w_std:
            if w.shape != (hidden, 1):
                raise ShapeError(f"w_std shape {w.shape} != ({hidden}, 1)")

    @property
    def head_count(self) -> int:
        return len(self.w_mu)

    @classmethod
    def init(cls, feature_dim: int, hidden: int, space: ActionSpace,
             rng: np.random.Generator, heads: int = 1, scale: float = 0.1) -> "PolicyParams":
        return cls(
            gru=GruParams.init(feature_dim, hidden, rng, scale),
            w_mu=[parameter((hidden, space.num_labels), rng, scale) for _ in range(heads)],
            w_std=[parameter((hidden, 1), rng, scale) for _ in range(heads)],
            fusion_gru=GruParams.init(feature_dim, feature_dim, rng, scale),
        )

    def tensors(self):
        out = self.gru.tensors() + list(self.w_mu) + list(self.w_std)
        return out + self.fusion_gru.tensors()


@dataclass
class AttentionTrace:
    """Record of one batch of sampling episodes: the per-step attention
    columns (B, 1), combined over heads, and the episode log-prob sums,
    one per instance (B,)."""

    atts: list
    discrete_logprob_sum: Tensor
    continuous_logprob_sum: Tensor

    @property
    def length(self) -> int:
        return len(self.atts)


@dataclass
class RolloutNoise:
    """Pre-drawn randomness for one branch's stochastic rollout, indexed
    (instance, timestep, head): Gumbel noise over the labels, the uniform
    behind each categorical draw, and the standard-normal eps. A stage
    the action mode does not sample stays ``None``."""

    gumbel: np.ndarray | None
    uniform: np.ndarray | None
    normal: np.ndarray | None


def draw_noise(rng: np.random.Generator, batch: int, lengths, heads: int,
               num_labels: int, action_mode: str) -> list:
    """Draw every rollout's noise up front, one ``RolloutNoise`` per entry
    of ``lengths`` (the branches' sequence lengths, image before text).

    The order of draws is fixed: instance by instance, branch by branch,
    then per timestep and per head: Gumbel ``random(num_labels)``, the
    categorical ``random()``, the Normal ``standard_normal()``, each only in
    the action modes that use it. Training trajectories depend on this
    order, so the batched sampler reproduces it exactly."""
    if action_mode not in ACTION_MODES:
        raise ValueError(f"unknown action mode {action_mode!r}")
    discrete = action_mode != "continuous"
    normal = action_mode != "discrete"
    uniforms = [np.empty((batch, n, heads, num_labels + 1)) if discrete else None
                for n in lengths]
    normals = [np.empty((batch, n, heads)) if normal else None for n in lengths]
    for b in range(batch):
        for u, z, n in zip(uniforms, normals, lengths):
            for t in range(n):
                for k in range(heads):
                    if discrete:
                        # the Gumbel vector and the categorical uniform are
                        # consecutive draws from the same double stream
                        u[b, t, k] = rng.random(num_labels + 1)
                    if normal:
                        z[b, t, k] = rng.standard_normal()
    return [RolloutNoise(gumbel=None if u is None else gumbel_from_uniform(u[..., :-1]),
                         uniform=None if u is None else u[..., -1],
                         normal=z)
            for u, z in zip(uniforms, normals)]


def _sample_head(h, w_mu, w_std, space, noise, t, k, mode, action_mode, st_soft_forward):
    """One head's compound action for every row of the (B, hidden) state,
    as a single tape record: a (B, 3) tensor whose columns are the
    attention weight, the discrete log-prob and the continuous log-prob
    (a stage the action mode does not sample reads 0).

    The action is drawn in two stages. The discrete stage takes the
    logits ``l = h W_mu``, perturbs them with the pre-drawn Gumbel noise
    and relaxes them to ``soft = softmax((l + g) / temperature)``; the
    category ``k`` is drawn from ``soft`` with the pre-drawn uniform
    (deterministic mode: ``soft = softmax(l)`` and ``k`` its argmax), and
    the discrete log-prob is ``log soft[k]``. The Normal mean is
    ``mu = sigmoid(k / n)``, whose gradient goes straight through to the
    relaxed mean ``sum_i (i / n) soft[i]`` (``st_soft_forward`` uses that
    relaxed mean in the forward pass as well, so the graph is
    finite-difference checkable). The continuous stage draws
    ``raw = mu + sigma * eps`` with ``sigma = softplus(h W_std) + SIGMA_FLOOR``
    and the pre-drawn eps, and the attention is ``sigmoid(raw)``
    (deterministic mode: ``sigmoid(mu)``, with the log-prob taken at
    ``raw = mu``). The ``discrete`` action mode stops at ``mu`` and uses
    it as the attention; the ``continuous`` one has no categorical draw
    and takes ``mu`` from the relaxed mean of ``softmax(l)``.

    The forward pass evaluates the same numpy expressions, in the same
    order, as the stages written out in primitive tape ops, and the
    backward pass adds up every adjoint in the order reverse-mode over
    those ops would, so results match the primitive graph bit for bit.
    ``h`` is listed once per use (the sigma projection first, then the
    logits) for the same reason.

    This reproduces ROADMAP item 1's defect in the continuous-stage score
    function on purpose: the log-prob is taken at ``raw`` itself, not at
    a detached copy, so ``(raw - mu)^2 / 2 sigma^2 = eps^2 / 2`` carries
    no gradient into ``mu``, and d log-prob / d sigma is ``-1 / sigma``
    whatever the sample. The backward line that the fix changes is
    marked below."""
    stochastic = mode == "stochastic"
    discrete = action_mode != "continuous"
    continuous = action_mode != "discrete"
    hv, wmu = h.values, w_mu.values
    batch = hv.shape[0]
    labels = np.arange(space.num_labels, dtype=np.float64) / space.n
    zeros = np.zeros((batch, 1))

    logits = _matmul_values(hv, wmu)
    if discrete and stochastic:
        inv_temp = float(1.0 / space.temperature)
        soft = _softmax(inv_temp * (logits + noise.gumbel[:, t, k]))
        hard = categorical_sample(soft, uniforms=noise.uniform[:, t, k])
    else:
        soft = _softmax(logits)
        hard = np.argmax(soft, axis=-1)
    if discrete:
        idx = hard[:, None]
        picked = np.take_along_axis(soft, idx, axis=-1)
        if np.any(picked <= 0.0):
            raise DomainError(f"_sample_head: zero probability at index {hard}")
        dlp = np.log(picked)
    else:
        dlp = zeros
    if discrete and not st_soft_forward:
        mu_in = np.asarray(hard, dtype=np.float64)[..., None] / space.n
    else:
        mu_in = (soft * labels).sum(axis=-1, keepdims=True)
    mu = _sigmoid(mu_in)

    if continuous:
        wstd = w_std.values
        pre = _matmul_values(hv, wstd)
        sigma = np.where(pre > 30.0, pre, np.log1p(np.exp(np.minimum(pre, 30.0)))) + SIGMA_FLOOR
        if stochastic:
            eps = noise.normal[:, t, k, None]
            x = mu + sigma * eps
        else:
            x = mu
        att = _sigmoid(x)
        d = x - mu
        d2 = d * d
        two_var = 2.0 * (sigma * sigma)
        clp = (-0.5 * LOG_2PI - np.log(sigma)) - d2 / two_var
    else:
        att, clp = mu, zeros
    out = np.concatenate([att, dlp, clp], axis=-1)

    def bw(g):
        g_att, g_dlp, g_clp = g[:, 0:1], g[:, 1:2], g[:, 2:3]
        if continuous:
            g_quad = -g_clp
            g_sigma = -g_clp / sigma
            g_d = 2.0 * d * (g_quad / two_var)
            g_sigma = g_sigma + 2.0 * sigma * (2.0 * (-g_quad * d2 / (two_var * two_var)))
            if stochastic:
                g_x = g_d  # ROADMAP item 1: with a detached raw this term is dropped
                g_x = g_x + g_att * att * (1.0 - att)
                g_mu = -g_d + g_x
                g_sigma = g_sigma + g_x * eps
            else:  # the log-prob is taken at mu itself: both parts cancel
                g_mu = g_d + -g_d + g_att * att * (1.0 - att)
            g_pre = g_sigma * _sigmoid(pre)
            g_h_std, g_wstd = _matmul_grads(g_pre, hv, wstd)
        else:
            g_mu = g_att
        g_soft = g_mu * mu * (1.0 - mu) * labels
        if discrete:
            g_pick = np.zeros_like(soft)
            np.put_along_axis(g_pick, idx, g_dlp / picked, axis=-1)
            g_soft = g_soft + g_pick
        g_logits = _softmax_grad(g_soft, soft)
        if discrete and stochastic:
            g_logits = inv_temp * g_logits
        g_h_mu, g_wmu = _matmul_grads(g_logits, hv, wmu)
        if continuous:
            return g_h_std, g_h_mu, g_wmu, g_wstd
        return g_h_mu, g_wmu

    inputs = (h, h, w_mu, w_std) if continuous else (h, w_mu)
    return record_op("sample_head", inputs, out, bw)


_ZERO = constant(np.asarray(0.0))


def policy_rollout(features, params: PolicyParams, space: ActionSpace,
                   noise: RolloutNoise | None = None, mode: str = "stochastic",
                   action_mode: str = "compound", st_soft_forward: bool = False) -> AttentionTrace:
    """Run the attention policy over a batch of feature sequences.

    ``features`` is a nonempty list of (B, d) tensors, one per timestep;
    the GRU state is (B, hidden). In stochastic mode every step samples
    the compound distribution row-wise from ``noise`` (see ``draw_noise``);
    in deterministic mode the argmax category is taken and the attention
    is the squashed mean (log-prob sums are still recorded).

    ``st_soft_forward`` replaces the hard straight-through forward value
    with the relaxed expectation so the whole graph is finite-difference
    checkable; never used in training.
    """
    features = list(features)
    if not features:
        raise ValueError("policy_rollout: empty feature sequence")
    if mode not in ROLLOUT_MODES:
        raise ValueError(f"unknown rollout mode {mode!r}")
    if action_mode not in ACTION_MODES:
        raise ValueError(f"unknown action mode {action_mode!r}")
    if mode == "stochastic" and noise is None:
        raise ValueError("stochastic rollout needs noise pre-drawn from the rollout rng")

    batch = features[0].shape[0]
    att_col, dlp_col, clp_col = (np.full((batch, 1), j) for j in range(3))
    h = constant(np.zeros((batch, params.gru.hidden_size)))
    dsum = csum = constant(np.zeros((batch, 1)))
    atts = []
    for t, f in enumerate(features):
        h = gru_step(f, h, params.gru)
        head_atts = []
        for k, (w_mu, w_std) in enumerate(zip(params.w_mu, params.w_std)):
            out = _sample_head(h, w_mu, w_std, space, noise, t, k, mode, action_mode,
                               st_soft_forward)
            head_atts.append(pick(out, att_col))
            if action_mode != "continuous":
                dsum = add(dsum, pick(out, dlp_col))
            if action_mode != "discrete":
                csum = add(csum, pick(out, clp_col))
        combined = head_atts[0]
        if len(head_atts) == 2:
            combined = scalar_mul(add(head_atts[0], head_atts[1]), 0.5)
        atts.append(combined)
    return AttentionTrace(atts=atts, discrete_logprob_sum=reshape(dsum, (batch,)),
                          continuous_logprob_sum=reshape(csum, (batch,)))


def neutral_trace(length: int, lam: float) -> AttentionTrace:
    """Attention switched off: every weight is 1/lambda so the scaled
    features equal the originals and the PG sums are zero constants."""
    att = constant(np.full((1, 1), 1.0 / lam))
    return AttentionTrace(atts=[att] * length, discrete_logprob_sum=_ZERO,
                          continuous_logprob_sum=_ZERO)


def fuse(features, trace: AttentionTrace, lam: float, gru: GruParams | None) -> Tensor:
    """Scale each (B, d) timestep by lambda times its attention column,
    reason over the scaled sequence with the fusion GRU, and return the
    final hidden state plus the mean scaled feature, one row per instance.
    Callers normalize the result before any similarity computation.

    ``gru=None`` is a pass-through configuration (final hidden := last
    scaled feature) used to probe linearity."""
    features = list(features)
    if len(features) != trace.length:
        raise ValueError(f"fuse: {len(features)} features vs trace length {trace.length}")
    if lam <= 0:
        raise ValueError(f"fuse: lambda must be positive, got {lam}")
    adjusted = [mul(f, scalar_mul(att, lam)) for f, att in zip(features, trace.atts)]
    if gru is None:
        h = adjusted[-1]
    else:
        h = constant(np.zeros(adjusted[0].shape[:-1] + (gru.hidden_size,)))
        for a in adjusted:
            h = gru_step(a, h, gru)
    acc = adjusted[0]
    for a in adjusted[1:]:
        acc = add(acc, a)
    return add(h, scalar_mul(acc, 1.0 / len(adjusted)))
