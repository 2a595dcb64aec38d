"""Policy-gradient attention: roll a GRU policy over region or token
features, sample one compound-distribution attention weight per timestep,
and fuse the adjusted features into a single embedding.

A rollout runs a whole batch at once, looping over timesteps only; each
instance's row is one episode. The rollout and the fusion are one tape
record each. The rollout's one output packs the per-step attention
weights with the per-instance episode log-probability sums that the PG
losses differentiate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DomainError,
    ParamSource,
    ShapeError,
    Tensor,
    _sigmoid,
    _softmax,
    _softmax_grad,
    active_tape,
    constant,
    record_op,
    will_record,
)
from .distributions import ActionSpace, categorical_sample, greedy_label, gumbel_from_uniform
from .encoders import GruParams, GruSequence, add_in_order

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

    @classmethod
    def init(cls, feature_dim: int, hidden: int, space: ActionSpace,
             rng: np.random.Generator | ParamSource, heads: int = 1,
             scale: float = 0.1) -> "PolicyParams":
        src = ParamSource.of(rng)
        return cls(
            gru=GruParams.init(feature_dim, hidden, src.scope("gru"), scale),
            w_mu=[src.weight(f"w_mu.{h}", (hidden, space.num_labels), scale)
                  for h in range(heads)],
            w_std=[src.weight(f"w_std.{h}", (hidden, 1), scale) for h in range(heads)],
            fusion_gru=GruParams.init(feature_dim, feature_dim, src.scope("fusion_gru"), scale),
        )

    def tensors(self):
        out = self.gru.tensors() + list(self.w_mu) + list(self.w_std)
        return out + self.fusion_gru.tensors()


@dataclass
class AttentionTrace:
    """Record of one batch of sampling episodes. ``weights`` holds each
    step's attention weight, combined over heads, in its first ``length``
    columns: the (B, T + 2) output of ``policy_rollout``, or a (1, T)
    constant with attention off. In the rollout's output, column
    ``length`` holds each instance's episode sum of discrete log-probs and
    column ``length + 1`` its sum of continuous log-densities, which the
    PG losses read; a column reads 0 for a stage the rollout does not
    sample and for both stages of a deterministic rollout."""

    weights: Tensor
    length: int

    @property
    def attention(self) -> np.ndarray:
        """The attention values, (B, T), or (1, T) with attention off."""
        return self.weights.values[:, :self.length]


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
    order, so the batched sampler reproduces it exactly. A mode with one
    stage draws consecutively, so its whole batch is one generator call.

    Every returned array owns its memory: a branch's noise is freed once
    its rollout has run, and none keeps the whole draw alive."""
    if action_mode not in ACTION_MODES:
        raise ValueError(f"unknown action mode {action_mode!r}")
    discrete = action_mode != "continuous"
    # a row's columns are its branches' (timestep, head) pairs in draw order
    cols = np.cumsum([0] + [n * heads for n in lengths])
    u = np.empty((batch, cols[-1], num_labels + 1)) if discrete else None
    z = None if discrete else rng.standard_normal((batch, cols[-1]))
    if action_mode == "compound":
        # each Gumbel vector and categorical uniform (consecutive draws from
        # the same double stream, written straight into place) is followed
        # by its Normal
        random, standard_normal = rng.random, rng.standard_normal
        drawn = []
        for row in u.reshape(-1, num_labels + 1):
            random(out=row)
            drawn.append(standard_normal())
        z = np.array(drawn).reshape(batch, cols[-1])
    elif discrete:
        rng.random(out=u)
    return [RolloutNoise(
        gumbel=(None if u is None else
                gumbel_from_uniform(u[:, lo:hi, :-1]).reshape(batch, n, heads, num_labels)),
        uniform=None if u is None else u[:, lo:hi, -1].reshape(batch, n, heads).copy(),
        normal=None if z is None else z[:, lo:hi].reshape(batch, n, heads).copy())
        for n, lo, hi in zip(lengths, cols[:-1], cols[1:])]


def _head(hs, w_mu, w_std, space, noise, k, mode, action_mode, keep):
    """Head ``k``'s compound action for every policy state ``hs`` (T, B,
    hidden), drawn with the first T timesteps of ``noise``: the attention
    weight, the discrete log-prob and the continuous log-prob, each (T, B,
    1) (a stage the rollout does not sample reads 0), and with ``keep`` the
    backward function.

    The action is drawn in two stages. The discrete stage takes the
    logits ``l = h W_mu``, perturbs them with the pre-drawn Gumbel noise
    and relaxes them to ``soft = softmax((l + g) / temperature)``; the
    category ``k`` is drawn from ``soft`` with the pre-drawn uniform, and
    the discrete log-prob is ``log soft[k]``. The Normal mean is
    ``mu = sigmoid(k / n)``, whose gradient goes straight through to the
    relaxed mean ``sum_i (i / n) soft[i]``. The continuous stage draws
    ``raw = mu + sigma * eps`` with ``sigma = softplus(h W_std) + SIGMA_FLOOR``
    and the pre-drawn eps, and the attention is ``sigmoid(raw)``. The
    ``discrete`` action mode stops at ``mu`` and uses it as the attention;
    the ``continuous`` one has no categorical draw and takes ``mu`` from
    the relaxed mean of ``softmax(l)``.

    Deterministic mode samples nothing, so it has no log-probs and never
    evaluates the sigma head: ``k`` is ``greedy_label(l)``, the argmax of
    ``softmax(l)``, and the attention is ``sigmoid(mu)``. ``soft =
    softmax(l)`` is computed only where it is read: by the
    straight-through backward of a kept rollout and by the ``continuous``
    action mode's relaxed mean.

    Every value is the numpy expression the stages written out in
    primitive tape ops evaluate, per (B, .) step slice, and the backward
    function adds up every adjoint in the order reverse mode over those
    ops would. It takes the adjoints of the three outputs and returns the
    state-gradient parts in the order the engine added them (the sigma
    projection's, then the logits'), and the per-step gradients of
    ``w_mu`` and ``w_std`` (``None`` for an unread ``w_std``).

    This reproduces ROADMAP item 1's defect in the continuous-stage score
    function on purpose: the log-prob is taken at ``raw`` itself, not at
    a detached copy, so ``(raw - mu)^2 / 2 sigma^2 = eps^2 / 2`` carries
    no gradient into ``mu``, and d log-prob / d sigma is ``-1 / sigma``
    whatever the sample. The backward line that the fix changes is
    marked below."""
    stochastic = mode == "stochastic"
    discrete = action_mode != "continuous"
    continuous = action_mode != "discrete"
    length = hs.shape[0]
    wmu = w_mu.values
    labels = np.arange(space.num_labels, dtype=np.float64) / space.n
    zeros = np.zeros(hs.shape[:-1] + (1,))

    logits = np.matmul(hs, wmu)
    if discrete and stochastic:
        inv_temp = float(1.0 / space.temperature)
        soft = _softmax(inv_temp * (logits + noise.gumbel[:, :length, k].transpose(1, 0, 2)))
        uniforms = noise.uniform[:, :length, k].T
        hard = categorical_sample(soft.reshape(-1, soft.shape[-1]),
                                  uniforms=uniforms.reshape(-1)).reshape(uniforms.shape)
        idx = hard[..., None]
        picked = np.take_along_axis(soft, idx, axis=-1)
        if np.any(picked <= 0.0):
            raise DomainError(f"policy_rollout: zero probability at index {hard.T}")
        dlp = np.log(picked)
    else:
        dlp = zeros
        soft = _softmax(logits) if keep or not discrete else None
        if discrete:
            hard = greedy_label(logits)
    if discrete:
        mu_in = np.asarray(hard, dtype=np.float64)[..., None] / space.n
    else:
        mu_in = (soft * labels).sum(axis=-1, keepdims=True)
    mu = _sigmoid(mu_in)

    if continuous and stochastic:
        wstd = w_std.values
        pre = np.matmul(hs, wstd)
        sigma = np.where(pre > 30.0, pre, np.log1p(np.exp(np.minimum(pre, 30.0)))) + SIGMA_FLOOR
        eps = noise.normal[:, :length, k].T[..., None]
        x = mu + sigma * eps
        att = _sigmoid(x)
        d = x - mu
        d2 = d * d
        two_var = 2.0 * (sigma * sigma)
        clp = (-0.5 * LOG_2PI - np.log(sigma)) - d2 / two_var
    else:
        att = _sigmoid(mu) if continuous else mu
        clp = zeros
    if not keep:
        return att, dlp, clp, None

    def backward(g_att, g_dlp, g_clp):
        hs_t = hs.transpose(0, 2, 1)
        if continuous and stochastic:
            g_quad = -g_clp
            g_sigma = -g_clp / sigma
            g_d = 2.0 * d * (g_quad / two_var)
            g_sigma = g_sigma + 2.0 * sigma * (2.0 * (-g_quad * d2 / (two_var * two_var)))
            g_x = g_d  # ROADMAP item 1: with a detached raw this term is dropped
            g_x = g_x + g_att * att * (1.0 - att)
            g_mu = -g_d + g_x
            g_sigma = g_sigma + g_x * eps
            g_pre = g_sigma * _sigmoid(pre)
            h_parts = [np.matmul(g_pre, wstd.T)]
            g_wstd = np.matmul(hs_t, g_pre)
        else:
            g_mu = g_att * att * (1.0 - att) if continuous else g_att
            h_parts, g_wstd = [], None
        g_soft = g_mu * mu * (1.0 - mu) * labels
        if discrete and stochastic:
            g_pick = np.zeros_like(soft)
            np.put_along_axis(g_pick, idx, g_dlp / picked, axis=-1)
            g_soft = g_soft + g_pick
        g_logits = _softmax_grad(g_soft, soft)
        if discrete and stochastic:
            g_logits = inv_temp * g_logits
        h_parts.append(np.matmul(g_logits, wmu.T))
        return h_parts, np.matmul(hs_t, g_logits), g_wstd

    return att, dlp, clp, backward


def _check_sequence(name, features, gru: GruParams, length=None):
    if features.values.ndim != 3 or features.shape[1] < 1:
        raise ShapeError(f"{name}: expected a nonempty (B, T, d) feature sequence, "
                         f"got shape {features.shape}")
    if features.shape[2] != gru.input_size:
        raise ShapeError(f"{name}: features of width {features.shape[2]} do not fit a GRU "
                         f"of input size {gru.input_size}")
    if length is not None and features.shape[1] != length:
        raise ValueError(f"{name}: {features.shape[1]} features vs trace length {length}")


def policy_rollout(features: Tensor, params: PolicyParams, space: ActionSpace,
                   noise: RolloutNoise | None = None, mode: str = "stochastic",
                   action_mode: str = "compound") -> AttentionTrace:
    """Run the attention policy over a batch of feature sequences.

    ``features`` is a (B, T, d) tensor; the GRU state is (B, hidden). In
    stochastic mode every step samples the compound distribution row-wise
    from ``noise`` (see ``draw_noise``); in deterministic mode the argmax
    category is taken and the attention is the squashed mean. A
    deterministic action has probability one, so that mode's packed sum
    columns read 0, as an unsampled stage's column does.

    The whole rollout is one tape record: the policy GRU over all T steps
    (``GruSequence``), every head's sample over all T states (``_head``),
    the attention averaged over the heads and the episode log-prob sums,
    packed into one (B, T + 2) output. The features are listed as an input
    three times, once per GRU gate product, so their gradient parts reach
    the engine in the order per-step records sent them. Within the
    backward pass each state's adjoint adds the next step's GRU parts
    first, then each head's parts, last head first, and the log-prob sums
    add the steps (each head in turn) in time order, as a chain of
    per-step records did: results match that chain bit for bit.
    """
    if mode not in ROLLOUT_MODES:
        raise ValueError(f"unknown rollout mode {mode!r}")
    if action_mode not in ACTION_MODES:
        raise ValueError(f"unknown action mode {action_mode!r}")
    stochastic = mode == "stochastic"
    if stochastic and noise is None:
        raise ValueError("stochastic rollout needs noise pre-drawn from the rollout rng")
    _check_sequence("policy_rollout", features, params.gru)
    batch, length = features.shape[:2]
    heads = list(zip(params.w_mu, params.w_std))
    inputs = ((features,) * 3 + tuple(params.gru.tensors()) + tuple(params.w_mu)
              + tuple(params.w_std))
    keep = will_record(inputs)
    xs = features.values.transpose(1, 0, 2)
    gru = GruSequence(params.gru, batch, length, keep)
    out = np.zeros((batch, length + 2))
    hs = gru.forward(xs)
    atts, dlps, clps, bws = zip(*(
        _head(hs, w_mu, w_std, space, noise, k, mode, action_mode, keep)
        for k, (w_mu, w_std) in enumerate(heads)))
    bws = list(bws)  # each head's backward is dropped once it has run
    combined = atts[0] if len(atts) == 1 else 0.5 * (atts[0] + atts[1])
    out[:, :length] = combined[..., 0].T
    if stochastic:
        # the sums add step by step, each head in turn; no log-prob is -0.0,
        # so starting from the first term gives the bits a zero start gives
        sums = [add_in_order(np.stack(lps, axis=1).reshape((-1, batch, 1))) for lps in (dlps, clps)]
        out[:, length:] = np.concatenate(sums, axis=-1)

    def backward(g):
        g_att, g_dlp, g_clp = g[:, :length], g[:, length:length + 1], g[:, length + 1:]
        g_head = g_att.T[..., None]
        if len(heads) == 2:
            g_head = 0.5 * g_head
        parts = []
        g_w_mu, g_w_std = [None] * len(heads), [None] * len(heads)
        for k in reversed(range(len(heads))):
            h_parts, g_wmu, g_wstd = bws[k](g_head, g_dlp, g_clp)
            bws[k] = None
            parts += h_parts
            g_w_mu[k] = add_in_order(g_wmu[::-1])
            if g_wstd is not None:
                g_w_std[k] = add_in_order(g_wstd[::-1])
            del g_wmu, g_wstd  # the per-step products, before the GRU's backward
        g_x = gru.backward(parts)
        return [g.transpose(1, 0, 2) for g in g_x] + gru.grads + g_w_mu + g_w_std

    return AttentionTrace(weights=record_op("policy_rollout", inputs, out, backward),
                          length=length)


def neutral_trace(length: int, lam: float) -> AttentionTrace:
    """Attention switched off: every weight is 1/lambda, so the scaled
    features equal the originals; there are no log-prob sums."""
    return AttentionTrace(weights=constant(np.full((1, length), 1.0 / lam)), length=length)


def fuse(features: Tensor, trace: AttentionTrace, lam: float, gru: GruParams) -> Tensor:
    """Scale each step of the (B, T, d) features by lambda times its
    attention weight, reason over the scaled sequence with the fusion GRU,
    and return the final hidden state plus the mean scaled feature, one
    row per instance. Callers normalize the result before any similarity
    computation.

    One tape record, sharing ``GruSequence`` with the rollout. The scaled
    features of all steps are one time-major array in C order, which
    ``add_in_order`` sums step by step in time order (in the features'
    batch-major layout, width 1 would make the time axis the contiguous
    one, which numpy sums pairwise, and would take the weight-gradient
    products off BLAS), and in the backward pass each scaled
    feature's adjoint is the mean's part plus the GRU's three input
    parts, in that order, as per-step records added them."""
    _check_sequence("fuse", features, gru, trace.length)
    if gru.hidden_size != features.shape[2]:
        raise ShapeError(f"fuse: a fusion GRU of hidden size {gru.hidden_size} does not fit "
                         f"features of width {features.shape[2]}")
    if lam <= 0:
        raise ValueError(f"fuse: lambda must be positive, got {lam}")
    batch, length = features.shape[:2]
    weights = trace.weights
    inputs = (features, weights) + tuple(gru.tensors())
    keep = will_record(inputs)
    weights_tracked = active_tape().is_tracked(weights)
    xs = features.values.transpose(1, 0, 2)
    scale = lam * trace.attention
    run = GruSequence(gru, batch, length, keep)
    s = scale.T[..., None]
    adjusted = np.multiply(xs, s, order="C")
    hs = run.forward(adjusted)
    c = float(1.0 / length)
    out = hs[-1] + c * add_in_order(adjusted)

    def backward(g):
        g_xc, g_xr, g_xz = run.backward(g_end=g)
        g_adj = ((c * g + g_xc) + g_xr) + g_xz
        g_att = None
        if weights_tracked:
            g_att = np.zeros(weights.shape)
            g_att[:, :length] = (lam * (g_adj * xs).sum(axis=-1)).T
        return [(g_adj * s).transpose(1, 0, 2), g_att] + run.grads

    return record_op("fuse", inputs, out, backward)
