"""The GRU cell, the compound-action head, the rollout, the fusion, the
region GCN, the text decoder, the row normalization, the loss head and
the loss total written out in primitive tape ops, one record per step or
smaller: the reference the kernels (``attention.policy_rollout``,
``attention.fuse``, ``encoders.gcn``, ``losses.text_decoding_loss``,
``autodiff.l2_normalize``, ``losses.triplet_loss``,
``losses.instance_loss``, the PG surrogate of ``losses.discrete_pg_loss``
and ``losses.continuous_pg_loss``, and the total of
``losses.total_loss``) are checked against, bit for bit, in
``test_kernels.py``. These are the compositions the package ran before
the kernels replaced them, with the sampling helpers they were built
from; nothing in ``src/`` uses them. The ops only these compositions
record (``add``, ``sub``, ``mul``, ``div``, ``scalar_mul``, ``square``,
``sqrt``, ``sigmoid``, ``tanh``, ``relu``, ``log``, ``softmax``,
``log_softmax``, ``tsum``, ``reshape``, ``concat``, ``pick``, ``dot``,
``shift``) live here too, as custom records on the engine's tape, each
under the record name the engine gave it.
"""

from __future__ import annotations

import math

import numpy as np

import pgmatch.autodiff as ad
from pgmatch.attention import SIGMA_FLOOR
from pgmatch.distributions import categorical_sample, gumbel_from_uniform
from pgmatch.losses import COMPONENTS, LossBundle

LOG_2PI = math.log(2.0 * math.pi)


def sigmoid_nine_ops(x):
    """The logistic function as the package computed it before the
    seven-op form: the same branches, two more numpy ops."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _broadcast(name, op, a, b):
    """``op`` on the operands' values, which must broadcast."""
    try:
        return op(a.values, b.values)
    except ValueError:
        raise ad.ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not conform") from None


def add(a, b):
    """Elementwise sum with broadcasting."""
    out = _broadcast("add", np.add, a, b)
    sa, sb = a.shape, b.shape
    if sa == sb:
        return ad.record_op("add", (a, b), out, lambda g: (g, g))
    return ad.record_op("add", (a, b), out,
                        lambda g: (ad._reduce_to(g, sa), ad._reduce_to(g, sb)))


def sub(a, b):
    """Elementwise difference with broadcasting."""
    out = _broadcast("sub", np.subtract, a, b)
    sa, sb = a.shape, b.shape
    return ad.record_op("sub", (a, b), out,
                        lambda g: (ad._reduce_to(g, sa), ad._reduce_to(-g, sb)))


def scalar_mul(a, c):
    c = float(c)
    return ad.record_op("scalar_mul", (a,), c * a.values, lambda g: (c * g,))


def dot(a, b):
    """The dot product of two vectors, a 0-d ``matmul`` record."""
    av, bv = a.values, b.values
    if av.ndim != 1 or bv.shape != av.shape:
        raise ad.ShapeError(f"dot: shapes {a.shape} and {b.shape} are not two equal vectors")
    return ad.record_op("matmul", (a, b), np.matmul(av, bv), lambda g: (g * bv, g * av))


def reshape(a, shape):
    shape_in = a.shape
    return ad.record_op("reshape", (a,), a.values.reshape(shape),
                        lambda g: (g.reshape(shape_in),))


def tsum(a, axis=None, keepdims=False):
    """Sum of all entries, or along one axis."""
    shape = a.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return ad.record_op("sum", (a,), np.asarray(a.values.sum(axis=axis, keepdims=keepdims)), bw)


def concat(tensors, axis=-1):
    """Join tensors of equal rank along ``axis``; all other extents match."""
    tensors = list(tensors)
    try:
        out = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError:
        shapes = ", ".join(str(t.shape) for t in tensors)
        raise ad.ShapeError(f"concat: shapes {shapes} do not conform on axis {axis}") from None
    bounds = np.cumsum([t.values.shape[axis] for t in tensors])[:-1]
    return ad.record_op("concat", tuple(tensors), out,
                        lambda g: tuple(np.split(g, bounds, axis=axis)))


def log_softmax(a, axis=-1):
    if a.values.ndim == 0:
        raise ad.ShapeError("log_softmax: scalar input has no axis")
    z = a.values - a.values.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse
    s = np.exp(out)
    return ad.record_op("log_softmax", (a,), out,
                        lambda g: (g - s * g.sum(axis=axis, keepdims=True),))


def pick(a, index):
    """One entry per row along the last axis, ``np.take_along_axis``
    style: ``index`` has ``a``'s rank and a last extent of 1, so a (B, C)
    input and a (B, 1) index give the (B, 1) picked column."""
    v = a.values
    idx = np.asarray(index, dtype=np.intp)
    if v.ndim == 0 or idx.shape != v.shape[:-1] + (1,):
        raise ad.ShapeError(f"pick: index shape {idx.shape} does not fit shape {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= v.shape[-1]):
        raise IndexError(f"pick: index out of range [0, {v.shape[-1]})")

    def bw(g):
        acc = np.zeros_like(v)
        np.put_along_axis(acc, idx, g, axis=-1)
        return (acc,)

    return ad.record_op("pick", (a,), np.take_along_axis(v, idx, axis=-1), bw)


def mul(a, b):
    """Elementwise product with broadcasting."""
    out = _broadcast("mul", np.multiply, a, b)
    av, bv = a.values, b.values

    def bw(g):
        return ad._reduce_to(g * bv, av.shape), ad._reduce_to(g * av, bv.shape)

    return ad.record_op("mul", (a, b), out, bw)


def div(a, b):
    """Elementwise quotient with broadcasting; the denominator is never zero."""
    av, bv = a.values, b.values
    if np.any(bv == 0.0):
        raise ad.DomainError("div: zero denominator")
    out = _broadcast("div", np.divide, a, b)

    def bw(g):
        return ad._reduce_to(g / bv, av.shape), ad._reduce_to(-g * av / (bv * bv), bv.shape)

    return ad.record_op("div", (a, b), out, bw)


def square(a):
    v = a.values
    return ad.record_op("square", (a,), v * v, lambda g: (2.0 * v * g,))


def sqrt(a):
    if np.any(a.values <= 0.0):
        raise ad.DomainError("sqrt: non-positive input")
    r = np.sqrt(a.values)
    return ad.record_op("sqrt", (a,), r, lambda g: (g / (2.0 * r),))


def l2_normalize(v, eps=1e-12):
    """``autodiff.l2_normalize`` in 5 primitive records."""
    norm = sqrt(add(tsum(square(v), axis=-1, keepdims=True), ad.constant(eps)))
    return div(v, norm)


def sigmoid(a):
    s = ad._sigmoid(a.values)
    return ad.record_op("sigmoid", (a,), s, lambda g: (g * s * (1.0 - s),))


def tanh(a):
    t = np.tanh(a.values)
    return ad.record_op("tanh", (a,), t, lambda g: (g * (1.0 - t * t),))


def relu(a):
    mask = a.values > 0
    return ad.record_op("relu", (a,), np.where(mask, a.values, 0.0), lambda g: (g * mask,))


def softmax(a, axis=-1):
    if a.values.ndim == 0:
        raise ad.ShapeError("softmax: scalar input has no axis")
    if not -a.values.ndim <= axis < a.values.ndim:
        raise ad.ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    s = ad._softmax(a.values, axis)
    return ad.record_op("softmax", (a,), s, lambda g: (ad._softmax_grad(g, s, axis),))


def log(a):
    if np.any(a.values <= 0.0):
        raise ad.DomainError("log: non-positive input")
    v = a.values
    return ad.record_op("log", (a,), np.log(v), lambda g: (g / v,))


def shift(a, k):
    """Delay a (B, T, ...) sequence by ``k`` >= 1 steps: step t reads step
    t - k, and the first k steps read zeros."""
    v = a.values
    if v.ndim < 2 or k < 1:
        raise ad.ShapeError(f"shift: needs a (B, T, ...) tensor and k >= 1, got {a.shape}, k={k}")
    out = np.zeros_like(v)
    out[:, k:] = v[:, :v.shape[1] - k]

    def bw(g):
        acc = np.zeros_like(g)
        acc[:, :g.shape[1] - k] = g[:, k:]
        return (acc,)

    return ad.record_op("shift", (a,), out, bw)


def softplus(a):
    v = a.values
    out = np.where(v > 30.0, v, np.log1p(np.exp(np.minimum(v, 30.0))))
    s = ad._sigmoid(v)
    return ad.record_op("softplus", (a,), out, lambda g: (g * s,))


def gumbel_softmax(logits, temperature, rng, noise=None):
    """Relaxed categorical sample, row-wise; ``noise`` replaces the Gumbel draw."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if noise is None:
        noise = gumbel_from_uniform(rng.random(logits.shape))
    perturbed = add(logits, ad.constant(noise))
    return softmax(scalar_mul(perturbed, 1.0 / temperature), axis=-1)


def discrete_logprob(probs, index):
    """log(probs[..., index]) as a (..., 1) column."""
    idx = np.asarray(index, dtype=np.intp)[..., None]
    if np.any(np.take_along_axis(probs.values, idx, axis=-1) <= 0.0):
        raise ad.DomainError(f"discrete_logprob: zero probability at index {index}")
    return log(pick(probs, idx))


def action_to_mu(index, n):
    """Logistic squash of the label fraction: 1 / (1 + exp(-index / n))."""
    index = int(index)
    if not 0 <= index <= n:
        raise ValueError(f"action label {index} outside [0, {n}]")
    return 1.0 / (1.0 + math.exp(-index / n))


def straight_through(hard_index, soft_probs, n):
    """Forward value hard_index / n; the gradient of the relaxed mean."""
    labels = np.arange(soft_probs.shape[-1], dtype=np.float64) / n
    out = np.asarray(hard_index, dtype=np.float64)[..., None] / n
    return ad.record_op("straight_through", (soft_probs,), out, lambda g: (g * labels,))


def soft_action_value(soft_probs, n):
    """sum_i (i / n) * probs[i] per row, as a (..., 1) column."""
    labels = np.arange(soft_probs.shape[-1], dtype=np.float64) / n
    return tsum(mul(soft_probs, ad.constant(labels)), axis=-1, keepdims=True)


def normal_sample_reparam(mu, sigma, rng, eps=None):
    """mu + sigma * eps with eps a standard-normal constant."""
    if np.any(sigma.values <= 0.0):
        raise ad.DomainError(f"normal_sample_reparam: sigma must be positive, got {sigma.values}")
    if eps is None:
        eps = rng.standard_normal() if sigma.values.ndim == 0 else rng.standard_normal(sigma.shape)
    return add(mu, mul(sigma, ad.constant(eps)))


def normal_logprob(x, mu, sigma):
    """-log(2 pi)/2 - log(sigma) - (x - mu)^2 / (2 sigma^2)."""
    x = x if isinstance(x, ad.Tensor) else ad.constant(np.asarray(float(x)))
    mu = mu if isinstance(mu, ad.Tensor) else ad.constant(np.asarray(float(mu)))
    sigma = sigma if isinstance(sigma, ad.Tensor) else ad.constant(np.asarray(float(sigma)))
    if np.any(sigma.values <= 0.0):
        raise ad.DomainError(f"normal_logprob: sigma must be positive, got {sigma.values}")
    quad = div(square(sub(x, mu)), scalar_mul(square(sigma), 2.0))
    return sub(sub(ad.constant(np.asarray(-0.5 * LOG_2PI)), log(sigma)), quad)


def timestep(a, t):
    """Step ``t`` of a (B, T, ...) sequence, as a (B, ...) tensor."""
    shape = a.shape

    def bw(g):
        acc = np.zeros(shape)
        acc[:, t] = g
        return (acc,)

    return ad.record_op("timestep", (a,), a.values[:, t], bw)


_ONE = ad.constant(np.asarray(1.0))
_ZERO = ad.constant(np.asarray(0.0))


def gru_step(x, h, params):
    """h' = (1 - z) * h + z * candidate, in 20 primitive records."""
    p = params
    z = sigmoid(add(add(ad.matmul(x, p.w_xz), ad.matmul(h, p.w_hz)), p.b_z))
    r = sigmoid(add(add(ad.matmul(x, p.w_xr), ad.matmul(h, p.w_hr)), p.b_r))
    cand = tanh(add(add(ad.matmul(x, p.w_xc), ad.matmul(mul(r, h), p.w_hc)), p.b_c))
    return add(mul(sub(_ONE, z), h), mul(z, cand))


def sample_head(h, w_mu, w_std, space, noise, t, k, mode, action_mode):
    """One head's (att, discrete log-prob, continuous log-prob), each a
    (B, 1) column or the constant 0 for a stage the rollout does not
    sample. Deterministic mode samples nothing: it takes the argmax of the
    softmax and never reads the sigma head."""
    logits = ad.matmul(h, w_mu)
    stochastic = mode == "stochastic"
    if action_mode == "continuous":
        mu = sigmoid(soft_action_value(softmax(logits, axis=-1), space.n))
        dlp = _ZERO
    else:
        if stochastic:
            soft = gumbel_softmax(logits, space.temperature, None, noise=noise.gumbel[:, t, k])
            hard = categorical_sample(soft.values, uniforms=noise.uniform[:, t, k])
        else:
            soft = softmax(logits, axis=-1)
            hard = np.argmax(soft.values, axis=-1)
        dlp = discrete_logprob(soft, hard) if stochastic else _ZERO
        mu = sigmoid(straight_through(hard, soft, space.n))

    if action_mode == "discrete":
        return mu, dlp, _ZERO
    if not stochastic:
        return sigmoid(mu), dlp, _ZERO
    sigma = add(softplus(ad.matmul(h, w_std)), ad.constant(np.asarray(SIGMA_FLOOR)))
    raw = normal_sample_reparam(mu, sigma, None, eps=noise.normal[:, t, k, None])
    return sigmoid(raw), dlp, normal_logprob(raw, mu, sigma)


def steps(features):
    """A (B, T, d) sequence as T (B, d) step tensors."""
    return [timestep(features, t) for t in range(features.shape[1])]


def policy_rollout(steps, params, space, noise=None, mode="stochastic",
                   action_mode="compound"):
    """``attention.policy_rollout`` over the primitive GRU and head, on a
    list of (B, d) step tensors: the per-step attention columns (B, 1) and
    the (B,) log-prob sums."""
    batch = steps[0].shape[0]
    h = ad.constant(np.zeros((batch, params.gru.hidden_size)))
    dsum = csum = ad.constant(np.zeros((batch, 1)))
    atts = []
    for t, f in enumerate(steps):
        h = gru_step(f, h, params.gru)
        head_atts = []
        for k, (w_mu, w_std) in enumerate(zip(params.w_mu, params.w_std)):
            att, dlp, clp = sample_head(h, w_mu, w_std, space, noise, t, k, mode, action_mode)
            head_atts.append(att)
            dsum = add(dsum, dlp)
            csum = add(csum, clp)
        combined = head_atts[0]
        if len(head_atts) == 2:
            combined = scalar_mul(add(head_atts[0], head_atts[1]), 0.5)
        atts.append(combined)
    return atts, reshape(dsum, (batch,)), reshape(csum, (batch,))


def fuse(steps, atts, lam, gru):
    """``attention.fuse`` on (B, d) step tensors and per-step attention
    columns (or (1, 1) constants)."""
    adjusted = [mul(f, scalar_mul(att, lam)) for f, att in zip(steps, atts)]
    h = ad.constant(np.zeros(adjusted[0].shape[:-1] + (gru.hidden_size,)))
    for a in adjusted:
        h = gru_step(a, h, gru)
    acc = adjusted[0]
    for a in adjusted[1:]:
        acc = add(acc, a)
    return add(h, scalar_mul(acc, 1.0 / len(adjusted)))


def region_affinity(features, w_embed_a, w_embed_b):
    """Pairwise affinities between embedded region features, per instance
    of a (B, T, d) batch (or of one (T, d) set): (F @ Wa) (F @ Wb)^T. Pass
    the same weight twice for the tied variant."""
    return ad.matmul(ad.matmul(features, w_embed_a), ad.transpose(ad.matmul(features, w_embed_b)))


def gcn_reason(features, relation, w_graph):
    """One residual graph-convolution layer over each instance's
    fully-connected region graph: F + ReLU(row_softmax(relation) @ F @ W)."""
    regions = features.shape[-2]
    if relation.shape != features.shape[:-1] + (regions,):
        raise ad.ShapeError(
            f"gcn_reason: relation {relation.shape} does not match {regions} regions")
    propagated = ad.matmul(ad.matmul(softmax(relation, axis=-1), features), w_graph)
    return add(features, relu(propagated))


def gcn(regions, w_aff_a, w_aff_b, w_gcn):
    """``encoders.gcn`` in 4 primitive records plus 5 per layer."""
    features = ad.constant(regions)
    relation = region_affinity(features, w_aff_a, w_aff_b)
    out = features
    for w in w_gcn:
        out = gcn_reason(out, relation, w)
    return out


def _causal_conv(x, w, b):
    """Kernel-3 causal convolution over a (B, N, C) sequence: each step sees
    itself and the two before it (zeros before the start)."""
    window = concat([shift(x, 2), shift(x, 1), x], axis=-1)
    return relu(add(ad.matmul(window, w), b))


def text_decoding_loss(embeddings, targets, decoder):
    """``losses.text_decoding_loss`` in 24 primitive records."""
    ids = np.asarray(targets, dtype=np.int64)
    batch, channels = ids.shape[0], decoder.channels
    table = concat([decoder.tok_table, reshape(decoder.start, (1, channels))], axis=0)
    inputs = np.concatenate([np.full((batch, 1), decoder.vocab_size), ids[:, :-1]], axis=1)
    cond = reshape(ad.matmul(embeddings, decoder.cond), (batch, 1, channels))
    x = add(ad.gather_rows(table, inputs), cond)

    hidden = _causal_conv(x, decoder.conv1_w, decoder.conv1_b)
    hidden = _causal_conv(hidden, decoder.conv2_w, decoder.conv2_b)

    lsm = log_softmax(add(ad.matmul(hidden, decoder.out_w), decoder.out_b), axis=-1)
    return scalar_mul(tsum(pick(lsm, ids[..., None])), -1.0 / ids.size)


def triplet_loss(sim, margin=0.2):
    """``losses.triplet_loss`` in 13 primitive records."""
    k_total = sim.shape[0]
    masked = sim.values.copy()
    np.fill_diagonal(masked, -np.inf)
    hardest_col_per_row = masked.argmax(axis=1)[:, None]
    hardest_row_per_col = masked.argmax(axis=0)[:, None]

    slack = sub(ad.constant(np.asarray(float(margin))), pick(sim, np.arange(k_total)[:, None]))
    neg_txt = pick(sim, hardest_col_per_row)
    neg_img = pick(ad.transpose(sim), hardest_row_per_col)
    loss = add(tsum(relu(add(slack, neg_txt))), tsum(relu(add(slack, neg_img))))
    return scalar_mul(loss, 1.0 / k_total)


def instance_loss(img, txt, labels, classifier):
    """``losses.instance_loss`` in 6 primitive records."""
    labels = np.asarray(list(labels) * 2, dtype=np.intp)
    lsm = log_softmax(ad.matmul(concat([img, txt], axis=0), classifier), axis=-1)
    return scalar_mul(tsum(pick(lsm, labels[:, None])), -1.0 / labels.size)


def logprob_sum(trace, column):
    """Column ``column`` of the packed rollout output as a (B,) tensor: a
    pick and a reshape record."""
    batch = trace.weights.shape[0]
    return reshape(pick(trace.weights, np.full((batch, 1), column)), (batch,))


def pg_surrogate(logprob_sums, advantages, batch_mean=True):
    """Minus the dot product of the advantages (over the batch size with
    ``batch_mean``) with the log-prob sums."""
    advantages = np.asarray(advantages, dtype=np.float64)
    scale = 1.0 / advantages.size if batch_mean else 1.0
    return dot(ad.constant(-advantages * scale), logprob_sums)


def discrete_pg_loss(trace, advantages, batch_mean=True):
    """``losses.discrete_pg_loss`` in 3 primitive records."""
    return pg_surrogate(logprob_sum(trace, trace.length), advantages, batch_mean)


def continuous_pg_loss(trace, advantages, batch_mean=True):
    """``losses.continuous_pg_loss`` in 3 primitive records."""
    return pg_surrogate(logprob_sum(trace, trace.length + 1), advantages, batch_mean)


def total_loss(**parts):
    """``losses.total_loss`` with its total as a chain of ``add`` records
    from a zero constant, in ``COMPONENTS`` order."""
    parts = {name: ad.constant(np.asarray(0.0)) if parts.get(name) is None else parts[name]
             for name in COMPONENTS}
    total = ad.constant(np.asarray(0.0))
    for term in parts.values():
        total = add(total, term)
    return LossBundle(total=total, **parts)
