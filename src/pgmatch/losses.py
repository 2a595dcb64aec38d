"""Objective terms: REINFORCE losses for both action stages, the
hardest-negative triplet loss, instance classification, and a small
causal-convolution text-decoding loss with weights shared across
modalities. The training objective is their unweighted sum."""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass

import numpy as np

from .autodiff import (
    ParamSource,
    Tensor,
    _matmul_grads,
    _matmul_values,
    _reduce_to,
    _scatter_rows,
    constant,
    record_op,
)


COMPONENTS = ("triplet", "instance", "text_decode_image", "text_decode_text",
              "pg_discrete_image", "pg_continuous_image",
              "pg_discrete_text", "pg_continuous_text")


def _as_floats(bundle) -> dict:
    out = {name: getattr(bundle, name).item() for name in COMPONENTS}
    out["total"] = bundle.total.item()
    return out


LossBundle = make_dataclass(
    "LossBundle", [(name, Tensor) for name in COMPONENTS + ("total",)],
    namespace={"COMPONENTS": COMPONENTS, "as_floats": _as_floats,
               "__doc__": "Every objective component of one batch (one field per name in "
                          "``COMPONENTS``), plus their sum. PG terms are sign-indefinite; "
                          "everything else is non-negative."})


def _zero() -> Tensor:
    return constant(np.asarray(0.0))


def total_loss(**parts: Tensor) -> LossBundle:
    """Assemble the bundle from components named as in ``COMPONENTS``;
    missing components enter as zero constants so ablation switches zero
    out exactly the disabled terms. The total is one record: it adds
    them to 0.0 in ``COMPONENTS`` order, as a chain of additions did, and
    hands its adjoint to each of them."""
    unknown = sorted(set(parts) - set(COMPONENTS))
    if unknown:
        raise TypeError(f"total_loss: unknown loss terms {unknown}")
    parts = {name: _zero() if parts.get(name) is None else parts[name] for name in COMPONENTS}
    total = np.asarray(0.0)
    for term in parts.values():
        total = np.add(total, term.values)
    total = record_op("total", parts.values(), total, lambda g: (g,) * len(COMPONENTS))
    return LossBundle(total=total, **parts)


def _pg_surrogate(trace, column: int, advantages, batch_mean: bool) -> Tensor:
    """Minus the dot product of the advantages (over the batch size with
    ``batch_mean``) with column ``column`` of the packed rollout output,
    one record. Its adjoint is that column of a zero array."""
    advantages = np.asarray(advantages, dtype=np.float64)
    packed = trace.weights
    if advantages.ndim != 1 or packed.shape != (advantages.size, trace.length + 2):
        raise ValueError(f"{packed.shape} packed rollout output of {trace.length} steps vs "
                         f"{advantages.shape} advantages")
    scale = 1.0 / advantages.size if batch_mean else 1.0
    w = -advantages * scale

    def backward(g):
        g_packed = np.zeros(packed.shape)
        g_packed[:, column] = g * w
        return (g_packed,)

    # the copy keeps the dot on contiguous operands
    return record_op("pg_surrogate", (packed,), np.matmul(w, packed.values[:, column].copy()),
                     backward)


def discrete_pg_loss(trace, advantages, batch_mean: bool = True) -> Tensor:
    """REINFORCE surrogate for the categorical stage: minus the dot product
    of the advantages with the per-instance episode log-prob sums (column
    ``length`` of ``trace.weights``), averaged over the batch. Advantages
    are constants; gradients flow only through the log-probs."""
    return _pg_surrogate(trace, trace.length, advantages, batch_mean)


def continuous_pg_loss(trace, advantages, batch_mean: bool = True) -> Tensor:
    """REINFORCE surrogate for the Normal stage, on the episode sums of the
    raw-sample log-densities (column ``length + 1``)."""
    return _pg_surrogate(trace, trace.length + 1, advantages, batch_mean)


def triplet_loss(sim: Tensor, margin: float = 0.2) -> Tensor:
    """Hinge ranking loss with in-batch hardest negatives, averaged over
    instances. Negatives are selected on detached values (one masked
    argmax per direction); gradients reach only the diagonal and the
    selected entries.

    One record. It evaluates the numpy expressions of the primitive chain
    it replaced (``tests/unfused.py``): ``margin - diag`` plus each
    direction's negative, the ReLU, each hinge's sum, and ``1/K`` times
    their sum. Backward builds that chain's three (K, K) parts, the
    image-side negatives (a transposed pick), the text-side negatives and
    the diagonal's, and adds them in the order the engine did."""
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    k_total = sim.shape[0]
    if sim.values.ndim != 2 or sim.shape[0] != sim.shape[1] or k_total < 2:
        raise ValueError(f"triplet loss needs a square gallery of size >= 2, got {sim.shape}")
    s = sim.values
    masked = s.copy()
    np.fill_diagonal(masked, -np.inf)
    hardest_col_per_row = masked.argmax(axis=1)[:, None]
    hardest_row_per_col = masked.argmax(axis=0)[:, None]
    diag = np.arange(k_total)[:, None]

    slack = np.subtract(np.asarray(float(margin)), np.take_along_axis(s, diag, axis=-1))
    hinge_txt = np.add(slack, np.take_along_axis(s, hardest_col_per_row, axis=-1))
    hinge_img = np.add(slack, np.take_along_axis(s.T, hardest_row_per_col, axis=-1))
    mask_txt, mask_img = hinge_txt > 0, hinge_img > 0
    scale = float(1.0 / k_total)
    loss = scale * np.add(np.asarray(np.where(mask_txt, hinge_txt, 0.0).sum()),
                          np.asarray(np.where(mask_img, hinge_img, 0.0).sum()))

    def backward(g):
        g_sum = np.broadcast_to(scale * g, (k_total, 1))
        g_txt, g_img = g_sum * mask_txt, g_sum * mask_img
        p_img, p_txt, p_diag = np.zeros((3, k_total, k_total))
        np.put_along_axis(p_img.T, hardest_row_per_col, g_img, axis=-1)
        np.put_along_axis(p_txt, hardest_col_per_row, g_txt, axis=-1)
        np.put_along_axis(p_diag, diag, -(g_img + g_txt), axis=-1)
        return ((p_img + p_txt) + p_diag,)

    return record_op("triplet", (sim,), loss, backward)


def _nll(logits, picks, scale):
    """``scale`` times the sum of the log-softmax entries (along the last
    axis) that ``picks`` selects, and the function that turns its adjoint
    into the logits' adjoint: the numpy expressions of a log-softmax,
    pick, sum and scale chain of records, forward and backward."""
    z = logits - logits.max(axis=-1, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = scale * np.asarray(np.take_along_axis(lsm, picks, axis=-1).sum())

    def backward(g):
        g_logits = np.zeros_like(lsm)
        np.put_along_axis(g_logits, picks, scale * g, axis=-1)
        g_logits -= np.exp(lsm) * g_logits.sum(axis=-1, keepdims=True)
        return g_logits

    return loss, backward


def instance_loss(img: Tensor, txt: Tensor, labels, classifier: Tensor) -> Tensor:
    """Mean softmax cross-entropy of each embedding row of both branches
    against its instance label, through a classifier shared by both
    modalities: row b of the (B, embed_dim) ``img`` and of ``txt`` both
    have label ``labels[b]``.

    One record over the (2B, C) logits of the stacked rows. It evaluates
    the numpy expressions of the primitive chain it replaced
    (``tests/unfused.py``) and splits the rows' gradient back at B."""
    labels = np.asarray(labels, dtype=np.intp)
    if img.shape != txt.shape or img.shape[0] != labels.size:
        raise ValueError(f"{img.shape} image and {txt.shape} text embeddings vs "
                         f"{labels.size} labels")
    num_classes = classifier.shape[1]
    bad = labels[(labels < 0) | (labels >= num_classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} outside [0, {num_classes})")
    batch = labels.size
    emb, w = np.concatenate([img.values, txt.values]), classifier.values
    picks = np.concatenate([labels, labels])[:, None]
    loss, nll_backward = _nll(np.matmul(emb, w), picks, float(-1.0 / (2 * batch)))

    def backward(g):
        g_logits = nll_backward(g)
        g_img, g_txt = np.split(g_logits @ w.T, [batch])
        return g_img, g_txt, emb.T @ g_logits

    return record_op("instance", (img, txt, classifier), loss, backward)


@dataclass
class DecoderParams:
    """Shared text decoder: token embeddings, a start vector, an embedding
    conditioning map, two causal conv layers (kernel 3), and the vocabulary
    projection. One instance serves both the image and text branches."""

    tok_table: Tensor
    start: Tensor
    cond: Tensor
    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    out_w: Tensor
    out_b: Tensor

    @property
    def channels(self) -> int:
        return self.tok_table.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.tok_table.shape[0]

    @classmethod
    def init(cls, vocab_size: int, embed_dim: int, channels: int,
             rng: np.random.Generator | ParamSource, scale: float = 0.1) -> "DecoderParams":
        src = ParamSource.of(rng)

        def w(name, *shape):
            return src.weight(name, shape, scale)

        return cls(
            tok_table=w("tok_table", vocab_size, channels),
            start=w("start", channels),
            cond=w("cond", embed_dim, channels),
            conv1_w=w("conv1_w", 3 * channels, channels), conv1_b=src.bias("conv1_b", channels),
            conv2_w=w("conv2_w", 3 * channels, channels), conv2_b=src.bias("conv2_b", channels),
            out_w=w("out_w", channels, vocab_size), out_b=src.bias("out_b", vocab_size),
        )

    def tensors(self):
        return [self.tok_table, self.start, self.cond, self.conv1_w, self.conv1_b,
                self.conv2_w, self.conv2_b, self.out_w, self.out_b]


def _window(x):
    """The kernel-3 causal window of a (B, N, C) sequence, (B, N, 3C): each
    step sees the step two before, the step before (zeros before the
    start) and itself."""
    length, channels = x.shape[1:]
    window = np.zeros(x.shape[:2] + (3 * channels,))
    window[:, 2:, :channels] = x[:, :length - 2]
    window[:, 1:, channels:2 * channels] = x[:, :length - 1]
    window[..., 2 * channels:] = x
    return window


def _delayed_grad(g, k):
    """The adjoint of a sequence delayed by ``k`` steps, moved back onto
    the sequence: step t takes the part of step t + k, the last k zeros."""
    acc = np.zeros_like(g)
    acc[:, :g.shape[1] - k] = g[:, k:]
    return acc


def _window_grad(g, channels):
    """The adjoint of the sequence a window was built from: its own part,
    plus the delayed-by-1 part, plus the delayed-by-2 part. The delayed
    parts are added as whole zero-tailed arrays, as the primitive shift
    records returned them: adding 0.0 turns a -0.0 into +0.0."""
    own = g[..., 2 * channels:] + _delayed_grad(g[..., channels:2 * channels], 1)
    return own + _delayed_grad(g[..., :channels], 2)


def text_decoding_loss(embeddings: Tensor, targets, decoder: DecoderParams) -> Tensor:
    """Teacher-forced next-token cross-entropy, averaged over positions and
    then over the batch. Row b of the (B, embed_dim) embeddings conditions
    the decoding of row b of the (B, N) targets; each position sees the
    conditioning embedding plus two kernel-3 causal convolutions (ReLU)
    over the previous target tokens, and position i predicts target[i].
    Position 0 reads the start vector, stored as one extra table row.

    One tape record with a hand-written backward pass. Every value is the
    numpy expression the decoder written out in primitive tape ops
    evaluates (``tests/unfused.py``), and every adjoint is added in the
    order the engine added those ops' parts: a convolution's input takes
    its own window part, then the delayed-by-1 part, then the
    delayed-by-2 part; the broadcast biases and the conditioning are
    summed with the engine's ``_reduce_to``; the token lookup adds into
    the ``[tok_table; start]`` table with the engine's ``_scatter_rows``
    before the table is split. Results match the primitive graph bit for
    bit. The record keeps each convolution's (B, N, C) input, not its
    (B, N, 3C) window: backward builds the window again."""
    ids = np.asarray(targets, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] < 1:
        raise ValueError(f"text_decoding_loss: empty target (shape {ids.shape})")
    if ids.shape[0] != embeddings.shape[0]:
        raise ValueError(f"{embeddings.shape[0]} embeddings vs {ids.shape[0]} targets")
    if ids.min() < 0 or ids.max() >= decoder.vocab_size:
        raise ValueError(f"target token outside vocabulary [0, {decoder.vocab_size})")
    batch = ids.shape[0]
    vocab, channels = decoder.vocab_size, decoder.channels
    emb, w_cond = embeddings.values, decoder.cond.values
    convs = [(decoder.conv1_w.values, decoder.conv1_b.values),
             (decoder.conv2_w.values, decoder.conv2_b.values)]
    out_w = decoder.out_w.values

    table = np.concatenate([decoder.tok_table.values, decoder.start.values.reshape(1, channels)])
    inputs = np.concatenate([np.full((batch, 1), vocab), ids[:, :-1]], axis=1).astype(np.intp)
    cond = _matmul_values(emb, w_cond)
    hidden = np.add(table[inputs], cond.reshape(batch, 1, channels))
    conv_inputs, masks = [], []
    for w, b in convs:
        conv_inputs.append(hidden)
        pre = np.add(_matmul_values(_window(hidden), w), b)
        masks.append(pre > 0)
        hidden = np.where(masks[-1], pre, 0.0)
    logits = np.add(_matmul_values(hidden, out_w), decoder.out_b.values)
    loss, nll_backward = _nll(logits, ids.astype(np.intp)[..., None], float(-1.0 / ids.size))

    def backward(g):
        g_logits = nll_backward(g)
        g_out_b = _reduce_to(g_logits, decoder.out_b.shape)
        g_hidden, g_out_w = _matmul_grads(g_logits, hidden, out_w)
        del g_logits  # each adjoint goes once it is used, to keep the peak low
        conv_grads = []
        for (w, b), x, mask in zip(reversed(convs), reversed(conv_inputs), reversed(masks)):
            g_pre = g_hidden * mask
            del g_hidden
            g_window, g_w = _matmul_grads(g_pre, _window(x), w)
            conv_grads = [g_w, _reduce_to(g_pre, b.shape)] + conv_grads
            del g_pre
            g_hidden = _window_grad(g_window, channels)
            del g_window
        g_table = _scatter_rows(inputs, g_hidden, vocab + 1)
        g_cond = _reduce_to(g_hidden, (batch, 1, channels)).reshape(batch, channels)
        g_emb, g_w_cond = _matmul_grads(g_cond, emb, w_cond)
        return [g_emb, g_table[:vocab], g_table[vocab:].reshape(channels), g_w_cond,
                *conv_grads, g_out_w, g_out_b]

    return record_op("text_decode", [embeddings] + decoder.tensors(), loss, backward)
