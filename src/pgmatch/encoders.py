"""Modality encoders: relational reasoning over region features, word
embedding lookup, and the GRU shared by the policy and fusion stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ParamSource,
    ShapeError,
    Tensor,
    _sigmoid,
    add,
    gather_rows,
    matmul,
    relu,
    softmax,
    transpose,
)


@dataclass
class GruParams:
    """Gate weights for one GRU cell (input size p, hidden size q)."""

    w_xz: Tensor
    w_hz: Tensor
    b_z: Tensor
    w_xr: Tensor
    w_hr: Tensor
    b_r: Tensor
    w_xc: Tensor
    w_hc: Tensor
    b_c: Tensor

    def __post_init__(self):
        p, q = self.w_xz.shape
        expect = {
            "w_xz": (p, q), "w_hz": (q, q), "b_z": (q,),
            "w_xr": (p, q), "w_hr": (q, q), "b_r": (q,),
            "w_xc": (p, q), "w_hc": (q, q), "b_c": (q,),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ShapeError(f"gru params: {name} has shape {got}, expected {shape}")

    @property
    def input_size(self) -> int:
        return self.w_xz.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.w_xz.shape[1]

    @classmethod
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator | ParamSource,
             scale: float = 0.1) -> "GruParams":
        src = ParamSource.of(rng)
        p, q = input_size, hidden_size
        return cls(
            w_xz=src.weight("w_xz", (p, q), scale), w_hz=src.weight("w_hz", (q, q), scale),
            b_z=src.bias("b_z", q),
            w_xr=src.weight("w_xr", (p, q), scale), w_hr=src.weight("w_hr", (q, q), scale),
            b_r=src.bias("b_r", q),
            w_xc=src.weight("w_xc", (p, q), scale), w_hc=src.weight("w_hc", (q, q), scale),
            b_c=src.bias("b_c", q),
        )

    def tensors(self):
        return [self.w_xz, self.w_hz, self.b_z, self.w_xr, self.w_hr, self.b_r,
                self.w_xc, self.w_hc, self.b_c]


BLOCK_ROWS = 128


def time_blocks(length: int, batch: int) -> list:
    """Consecutive [t0, t1) ranges of ``max(1, BLOCK_ROWS // batch)``
    timesteps covering ``length``. The sequence kernels run every product
    that does not feed a recurrence once per block, as one stacked
    ``np.matmul``: a block stacks at most 128 rows (or one step of a larger
    batch), so its temporaries stay small enough for the allocator to
    reuse instead of mapping fresh pages on every call."""
    size = max(1, BLOCK_ROWS // batch)
    return [(t0, min(t0 + size, length)) for t0 in range(0, length, size)]


def add_in_order(total, parts):
    """``total + parts[0] + parts[1] + ...``, one addition at a time in
    that order (``total`` None: start from ``parts[0]``), which is how the
    engine sums the gradient parts of a chain of records. ``np.add.reduce``
    over the leading axis adds in order while a part has several entries;
    single entries it sums pairwise, so those go through the sequential
    ``np.add.accumulate``."""
    if total is not None:
        parts = np.concatenate((total[None], parts))
    if parts[0].size == 1:
        return np.add.accumulate(parts, axis=0)[-1]
    return np.add.reduce(parts, axis=0)


class GruSequence:
    """The GRU cell rolled over a time-major (T, B, p) input from a zero
    (B, q) state, one block of timesteps (``time_blocks``) at a time:

        z = sigmoid(x W_xz + h W_hz + b_z)
        r = sigmoid(x W_xr + h W_hr + b_r)
        c = tanh(x W_xc + (r * h) W_hc + b_c)
        h' = (1 - z) * h + z * c

    The input products ``x W_x*`` of a block are one stacked matmul each;
    only the state products run step by step. ``backward_block`` walks the
    blocks from last to first: the recurrence runs step by step, then the
    block's input-gradient and weight-gradient products are stacked the
    same way, and each weight's per-step gradients are summed from the
    last step to the first.

    A step allocates nothing: the workspaces are allocated once per
    sequence, and every product and elementwise op writes into them with
    ``out=``. The z and r gates share one (2, B, q) block, whose two
    contiguous (B, q) halves take the two state products (one GEMM per
    weight: a GEMM over the concatenated weights changes the last bit at
    some widths), so the bias add and the sigmoid run once over the block.
    With ``keep`` on, the gates, ``r * h``, the candidate and the states
    are written straight into the per-step storage ``backward_block``
    reads; with it off, one slot of each is reused, and so is the block of
    states ``forward`` returns.

    A stacked matmul computes each (B, .) slice exactly as a 2-D product
    does, so every value is the same numpy expression on the same
    operands as one GRU step per tape record gave, and every adjoint is
    added in the order the engine added that step's parts (for the state:
    ``g (1 - z)``, ``g_rh r``, then the reset- and update-gate products).
    Results match a chain of per-step records bit for bit. With ``keep``
    off (no tape record will be kept) the forward pass saves nothing for
    the backward pass."""

    def __init__(self, params: GruParams, batch: int, length: int, keep: bool):
        self.weights = [t.values for t in params.tensors()]
        self.b_zr = np.stack((params.b_z.values, params.b_r.values))[:, None]
        q = params.hidden_size
        self.h = np.zeros((batch, q))
        self.keep, self.length = keep, length
        # a block's input products (z and r stacked), and the sigmoid's
        # denominator and (1 - z) h of one step; the backward pass needs none
        rows = time_blocks(length, batch)[0][1]
        self.scratch = (np.empty((rows, 2, batch, q)), np.empty((rows, batch, q)),
                        np.empty((2, batch, q)), np.empty((batch, q)))
        # per step when kept (states[t] is the state before step t), else one slot
        slots = length if keep else 1
        self.zr = np.empty((slots, 2, batch, q))
        self.rh, self.cand = np.empty((slots, batch, q)), np.empty((slots, batch, q))
        if keep:
            self.states = np.zeros((length + 1, batch, q))
            self.inputs = []
            self.grads = [None] * 9
            self.carry = None
        else:
            self.states = np.empty((rows, batch, q))

    def forward(self, x: np.ndarray, t0: int) -> np.ndarray:
        """Run the block ``x`` (n, B, p) of steps t0..t0+n-1; returns the
        states after each of its steps, (n, B, q). With ``keep`` off the
        next call overwrites them."""
        w_xz, w_hz, _, w_xr, w_hr, _, w_xc, w_hc, b_c = self.weights
        n = x.shape[0]
        x_zr, x_c, work, omz_h = self.scratch
        x_zr, x_c = x_zr[:n], x_c[:n]
        np.matmul(x, w_xz, out=x_zr[:, 0])
        np.matmul(x, w_xr, out=x_zr[:, 1])
        np.matmul(x, w_xc, out=x_c)
        if self.keep:
            self.inputs.append(x)
            out = self.states[t0 + 1:t0 + 1 + n]
        else:
            out = self.states[:n]
        h = self.h
        for i in range(n):
            s = t0 + i if self.keep else 0
            zr, rh, cand = self.zr[s], self.rh[s], self.cand[s]
            z, r = zr
            np.matmul(h, w_hz, out=z)
            np.matmul(h, w_hr, out=r)
            zr += x_zr[i]
            zr += self.b_zr
            _sigmoid(zr, out=zr, work=work)
            np.multiply(r, h, out=rh)
            np.matmul(rh, w_hc, out=cand)
            cand += x_c[i]
            cand += b_c
            np.tanh(cand, out=cand)
            np.subtract(1.0, z, out=omz_h)
            omz_h *= h
            # h is read for the last time above: with one slot of states
            # the new state overwrites it
            h = np.multiply(z, cand, out=out[i])
            h += omz_h
        self.h = h
        if t0 + n == self.length:
            self.scratch = None  # kept sequences live on until their backward pass
        return out

    def backward_block(self, parts=(), g_end=None) -> tuple:
        """Backward over the latest block not yet processed. Each step's
        state adjoint is the part the next step's backward left (or, at
        the last step, ``g_end``), plus each entry of ``parts`` ((n, B, q)
        arrays, per step) in order. Returns the block's input gradients
        ``(g_xc, g_xr, g_xz)``, each (n, B, p), and adds its weight
        gradients to ``grads``."""
        w_xz, w_hz, b_z, w_xr, w_hr, b_r, w_xc, w_hc, b_c = self.weights
        x = self.inputs.pop()
        n = x.shape[0]
        t0 = sum(len(b) for b in self.inputs)
        g_az, g_ar, g_ac = (np.empty((n,) + self.h.shape) for _ in range(3))
        steps = slice(t0, t0 + n)
        hp, cand = self.states[steps], self.cand[steps]
        z, r = self.zr[steps, 0], self.zr[steps, 1]
        # the factors that do not depend on the adjoint, for the whole block
        omz, omr, dcand = 1.0 - z, 1.0 - r, 1.0 - cand * cand
        w_hz_t, w_hr_t, w_hc_t = w_hz.T, w_hr.T, w_hc.T
        g_next = self.carry if self.carry is not None else g_end
        for i in range(n - 1, -1, -1):
            g = g_next
            for part in parts:
                g = part[i] if g is None else g + part[i]
            g_z = g * cand[i] - g * hp[i]
            g_ac[i] = (g * z[i]) * dcand[i]
            g_rh = g_ac[i] @ w_hc_t
            g_ar[i] = g_rh * hp[i] * r[i] * omr[i]
            g_hr = g_ar[i] @ w_hr_t
            g_az[i] = g_z * z[i] * omz[i]
            if t0 + i > 0:  # the zero initial state takes no gradient
                g_next = ((g * omz[i] + g_rh * r[i]) + g_hr) + g_az[i] @ w_hz_t
        self.carry = g_next
        # one weight's per-step products at a time, each summed last step first
        x_t, h_t = x.transpose(0, 2, 1), hp.transpose(0, 2, 1)
        rh_t = self.rh[steps].transpose(0, 2, 1)
        parts = (g.sum(axis=1) if a is None else np.matmul(a, g)
                 for a, g in ((x_t, g_az), (h_t, g_az), (None, g_az), (x_t, g_ar), (h_t, g_ar),
                              (None, g_ar), (x_t, g_ac), (rh_t, g_ac), (None, g_ac)))
        self.grads = [add_in_order(total, part[::-1]) for total, part in zip(self.grads, parts)]
        return np.matmul(g_ac, w_xc.T), np.matmul(g_ar, w_xr.T), np.matmul(g_az, w_xz.T)


def region_batch(regions) -> np.ndarray:
    """Finite (B, T, d) regions, T >= 1; a single (T, d) set is the batch B = 1."""
    arr = np.asarray(regions, dtype=np.float64)
    arr = arr[None] if arr.ndim == 2 else arr
    if arr.ndim != 3 or arr.shape[1] < 1 or not np.isfinite(arr).all():
        raise ValueError(f"regions must be a finite (T, d) or (B, T, d) array, got {arr.shape}")
    return arr


def region_affinity(features: Tensor, w_embed_a: Tensor, w_embed_b: Tensor) -> Tensor:
    """Pairwise affinities between embedded region features, per instance
    of a (B, T, d) batch (or of one (T, d) set): (F @ Wa) (F @ Wb)^T. Pass
    the same weight twice for the tied variant."""
    return matmul(matmul(features, w_embed_a), transpose(matmul(features, w_embed_b)))


def gcn_reason(features: Tensor, relation: Tensor, w_graph: Tensor) -> Tensor:
    """One residual graph-convolution layer over each instance's
    fully-connected region graph: F + ReLU(row_softmax(relation) @ F @ W)."""
    regions = features.shape[-2]
    if relation.shape != features.shape[:-1] + (regions,):
        raise ShapeError(
            f"gcn_reason: relation {relation.shape} does not match {regions} regions")
    propagated = matmul(matmul(softmax(relation, axis=-1), features), w_graph)
    return add(features, relu(propagated))


def embed_words(ids, table: Tensor) -> Tensor:
    """Look up word embeddings: (B, N) ids, N >= 1, give (B, N, e), and (N,)
    ids give (N, e). Gradients accumulate into exactly the rows used."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.shape[-1] < 1:
        raise ValueError(f"token ids must be a nonempty (N,) or (B, N) array, got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of vocabulary range [0, {table.shape[0]})")
    return gather_rows(table, ids)

