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


def add_in_order(parts):
    """``parts[0] + parts[1] + ...``, one addition at a time in that order,
    which is how the engine sums the gradient parts of a chain of records.
    ``np.add.reduce`` over the leading axis adds in order while a part has
    several entries; single entries it sums pairwise, so those go through
    the sequential ``np.add.accumulate``."""
    if parts[0].size == 1:
        return np.add.accumulate(parts, axis=0)[-1]
    return np.add.reduce(parts, axis=0)


class GruSequence:
    """The GRU cell rolled over a time-major (T, B, p) input from a zero
    (B, q) state:

        z = sigmoid(x W_xz + h W_hz + b_z)
        r = sigmoid(x W_xr + h W_hr + b_r)
        c = tanh(x W_xc + (r * h) W_hc + b_c)
        h' = (1 - z) * h + z * c

    The input products ``x W_x*`` of the whole sequence are one stacked
    matmul each; only the state products run step by step. ``backward``
    runs the recurrence from the last step to the first, then stacks the
    input-gradient and weight-gradient products the same way, and sums
    each weight's per-step gradients from the last step to the first.

    A step allocates nothing: the workspaces are allocated once per
    sequence, and every product and elementwise op writes into them with
    ``out=``. The z and r gates share one (2, B, q) block, whose two
    contiguous (B, q) halves take the two state products (one GEMM per
    weight: a GEMM over the concatenated weights changes the last bit at
    some widths), so the bias add and the sigmoid run once over the block.
    With ``keep`` on, the gates, ``r * h`` and the candidate are written
    straight into the per-step storage ``backward`` reads; with it off,
    one slot of each is reused.

    A stacked matmul computes each (B, .) slice exactly as a 2-D product
    does, so every value is the same numpy expression on the same
    operands as one GRU step per tape record gave, and every adjoint is
    added in the order the engine added that step's parts (for the state:
    ``g (1 - z)``, ``g_rh r``, then the reset- and update-gate products).
    Results match a chain of per-step records bit for bit. With ``keep``
    off (no tape record will be kept) the forward pass saves nothing for
    the backward pass.

    The whole-sequence temporaries run to megabytes on large batches; the
    heap keeps their pages from call to call (``_heap.keep_freed_pages``)."""

    def __init__(self, params: GruParams, batch: int, length: int, keep: bool):
        self.weights = [t.values for t in params.tensors()]
        self.b_zr = np.stack((params.b_z.values, params.b_r.values))[:, None]
        q = params.hidden_size
        self.keep = keep
        # the sigmoid's denominator and (1 - z) h of one step
        self.work = np.empty((2, batch, q)), np.empty((batch, q))
        # per step when kept, else one slot; states[t] is the state before step t
        slots = length if keep else 1
        self.zr = np.empty((slots, 2, batch, q))
        self.rh, self.cand = np.empty((slots, batch, q)), np.empty((slots, batch, q))
        self.states = np.zeros((length + 1, batch, q))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the (T, B, p) input ``x``; returns the state after each
        step, (T, B, q)."""
        w_xz, w_hz, _, w_xr, w_hr, _, w_xc, w_hc, b_c = self.weights
        work, omz_h = self.work
        x_zr = np.empty((len(x), 2) + omz_h.shape)
        np.matmul(x, w_xz, out=x_zr[:, 0])
        np.matmul(x, w_xr, out=x_zr[:, 1])
        x_c = np.matmul(x, w_xc)
        if self.keep:
            self.x = x
        states = self.states
        for t in range(len(x)):
            s = t if self.keep else 0
            zr, rh, cand = self.zr[s], self.rh[s], self.cand[s]
            z, r = zr
            h = states[t]
            np.matmul(h, w_hz, out=z)
            np.matmul(h, w_hr, out=r)
            zr += x_zr[t]
            zr += self.b_zr
            _sigmoid(zr, out=zr, work=work)
            np.multiply(r, h, out=rh)
            np.matmul(rh, w_hc, out=cand)
            cand += x_c[t]
            cand += b_c
            np.tanh(cand, out=cand)
            np.subtract(1.0, z, out=omz_h)
            omz_h *= h
            h = np.multiply(z, cand, out=states[t + 1])
            h += omz_h
        return states[1:]

    def backward(self, parts=(), g_end=None) -> tuple:
        """Backward over the sequence ``forward`` ran. Each step's state
        adjoint is the part the next step's backward left (or, at the last
        step, ``g_end``), plus each entry of ``parts`` ((T, B, q) arrays,
        per step) in order. Returns the input gradients ``(g_xc, g_xr,
        g_xz)``, each (T, B, p), and sets the weight gradients ``grads``."""
        w_xz, w_hz, _, w_xr, w_hr, _, w_xc, w_hc, _ = self.weights
        x = self.x
        n = len(x)
        g_az, g_ar, g_ac = (np.empty(self.cand.shape) for _ in range(3))
        hp, cand = self.states[:-1], self.cand
        z, r = self.zr[:, 0], self.zr[:, 1]
        # the factors that do not depend on the adjoint, for every step
        omz, omr, dcand = 1.0 - z, 1.0 - r, 1.0 - cand * cand
        w_hz_t, w_hr_t, w_hc_t = w_hz.T, w_hr.T, w_hc.T
        g_next = g_end
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
            if i > 0:  # the zero initial state takes no gradient
                g_next = ((g * omz[i] + g_rh * r[i]) + g_hr) + g_az[i] @ w_hz_t
        # one weight's per-step products at a time, each summed last step first
        x_t, h_t = x.transpose(0, 2, 1), hp.transpose(0, 2, 1)
        rh_t = self.rh.transpose(0, 2, 1)
        parts = (g.sum(axis=1) if a is None else np.matmul(a, g)
                 for a, g in ((x_t, g_az), (h_t, g_az), (None, g_az), (x_t, g_ar), (h_t, g_ar),
                              (None, g_ar), (x_t, g_ac), (rh_t, g_ac), (None, g_ac)))
        self.grads = [add_in_order(part[::-1]) for part in parts]
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

