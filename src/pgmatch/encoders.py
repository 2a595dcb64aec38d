"""Modality encoders: relational reasoning over region features, word
embedding lookup, and the GRU cell shared by the policy and fusion stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    _matmul_grads,
    _matmul_values,
    _reduce_to,
    _sigmoid,
    add,
    gather_rows,
    matmul,
    parameter,
    record_op,
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
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator,
             scale: float = 0.1) -> "GruParams":
        def w(*shape):
            return parameter(shape, rng, scale)

        return cls(
            w_xz=w(input_size, hidden_size), w_hz=w(hidden_size, hidden_size),
            b_z=parameter(np.zeros(hidden_size)),
            w_xr=w(input_size, hidden_size), w_hr=w(hidden_size, hidden_size),
            b_r=parameter(np.zeros(hidden_size)),
            w_xc=w(input_size, hidden_size), w_hc=w(hidden_size, hidden_size),
            b_c=parameter(np.zeros(hidden_size)),
        )

    def tensors(self):
        return [self.w_xz, self.w_hz, self.b_z, self.w_xr, self.w_hr, self.b_r,
                self.w_xc, self.w_hc, self.b_c]


def gru_step(x: Tensor, h: Tensor, params: GruParams) -> Tensor:
    """One GRU update, row-wise on (B, p) inputs and (B, q) states (or one
    (p,) input and (q,) state), as a single tape record:

        z = sigmoid(x W_xz + h W_hz + b_z)
        r = sigmoid(x W_xr + h W_hr + b_r)
        c = tanh(x W_xc + (r * h) W_hc + b_c)
        h' = (1 - z) * h + z * c

    The forward pass evaluates the same numpy expressions, in the same
    order, as these formulas written out in primitive tape ops, and the
    backward pass adds up every adjoint in the order reverse-mode over
    those ops would. ``h`` is listed as an input four times and ``x``
    three times, one per use, so their gradient parts reach the engine
    in that order too, and the results match the primitive graph bit for
    bit."""
    if (x.shape[-1:] != (params.input_size,) or h.shape[-1:] != (params.hidden_size,)
            or x.shape[:-1] != h.shape[:-1]):
        raise ShapeError(
            f"gru_step: x {x.shape} / h {h.shape} do not match params "
            f"({params.input_size}, {params.hidden_size})")
    xv, hv = x.values, h.values
    w_xz, w_hz, b_z, w_xr, w_hr, b_r, w_xc, w_hc, b_c = (t.values for t in params.tensors())
    z = _sigmoid(_matmul_values(xv, w_xz) + _matmul_values(hv, w_hz) + b_z)
    r = _sigmoid(_matmul_values(xv, w_xr) + _matmul_values(hv, w_hr) + b_r)
    rh = r * hv
    cand = np.tanh(_matmul_values(xv, w_xc) + _matmul_values(rh, w_hc) + b_c)
    omz = 1.0 - z
    out = omz * hv + z * cand

    def bw(g):
        # g_a*: adjoints of the gate pre-activations
        g_z = g * cand - g * hv
        g_ac = (g * z) * (1.0 - cand * cand)
        g_rh, g_whc = _matmul_grads(g_ac, rh, w_hc)
        g_xc, g_wxc = _matmul_grads(g_ac, xv, w_xc)
        g_ar = g_rh * hv * r * (1.0 - r)
        g_hr, g_whr = _matmul_grads(g_ar, hv, w_hr)
        g_xr, g_wxr = _matmul_grads(g_ar, xv, w_xr)
        g_az = g_z * z * (1.0 - z)
        g_hz, g_whz = _matmul_grads(g_az, hv, w_hz)
        g_xz, g_wxz = _matmul_grads(g_az, xv, w_xz)
        return (g * omz, g_rh * r, g_hr, g_hz, g_xc, g_xr, g_xz,
                g_wxz, g_whz, _reduce_to(g_az, b_z.shape),
                g_wxr, g_whr, _reduce_to(g_ar, b_r.shape),
                g_wxc, g_whc, _reduce_to(g_ac, b_c.shape))

    return record_op("gru_step", (h, h, h, h, x, x, x) + tuple(params.tensors()), out, bw)


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


def load_embedding_table(path, vocab_size: int, dim: int,
                         base: np.ndarray | None = None) -> np.ndarray:
    """Read a pretrained embedding table: one row per token, first column
    the token id, then ``dim`` space-separated decimals. Rows present in
    the file override ``base`` (zeros when not given)."""
    table = np.zeros((vocab_size, dim)) if base is None else np.array(base, dtype=np.float64)
    if table.shape != (vocab_size, dim):
        raise ValueError(f"base table shape {table.shape} != ({vocab_size}, {dim})")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ValueError(f"{path}:{lineno}: expected id + {dim} values, got {len(parts)} fields")
            tok = int(parts[0])
            if not 0 <= tok < vocab_size:
                raise ValueError(f"{path}:{lineno}: token id {tok} outside [0, {vocab_size})")
            table[tok] = [float(v) for v in parts[1:]]
    return table
