"""Modality encoders: relational reasoning over region features, word
embedding lookup, and the GRU shared by the policy and fusion stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ParamSource,
    ShapeError,
    Tensor,
    _matmul_grads,
    _matmul_values,
    _sigmoid,
    _softmax,
    _softmax_grad,
    gather_rows,
    record_op,
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
    several entries and the parts are C-ordered; along a contiguous axis
    it sums pairwise, so single entries go through the sequential
    ``np.add.accumulate``."""
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

    A step allocates nothing, forward or backward: the workspaces are
    allocated once per sequence, the biases are broadcast to (B, q) once,
    and every product and elementwise op writes into a workspace with
    ``out=``. The z and r gates share one (2, B, q) block, and so do their
    adjoints, so a step's two state products (``h W_hz`` and ``h W_hr``
    forward, the gate adjoints times ``W_hz^T`` and ``W_hr^T`` backward)
    are one ``np.matmul`` over the stacked (2, q, q) weights: two GEMMs in
    one call, each the 2-D product bit for bit. They are stacked, not
    concatenated: one GEMM over ``[W_hz | W_hr]`` changes the last bit at
    some widths. With ``keep`` on, the gates and the candidate are written
    straight into the per-step storage ``backward`` reads; with it off,
    one slot of each is reused. ``r * h`` is a one-step workspace either
    way: ``backward`` rebuilds the whole sequence's product from the kept
    gates and states with the same multiply, so a kept sequence holds no
    (T, B, q) copy of it, and the workspaces are freed when ``forward``
    returns.

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
        q = params.hidden_size
        self.keep = keep
        # per step when kept, else one slot; states[t] is the state before step t
        slots = length if keep else 1
        self.zr, self.cand = np.empty((slots, 2, batch, q)), np.empty((slots, batch, q))
        self.states = np.empty((length + 1, batch, q))
        self.states[0] = 0.0

    def _w_hzr(self) -> np.ndarray:
        """``W_hz`` and ``W_hr`` stacked, (2, q, q): a step's two state
        products in one ``np.matmul``. Built per call: a kept copy would
        raise the traced peak of a train step."""
        w_hz, w_hr = self.weights[1], self.weights[4]
        return np.stack((w_hz, w_hr))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the (T, B, p) input ``x``; returns the state after each
        step, (T, B, q)."""
        w_xz, _, b_z, w_xr, _, b_r, w_xc, w_hc, b_c = self.weights
        states = self.states
        shape = states.shape[1:]
        w_hzr = self._w_hzr()
        # the biases as (B, q) rows: a same-shape add runs faster per step
        # than one that broadcasts a (q,) row
        b_zr, b_cs = np.empty((2,) + shape), np.empty(shape)
        b_zr[0], b_zr[1], b_cs[...] = b_z, b_r, b_c
        # the sigmoid's denominator, (1 - z) h and r h of one step
        work, omz_h, rh = np.empty((2,) + shape), np.empty(shape), np.empty(shape)
        x_zr = np.empty((len(x), 2) + shape)
        np.matmul(x, w_xz, out=x_zr[:, 0])
        np.matmul(x, w_xr, out=x_zr[:, 1])
        x_c = np.matmul(x, w_xc)
        if self.keep:
            self.x = x
            zrs, cands = self.zr, self.cand
        else:
            zrs, cands = [self.zr[0]] * len(x), [self.cand[0]] * len(x)
        for h, h_next, zr, cand, x_zr_t, x_c_t in zip(states[:-1], states[1:], zrs, cands,
                                                      x_zr, x_c):
            np.matmul(h, w_hzr, out=zr)
            zr += x_zr_t
            zr += b_zr
            _sigmoid(zr, out=zr, work=work)
            z, r = zr
            np.multiply(r, h, out=rh)
            np.matmul(rh, w_hc, out=cand)
            cand += x_c_t
            cand += b_cs
            np.tanh(cand, out=cand)
            np.subtract(1.0, z, out=omz_h)
            omz_h *= h
            np.multiply(z, cand, out=h_next)
            h_next += omz_h
        return states[1:]

    def backward(self, parts=(), g_end=None) -> tuple:
        """Backward over the sequence ``forward`` ran. Each step's state
        adjoint is the part the next step's backward left (or, at the last
        step, ``g_end``), plus each entry of ``parts`` ((T, B, q) arrays,
        per step) in order. Returns the input gradients ``(g_xc, g_xr,
        g_xz)``, each (T, B, p), and sets the weight gradients ``grads``."""
        w_xz, _, _, w_xr, _, _, w_xc, _, _ = self.weights
        g_zr, g_ac = self._gate_adjoints(parts, g_end)
        g_az, g_ar = g_zr[:, 0], g_zr[:, 1]
        hp, r = self.states[:-1], self.zr[:, 1]
        # one weight's per-step products at a time, each summed last step first
        x_t, h_t = self.x.transpose(0, 2, 1), hp.transpose(0, 2, 1)
        rh_t = np.multiply(r, hp).transpose(0, 2, 1)
        parts = (g.sum(axis=1) if a is None else np.matmul(a, g)
                 for a, g in ((x_t, g_az), (h_t, g_az), (None, g_az), (x_t, g_ar), (h_t, g_ar),
                              (None, g_ar), (x_t, g_ac), (rh_t, g_ac), (None, g_ac)))
        self.grads = [add_in_order(part[::-1]) for part in parts]
        return np.matmul(g_ac, w_xc.T), np.matmul(g_ar, w_xr.T), np.matmul(g_az, w_xz.T)

    def _gate_adjoints(self, parts, g_end) -> tuple:
        """The recurrence of ``backward``, last step first: the adjoints of
        the z|r gate pre-activations, (T, 2, B, q) like ``zr``, and of the
        candidate's, (T, B, q). Its whole-sequence factors and step views
        are freed when it returns, before the weight-gradient products."""
        w_hc_t, w_hzr_t = self.weights[7].T, self._w_hzr().transpose(0, 2, 1)
        zr, cand = self.zr, self.cand
        g_zr, g_ac = np.empty(zr.shape), np.empty(cand.shape)
        # the factors that do not depend on the adjoint, for every step
        omzr, dcand = 1.0 - zr, 1.0 - cand * cand
        shape = cand.shape[1:]
        g_sum, g_next, g_rh, work = (np.empty(shape) for _ in range(4))
        g_h = np.empty((2,) + shape)  # the state products of the z and r adjoints
        g = g_end
        steps = zip(range(len(cand) - 1, -1, -1), g_zr[::-1], g_ac[::-1], zr[::-1],
                    omzr[::-1], cand[::-1], dcand[::-1], self.states[-2::-1])
        for i, g_zr_t, g_ac_t, zr_t, omzr_t, cand_t, dcand_t, h in steps:
            for part in parts:
                g = part[i] if g is None else np.add(g, part[i], out=g_sum)
            z, r = zr_t
            # each half first takes the factor its gate's derivative scales:
            # g c - g h for z, (g_ac W_hc^T) h for r
            g_z, g_rh_h = g_zr_t
            np.multiply(g, cand_t, out=g_z)
            g_z -= np.multiply(g, h, out=work)
            np.multiply(g, z, out=g_ac_t)
            g_ac_t *= dcand_t
            np.matmul(g_ac_t, w_hc_t, out=g_rh)
            np.multiply(g_rh, h, out=g_rh_h)
            g_zr_t *= zr_t
            g_zr_t *= omzr_t
            if i:  # the zero initial state takes no gradient
                np.matmul(g_zr_t, w_hzr_t, out=g_h)
                g = np.multiply(g, omzr_t[0], out=g_next)
                g += np.multiply(g_rh, r, out=work)
                g += g_h[1]
                g += g_h[0]
        return g_zr, g_ac


def region_batch(regions) -> np.ndarray:
    """Finite (B, T, d) regions, T >= 1; a single (T, d) set is the batch B = 1."""
    arr = np.asarray(regions, dtype=np.float64)
    arr = arr[None] if arr.ndim == 2 else arr
    if arr.ndim != 3 or arr.shape[1] < 1 or not np.isfinite(arr).all():
        raise ValueError(f"regions must be a finite (T, d) or (B, T, d) array, got {arr.shape}")
    return arr


def gcn(regions: np.ndarray, w_aff_a: Tensor, w_aff_b: Tensor, w_gcn) -> Tensor:
    """Relational reasoning over each instance's fully-connected region
    graph, one tape record. The row-softmax ``S`` of the affinities
    ``(X Wa) (X Wb)^T`` of the constant (B, T, d) regions ``X`` (the tied
    variant passes one weight twice) weighs one residual graph
    convolution per weight ``W`` of ``w_gcn``: ``F + ReLU((S F) W)``, from
    ``F = X``.

    Forward and backward evaluate the numpy expressions of the primitive
    chain it replaced (``tests/unfused.py``) and add the adjoints in the
    order the engine added that chain's parts: the affinities take each
    layer's softmax part, the last layer's first; a layer's input takes
    ``S^T`` times its product's adjoint after the residual's; a tied
    weight takes ``Wb``'s part before ``Wa``'s. The regions take no
    gradient, so none is computed for them."""
    x = regions
    a, b = _matmul_values(x, w_aff_a.values), _matmul_values(x, w_aff_b.values)
    b_t = np.swapaxes(b, -1, -2)
    s = _softmax(np.matmul(a, b_t))
    layers, f = [], x  # each layer's input, S F and ReLU mask
    for w in w_gcn:
        sf = np.matmul(s, f)
        p = _matmul_values(sf, w.values)
        mask = p > 0
        layers.append((f, sf, mask, w.values))
        f = np.add(f, np.where(mask, p, 0.0))
    rows_t = x.reshape(-1, x.shape[-1]).T

    def backward(g):
        g_aff, g_ws = None, []
        for i in range(len(layers) - 1, -1, -1):
            f_in, sf, mask, w = layers[i]
            g_sf, g_w = _matmul_grads(g * mask, sf, w)
            g_ws.insert(0, g_w)
            part = _softmax_grad(g_sf @ np.swapaxes(f_in, -1, -2), s)
            g_aff = part if g_aff is None else g_aff + part
            if i:  # the first layer's input is the regions
                g = g + np.swapaxes(s, -1, -2) @ g_sf
        g_a, g_b_t = _matmul_grads(g_aff, a, b_t)
        g_b = np.swapaxes(g_b_t, -1, -2)
        return [rows_t @ g.reshape(-1, g.shape[-1]) for g in (g_b, g_a)] + g_ws

    return record_op("gcn", (w_aff_b, w_aff_a, *w_gcn), f, backward)


def embed_words(ids, table: Tensor) -> Tensor:
    """Look up word embeddings: (B, N) ids, N >= 1, give (B, N, e), and (N,)
    ids give (N, e). Gradients accumulate into exactly the rows used."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.shape[-1] < 1:
        raise ValueError(f"token ids must be a nonempty (N,) or (B, N) array, got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of vocabulary range [0, {table.shape[0]})")
    return gather_rows(table, ids)

