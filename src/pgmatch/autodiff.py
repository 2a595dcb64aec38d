"""Reverse-mode automatic differentiation on a per-step tape.

All arithmetic is float64. The graph is rebuilt each training step
(define-by-run): ops append records to the active tape, ``backward``
pops the records in reverse and accumulates adjoints into ``.grad``.
Gradient accumulation across several losses, each recorded after the
previous one's backward, is additive until an optimizer step consumes
the grads.
"""

from __future__ import annotations

import copy
import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested op."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an op (a zero-probability draw)."""


class TapeError(RuntimeError):
    """Backward requested on a stale or already-consumed graph."""


class NonFiniteGradient(ArithmeticError):
    """An optimizer step met a NaN or infinite gradient entry; ``tensor``
    is the first parameter, in the optimizer's order, that holds one."""

    def __init__(self, tensor):
        self.tensor = tensor
        super().__init__(f"non-finite gradient in a parameter of shape {tensor.shape}")


class Tensor:
    """Shaped float64 array participating in reverse-mode differentiation.

    ``requires_grad`` marks a leaf whose gradient should be accumulated
    (parameters, grad-check inputs). Tensors produced by ops are tracked
    automatically whenever any input is tracked; plain constants are
    untracked and contribute no gradient.
    """

    __slots__ = ("values", "grad", "requires_grad", "_tape_gen")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._tape_gen = -1

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, tracked={_TAPE.is_tracked(self)})"


def constant(values) -> Tensor:
    """Untracked tensor; never receives a gradient."""
    return Tensor(values, requires_grad=False)


class ParamSource:
    """Where a model's trainable leaves get their values, one named
    parameter at a time, and the one float64 vector they are all views of.

    From an rng, each weight is ``scale * N(0, 1)`` drawn in the order the
    parameters are created, and each bias is zero; ``pack`` then copies
    the draws into one vector, once. From a ``flat`` vector, each
    parameter is the next ``size`` values of it, reshaped: no draw, no
    copy. ``ValueError`` names the parameter the vector runs out at;
    ``pack`` raises it for values left over.

    ``scope`` prefixes the names of what it creates (``img.gru.w_xz``).
    ``named`` holds every parameter created so far, under any scope, in
    creation order."""

    def __init__(self, rng: np.random.Generator | None = None, flat: np.ndarray | None = None):
        self.rng = rng
        self.flat = flat
        self.prefix = ""
        self.named = {}
        self.end = [0]  # the running offset into ``flat``, one for every scope

    @classmethod
    def of(cls, source) -> "ParamSource":
        """``source`` itself, or a new source drawing from the rng ``source``."""
        return source if isinstance(source, ParamSource) else cls(rng=source)

    def scope(self, name: str) -> "ParamSource":
        child = copy.copy(self)  # shares rng, flat, named and end
        child.prefix = f"{self.prefix}{name}."
        return child

    def weight(self, name: str, shape: tuple, scale: float) -> Tensor:
        return self._create(name, shape, lambda: scale * self.rng.standard_normal(shape))

    def bias(self, name: str, size: int) -> Tensor:
        return self._create(name, (size,), lambda: np.zeros(size))

    def _create(self, name, shape, draw) -> Tensor:
        name = self.prefix + name
        values = draw() if self.flat is None else self._take(name, shape)
        t = self.named[name] = Tensor(values, requires_grad=True)
        return t

    def _take(self, name, shape) -> np.ndarray:
        lo = self.end[0]
        hi = self.end[0] = lo + math.prod(shape)
        if hi > self.flat.size:
            raise ValueError(f"{self.flat.size} values run out at parameter {name!r}")
        return self.flat[lo:hi].reshape(shape)

    def pack(self) -> np.ndarray:
        """The vector every parameter in ``named`` is a consecutive view
        of, in creation order; drawn parameters are copied into it here."""
        if self.flat is None:
            self.flat = np.concatenate([t.values.ravel() for t in self.named.values()])
            for name, t in self.named.items():
                t.values = self._take(name, t.shape)
        if self.end[0] != self.flat.size:
            raise ValueError(f"{self.flat.size} values, but the parameters hold {self.end[0]}")
        return self.flat


class Tape:
    """Ordered record of op applications for one forward pass.

    Records are (out, inputs, backward_fn, op_name) tuples in construction
    order, which is topological by immutability. ``backward`` consumes
    them. A tensor is tracked if it requires grad (a leaf) or is the output
    of a record of the current generation; ``clear`` advances the
    generation, so older outputs go stale. While ``recording`` is off, ops
    compute their values and record nothing (``training.evaluate`` runs
    its forward pass that way).
    """

    def __init__(self):
        self.records = []
        self.recording = True
        self.generation = 0

    def clear(self):
        self.records.clear()
        self.generation += 1

    def is_tracked(self, t: Tensor) -> bool:
        return t.requires_grad or t._tape_gen == self.generation

    def record(self, name: str, inputs, out_values, backward_fn) -> Tensor:
        out = Tensor(out_values)
        if self.recording and any(map(self.is_tracked, inputs)):
            out._tape_gen = self.generation
            self.records.append((out, tuple(inputs), backward_fn, name))
        return out


_TAPE = Tape()


def active_tape() -> Tape:
    return _TAPE


def clear_tape():
    _TAPE.clear()


def record_op(name, inputs, out_values, backward_fn) -> Tensor:
    """Register a custom op on the active tape: a fused kernel or an op
    with a bespoke gradient. ``backward_fn(g)`` returns one gradient (or
    ``None``) per entry of ``inputs``; a tensor listed several times gets
    its gradients added in the order they are listed."""
    return _TAPE.record(name, tuple(inputs), out_values, backward_fn)


def will_record(inputs) -> bool:
    """Whether ``record_op`` on ``inputs`` appends a record: recording is
    on and one of them is tracked. Kernels keep the state their backward
    pass reads only then."""
    return _TAPE.recording and any(_TAPE.is_tracked(t) for t in inputs)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every leaf (tensor
    created with ``requires_grad``) the loss depends on.

    One backward per recorded graph: it consumes the tape, popping each
    record as it goes, so what a record's backward function saved is freed
    once its adjoints are out. Adjoints are keyed by ``id`` of the tensor,
    which its record or the leaf list keeps alive. A later backward whose
    adjoint reaches a consumed record raises ``TapeError`` before any
    gradient is written; record the graph again instead."""
    t = _TAPE
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not t.is_tracked(loss):
        raise TapeError("backward on a tensor not recorded on the active tape (stale tape?)")

    records, is_tracked = t.records, t.is_tracked
    adjoints = {id(loss): np.ones_like(loss.values)}
    leaves = [loss] if loss.requires_grad else []  # a leaf used as the loss itself
    while records:
        out, inputs, backward_fn, _name = records.pop()
        # an op's output is consumed only by later records, so its adjoint
        # is complete here; what remains at the end belongs to leaves
        g = adjoints.pop(id(out), None)
        if g is None:
            continue
        for inp, ig in zip(inputs, backward_fn(g)):
            if ig is None or not is_tracked(inp):  # untracked constant
                continue
            prev = adjoints.get(id(inp))
            if prev is None and inp.requires_grad:
                leaves.append(inp)
            adjoints[id(inp)] = ig if prev is None else prev + ig
    if len(adjoints) != len(leaves):
        raise TapeError("backward twice over one recorded graph: it reaches a record "
                        "an earlier backward consumed")
    for leaf in leaves:
        adj = adjoints[id(leaf)]
        leaf.grad = adj.copy() if leaf.grad is None else leaf.grad + adj


# ---------------------------------------------------------------------------
# forward ops
#
# Tensors are batch-major: the leading axis indexes instances, and a
# single instance is the case B = 1. An operand that broadcasts gets its
# gradient summed back onto its shape.
# ---------------------------------------------------------------------------


def _reduce_to(g, shape):
    """Sum a broadcast gradient over the axes that broadcasting added or
    stretched, so it matches an operand of ``shape``."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape)
                                      if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


def _matmul_values(av, bv):
    """``np.matmul`` of two arrays; a 3-D or deeper ``av`` times a 2-D
    ``bv`` is folded into one 2-D product."""
    if av.ndim > 2 and bv.ndim == 2:  # shared weight: one product over all rows
        return (av.reshape(-1, av.shape[-1]) @ bv).reshape(av.shape[:-1] + bv.shape[-1:])
    return np.matmul(av, bv)


def _matmul_grads(g, av, bv):
    """Gradients of ``_matmul_values(av, bv)`` for the output adjoint ``g``."""
    if av.ndim == 2 and bv.ndim == 2:
        return g @ bv.T, av.T @ g
    if bv.ndim == 2:  # fold a's leading axes into rows
        g_rows = g.reshape(-1, g.shape[-1])
        return (g_rows @ bv.T).reshape(av.shape), av.reshape(-1, av.shape[-1]).T @ g_rows
    return (_reduce_to(g @ np.swapaxes(bv, -1, -2), av.shape),
            _reduce_to(np.swapaxes(av, -1, -2) @ g, bv.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``np.matmul`` semantics for matrices and stacks of matrices whose
    leading axes broadcast, e.g. (B, n, k) @ (k, m) with a shared weight
    or (B, n, k) @ (B, k, m). A vector operand is not supported."""
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    try:
        out = _matmul_values(av, bv)
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform") from None
    return _TAPE.record("matmul", (a, b), out, lambda g: _matmul_grads(g, av, bv))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.values.ndim < 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")
    return _TAPE.record("transpose", (a,), np.swapaxes(a.values, -1, -2),
                        lambda g: (np.swapaxes(g, -1, -2),))


def _sigmoid(x, out=None, work=None):
    # exp(min(x, 0)) / (1 + exp(-|x|)): 1 / (1 + e^-x) for x >= 0 and
    # e^x / (1 + e^x) below, never exponentiating a positive number. The
    # result goes to ``out`` (which may be ``x``) and the denominator to
    # ``work`` (shaped like ``x``); given both, nothing is allocated.
    out = np.empty(np.shape(x)) if out is None else out
    den = np.abs(x, out=np.empty(np.shape(x)) if work is None else work)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    num = np.minimum(x, 0.0, out=out)
    np.exp(num, out=num)
    return np.divide(num, den, out=num)


def _softmax(v, axis=-1):
    z = v - v.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(g, s, axis=-1):
    """Input gradient of a softmax with output ``s`` for the adjoint ``g``."""
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup for an id array of any shape: the result has shape
    ``ids.shape + (cols,)``. Gradients scatter back into exactly the used
    rows."""
    if table.values.ndim != 2:
        raise ShapeError(f"gather_rows: expected a matrix, got shape {table.shape}")
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"gather_rows: id out of range [0, {table.shape[0]})")
    out = table.values[ids]
    return _TAPE.record("gather_rows", (table,), out,
                        lambda g: (_scatter_rows(ids, g, table.shape[0]),))


def _scatter_rows(ids, g, rows):
    """The (rows, cols) sum of the rows of ``g`` (shape ``ids.shape +
    (cols,)``) into the rows ``ids`` names: one ``np.bincount`` over the
    flattened (row, column) indices. It adds each entry's parts in the
    order they come, from a +0.0 start, as ``np.add.at`` into zeros does,
    so the bits are the same (a -0.0 part leaves +0.0) at a fraction of
    ``np.add.at``'s per-call cost."""
    cols = g.shape[-1]
    flat = (ids[..., None] * cols + np.arange(cols)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=rows * cols).reshape(rows, cols)


def l2_normalize(v: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row (each vector along the last axis) to unit Euclidean
    norm, ``v / sqrt(sum(v * v) + eps)``, in one record. Forward and
    backward evaluate the numpy expressions of the square, sum, add, sqrt
    and quotient records it replaces, so the bits are theirs where
    nothing else reads ``v`` (the engine adds another reader's adjoint to
    the sum of the two parts here, but to the quotient's part first
    there)."""
    x = v.values
    norm = np.sqrt(np.add((x * x).sum(-1, keepdims=True), eps))

    def bw(g):
        g_norm = _reduce_to(-g * x / (norm * norm), norm.shape)
        return (g / norm + 2.0 * x * (g_norm / (2.0 * norm)),)

    return _TAPE.record("l2_normalize", (v,), x / norm, bw)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(f, inputs, eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f(*inputs)`` against central finite
    differences. Returns max over all input entries of
    ``|analytic - numeric| / max(1e-8, |numeric|)``.

    ``f`` must rebuild its graph on each call and be deterministic given
    the inputs (hold any RNG fixed).
    """
    inputs = list(inputs)
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    clear_tape()
    loss = f(*inputs)
    if _TAPE.is_tracked(loss):
        backward(loss)
    # an untracked loss is constant in the inputs; analytic grads stay zero
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in inputs]

    def eval_at():
        clear_tape()
        out = f(*inputs).item()
        clear_tape()
        return out

    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.values.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = eval_at()
            flat[i] = orig - eps
            down = eval_at()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            rel = abs(aflat[i] - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, rel)
    for t in inputs:
        t.grad = None
    return worst


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction. The moments of all parameters
    live in two flat vectors and the gradients are gathered into a third,
    all three allocated at the first ``step``. One step updates them in
    cache-sized blocks with one block-sized scratch, writing each block's
    step over its gradient; every operation is elementwise and in the
    textbook order, so the result is the same as updating each parameter
    on its own."""

    BLOCK = 16_384

    def __init__(self, params, lr: float = 4e-4, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self._bounds = np.cumsum([0] + [p.size for p in self.params])
        self._m = self._v = self._g = None
        self._t = 0

    def step(self):
        """One update. A non-finite gradient raises ``NonFiniteGradient``
        before any parameter or moment changes (one pass over the flat
        gradient)."""
        for p in self.params:
            if p.grad is None:
                raise ValueError("adam step with missing grad; call backward first")
        if self._g is None:
            size = int(self._bounds[-1])
            self._m, self._v, self._g = np.zeros(size), np.zeros(size), np.empty(size)
        g = self._g
        np.concatenate([p.grad.reshape(-1) for p in self.params], out=g)
        if not np.isfinite(g).all():
            raise NonFiniteGradient(next(p for p in self.params if not np.isfinite(p.grad).all()))
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        scratch = np.empty(min(self.BLOCK, g.size))
        for lo in range(0, g.size, self.BLOCK):
            block = slice(lo, lo + self.BLOCK)
            m, v, gb = self._m[block], self._v[block], g[block]
            tmp = scratch[:gb.size]
            # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
            m *= self.beta1
            m += np.multiply(gb, 1.0 - self.beta1, out=tmp)
            v *= self.beta2
            np.multiply(gb, 1.0 - self.beta2, out=tmp)
            v += np.multiply(tmp, gb, out=tmp)
            # step = (lr (m / b1t)) / (sqrt(v / b2t) + eps), over the gradient
            np.divide(m, b1t, out=gb)
            gb *= self.lr
            np.divide(v, b2t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            gb /= tmp
        for p, lo, hi in zip(self.params, self._bounds[:-1], self._bounds[1:]):
            p.values -= g[lo:hi].reshape(p.shape)
            p.grad = None
