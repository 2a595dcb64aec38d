"""The text branch of train steps, forward and backward, in a worker
process that ``training.train`` starts and ends (README, "Train step on
two processes").

The worker is a new interpreter, not a fork: a forked child would share
the trainer's whole heap copy-on-write, and the trainer would then take
a page fault at the first write to each of those pages. It reads the
parameters from a shared memory file that the trainer's optimizer
updates in place, and writes the text leaves' gradients into the same
file. Messages go through two pipes, pickled. The trainer steps serially
until the worker has started (about 0.1 s, for its imports).

Per step, the trainer sends the tokens and its rollout rng's state; the
worker draws the same noise, embeds the text branch and sends back the
values of the text embedding and of the packed rollout output. The
trainer records them as proxies on its tape: ``backward`` posts their
complete adjoints to the worker and goes on with the image branch, and a
record at the start of the step hands the worker's gradients to the
engine last.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import select
import signal
import sys

import numpy as np

from .attention import AttentionTrace
from .autodiff import ParamSource, active_tape, backward, clear_tape, record_op
from .model import MatchingModel

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class WorkerDied(RuntimeError):
    """The worker process exited before answering."""


def text_leaves(model: MatchingModel):
    """The leaves of the text branch, which no other record reads, and
    their offsets in the gradients' vector."""
    leaves = [model.word_table, *model.txt_policy.tensors(), model.proj_txt]
    return leaves, np.cumsum([0] + [p.size for p in leaves])


def _shared_vectors(fd: int, split: int):
    """The float64 vectors ``[:split]`` and ``[split:]`` of the shared
    memory file ``fd``, mapped ``MAP_SHARED``."""
    buf = mmap.mmap(fd, 0)
    return np.frombuffer(buf, count=split), np.frombuffer(buf, offset=8 * split)


class TextWorker:
    """The trainer's side of one worker process. Its ``model`` is a copy of
    the given model whose parameters live in the shared file: train that
    one. A step uses the worker once it has started; ``close`` ends it."""

    # seconds a step waits for the worker to start before it runs serially
    start_timeout = 0.0

    def __init__(self, model: MatchingModel):
        text_size = int(text_leaves(model)[1][-1])
        fd = os.memfd_create("pgmatch-train-step")
        try:
            os.ftruncate(fd, 8 * (model.flat.size + text_size))
            flat, self.grads = _shared_vectors(fd, model.flat.size)
            flat[:] = model.flat
            self.model = MatchingModel(model.config, model.vocab_size, model.num_instances,
                                       ParamSource(flat=flat))
            self.params, self.bounds = text_leaves(self.model)
            down_r, down_w = os.pipe()
            up_r, up_w = os.pipe()
            self._send_fh, self._recv_fh = open(down_w, "wb"), open(up_r, "rb")
            for child_fd in (down_r, up_w, fd):
                os.set_inheritable(child_fd, True)
            code = (f"import sys; sys.path.insert(0, {_PACKAGE_ROOT!r}); "
                    f"from pgmatch._stepworker import serve; serve(*map(int, sys.argv[1:]))")
            try:
                # posix_spawn shares no page with this process, as a fork would
                self.pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code,
                                                           str(down_r), str(up_w), str(fd)],
                                          os.environ)
            finally:
                os.close(down_r)
                os.close(up_w)
        finally:
            os.close(fd)
        self.started = False
        try:
            self._post(self.model.config, self.model.vocab_size, self.model.num_instances,
                       model.flat.size)
        except WorkerDied:
            self.close()
            raise

    def serves(self, model) -> bool:
        """Whether the worker embeds ``model``'s text branch now: it is
        this worker's model and the worker has started."""
        if model is not self.model:
            return False
        if not self.started:
            if select.select([self._recv_fh], [], [], self.start_timeout)[0]:
                self._reply("started")
                self.started = True
        return self.started

    def _post(self, *message):
        try:
            pickle.dump(message, self._send_fh, protocol=pickle.HIGHEST_PROTOCOL)
            self._send_fh.flush()
        except BrokenPipeError:
            raise WorkerDied("the text-branch worker process exited") from None

    def _reply(self, kind):
        try:
            reply = pickle.load(self._recv_fh)
        except (EOFError, pickle.UnpicklingError):
            raise WorkerDied("the text-branch worker process exited") from None
        if reply[0] == "error":
            raise reply[1]
        if reply[0] != kind:
            raise WorkerDied(f"the text-branch worker sent {reply[0]!r}, expected {kind!r}")
        return reply[1:]

    def start(self, tokens, regions: int, rng):
        """Have the worker draw the step's noise from ``rng``'s state and
        embed ``tokens``, and record the step's first record: the one that
        hands the text leaves' gradients to ``backward``, after the image
        branch's records."""
        self._post("forward", tokens, regions, rng.bit_generator.state)
        self._grads_record = record_op("text_grads", self.params, np.zeros(()),
                                       lambda g: self._collect())

    def _collect(self):
        (present,) = self._reply("grads")
        return [self.grads[lo:hi].reshape(p.shape) if ok else None
                for p, ok, lo, hi in zip(self.params, present, self.bounds[:-1],
                                         self.bounds[1:])]

    def finish(self):
        """The text embedding and the rollout trace (``None`` with
        attention off) of the step ``start`` began, as proxy records. Each
        proxy keeps its adjoint; the record both list as input posts the
        two to the worker once the engine has run every later record, and
        hands on a zero adjoint to the gradients' record."""
        txt_values, packed_values, length = self._reply("outputs")
        adjoints = [None, None]

        def post(g):
            self._post("backward", *adjoints)
            return (np.zeros(()),)

        def proxy(i):
            def keep(g):
                adjoints[i] = g
                return (np.zeros(()),)
            return keep

        sent = record_op("text_post", (self._grads_record,), np.zeros(()), post)
        self._grads_record = None
        trace = None
        if packed_values is not None:
            trace = AttentionTrace(record_op("text_trace", (sent,), packed_values, proxy(1)),
                                   length)
        return record_op("text_embedding", (sent,), txt_values, proxy(0)), trace

    def close(self):
        """End the worker and reap it."""
        os.kill(self.pid, signal.SIGKILL)  # it may still be importing
        os.waitpid(self.pid, 0)
        self._recv_fh.close()
        with contextlib.suppress(BrokenPipeError):  # a message it did not read
            self._send_fh.close()


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------


def serve(down: int, up: int, shared: int):
    """Answer the trainer's messages on ``down`` through ``up`` until the
    trainer closes its end or exits."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a terminal's interrupt is the trainer's
    with open(down, "rb") as recv, open(up, "wb") as send:
        config, vocab_size, num_instances, size = pickle.load(recv)
        flat, grads = _shared_vectors(shared, size)
        os.close(shared)
        model = MatchingModel(config, vocab_size, num_instances, ParamSource(flat=flat))
        worker = _Worker(model, grads)
        reply = ("started",)
        while True:
            pickle.dump(reply, send, protocol=pickle.HIGHEST_PROTOCOL)
            send.flush()
            try:
                message = pickle.load(recv)
            except EOFError:
                return
            try:
                reply = getattr(worker, message[0])(*message[1:])
            except Exception as exc:  # noqa: BLE001 - the trainer raises it
                reply = ("error", _portable(exc))


class _Worker:
    def __init__(self, model, grads):
        self.model, self.grads = model, grads
        self.params, self.bounds = text_leaves(model)
        self.rng = np.random.default_rng()
        self.outputs = None

    def forward(self, tokens, regions, rng_state):
        clear_tape()
        self.outputs = None
        self.rng.bit_generator.state = rng_state
        noise = self.model.draw_noise(self.rng, len(tokens), (regions, tokens.shape[1]))[1]
        txt, trace = self.model.embed_text(tokens, noise, mode="stochastic")
        del noise
        self.outputs = txt, trace.weights
        packed = trace.weights.values if active_tape().is_tracked(trace.weights) else None
        return "outputs", txt.values, packed, trace.length

    def backward(self, g_txt, g_packed):
        # the adjoints arrive complete; the engine adds the fusion's part of
        # the packed output's adjoint to the PG parts, as on one tape
        seed = record_op("text_adjoints", self.outputs, np.zeros(()),
                         lambda g: (g_txt, g_packed))
        self.outputs = None
        backward(seed)
        present = []
        for p, lo, hi in zip(self.params, self.bounds[:-1], self.bounds[1:]):
            present.append(p.grad is not None)
            if p.grad is not None:
                self.grads[lo:hi] = p.grad.reshape(-1)
                p.grad = None
        return "grads", present


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any failure means it cannot cross
        return RuntimeError(f"{type(exc).__name__}: {exc}")
