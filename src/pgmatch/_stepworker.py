"""The text branch of train steps, forward and backward, and the steps'
rollout noise, in a worker process that ``training.train`` starts and
ends (README, "Train step on two processes").

The worker is a new interpreter, not a fork: a forked child would share
the trainer's whole heap copy-on-write, and the trainer would then take
a page fault at the first write to each of those pages. It reads the
parameters from a shared memory file that the trainer's optimizer
updates in place, and writes into the same file the text leaves'
gradients and the image branch's rollout noise. Messages go through two
pipes, pickled. The trainer steps serially until the worker has started
(about 0.1 s, for its imports). Both run one BLAS thread meanwhile.

The worker owns the rollout rng once it serves: the trainer sends its
rng's state at the first step served, and draws no noise after that
step. Right after the worker sends a step's outputs, it draws the next
step's whole noise at the same batch shape, keeps the text part and
writes the image part into one of two noise slots in turn, never the one
the trainer still reads. A step of another shape (an epoch's last,
shorter chunk) rewinds the stream and draws again; only it waits.

Per step, the trainer sends the tokens; the worker embeds the text
branch and sends back the values of the text embedding and of the packed
rollout output. The trainer records them as proxies on its tape:
``backward`` posts their complete adjoints to the worker and goes on
with the image branch, and a record at the start of the step hands the
worker's gradients to the engine last.
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

from .attention import AttentionTrace, RolloutNoise
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


def _shared_vectors(fd: int, sizes):
    """Consecutive float64 vectors of ``sizes`` in the shared memory file
    ``fd``, mapped ``MAP_SHARED``."""
    buf = mmap.mmap(fd, 0)
    ends = np.cumsum([0, *sizes])
    return [np.frombuffer(buf, count=hi - lo, offset=8 * lo)
            for lo, hi in zip(ends[:-1], ends[1:])]


def _slot_noise(slot, model: MatchingModel, batch: int, regions: int):
    """The image branch's rollout noise of a ``batch`` x ``regions`` step
    as views of the noise slot ``slot``: the Gumbel vectors, the uniforms
    and the Normals one after the other, each C-contiguous, and ``None``
    for a stage the action mode does not sample. ``None`` with attention
    off."""
    mode = model.config.pg_mode
    if mode == "off":
        return None
    lead, labels = (batch, regions, model.config.heads), model.space.num_labels
    n = batch * regions * model.config.heads
    discrete, continuous = mode != "continuous", mode != "discrete"
    return RolloutNoise(
        gumbel=slot[:n * labels].reshape(lead + (labels,)) if discrete else None,
        uniform=slot[n * labels:n * (labels + 1)].reshape(lead) if discrete else None,
        normal=slot[n * (labels + 1):n * (labels + 2)].reshape(lead) if continuous else None)


class TextWorker:
    """The trainer's side of one worker process. Its ``model`` is a copy of
    the given model whose parameters live in the shared file: train that
    one. ``regions`` is the image branch's length, which sizes the noise
    slots. A step uses the worker once it has started; ``close`` ends it."""

    # seconds a step waits for the worker to start before it runs serially
    start_timeout = 0.0

    def __init__(self, model: MatchingModel, regions: int):
        cfg = model.config
        text_size = int(text_leaves(model)[1][-1])
        # room for a full batch's image noise in every action mode: Gumbel
        # vector, uniform and Normal; pages a mode never writes take no memory
        slot = cfg.batch_size * regions * cfg.heads * (model.space.num_labels + 2)
        sizes = (model.flat.size, text_size, slot, slot)
        fd = os.memfd_create("pgmatch-train-step")
        try:
            os.ftruncate(fd, 8 * sum(sizes))
            flat, self.grads, *self.slots = _shared_vectors(fd, sizes)
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
                                          {**os.environ, "OPENBLAS_NUM_THREADS": "1"})
            finally:
                os.close(down_r)
                os.close(up_w)
        finally:
            os.close(fd)
        self.started = False
        self._steps = 0  # steps served
        self._shape = None  # the (batch, regions, tokens) of the last step served
        try:
            self._post(self.model.config, self.model.vocab_size, self.model.num_instances,
                       sizes)
        except WorkerDied:
            self.close()
            raise

    def serves(self) -> bool:
        """Whether the worker embeds the text branch now: it has started."""
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
        """Have the worker embed ``tokens``, record the step's first record
        (the one that hands the text leaves' gradients to ``backward``,
        after the image branch's records) and return the image branch's
        noise. The first step served draws it from ``rng``, as one process
        does, and hands the worker ``rng``'s state; every later step reads
        it from the slot the worker drew it into."""
        batch, words = tokens.shape
        if self._shape is None:
            self._post("forward", tokens, regions, rng.bit_generator.state)
            noise = self.model.draw_noise(rng, batch, (regions, words))[0]
        else:
            self._post("forward", tokens, regions, None)
            if (batch, regions, words) != self._shape:
                self._reply("noise")  # the worker draws this step's noise again
            noise = _slot_noise(self.slots[self._steps % 2], self.model, batch, regions)
        self._shape = batch, regions, words
        self._steps += 1
        self._grads_record = record_op("text_grads", self.params, np.zeros(()),
                                       lambda g: self._collect())
        return noise

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
        def reply(*message):
            pickle.dump(message, send, protocol=pickle.HIGHEST_PROTOCOL)
            send.flush()

        config, vocab_size, num_instances, sizes = pickle.load(recv)
        flat, grads, *slots = _shared_vectors(shared, sizes)
        os.close(shared)
        model = MatchingModel(config, vocab_size, num_instances, ParamSource(flat=flat))
        worker = _Worker(model, grads, slots, reply)
        reply("started")
        while True:
            try:
                message = pickle.load(recv)
            except EOFError:
                return
            try:
                getattr(worker, message[0])(*message[1:])
            except Exception as exc:  # noqa: BLE001 - the trainer raises it
                reply("error", _portable(exc))


class _Worker:
    def __init__(self, model, grads, slots, reply):
        self.model, self.grads, self.slots, self.reply = model, grads, slots, reply
        self.params, self.bounds = text_leaves(model)
        self.rng = np.random.default_rng()
        self.steps = 0
        self.outputs = None
        # the look-ahead: its batch shape, the rng state it began at, and the
        # text part it drew
        self.ahead, self.rewind, self.noise = None, None, None

    def _draw(self, shape):
        """Draw a step's whole noise at ``shape``, keep the text part, and
        write the image part into the slot of step ``steps``."""
        batch, regions, words = shape
        image, self.noise = self.model.draw_noise(self.rng, batch, (regions, words))
        if image is not None:
            slot = _slot_noise(self.slots[self.steps % 2], self.model, batch, regions)
            for name, values in vars(image).items():
                if values is not None:
                    getattr(slot, name)[...] = values

    def forward(self, tokens, regions, rng_state):
        clear_tape()
        self.outputs = None
        shape = (len(tokens), regions, tokens.shape[1])
        if rng_state is not None:  # the first step served: the trainer drew its image part
            self.rng.bit_generator.state = rng_state
            self._draw(shape)
        elif shape != self.ahead:
            self.rng.bit_generator.state = self.rewind
            self._draw(shape)
            self.reply("noise")
        txt, trace = self.model.embed_text(tokens, self.noise, mode="stochastic")
        self.noise = None
        self.steps += 1
        self.outputs = txt, trace.weights
        packed = trace.weights.values if active_tape().is_tracked(trace.weights) else None
        self.reply("outputs", txt.values, packed, trace.length)
        # the next step's noise, while the trainer runs the loss head
        self.ahead, self.rewind = shape, self.rng.bit_generator.state
        self._draw(shape)

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
        self.reply("grads", present)


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any failure means it cannot cross
        return RuntimeError(f"{type(exc).__name__}: {exc}")
