"""Operation timeline with machine-speed probes.

The speed of a shared box drifts by 20% or more within seconds: a fixed
pure-Python loop takes anywhere from 0.17 s to 0.25 s of CPU time on the
same 2-core machine, and one 128-instance eval pass from 7 to 14 ms per
instance. So the timeline probes the machine at every operation boundary
and, from an interval timer, every ``INTERVAL_S`` seconds inside an
operation. The probe is a fixed kernel of small numpy calls and
interpreter work that touches no pgmatch code.

An operation's normalized time is its wall time scaled by
``PROBE_NOMINAL_S`` over the mean of the probes taken during it and at
its two ends: the time it would take on a box where the probe takes
1 ms. A change to pgmatch changes the work but not the probe, so it shows
in full; a change in machine speed moves both, and most of it cancels.
The clock the timeline and the tracer read excludes the time spent
probing.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

PROBE_NOMINAL_S = 0.001
INTERVAL_S = 0.03          # probe period inside an operation
_PROBE_ROUNDS = 200
_W = np.full((64, 64), 0.01)

# operation fields
KIND, START, END, PROBE_SUM, PROBES, TRACED = range(6)


def speed_probe() -> float:
    """Seconds taken by a fixed small-array kernel shaped like one tape
    op: a 64-wide matvec, an elementwise update, a few Python objects."""
    x = np.ones(64)
    start = time.perf_counter()
    for _ in range(_PROBE_ROUNDS):
        y = np.tanh(_W @ x)
        x = y * 0.5 + 0.5
        _ = [{"y": y, "x": x}, y, x]
    return time.perf_counter() - start


class Timeline:
    """Ordered operations ``[kind, start, end, probe_sum, probes,
    traced]``, with start and end on the probe-free clock."""

    def __init__(self):
        self.ops = []
        self.probes = []
        self.tracing = False      # set by the tracer; copied into each op
        self._paused = 0.0
        self._open = False
        self._busy = False        # set while the timeline updates itself
        self._probe()

    def __enter__(self):
        """Probe from SIGALRM while inside the ``with`` block. Python runs
        the handler in the main thread between bytecodes, so a probe can
        land inside any pgmatch call; the clock leaves it out."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.poll())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _probe(self) -> float:
        start = time.perf_counter()
        seconds = speed_probe()
        self._paused += time.perf_counter() - start
        self.probes.append((self.clock(), seconds))
        if self._open:
            self.ops[-1][PROBE_SUM] += seconds
            self.ops[-1][PROBES] += 1
        return seconds

    # ``_busy`` keeps the SIGALRM handler out while these update the
    # timeline; a handler that runs before the flag is set finishes first.

    def begin(self, kind=None):
        self._busy = True
        self.ops.append([kind, self.clock(), None, self.probes[-1][1], 1, self.tracing])
        self._open = True
        self._busy = False

    def poll(self):
        """Probe if the open operation has run ``INTERVAL_S`` since the
        last probe."""
        if self._busy or not self._open or self.clock() - self.probes[-1][0] < INTERVAL_S:
            return
        self._busy = True
        self._probe()
        self._busy = False

    def end(self, kind=None):
        self._busy = True
        op = self.ops[-1]
        op[END] = self.clock()
        if kind is not None:
            op[KIND] = kind
        self._probe()
        self._open = False
        self._busy = False

    def run(self, kind, fn, *args, **kwargs):
        self.begin(kind)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def indices(self, kind, traced=None) -> list:
        return [i for i, op in enumerate(self.ops)
                if op[KIND] == kind and (traced is None or op[TRACED] == traced)]

    def factor(self, i) -> float:
        op = self.ops[i]
        return PROBE_NOMINAL_S * op[PROBES] / op[PROBE_SUM]

    def duration(self, i, normalized=True) -> float:
        op = self.ops[i]
        raw = op[END] - op[START]
        return raw * self.factor(i) if normalized else raw

    def seconds(self, kind, normalized=True, traced=None) -> list:
        """Durations of every ``kind`` operation, normalized or raw."""
        return [self.duration(i, normalized) for i in self.indices(kind, traced)]

    def probe_median(self) -> float:
        return statistics.median(seconds for _, seconds in self.probes)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op_fields": ["kind", "start", "end", "probe_sum", "probes", "traced"],
                       "ops": self.ops, "probes": self.probes}, fh)
