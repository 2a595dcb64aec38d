"""Per-module spans recorded from outside the package.

The tracer replaces public functions of pgmatch modules with wrappers that
record one span per call: name, start, end, parent span and operation id
(a train step, a validation pass, a set-up round or a gallery pass). Spans
stay in memory and are written out when the run ends. ``per_layer``
turns them into per-module self times, tape-record counts, the share of
step time the spans cover, and the tracing overhead.

Tracing can be switched off and on between operations: the runner traces
every other step, so traced and untraced steps of one run give the
overhead under the same machine conditions.
"""

from __future__ import annotations

import functools
import json
import statistics

from pgmatch import attention, data, model, training
from pgmatch.autodiff import Adam, active_tape

# (owner, attribute, span name). Functions are replaced where their caller
# looks them up: ``training`` imports the losses and rewards by name, and
# ``model`` and ``attention`` import the rollout and sampling functions.
_TARGETS = [
    (model.MatchingModel, "encode_image", "encoders.region"),
    (model.MatchingModel, "encode_text", "encoders.word"),
    (model.MatchingModel, "embed_image", "model.project"),
    (model.MatchingModel, "embed_text", "model.project"),
    (model.MatchingModel, "load_checkpoint", "model.checkpoint_load"),
    (model, "policy_rollout", "attention.rollout"),
    (model, "multi_head_rollout", "attention.rollout"),
    (model, "fuse", "attention.fuse"),
    (attention, "gumbel_softmax", "distributions.draw"),
    (attention, "categorical_sample", "distributions.draw"),
    (attention, "normal_sample_reparam", "distributions.draw"),
    (attention, "discrete_logprob", "distributions.sample"),
    (attention, "straight_through", "distributions.sample"),
    (attention, "soft_action_value", "distributions.sample"),
    (attention, "normal_logprob", "distributions.sample"),
    (training, "instance_rewards", "rewards.reward"),
    (training, "attach_baseline", "rewards.reward"),
    (training, "triplet_loss", "losses.triplet"),
    (training, "instance_loss", "losses.instance"),
    (training, "text_decoding_loss", "losses.decode"),
    (training, "discrete_pg_loss", "losses.pg"),
    (training, "continuous_pg_loss", "losses.pg"),
    (training, "backward", "autodiff.backward"),
    (Adam, "step", "autodiff.adam"),
    (training, "evaluate", "training.eval"),
    (data, "load_dataset", "data.load"),
]

# span fields
NAME, START, END, PARENT, OP, TAPE_AT_START, RECORDS = range(7)


class Tracer:
    """Wraps the targets on ``enable`` and restores them on ``disable``.
    Spans carry the index of the timeline operation they ran in."""

    def __init__(self, timeline):
        self.spans = []
        self.timeline = timeline
        self._stack = []
        self._tape = active_tape()
        # A target the package no longer has is skipped and reported, so a
        # later refactor shows up as lost coverage instead of a crash.
        present = [t for t in _TARGETS if t[1] in vars(t[0])]
        self.missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a, n in _TARGETS
                        if (o, a, n) not in present]
        self._originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in present]
        self._wrapped = [self._wrap(original, name)
                         for (_, _, original), (_, _, name) in zip(self._originals, present)]

    def enable(self):
        for (owner, attr, _), wrapped in zip(self._originals, self._wrapped):
            setattr(owner, attr, wrapped)
        self.timeline.tracing = True

    def disable(self):
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        self.timeline.tracing = False

    def _wrap(self, original, name):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, name))
        spans, stack, tape = self.spans, self._stack, self._tape
        ops, clock = self.timeline.ops, self.timeline.clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(ops) - 1,
                    len(tape.records), 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = clock()
                span[RECORDS] = len(tape.records) - span[TAPE_AT_START]
                stack.pop()

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"span_fields": ["name", "start", "end", "parent", "op",
                                       "tape_at_start", "records"],
                       "spans": self.spans}, fh)


def _median(values):
    return statistics.median(values) if values else float("nan")


def per_layer(tracer: Tracer) -> tuple:
    """Per-module figures from the spans. ``_ms`` is normalized self time
    (see timeline.py) per traced train step, or per gallery pass for
    ``gallery.*`` and ``training.eval_ms``; ``_records`` is tape entries
    added inside the call, its children included."""
    spans, timeline = tracer.spans, tracer.timeline
    factors = [timeline.factor(i) for i in range(len(timeline.ops))]
    self_time = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= s[END] - s[START]

    def totals(op_ids):
        ms, records, calls = {}, {}, {}
        for s, st in zip(spans, self_time):
            if s[OP] in op_ids:
                ms[s[NAME]] = ms.get(s[NAME], 0.0) + 1e3 * st * factors[s[OP]]
                records[s[NAME]] = records.get(s[NAME], 0) + s[RECORDS]
                calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        return ms, records, calls

    def span_ms(op_ids, name):
        return [1e3 * (s[END] - s[START]) * factors[s[OP]] for s in spans
                if s[OP] in op_ids and s[NAME] == name]

    steps = set(timeline.indices("train", traced=True))
    n = max(len(steps), 1)
    ms, records, calls = totals(steps)

    def step_ms(*names):
        return sum(ms.get(name, 0.0) for name in names) / n

    tape_records = sum(s[TAPE_AT_START] for s in spans
                       if s[OP] in steps and s[NAME] == "autodiff.backward")
    step_total = sum(timeline.duration(i, normalized=False) for i in steps)
    top_level = sum(s[END] - s[START] for s in spans if s[OP] in steps and s[PARENT] < 0)
    traced_p50 = 1e3 * _median(timeline.seconds("train", traced=True))
    untraced_p50 = 1e3 * _median(timeline.seconds("train", traced=False))

    out = {
        "encoders.region_ms": step_ms("encoders.region"),
        "encoders.region_records": records.get("encoders.region", 0) / n,
        "encoders.word_ms": step_ms("encoders.word"),
        "encoders.word_records": records.get("encoders.word", 0) / n,
        "attention.rollout_ms": step_ms("attention.rollout"),
        "attention.rollout_records": records.get("attention.rollout", 0) / n,
        "attention.fuse_ms": step_ms("attention.fuse"),
        "attention.fuse_records": records.get("attention.fuse", 0) / n,
        "distributions.sample_ms": step_ms("distributions.sample", "distributions.draw"),
        "distributions.draws": calls.get("distributions.draw", 0) / n,
        "model.project_ms": step_ms("model.project"),
        "rewards.reward_ms": step_ms("rewards.reward"),
        "losses.triplet_ms": step_ms("losses.triplet"),
        "losses.instance_ms": step_ms("losses.instance"),
        "losses.decode_ms": step_ms("losses.decode"),
        "losses.decode_records": records.get("losses.decode", 0) / n,
        "losses.pg_ms": step_ms("losses.pg"),
        "autodiff.tape_records": tape_records / n,
        "autodiff.backward_ms": step_ms("autodiff.backward"),
        "autodiff.backward_us_per_record":
            1e3 * ms.get("autodiff.backward", 0.0) / max(tape_records, 1),
        "autodiff.adam_ms": step_ms("autodiff.adam"),
        "training.other_ms": (sum(1e3 * timeline.duration(i) for i in steps)
                              - sum(ms.values())) / n,
        "trace.coverage": top_level / step_total if step_total else float("nan"),
        "trace.overhead_ms": traced_p50 - untraced_p50,
    }

    passes = set(timeline.indices("gallery", traced=True))
    g_ms, g_records, _ = totals(passes)
    m = max(len(passes), 1)
    out["training.eval_ms"] = _median(span_ms(passes, "training.eval"))
    out["training.eval_records"] = g_records.get("model.project", 0) / m
    for layer in ("encoders.region", "encoders.word", "attention.rollout", "attention.fuse",
                  "model.project"):
        out[f"gallery.{layer}_ms"] = g_ms.get(layer, 0.0) / m
    out["gallery.distributions.sample_ms"] = (
        g_ms.get("distributions.sample", 0.0) + g_ms.get("distributions.draw", 0.0)) / m

    setups = set(timeline.indices("setup", traced=True))
    out["data.load_ms"] = _median(span_ms(setups, "data.load"))
    out["model.checkpoint_load_ms"] = _median(span_ms(setups, "model.checkpoint_load"))
    return out, {"traced_steps": len(steps), "traced_step_ms_p50": traced_p50,
                 "untraced_step_ms_p50": untraced_p50, "gallery_passes": len(passes),
                 "spans": len(spans)}
