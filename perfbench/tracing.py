"""Spans recorded from outside the program, and the per-layer profile.

The tracer never edits `src/`: it swaps the module attributes that
`PRformer.forward` looks up at call time (`pre.bottom_up`, `nn.conv1d`, ...)
for thin wrappers that open a span around the original function. A target
that no longer exists is recorded as missing and skipped, so renaming a
function can only drop its metrics, never break a run.

Backward cost per layer is measured with a cut: the layer is re-run on
detached leaf copies of the inputs captured during a traced step, and
`T.backward` is timed on a fixed random projection of its output.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from prformer import encoder, nn, pre, revin, tensor as T, training
from prformer.tensor import Tensor


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    step: str  # "<phase>:<n>", e.g. "step:3" or "half-cut:0"

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Each span's duration minus the part of it covered by its children."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((max(spans[k].start, s.start), min(spans[k].end, s.end))
                             for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _detach(obj):
    """Copy Tensors (also inside lists and tuples) out of the graph."""
    if isinstance(obj, Tensor):
        return Tensor(obj.data.copy())
    if isinstance(obj, (list, tuple)):
        return type(obj)(_detach(o) for o in obj)
    return obj


def _leaves(obj):
    if isinstance(obj, Tensor):
        return Tensor(obj.data.copy(), requires_grad=True)
    if isinstance(obj, (list, tuple)):
        return type(obj)(_leaves(o) for o in obj)
    return obj


def _tensors(obj):
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [t for o in obj for t in _tensors(o)]
    return []


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.step = "setup:0"
        self.recording = True
        self.captured = None  # list of (span name, fn, args, kwargs) while capturing
        self.missing = []
        self._stack = []
        self._installed = []
        self._level_counts = {}

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        s = Span(name, time.perf_counter(), 0.0,
                 self._stack[-1] if self._stack else -1, self.step)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _name(self, template):
        if "{}" not in template:
            return template
        key = (self._stack[-1] if self._stack else -1, template)
        level = self._level_counts.get(key, 0)
        self._level_counts[key] = level + 1
        return template.format(level)

    def wrap(self, module, attr, template):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            name = self._name(template)
            if self.captured is not None:
                self.captured.append((name, fn, _detach(args), kwargs))
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)
        self._installed.append((module, attr, fn))

    def install(self):
        for module, attr, template in (
                (revin, "normalize", "revin.normalize"),
                (revin, "denormalize", "revin.denormalize"),
                (pre, "bottom_up", "pre.bottom_up"),
                (nn, "conv1d", "pre.level{}.conv"),
                (pre, "top_down_fuse", "pre.top_down_fuse"),
                (pre, "multi_scale_rnn", "pre.multi_scale_rnn"),
                (nn, "gru_forward", "pre.level{}.gru"),
                (encoder, "encode", "encoder.encode"),
                (nn, "multi_head_attention", "encoder.attention"),
                (encoder, "forecast", "encoder.forecast")):
            self.wrap(module, attr, template)

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def durations(self, name, phase):
        """Durations in seconds of spans called `name` in steps of `phase`."""
        return [s.duration for s in self.spans
                if s.name == name and s.step.startswith(phase + ":")]

    def self_durations(self, name, phase):
        selfs = self_times(self.spans)
        return [t for s, t in zip(self.spans, selfs)
                if s.name == name and s.step.startswith(phase + ":")]

    def names(self, phase):
        seen = {}
        for s in self.spans:
            if s.step.startswith(phase + ":"):
                seen.setdefault(s.name, None)
        return list(seen)

    def to_json(self):
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "step": s.step} for s in self.spans]


def graph_counts(root):
    """Nodes by op and array bytes held, walking the public `op`/`parents` links."""
    by_op, nbytes, seen, stack = {}, 0, set(), [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nbytes += t.data.nbytes
        if t.op is not None:
            by_op[t.op] = by_op.get(t.op, 0) + 1
            stack.extend(t.parents)
    return {"nodes": sum(by_op.values()), "by_op": dict(sorted(by_op.items())),
            "bytes": nbytes}


def train_step(model, optimizer, batch, dropout_rng, span):
    """Forward, L1 loss, backward, Adam and RevIN clamp for one batch."""
    x, y = Tensor(batch.inputs), Tensor(batch.targets)
    with span("model.forward"):
        y_hat = model.forward(x, training=True, dropout_rng=dropout_rng)
    with span("training.mae_loss"):
        loss = training.mae_loss(y_hat, y)
    optimizer.zero_grad()
    with span("tensor.backward"):
        T.backward(loss)
    with span("training.adam_step"):
        optimizer.step()
    with span("revin.clamp_gamma"):
        revin.clamp_gamma(model.params.revin)
    return loss


CUT_LAYERS = ("pre.bottom_up", "pre.top_down_fuse", "pre.multi_scale_rnn",
              "encoder.encode", "encoder.attention", "encoder.forecast")


def is_cut(name):
    return name in CUT_LAYERS or name.endswith((".conv", ".gru"))


def nospan(name):
    return nullcontext()


def profile_models(tracer, runs, reps, seed, untraced):
    """Traced train steps, no-grad forwards and per-layer backward cuts.

    `runs` holds (tag, model, batches, cut) tuples. They are profiled in
    lockstep, one repetition of each in turn, so that drift in host speed
    hits every run alike; before each traced step of the first run an
    untraced one (span recording off) is timed into `untraced`. Spans land
    in phases `<tag>step`, `<tag>forward` and `<tag>cut`. Returns the graph
    counts of each run's first step and whether every loss was finite.
    """
    optimizers = [training.Adam(m.named_parameters(), m.config.lr)
                  for _, m, _, _ in runs]
    dropout_rng = np.random.default_rng((seed, 7))
    counts, captured, finite = [], [], True
    for i in range(reps):
        for (tag, model, batches, _), optimizer in zip(runs, optimizers):
            if not counts:
                tracer.recording = False
                t0 = time.perf_counter()
                loss = train_step(model, optimizer, batches[i], dropout_rng, nospan)
                untraced.append(time.perf_counter() - t0)
                tracer.recording = True
                finite &= bool(np.isfinite(loss.data))
            tracer.step = f"{tag}step:{i}"
            tracer.captured = [] if i == 0 else None
            with tracer.span("train_step"):
                loss = train_step(model, optimizer, batches[i], dropout_rng,
                                  tracer.span)
            finite &= bool(np.isfinite(loss.data))
            if i == 0:
                captured += [(tag, call) for call in tracer.captured]
                tracer.captured = None
                counts.append(graph_counts(loss))
    for optimizer in optimizers:
        optimizer.zero_grad()

    with T.no_grad():
        for i in range(reps):
            for tag, model, batches, _ in runs:
                tracer.step = f"{tag}forward:{i}"
                with tracer.span("model.forward"):
                    model.forward(Tensor(batches[0].inputs))

    cuts = {tag: cut for tag, _, _, cut in runs}
    jobs = [(tag, call) for tag, call in captured if cuts[tag](call[0])]
    proj_rng = np.random.default_rng((seed, 11))
    for r in range(reps):
        for tag, (name, fn, args, kwargs) in jobs:
            tracer.step = f"{tag}cut:{r}"
            tracer.recording = False
            outs = _tensors(fn(*_leaves(args), **kwargs))
            tracer.recording = True
            loss = None
            for t in outs:
                proj = Tensor(proj_rng.standard_normal(t.shape).astype(t.data.dtype))
                term = T.sum_(T.mul(t, proj))
                loss = term if loss is None else T.add(loss, term)
            for optimizer in optimizers:
                optimizer.zero_grad()
            with tracer.span(name + ".bwd"):
                T.backward(loss)
    for optimizer in optimizers:
        optimizer.zero_grad()
    return counts, finite
