"""Span tracing for the benchmark's traced runs, recorded from outside the
program.

`instrument` replaces the functions each csiloc module exposes at the
attribute its caller looks up (csiloc.cli.train, csiloc.train.mde_loss, ...)
with wrappers that record a span per call, and wraps forward/backward on
every layer instance of each network the CLI builds or loads. Spans go on a
thread-local stack; a span opened on a thread whose stack is empty (an
evaluation worker) takes the innermost open span of the tracing thread as
its parent.

Self time: each instant of a span's interval is attributed to the innermost
spans open at that instant, shared equally when several run at once (the
evaluation workers). Without concurrency this is the span's duration minus
what its children cover; in all cases the self times of a span's subtree add
up to its duration.
"""

import functools
import importlib
import os
import statistics
import threading
import time
from collections import defaultdict

LAYER_PREFIX = {"Conv1xK": "layers.conv", "ReLU": "layers.relu", "Dense": "layers.dense",
                "ResidualUnit": "layers.residual", "Flatten": "layers.flatten",
                "AvgPool1xP": "layers.pool"}


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "self_s")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = None
        self.self_s = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.checkpoint_bytes = []
        self._local = threading.local()
        self._root = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._root
            span = Span(name, outer[-1] if outer else None, threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced


def instrument(tracer):
    """Wrap the csiloc entry points the CLI pipeline calls; returns an undo function."""
    from csiloc import cli, data, evaluation, models
    train = importlib.import_module("csiloc.train")   # the package re-exports train()

    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    for module, attr, name in (
            (cli, "cmd_import", "cli.import"), (cli, "cmd_split", "cli.split"),
            (cli, "cmd_train", "cli.train"), (cli, "cmd_eval", "cli.eval"),
            (data, "read_npy", "npyio.read_npy"),
            (cli, "import_npy", "data.import_npy"),
            (cli, "write_canonical", "data.write_canonical"),
            (cli, "load_canonical", "data.load_canonical"),
            (cli, "split", "data.split"),
            (cli, "fit_normalizer", "data.fit_normalizer"),
            (evaluation, "apply_normalizer", "data.apply_normalizer"),
            (cli, "train", "train.train"),
            (train, "mde_loss", "train.loss"),
            (train, "sgd_momentum_step", "train.sgd"),
            # the per-epoch monitor pass has no public name
            (train, "_batched_mde", "train.monitor"),
            (cli, "evaluate", "evaluation.evaluate"),
            (cli, "emit_reports", "evaluation.emit_reports")):
        patch(module, attr, tracer.wrap(name, getattr(module, attr)))

    build = tracer.wrap("models.build_model", cli.build_model)
    patch(cli, "build_model", lambda *a, **k: instrument_net(tracer, build(*a, **k)))
    load = tracer.wrap("models.load_checkpoint", cli.load_checkpoint)

    def load_checkpoint(*a, **k):
        net, scale, meta = load(*a, **k)
        return instrument_net(tracer, net), scale, meta
    patch(cli, "load_checkpoint", load_checkpoint)

    # train() imports save_checkpoint from csiloc.models at call time; cmd_train
    # calls the name bound in csiloc.cli
    save = tracer.wrap("models.save_checkpoint", models.save_checkpoint)

    def save_checkpoint(path, *a, **k):
        save(path, *a, **k)
        tracer.checkpoint_bytes.append(os.path.getsize(path))
    patch(models, "save_checkpoint", save_checkpoint)
    patch(cli, "save_checkpoint", save_checkpoint)

    def undo():
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
    return undo


def instrument_net(tracer, net):
    for method in ("forward", "backward", "zero_grads"):
        setattr(net, method, tracer.wrap(f"network.{method}", getattr(net, method)))
    for layer in net.layers:
        _instrument_layer(tracer, layer)
    return net


def _instrument_layer(tracer, layer):
    prefix = LAYER_PREFIX[type(layer).__name__]
    layer.forward = tracer.wrap(prefix + ".fwd", layer.forward)
    layer.backward = tracer.wrap(prefix + ".bwd", layer.backward)
    if prefix == "layers.residual":
        for sub in (layer.conv_a, layer.relu_mid, layer.conv_b, layer.relu_out):
            _instrument_layer(tracer, sub)


def attribute_self_time(spans):
    """Set span.self_s for every span by a sweep over start and end events."""
    depth = {}
    for s in spans:
        d, p = 0, s.parent
        while p is not None:
            d, p = d + 1, p.parent
        depth[id(s)] = d
        s.self_s = 0.0
    events = [(s.start, 1, depth[id(s)], s) for s in spans]
    events += [(s.end, 0, -depth[id(s)], s) for s in spans]
    events.sort(key=lambda e: e[:3])
    open_children = defaultdict(int)
    innermost = {}
    last = None
    for t, is_start, _, span in events:
        if innermost and t > last:
            share = (t - last) / len(innermost)
            for s in innermost.values():
                s.self_s += share
        last = t
        parent = span.parent
        if is_start:
            if parent is not None:
                open_children[id(parent)] += 1
                innermost.pop(id(parent), None)
            innermost[id(span)] = span
        else:
            innermost.pop(id(span), None)
            if parent is not None:
                open_children[id(parent)] -= 1
                if open_children[id(parent)] == 0:
                    innermost[id(parent)] = parent
    return spans


def _ancestor(span, prefix):
    p = span.parent
    while p is not None and not p.name.startswith(prefix):
        p = p.parent
    return p


def step_durations(spans):
    """Training steps: from each network.zero_grads under train.train to the next train.sgd."""
    out, begin = [], None
    for s in sorted(spans, key=lambda s: s.start):
        if s.parent is None or s.parent.name != "train.train":
            continue
        if s.name == "network.zero_grads":
            begin = s.start
        elif s.name == "train.sgd" and begin is not None:
            out.append(s.end - begin)
            begin = None
    return out


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        total += max(0.0, b - max(a, end))
        end = max(end, b)
    return total


def span_metrics(tracer):
    """Per-layer metrics of one traced pipeline run, and its step durations."""
    spans = attribute_self_time(tracer.spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    count = defaultdict(int)
    step_sum = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        self_total[s.name] += s.self_s
        count[s.name] += 1
        # a layer span belongs to a training step when its network call does
        owner = _ancestor(s, "network.") if s.name.startswith("layers.") else s
        if owner is not None and owner.parent is not None and owner.parent.name == "train.train":
            step_sum[s.name] += s.duration
            if s.name.startswith("layers.residual"):
                step_sum["layers.residual.self"] += s.self_s
    steps = max(count["train.sgd"], 1)
    per_step = {k: 1000.0 * v / steps for k, v in step_sum.items()}

    eval_fwd = [s for s in spans if s.name == "network.forward" and s.parent is not None
                and s.parent.name == "evaluation.evaluate"]
    threads = defaultdict(set)
    for s in eval_fwd:
        threads[id(s.parent)].add(s.thread)

    m = {
        "layers.conv.fwd_ms": per_step.get("layers.conv.fwd", 0.0),
        "layers.conv.bwd_ms": per_step.get("layers.conv.bwd", 0.0),
        "layers.residual.self_ms": per_step.get("layers.residual.self", 0.0),
        "layers.dense.fwd_ms": per_step.get("layers.dense.fwd", 0.0),
        "layers.dense.bwd_ms": per_step.get("layers.dense.bwd", 0.0),
        "layers.relu_ms": per_step.get("layers.relu.fwd", 0.0) + per_step.get("layers.relu.bwd", 0.0),
        "network.forward_ms": per_step.get("network.forward", 0.0),
        "network.backward_ms": per_step.get("network.backward", 0.0),
        "train.loss_ms": per_step.get("train.loss", 0.0),
        "train.sgd_ms": per_step.get("train.sgd", 0.0),
        "train.monitor_s": total["train.monitor"],
        "train.self_s": self_total["train.train"],
        "models.build_model_s": total["models.build_model"],
        "models.save_checkpoint_s": total["models.save_checkpoint"],
        "models.save_checkpoint_calls": count["models.save_checkpoint"],
        "models.checkpoint_bytes": max(tracer.checkpoint_bytes, default=0),
        "models.load_checkpoint_s": total["models.load_checkpoint"],
        "npyio.read_npy_s": total["npyio.read_npy"],
        "data.import_npy_s": total["data.import_npy"],
        "data.write_canonical_s": total["data.write_canonical"],
        "data.load_canonical_s": total["data.load_canonical"],
        "data.split_s": total["data.split"],
        "data.fit_normalizer_s": total["data.fit_normalizer"],
        "data.apply_normalizer_s": total["data.apply_normalizer"],
        "evaluation.evaluate_s": total["evaluation.evaluate"],
        "evaluation.forward_s": _union([(s.start, s.end) for s in eval_fwd]),
        "evaluation.emit_reports_s": total["evaluation.emit_reports"],
        "evaluation.threads": max((len(t) for t in threads.values()), default=0),
    }
    for cmd in ("import", "split", "train", "eval"):
        m[f"cli.{cmd}.self_s"] = self_total[f"cli.{cmd}"]
    return m, step_durations(spans)


def tail(values):
    """(value, percentile) of the highest percentile with at least ten values above it.

    With ten or fewer values there is no such percentile; the maximum is
    returned as the 100th.
    """
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def step_metrics(durations):
    value, pct = tail(durations)
    return {"train.step_ms.p50": 1000.0 * statistics.median(durations),
            "train.step_ms.tail": 1000.0 * value,
            "train.step_ms.tail_pct": pct,
            "train.steps": len(durations)}


def check_tree(spans):
    """Problems with the trace; empty when it is sound.

    Every span lies within its parent, no self time is negative, and the
    self times under each root span (a CLI command) add up to its duration.
    """
    problems = []
    children = defaultdict(list)
    for s in spans:
        if s.self_s < -1e-9:
            problems.append(f"{s.name}: negative self time {s.self_s}")
        p = s.parent
        if p is None:
            continue
        children[id(p)].append(s)
        if not (p.start <= s.start and s.end <= p.end):
            problems.append(f"{s.name} [{s.start}, {s.end}] outside parent {p.name} [{p.start}, {p.end}]")
    for root in (s for s in spans if s.parent is None):
        total, todo = 0.0, [root]
        while todo:
            s = todo.pop()
            total += s.self_s
            todo += children[id(s)]
        if abs(total - root.duration) > 1e-9 * root.duration + 1e-12:
            problems.append(f"{root.name} lasts {root.duration} s, its self times sum to {total} s")
    return problems
