"""Spans and counters recorded around yieldgraph's public functions.

The benchmark does not change the library. In a traced run it replaces
module and class attributes with timing wrappers (``install``) and puts
the originals back (``uninstall``); an untraced run installs nothing, and
``leaked_wrappers`` proves it.

Forward time is a span around each call. Backward time per layer comes
from ``apply_op``: every vjp recorded while a span is open is wrapped, and
its time inside ``backward`` is charged to every span name that was open
when the op was created. Spans stay in memory and are written once, at
the end of the run.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import time
from collections import defaultdict

from yieldgraph import autodiff, data, evaluation, geo, graph, layers, models, optim

STEP = "bench.step"


def _forward_classes():
    return [
        obj for obj in vars(models).values()
        if isinstance(obj, type) and "forward_samples" in obj.__dict__
    ]


def wrap_points():
    """(owner, attribute, span name) for every wrapped callable.

    Functions are wrapped where the calling module looks them up, so
    ``models.sample_block`` is the sampler as the model code sees it.
    """
    points = [
        (data, "generate_synthetic", "data.generate_synthetic"),
        (data, "normalize", "data.normalize"),
        (data, "enumerate_windows", "data.enumerate_windows"),
        (data, "save_dataset", "data.save_dataset"),
        (data, "load_dataset", "data.load_dataset"),
        (evaluation, "apply_norm_stats", "data.apply_norm_stats"),
        (evaluation, "evaluate", "evaluation.evaluate"),
        (evaluation, "build_masking_plan", "evaluation.build_masking_plan"),
        (evaluation, "mask_dataset_year", "evaluation.mask_dataset_year"),
        (geo, "build_weight_map", "geo.build_weight_map"),
        (geo, "read_ascii_grid", "geo.read_ascii_grid"),
        (geo, "aggregate_to_county", "geo.aggregate_to_county"),
        (geo, "daily_to_weekly", "geo.daily_to_weekly"),
        (models, "sample_block", "graph.sample_block"),
        (models, "full_block", "graph.full_block"),
        (graph.SageLayer, "forward", "graph.SageLayer"),
        (models, "gather_year_blocks", "models.gather_year_blocks"),
        (models.ModelCheckpoint, "predict_year", "models.predict_year"),
        (models, "fit_ridge", "models.fit_ridge"),
        (models, "fit_lasso", "models.fit_lasso"),
        (layers.WeeklyEncoder, "__call__", "layers.WeeklyEncoder"),
        (layers.SoilEncoder, "__call__", "layers.SoilEncoder"),
        (layers.Dense, "__call__", "layers.Dense"),
        (layers.RecurrentCell, "step", "layers.RecurrentCell.step"),
        (layers, "conv1d", "layers.conv1d"),
        (autodiff, "backward", "autodiff.backward"),
        (optim, "logcosh_loss", "optim.logcosh_loss"),
        (optim, "adam_step", "optim.adam_step"),
    ]
    points += [(cls, "forward_samples", "models.forward_samples") for cls in _forward_classes()]
    return points


# Hooks that count rather than time: apply_op as each module sees it, plus
# the tensor constructor and the per-array finiteness check.
_APPLY_OP_OWNERS = (autodiff, layers, graph)


def _hook_points():
    return [(owner, "apply_op") for owner in _APPLY_OP_OWNERS] + [
        (autodiff.Tensor, "__init__"),
        (autodiff, "_check_finite"),
    ]


def _all_points():
    return [(owner, attr) for owner, attr, _ in wrap_points()] + _hook_points()


def _current(owner, attr):
    return vars(owner)[attr]


ORIGINALS = {(id(owner), attr): _current(owner, attr) for owner, attr in _all_points()}


def leaked_wrappers():
    """Names of wrapped attributes that are not the original object."""
    return sorted(
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in _all_points()
        if _current(owner, attr) is not ORIGINALS[(id(owner), attr)]
    )


def count_tape_nodes(loss):
    """Tape nodes reachable from ``loss`` through ``Tensor.node``."""
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if t.node is None or id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t.node.inputs)
    return len(seen)


class Tracer:
    """In-memory spans (id, parent, name, start, end) plus counters."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self._ids = 0
        self._stack = []     # (span id, names open at this depth)
        self.in_step = False
        self.installed = False
        self.bwd = defaultdict(float)   # span name -> vjp seconds charged
        self.step_fwd = defaultdict(float)
        self.step_calls = defaultdict(int)
        self.counts = defaultdict(float)

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else (-1, frozenset())
        self._ids += 1
        self._stack.append((self._ids, parent[1] | {name}))
        return self._ids, parent[0], self.clock()

    def _close(self, sid, parent, name, start):
        end = self.clock()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))
        if self.in_step:
            self.step_fwd[name] += end - start
            self.step_calls[name] += 1

    def step(self, fn, *args):
        """Run one benchmark step inside a ``bench.step`` span."""
        sid, parent, start = self._open(STEP)
        self.in_step = True
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, STEP, start)
            self.in_step = False
            self.counts["steps"] += 1

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
            if name == "graph.sample_block" and tracer.in_step:
                tracer.counts["seeds"] += len(result.seed_nodes)
                tracer.counts["input_nodes"] += len(result.input_nodes)
                tracer.counts["edges"] += sum(lb.edge_src.size for lb in result.layers)
            elif name == "data.save_dataset":
                tracer.counts["saved_bytes"] += sum(os.path.getsize(p) for p in result)
                tracer.counts["saved_records"] += args[0].n_records
            elif name == "data.load_dataset":
                tracer.counts["loaded_records"] += result.n_records
            return result

        return traced

    def _wrap_apply_op(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced_apply_op(data_, inputs, vjp, *args, **kwargs):
            chain = tracer._stack[-1][1] if tracer._stack else frozenset()

            def timed_vjp(g):
                start = tracer.clock()
                grads = vjp(g)
                dt = tracer.clock() - start
                tracer.counts["vjp_s"] += dt
                for name in chain:
                    tracer.bwd[name] += dt
                return grads

            return fn(data_, inputs, timed_vjp, *args, **kwargs)

        return traced_apply_op

    def _wrap_tensor_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted_init(t, *args, **kwargs):
            fn(t, *args, **kwargs)
            if tracer.in_step:
                tracer.counts["tensors"] += 1

        return counted_init

    def _wrap_check_finite(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted_check(arr, context):
            if tracer.in_step:
                tracer.counts["finite_check_bytes"] += arr.nbytes
            return fn(arr, context)

        return counted_check

    def on_loss(self, loss):
        if self.installed:
            self.counts["tape_nodes"] += count_tape_nodes(loss)

    # -- install / uninstall -------------------------------------------------

    def install(self):
        if self.installed:
            return
        for owner, attr, name in wrap_points():
            setattr(owner, attr, self._wrap(ORIGINALS[(id(owner), attr)], name))
        hooks = {"apply_op": self._wrap_apply_op, "__init__": self._wrap_tensor_init,
                 "_check_finite": self._wrap_check_finite}
        for owner, attr in _hook_points():
            setattr(owner, attr, hooks[attr](ORIGINALS[(id(owner), attr)]))
        self.installed = True

    def uninstall(self):
        for owner, attr in _all_points():
            setattr(owner, attr, ORIGINALS[(id(owner), attr)])
        self.installed = False

    # -- results -------------------------------------------------------------

    def self_times(self):
        """name -> (calls, total s, self s); self = duration minus children."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, _, name, start, end in self.spans:
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[sid])
        return out

    def write(self, spans_path, summary_path):
        with open(spans_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            writer.writerows(self.spans)
        summary = {
            name: {"calls": calls, "total_ms": 1e3 * total, "self_ms": 1e3 * own,
                   "bwd_ms": 1e3 * self.bwd.get(name, 0.0)}
            for name, (calls, total, own) in sorted(self.self_times().items())
        }
        with open(summary_path, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
        return summary


# -- per-layer metrics ----------------------------------------------------------------

_LAYER_SPANS = (
    "layers.WeeklyEncoder", "layers.SoilEncoder", "layers.conv1d",
    "layers.RecurrentCell.step", "layers.Dense", "graph.SageLayer",
)
_PER_CALL = (
    ("data.save_dataset.s", "data.save_dataset", 1.0, "s"),
    ("data.load_dataset.s", "data.load_dataset", 1.0, "s"),
    ("data.generate_synthetic.s", "data.generate_synthetic", 1.0, "s"),
    ("data.normalize.s", "data.normalize", 1.0, "s"),
    ("data.enumerate_windows.s", "data.enumerate_windows", 1.0, "s"),
    ("data.apply_norm_stats.ms", "data.apply_norm_stats", 1e3, "ms"),
    ("geo.read_ascii_grid.ms", "geo.read_ascii_grid", 1e3, "ms"),
    ("geo.aggregate_to_county.us", "geo.aggregate_to_county", 1e6, "us"),
    ("geo.daily_to_weekly.us", "geo.daily_to_weekly", 1e6, "us"),
    ("models.predict_year.ms", "models.predict_year", 1e3, "ms"),
    ("models.fit_ridge.s", "models.fit_ridge", 1.0, "s"),
    ("models.fit_lasso.s", "models.fit_lasso", 1.0, "s"),
    ("graph.sample_block.ms", "graph.sample_block", 1e3, "ms"),
    ("graph.full_block.ms", "graph.full_block", 1e3, "ms"),
    ("evaluation.evaluate.ms", "evaluation.evaluate", 1e3, "ms"),
    ("evaluation.build_masking_plan.ms", "evaluation.build_masking_plan", 1e3, "ms"),
    ("evaluation.mask_dataset_year.ms", "evaluation.mask_dataset_year", 1e3, "ms"),
)
_CALL_COUNTS = ("geo.read_ascii_grid", "geo.aggregate_to_county", "geo.daily_to_weekly")
_STEP_TIMES = (
    "models.gather_year_blocks", "models.forward_samples", "autodiff.backward",
    "optim.logcosh_loss", "optim.adam_step",
)

PER_LAYER = (
    [(name, unit) for name, _, _, unit in _PER_CALL]
    + [("data.save_dataset.mb", "MB")]
    + [(f"{name}.calls", "count") for name in _CALL_COUNTS]
    + [(f"{name}.ms_per_step", "ms/step") for name in _STEP_TIMES]
    + [(f"{name}.{part}", unit)
       for name in _LAYER_SPANS
       for part, unit in (("fwd_ms_per_step", "ms/step"), ("bwd_ms_per_step", "ms/step"),
                          ("calls_per_step", "count/step"))]
    + [
        ("aggregate_rasters_per_s", "rasters/s"),
        ("save_records_per_s", "records/s"),
        ("load_records_per_s", "records/s"),
        ("linear_fit_s", "s"),
        ("graph.input_nodes_per_seed", "nodes/seed"),
        ("graph.edges_per_step", "edges/step"),
        ("autodiff.sweep_ms_per_step", "ms/step"),
        ("autodiff.tape_nodes_per_step", "nodes/step"),
        ("autodiff.tensors_per_step", "tensors/step"),
        ("autodiff.finite_check_mb_per_step", "MB/step"),
        ("trace.steps", "count"),
        ("trace.unattributed_ms_per_step", "ms/step"),
        ("trace.unattributed_pct", "%"),
        ("trace.train_samples_per_s_untraced", "1/s"),
        ("trace.train_samples_per_s_traced", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, steps):
    """Per-layer values of a traced run; ``steps`` holds ([(start, seconds)],
    samples, traced) for each step of the timed loop. A layer the workload never
    calls reads 0."""
    stats = tracer.self_times()
    n = tracer.counts["steps"]
    m = {}
    for metric, name, scale, _ in _PER_CALL:
        calls, total, _ = stats.get(name, (0, 0.0, 0.0))
        m[metric] = scale * _ratio(total, calls)
    m["data.save_dataset.mb"] = _ratio(tracer.counts["saved_bytes"],
                                       stats.get("data.save_dataset", (0,))[0]) / 1e6
    for name in _CALL_COUNTS:
        m[f"{name}.calls"] = stats.get(name, (0,))[0]
    for name in _STEP_TIMES:
        m[f"{name}.ms_per_step"] = 1e3 * _ratio(tracer.step_fwd[name], n)
    for name in _LAYER_SPANS:
        m[f"{name}.fwd_ms_per_step"] = 1e3 * _ratio(tracer.step_fwd[name], n)
        m[f"{name}.bwd_ms_per_step"] = 1e3 * _ratio(tracer.bwd[name], n)
        m[f"{name}.calls_per_step"] = _ratio(tracer.step_calls[name], n)
    c = tracer.counts

    def total(*names):
        return sum(stats.get(name, (0, 0.0))[1] for name in names)

    m["aggregate_rasters_per_s"] = _ratio(
        m["geo.read_ascii_grid.calls"],
        total("geo.build_weight_map", "geo.read_ascii_grid", "geo.aggregate_to_county",
              "geo.daily_to_weekly"))
    m["save_records_per_s"] = _ratio(c["saved_records"], total("data.save_dataset"))
    m["load_records_per_s"] = _ratio(c["loaded_records"], total("data.load_dataset"))
    m["linear_fit_s"] = _ratio(total("models.fit_ridge", "models.fit_lasso"),
                               stats.get("models.fit_ridge", (0,))[0])
    m["graph.input_nodes_per_seed"] = _ratio(c["input_nodes"], c["seeds"])
    m["graph.edges_per_step"] = _ratio(c["edges"], n)
    m["autodiff.sweep_ms_per_step"] = 1e3 * _ratio(
        tracer.step_fwd["autodiff.backward"] - c["vjp_s"], n)
    m["autodiff.tape_nodes_per_step"] = _ratio(c["tape_nodes"], n)
    m["autodiff.tensors_per_step"] = _ratio(c["tensors"], n)
    m["autodiff.finite_check_mb_per_step"] = _ratio(c["finite_check_bytes"], n) / 1e6
    _, step_total, step_self = stats.get(STEP, (0, 0.0, 0.0))
    m["trace.steps"] = n
    m["trace.unattributed_ms_per_step"] = 1e3 * _ratio(step_self, n)
    m["trace.unattributed_pct"] = 100.0 * _ratio(step_self, step_total)

    def rate(traced):
        chosen = [(sum(dt for _, dt in segments), k) for segments, k, t in steps if t == traced]
        return _ratio(sum(k for _, k in chosen), sum(dt for dt, _ in chosen))

    m["trace.train_samples_per_s_untraced"] = rate(False)
    m["trace.train_samples_per_s_traced"] = rate(True)
    m["trace.overhead_pct"] = 100.0 * _ratio(rate(False) - rate(True), rate(False))
    return m
