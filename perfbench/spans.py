"""Span tracing from outside the program, and the per-layer numbers it gives.

The tracer replaces module attributes with thin wrappers that record one
span per call: name, start, end, parent span and the operation it belongs
to. A wrapper has to sit where the caller looks the name up, so a function
imported by name into another module (``from .propagate import evolve`` in
``witness`` and ``learning``) is wrapped in every module that binds it.
Spans stay in memory until the run ends.

Every layer time below is a self time: a span's duration minus the part
of it that its child spans cover. Summed over one operation's spans, self
times give the operation's traced wall time exactly.

The program has no queues, locks or worker pools, so no layer ever waits
for another; there is no waiting time to report.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

import numpy as np

PACKAGE = "qnnwitness"

# (module, attribute looked up by a caller, span name). One entry per
# binding: the same function imported into several modules is wrapped in
# each of them, under one span name.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "resolve_schedule", "hamiltonian.resolve_schedule"),
    ("cli", "catalog", "states.catalog"),
    ("cli", "render", "ketexpr.render"),
    ("hamiltonian", "resolve_schedule", "hamiltonian.resolve_schedule"),
    ("hamiltonian", "build_hamiltonian", "hamiltonian.build_hamiltonian"),
    ("states", "catalog", "states.catalog"),
    ("states", "mix", "states.mix"),
    ("ketexpr", "parse_state", "ketexpr.parse_state"),
    ("ketexpr", "render", "ketexpr.render"),
    ("propagate", "evolve", "propagate.evolve"),
    ("propagate", "evolve_batch_h", "propagate.evolve_batch_h"),
    ("propagate", "evolve_expm", "propagate.evolve_expm"),
    ("superop", "dataset_loss_grad", "superop.dataset_loss_grad"),
    ("superop", "propagate_vec", "superop.propagate_vec"),
    ("superop", "chunk_operators", "superop.chunk_operators"),
    ("learning", "train", "learning.train"),
    ("learning", "backprop_gradient", "learning.backprop_gradient"),
    ("learning", "fd_gradient", "learning.fd_gradient"),
    ("learning", "evolve", "propagate.evolve"),
    ("learning", "evolve_batch_h", "propagate.evolve_batch_h"),
    ("learning", "parse_state", "ketexpr.parse_state"),
    ("learning", "catalog", "states.catalog"),
    ("learning", "mix", "states.mix"),
    ("witness", "sweep", "witness.sweep"),
    ("witness", "evaluate", "witness.evaluate"),
    ("witness", "evaluate_many", "witness.evaluate_many"),
    ("witness", "evolve", "propagate.evolve"),
    ("witness", "catalog", "states.catalog"),
    ("witness", "mix", "states.mix"),
)

# span name -> per-layer metric that receives its self time
SELF_TIME_METRIC = {
    "bench.op": "bench.op.self_ms",
    "cli.main": "cli.main.self_ms",
    "hamiltonian.resolve_schedule": "hamiltonian.resolve_schedule.ms",
    "hamiltonian.build_hamiltonian": "hamiltonian.build_hamiltonian.ms",
    "states.catalog": "states.build.ms",
    "states.mix": "states.build.ms",
    "ketexpr.parse_state": "ketexpr.parse_state.ms",
    "ketexpr.render": "ketexpr.render.ms",
    "propagate.evolve": "propagate.evolve.ms",
    "propagate.evolve_record": "propagate.evolve_record.ms",
    "propagate.evolve_batch_h": "propagate.evolve_batch_h.ms",
    "superop.chunk_operators": "superop.chunk_operators.ms",
    "superop.propagate_vec": "superop.forward.ms",
    "superop.dataset_loss_grad": "superop.adjoint.ms",
    "learning.train": "learning.train.self_ms",
    "learning.backprop_gradient": "learning.backprop_gradient.self_ms",
    "learning.fd_gradient": "learning.fd_gradient.self_ms",
    "witness.sweep": "witness.sweep.self_ms",
    "witness.evaluate": "witness.evaluate.self_ms",
    "witness.evaluate_many": "ops.readout.ms",
}

CALL_METRIC = {
    "states.catalog": "states.build.calls",
    "states.mix": "states.build.calls",
    "ketexpr.parse_state": "ketexpr.parse_state.calls",
    "hamiltonian.build_hamiltonian": "hamiltonian.build_hamiltonian.calls",
}

# complex 64x64 matmul: 64^3 complex multiply-adds of 8 real flops each
FLOPS_PER_MATMUL64 = 8 * 64 ** 3


def _batch(rho0):
    return int(np.prod(np.shape(rho0)[:-2], dtype=np.int64))


def _evolve_counts(args, kwargs):
    """propagate.evolve is one span name, or evolve_record when it keeps
    the trajectory for the adjoint."""
    rho0, schedule = args[0], args[1]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    if cfg is None:
        propagate = importlib.import_module(f"{PACKAGE}.propagate")
        cfg = propagate.IntegratorConfig()
    record = args[3] if len(args) > 3 else kwargs.get("record", False)
    stages = args[4] if len(args) > 4 else kwargs.get("stages", False)
    batch = _batch(rho0)
    n_steps = cfg.steps_per_chunk(schedule.chunk_duration) * schedule.n_chunks
    if not record:
        return "propagate.evolve", {
            "propagate.evolve.state_steps": batch * n_steps}
    # complex 8x8 states at every step boundary, and with stages the
    # four RK4 slopes of every step
    matrices = (n_steps + 1) * batch + (4 * n_steps * batch if stages else 0)
    return "propagate.evolve_record", {
        "propagate.record_bytes": matrices * 64 * 16}


def _batch_h_counts(args, kwargs):
    rho0, hs, _, steps_per_chunk = args[:4]
    return "propagate.evolve_batch_h", {
        "propagate.evolve_batch_h.state_steps":
            _batch(rho0) * steps_per_chunk * len(hs)}


def pow_matmuls(n: int) -> int:
    """64x64 products in superop._pow for exponent n: one squaring per
    bit, one multiply per set bit."""
    return n.bit_length() + bin(n).count("1")


def matmul64_per_epoch(schedule, dt):
    """(performed, useful) 64x64 complex matmuls in one dataset_loss_grad.

    Counted from superop.py: per chunk, step_operator does 3, _pow does
    pow_matmuls(n), _pow_with_weight does 3 per squaring and 3 per set
    bit, and the adjoint weight contraction does 6. _pow_with_weight's
    T^n half repeats exactly _pow's products, so those are not useful.
    """
    n = round(schedule.chunk_duration / dt)
    per_chunk = 3 + pow_matmuls(n) + 3 * pow_matmuls(n) + 6
    performed = schedule.n_chunks * per_chunk
    return performed, performed - schedule.n_chunks * pow_matmuls(n)


def _superop_counts(args, kwargs):
    schedule, dt = args[3], args[4]
    performed, useful = matmul64_per_epoch(schedule, dt)
    return "superop.dataset_loss_grad", {
        "superop.matmul64.count": performed, "superop.matmul64.useful": useful}


COUNTED = ("propagate.evolve.state_steps", "propagate.record_bytes",
           "propagate.evolve_batch_h.state_steps")

COUNTERS = {
    "propagate.evolve": _evolve_counts,
    "propagate.evolve_batch_h": _batch_h_counts,
    "superop.dataset_loss_grad": _superop_counts,
}

UNITS = (("self_ms", "ms"), (".ms", "ms"), ("_ms", "ms"),
         ("ns_per_state_step", "ns"), ("record_bytes", "bytes"),
         ("gflops", "GFLOP/s"), ("useful_ratio", "ratio"))


def unit_of(metric):
    for suffix, unit in UNITS:
        if metric.endswith(suffix):
            return unit
    return "count"


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans = []     # [name, start_ns, end_ns, parent, op, counts]
        self._stack = []
        self._op = -1
        self._saved = []

    def install(self):
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_name, counts = (counter(args, kwargs) if counter
                                 else (name, None))
            index = len(spans)
            spans.append([span_name, clock(), 0,
                          stack[-1] if stack else -1, self._op, counts])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, name, op):
        """Wrappers installed and a root span open for the block: one
        benchmark operation or one correctness check."""
        self.install()
        self._op = op
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, -1, op, None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()
            self._op = -1
            self.uninstall()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op", "counts"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Self time in ns of every span, by index."""
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, n_ops):
    """Per-layer numbers per benchmark operation, from the recorded spans.

    Times are mean self milliseconds per operation, so that the layer
    times of an operation add up to its traced wall time. Spans under the
    correctness checks contribute only the exact-exponential oracle time.
    The superop matmul counts are computed from the code's structure for
    the schedule and step of each call, not measured, and given per epoch.
    """
    own = self_times(spans)
    totals = defaultdict(float)
    root_of = []
    op_ns = check_expm_ns = superop_ns = 0
    epochs = n_spans = 0
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        root_of.append(name if parent < 0 else root_of[parent])
        if root_of[i] == "bench.check":
            if name == "propagate.evolve_expm":
                check_expm_ns += own[i]
            continue
        n_spans += 1
        if parent < 0:
            op_ns += end - start
        if name == "superop.dataset_loss_grad":
            epochs += 1
            superop_ns += end - start
        metric = SELF_TIME_METRIC.get(name)
        if metric is None:
            raise KeyError(f"span {name!r} has no per-layer metric")
        totals[metric] += own[i] / 1e6
        if name in CALL_METRIC:
            totals[CALL_METRIC[name]] += 1
        for key, value in (counts or {}).items():
            totals[key] += value

    per_op = max(n_ops, 1)
    out = {metric: totals[metric] / per_op
           for metric in (*SELF_TIME_METRIC.values(), *CALL_METRIC.values(),
                          *COUNTED)}
    steps = totals["propagate.evolve.state_steps"]
    out["propagate.ns_per_state_step"] = (
        totals["propagate.evolve.ms"] * 1e6 / steps if steps else 0.0)
    out["propagate.evolve_expm.ms"] = check_expm_ns / 1e6 / per_op
    out["trace.op_ms"] = op_ns / 1e6 / per_op
    out["trace.spans_per_op"] = n_spans / per_op
    performed = totals["superop.matmul64.count"]
    out["superop.matmul64.count"] = performed / epochs if epochs else 0.0
    out["superop.matmul64.useful_ratio"] = (
        totals["superop.matmul64.useful"] / performed if epochs else 0.0)
    out["superop.gflops"] = (performed * FLOPS_PER_MATMUL64 / superop_ns
                             if epochs else 0.0)
    return out
