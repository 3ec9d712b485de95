"""In-memory spans around calls into hidim's modules, taken from outside.

The benchmark never edits ``src/``.  Instead, :func:`instrument` replaces a
function by a timing wrapper *at the attribute where the calling module
looks it up* (``hidim.sim.decompose`` is the name ``sim`` calls, not
``hidim.stats.decompose``) and puts every original back on exit.  Each call
becomes a span: name, start, end, parent span, thread id and the run id
shared by one run's spans, plus an optional measured quantity (values
produced, jitter applied).  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    run_id: str
    quantity: float = 0.0


class Tracer:
    """Collects spans from every thread of one run.

    A span opened on a thread with nothing open (a pool worker) takes as
    parent the innermost open span of the thread that opened the first
    span, which is blocked in the pool call that spawned the work.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_thread: Optional[int] = None
        self._root_stack: List[int] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if self._root_thread is None:
                self._root_thread = threading.get_ident()
                self._root_stack = stack
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._root_thread and self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        span = Span(name, time.perf_counter(), 0.0, parent,
                    threading.get_ident(), self.run_id)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, quantity: float = 0.0) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.quantity = quantity
        self._stack().pop()

    def dump(self, path) -> None:
        """Write the spans as JSON lines (times in seconds from the first span)."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start - origin,
                    "end": s.end - origin, "parent": s.parent, "thread": s.thread,
                    "run_id": s.run_id, "quantity": s.quantity}) + "\n")


def _no_quantity(args, kwargs, result) -> float:
    return 0.0


def _values_in(args, kwargs, result) -> float:
    return float(np.size(args[0] if args else kwargs["p"]))


def _block_size(args, kwargs, result) -> float:
    return float(np.size(result))


def _jittered(args, kwargs, result) -> float:
    return 1.0 if result.jitter_applied > 0.0 else 0.0


# (module, attribute the caller looks up, span name, measured quantity).
# Span names are "<layer>.<function>" after the module that defines the
# function, so a layer's calls are pooled whichever module made them.
SITES = (
    ("hidim.sim", "run_power_curve", "sim.run_power_curve", _no_quantity),
    ("hidim.sim", "run_null", "sim.run_null", _no_quantity),
    ("hidim.cli", "verify_var_i", "sim.verify_var_i", _no_quantity),
    ("hidim.cli", "verify_e_ii1", "sim.verify_e_ii1", _no_quantity),
    ("hidim.cli", "verify_kernels", "sim.verify_kernels", _no_quantity),
    ("hidim.cli", "main", "cli.main", _no_quantity),
    ("hidim.sim", "sample_gaussian", "generators.sample_gaussian", _no_quantity),
    ("hidim.sim", "calibrate_to_theta", "generators.calibrate_to_theta", _no_quantity),
    ("hidim.sim", "_uniform_open", "generators.uniform_open", _no_quantity),
    ("hidim.generators", "standard_normal_block", "generators.standard_normal_block",
     _block_size),
    ("hidim.sim", "statistic_t", "stats.statistic_t", _no_quantity),
    ("hidim.sim", "decompose", "stats.decompose", _no_quantity),
    ("hidim.sim", "term_i", "stats.term_i", _no_quantity),
    ("hidim.sim", "cholesky", "matrix.cholesky", _jittered),
    ("hidim.generators", "cholesky", "matrix.cholesky", _jittered),
    ("hidim.sim", "normal_quantile", "theory.normal_quantile", _values_in),
    ("hidim.generators", "normal_quantile", "theory.normal_quantile", _values_in),
    ("hidim.theory", "normal_quantile", "theory.normal_quantile", _values_in),
    ("hidim.sim", "normal_cdf", "theory.normal_cdf", _no_quantity),
    ("hidim.sim", "asymptotic_power", "theory.asymptotic_power", _no_quantity),
    ("hidim.sim", "var_i_exact", "moments.var_i_exact", _no_quantity),
    ("hidim.moments", "var_i_exact", "moments.var_i_exact", _no_quantity),
    ("hidim.moments", "s_sum", "moments.s_sum", _no_quantity),
    ("hidim.cli", "s_sum", "moments.s_sum", _no_quantity),
    ("hidim.sim", "expected_ii1", "moments.expected_ii1", _no_quantity),
    ("hidim.sim", "kernel_expectations", "moments.kernel_expectations", _no_quantity),
    ("hidim.cli", "kernel_expectations", "moments.kernel_expectations", _no_quantity),
    ("hidim.cli", "pair_partitions", "moments.pair_partitions", _no_quantity),
    ("hidim.cli", "central_pair_moment", "moments.central_pair_moment", _no_quantity),
    ("hidim.cli", "central_product_moment", "moments.central_product_moment",
     _no_quantity),
    ("hidim.cli", "f_partial", "moments.f_partial", _no_quantity),
    ("hidim.cli", "make_family_matrix", "generators.make_family_matrix", _no_quantity),
    ("hidim.kernels", "evaluate", "kernels.evaluate", _no_quantity),
    ("hidim.kernels", "expectation_by_expansion", "kernels.expectation_by_expansion",
     _no_quantity),
)

# The trial loop: its wrapper also puts a "sim.trial" span around each trial.
TRIAL_LOOP = ("hidim.sim", "_map_trials")


def _timed(tracer: Tracer, name: str, fn: Callable, quantity) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        amount = 0.0
        try:
            result = fn(*args, **kwargs)
            amount = quantity(args, kwargs, result)
            return result
        finally:
            tracer.end(index, amount)
    return traced


def _timed_trial_loop(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(trial_fn, trials, workers):
        def one(trial):
            index = tracer.begin("sim.trial")
            try:
                return trial_fn(trial)
            finally:
                tracer.end(index)
        index = tracer.begin("sim.trial_loop")
        try:
            return fn(one, trials, workers)
        finally:
            tracer.end(index)
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every site in SITES (and the trial loop) for the duration of
    the block; every original attribute is restored on exit."""
    saved = []
    try:
        for module_name, attr, name, quantity in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _timed(tracer, name, original, quantity))
        module = importlib.import_module(TRIAL_LOOP[0])
        original = getattr(module, TRIAL_LOOP[1])
        saved.append((module, TRIAL_LOOP[1], original))
        setattr(module, TRIAL_LOOP[1], _timed_trial_loop(tracer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- aggregation ---------------------------------------------------------

_TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)


def tail_percentile(durations: List[float]):
    """(level, value): the highest percentile of the ladder with at least
    ten samples beyond it; p50 when there are too few samples, (0, 0.0)
    when there are none."""
    if not durations:
        return 0.0, 0.0
    for level in _TAIL_LADDER:
        if len(durations) * (1.0 - level / 100.0) >= 10.0:
            return level, float(np.percentile(durations, level))
    return 50.0, float(np.percentile(durations, 50.0))


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    quantity: float = 0.0
    durations: List[float] = field(default_factory=list)


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def aggregate(spans: List[Span]) -> Dict[str, Aggregate]:
    """Per span name: call count, total and self time (seconds), summed
    quantity and every duration.  Self time is a span's duration minus the
    part of it that its child spans cover."""
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[str, Aggregate] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s.name, Aggregate())
        duration = s.end - s.start
        agg.calls += 1
        agg.total += duration
        agg.quantity += s.quantity
        agg.durations.append(duration)
        agg.self_time += duration - _covered(children.get(i, []), s.start, s.end)
    return out


def layer_self_time(aggs: Dict[str, Aggregate], layer: str) -> float:
    return sum(a.self_time for name, a in aggs.items() if name.split(".")[0] == layer)

