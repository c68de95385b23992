"""Outside-in layer trace: spans recorded around guidewave's public callables.

Nothing in ``src/`` is edited.  ``Tracer.patched()`` replaces each traced
callable at the name its caller looks it up under (``pipeline.compare`` for the
heat comparison, ``evolve.energy`` for the energy records, class attributes for
methods) and restores the originals on exit.  Spans stay in memory as
``(id, parent, name, start, end, thread)`` tuples; a span's self time is its
duration minus the part of its interval that its children cover, so parallel
children on pool threads are counted once.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int          # 0 for a root span
    name: str
    start: float         # time.perf_counter seconds
    end: float
    thread: int


class Tracer:
    """Collects spans and counters; thread-safe through list.append and a lock."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.pool_workers: dict[int, int] = {}
        self.pool_cpu: dict[int, float] = {}      # pool span id -> process CPU seconds
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, fn, name: str, prepare=None, parent: int | None = None):
        """Return ``fn`` recorded as span ``name``.

        ``prepare(args, kwargs) -> (args, kwargs)`` may count or rewrite the
        arguments before the call; ``parent`` overrides the calling thread's
        current span (used for pool tasks, whose cause is on another thread).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            pid = parent if parent is not None else (stack[-1] if stack else 0)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, pid, name, start, end, threading.get_ident()))

        return traced

    def pool_class(self):
        """ThreadPoolExecutor whose lifetime is span ``pipeline.pool`` and whose
        tasks are spans ``pipeline.pool.task`` parented to it.  The process CPU
        time spent while the pool is open is kept too: with more busy threads
        than cores (pool workers times BLAS threads) it grows while the task
        spans only stretch."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                stack = tracer._stack()
                self._trace_parent = stack[-1] if stack else 0
                self._trace_id = next(tracer._ids)
                tracer.pool_workers[self._trace_id] = self._max_workers
                stack.append(self._trace_id)
                self._trace_start = time.perf_counter()
                self._trace_cpu = time.process_time()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    end = time.perf_counter()
                    tracer.pool_cpu[self._trace_id] = time.process_time() - self._trace_cpu
                    tracer._stack().pop()
                    tracer.spans.append(Span(self._trace_id, self._trace_parent, "pipeline.pool",
                                             self._trace_start, end, threading.get_ident()))

            def submit(self, fn, /, *args, **kwargs):
                task = tracer.wrap(fn, "pipeline.pool.task", parent=tracer.current())
                return super().submit(task, *args, **kwargs)

        return TracedPool

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, replacement)`` triples."""
        saved = []
        try:
            for owner, attr, replacement in targets:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# what is traced


def layer_targets(tracer: Tracer, gw) -> list[tuple]:
    """``(owner, attribute, wrapper)`` for every traced guidewave callable.

    ``gw`` maps module names (config, pipeline, evolve, heat, resolvent,
    discretize) to the imported modules.
    """
    config, pipeline, evolve = gw["config"], gw["pipeline"], gw["evolve"]
    heat, resolvent, discretize = gw["heat"], gw["resolvent"], gw["discretize"]

    def matvecs(args, kwargs):
        op, adj, *rest = args
        return (tracer.wrap(op, "resolvent.matvec"), tracer.wrap(adj, "resolvent.matvec"),
                *rest), kwargs

    def io_bytes(args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.count("pipeline.io.bytes", len(text.encode("utf-8")))
        return args, kwargs

    def scan_points(args, kwargs):
        tracer.count("resolvent.norm_scan.points", len(args[0]))
        return args, kwargs

    plan = [
        (config, "load", "config.load", None),
        (pipeline, "cmd_evolve", "pipeline.cmd_evolve", None),
        (pipeline, "cmd_heat_compare", "pipeline.cmd_heat_compare", None),
        (pipeline, "cmd_resolvent", "pipeline.cmd_resolvent", None),
        (pipeline, "cmd_semiclassical", "pipeline.cmd_semiclassical", None),
        (pipeline, "atomic_write", "pipeline.io", io_bytes),
        (pipeline, "format_csv", "pipeline.io", None),
        (pipeline, "run", "evolve.run", None),
        (evolve.Stepper, "__init__", "evolve.stepper_init", None),
        (evolve.Stepper, "step", "evolve.step", None),
        (evolve.Stepper, "mode_energies", "evolve.mode_energies", None),
        (evolve, "energy", "evolve.energy", None),
        (pipeline, "compare", "heat.compare", None),
        (heat, "heat_apply", "heat.heat_apply", None),
        (heat, "heat_weighted_norm", "heat.weighted_norm", None),
        (resolvent, "mode_operator", "discretize.mode_operator", None),
        (discretize.ShiftedOperator, "solve", "discretize.solve", None),
        (discretize.ShiftedOperator, "solve_adjoint", "discretize.solve", None),
        (resolvent.SobolevScaler, "apply", "resolvent.sobolev_apply", None),
        (resolvent, "iterative_norm", "resolvent.iterative_norm", matvecs),
        (resolvent, "power_iteration_norm", "resolvent.power_iteration", None),
        (pipeline, "norm_scan", "resolvent.norm_scan", scan_points),
        (resolvent.EnergyNormResolvent, "op_norm", "resolvent.energy_norm.op_norm", None),
        (pipeline, "theta_probe", "resolvent.theta_probe", None),
        (pipeline, "semiclassical_scan", "resolvent.semiclassical_scan", None),
        (pipeline, "fit_power", "fit", None),
        (pipeline, "fit_exponential", "fit", None),
        (pipeline, "compare_models", "fit", None),
        (pipeline, "predict_exponent", "fit", None),
    ]
    targets = [(owner, attr, tracer.wrap(vars(owner)[attr], name, prepare))
               for owner, attr, name, prepare in plan]
    targets.append((pipeline, "ThreadPoolExecutor", tracer.pool_class()))
    return targets


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its children."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


#: span names whose self time is orchestration, not layer work
GLUE_PREFIXES = ("pipeline.cmd_", "pipeline.pool")


def layer_metrics(tracer: Tracer, windows, untraced_walls) -> dict[str, float]:
    """Per-layer metrics per traced iteration.

    ``windows`` are the (start, end) perf_counter intervals of the traced
    iterations (first pipeline call to last return); ``untraced_walls`` the
    walls of the untraced iterations of the same run.
    """
    spans = tracer.spans
    n_iter = len(windows)
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / n_iter

    def self_s(name):
        return sum(selfs[s.id] for s in by_name[name]) / n_iter

    names = {s.id: s.name for s in spans}
    scan_modes = sum(1 for s in by_name["discretize.mode_operator"]
                     if names.get(s.parent) == "resolvent.norm_scan")
    points = tracer.counters["resolvent.norm_scan.points"]

    steps_ms = [1e3 * (s.end - s.start) for s in by_name["evolve.step"]]

    tasks = defaultdict(list)
    for s in by_name["pipeline.pool.task"]:
        tasks[s.parent].append(s.end - s.start)
    pools = by_name["pipeline.pool"]
    pool_wall = sum(p.end - p.start for p in pools)
    capacity = sum(tracer.pool_workers[p.id] * (p.end - p.start) for p in pools)
    busy = sum(sum(tasks[p.id]) for p in pools)
    slowest = sum(max(tasks[p.id], default=0.0) for p in pools)

    traced_wall = sum(b - a for a, b in windows)
    layer_intervals = [(s.start, s.end) for s in spans if not s.name.startswith(GLUE_PREFIXES)]
    attributed = sum(covered(layer_intervals, a, b) for a, b in windows)
    untraced = statistics.median(untraced_walls)

    return {
        "config.load_s": self_s("config.load"),
        "discretize.mode_operator.calls": calls("discretize.mode_operator"),
        "discretize.solve.calls": calls("discretize.solve"),
        "discretize.solve.self_s": self_s("discretize.solve"),
        "evolve.stepper_init.self_s": self_s("evolve.stepper_init"),
        "evolve.step.calls": calls("evolve.step"),
        "evolve.step.self_s": self_s("evolve.step"),
        "evolve.step.p50_ms": percentile(steps_ms, 50),
        "evolve.step.p99_ms": percentile(steps_ms, 99),
        "evolve.mode_energies.self_s": self_s("evolve.mode_energies"),
        "evolve.energy.self_s": self_s("evolve.energy"),
        "heat.compare.self_s": self_s("heat.compare"),
        "heat.heat_apply.calls": calls("heat.heat_apply"),
        "heat.weighted_norm.calls": calls("heat.weighted_norm"),
        "heat.weighted_norm.self_s": self_s("heat.weighted_norm"),
        "resolvent.sobolev_apply.calls": calls("resolvent.sobolev_apply"),
        "resolvent.sobolev_apply.self_s": self_s("resolvent.sobolev_apply"),
        "resolvent.iterative_norm.calls": calls("resolvent.iterative_norm"),
        "resolvent.iterative_norm.matvecs": calls("resolvent.matvec"),
        "resolvent.iterative_norm.self_s": self_s("resolvent.iterative_norm"),
        "resolvent.matvec.self_s": self_s("resolvent.matvec"),
        "resolvent.power_iteration.calls": calls("resolvent.power_iteration"),
        "resolvent.norm_scan.modes_per_point": scan_modes / points if points else 0.0,
        "resolvent.energy_norm.op_norm.self_s": self_s("resolvent.energy_norm.op_norm"),
        "resolvent.theta_probe.self_s": self_s("resolvent.theta_probe"),
        "fit.self_s": self_s("fit"),
        "pipeline.io.self_s": self_s("pipeline.io"),
        "pipeline.io.bytes": tracer.counters["pipeline.io.bytes"] / n_iter,
        "pipeline.pool.busy_share": busy / capacity if capacity else 0.0,
        "pipeline.pool.slowest_task_share": slowest / pool_wall if pool_wall else 0.0,
        "pipeline.pool.cpu_s": sum(tracer.pool_cpu[p.id] for p in pools) / n_iter,
        "trace.overhead_share": (traced_wall / n_iter - untraced) / untraced,
        "trace.attributed_share": attributed / traced_wall,
    }
