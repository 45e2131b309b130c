"""In-memory spans around calls into the program's layers.

The benchmark traces the program from outside: :class:`Tracer`
replaces a layer function with a timing wrapper under every name a
caller looks it up by (module globals and class attributes), records
one span per call, and puts the originals back on :meth:`Tracer.remove`.
Spans carry a parent id and the op id of the benchmark op that caused
them; they stay in memory until the run writes them out.

A span's *self* time is its duration minus the time its child spans
cover.  Every wrapped call here is synchronous (it cannot yield to the
event loop mid-call), so spans on one thread nest properly and the
self times of all spans inside an op add up to the op's traced time.
Coroutines are counted, never timed: their duration would include
other tasks' work.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

KERNEL = "sim.engine.kernel"


#: Accesses a call simulated, from its arguments and result.
AccessCount = Callable[[tuple, dict, Any], int]


def _segment_accesses(args: tuple, kwargs: dict, result: Any) -> int:
    return int(np.sum(args[2]))


def _leading_length(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


def _recorded_length(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result.trace)


#: Kernel entries of the compiled backend (the one ``run.py`` pins), by
#: function name in ``repro.sim.engine._compiled``, with how each
#: call's simulated accesses are counted.
KERNEL_ENTRIES: dict[str, AccessCount] = {
    "schedule_count_compiled": _segment_accesses,
    "fused_multitask_compiled": _segment_accesses,
    "lockstep_run_compiled": _leading_length,
    "blocks_count_compiled": _leading_length,
}


class _CountedSteps:
    """Awaitable that drives a coroutine and counts its steps."""

    def __init__(self, coroutine: Any, counts: dict[str, int], name: str):
        self._coroutine = coroutine
        self._counts = counts
        self._name = name

    def __await__(self):
        coroutine = self._coroutine
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self._counts[self._name] = self._counts.get(self._name, 0) + 1
            try:
                if error is None:
                    future = coroutine.send(value)
                else:
                    future = coroutine.throw(error)
            except StopIteration as stop:
                return stop.value
            try:
                value, error = (yield future), None
            except BaseException as raised:  # relayed into the coroutine
                value, error = None, raised


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float = 0.0
    accesses: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans and call counts while its wrappers are installed."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> Span:
        span = Span(
            span_id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            op=self.op,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.span_id:
            raise RuntimeError(
                f"span {span.name!r} closed out of order"
            )

    def timed(
        self,
        name: str,
        func: Callable,
        accesses: Optional[AccessCount] = None,
    ) -> Callable:
        """``func`` wrapped in a span named ``name``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(span)
            if accesses is not None:
                span.accesses = accesses(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, func: Callable) -> Callable:
        """Coroutine function ``func`` with its resumptions counted.

        Every step of the coroutine, the first call and each wake-up
        after an ``await`` suspended it, counts once (as ``cProfile``
        counts coroutine calls): that is the event-loop work the
        coroutine causes.
        """
        counts = self.counts

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            return await _CountedSteps(func(*args, **kwargs), counts, name)

        return wrapper

    # -- installing ----------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module: Any, attr: str, name: str,
                      accesses: Optional[AccessCount] = None) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module.

        Callers that did ``from module import name`` hold their own
        global; each one is rebound, so the wrapper sits wherever a
        caller looks the function up.  A function the program no
        longer has is skipped, and its layer reads 0.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self.timed(name, original, accesses)
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        coroutine: bool = False,
        accesses: Optional[AccessCount] = None,
    ) -> None:
        """Replace a method on its class (subclasses inherit it).

        A method the class no longer has is skipped.
        """
        original = cls.__dict__.get(attr)
        if original is None:
            return
        wrapper = (
            self.counted(name, original)
            if coroutine
            else self.timed(name, original, accesses)
        )
        self._set(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer function the benchmark reports on."""
        from repro.fleet import broker
        from repro.fleet.service.daemon import FleetService
        from repro.fleet.service.shard import ShardServer
        from repro.layout.algorithm import DataLayoutPlanner
        from repro.profiling import profiler
        from repro.sim import multitask
        from repro.sim.engine import _compiled, backends, fused
        from repro.sim.engine import multitask_batch
        from repro.sim.executor import TraceExecutor
        from repro.workloads.base import Workload

        if backends.active_backend() != "compiled":
            raise RuntimeError("tracing expects the compiled kernel backend")
        for entry, accesses in KERNEL_ENTRIES.items():
            self.wrap_function(_compiled, entry, KERNEL, accesses)
        for module, attr, name in (
            (
                multitask_batch,
                "simulate_multitask_matrix",
                "sim.engine.matrix",
            ),
            (fused, "fused_multitask_run", "sim.engine.fused"),
            (multitask, "quantum_schedule", "sim.multitask.quantum_schedule"),
            (broker, "demand_curves", "fleet.broker.demand_curves"),
            (profiler, "profile_trace", "profiling.profile_trace"),
        ):
            self.wrap_function(module, attr, name)
        self.wrap_method(ShardServer, "advance", "fleet.service.shard.advance")
        self.wrap_method(
            ShardServer, "snapshot", "fleet.service.telemetry.snapshot"
        )
        self.wrap_method(
            FleetService,
            "wait_until",
            "fleet.service.daemon.wait_until",
            coroutine=True,
        )
        self.wrap_method(
            DataLayoutPlanner, "plan_from_profile", "layout.plan"
        )
        self.wrap_method(
            Workload, "record", "workloads.record",
            accesses=_recorded_length,
        )
        self.wrap_method(TraceExecutor, "run", "sim.executor.run")

    def remove(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans and counts out as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                [s.span_id, s.parent, s.op, s.name, s.start, s.end,
                 s.accesses]
                for s in self.spans
            ],
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


@dataclass
class LayerTotals:
    """Per-layer sums over a set of traced ops."""

    inclusive: dict[str, float]
    self_seconds: dict[str, float]
    calls: dict[str, int]
    accesses: dict[str, int]
    top_level: float


def layer_totals(spans: list[Span], roots: set[int]) -> LayerTotals:
    """Sum spans below the op root spans ``roots``.

    *Inclusive* time per layer counts only outermost spans of that
    name (a layer re-entering itself is not counted twice); *self*
    time subtracts every child span.  ``top_level`` is the time the
    roots' direct children cover.
    """
    by_id = {span.span_id: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.seconds
            )
    inclusive: dict[str, float] = {}
    self_seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    accesses: dict[str, int] = {}
    top_level = 0.0
    for span in spans:
        if span.span_id in roots or span.parent is None:
            continue
        ancestor = by_id[span.parent]
        if ancestor.span_id in roots:
            top_level += span.seconds
        nested = False
        while ancestor.span_id not in roots:
            if ancestor.name == span.name:
                nested = True
                break
            ancestor = by_id[ancestor.parent]
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        accesses[name] = accesses.get(name, 0) + span.accesses
        self_seconds[name] = self_seconds.get(name, 0.0) + (
            span.seconds - child_time.get(span.span_id, 0.0)
        )
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + span.seconds
    return LayerTotals(inclusive, self_seconds, calls, accesses, top_level)
