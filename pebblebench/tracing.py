"""Spans around the calls into each ``repro`` layer, kept in memory.

The benchmark records spans from its own files: ``install_inprocess`` and
``install_server`` replace the layer entry points with wrappers for the
duration of a traced phase, and ``Tracer.uninstall`` restores them.  A span
is ``[id, name, start, end, parent_id, request_id, child_time, meta]``;
its self time is its duration minus the time its child spans cover.
Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so
spans recorded in the server process line up with client timestamps.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Meta = Optional[Callable[[tuple, dict, Any], Any]]


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _task_key(task: Any) -> Tuple[str, str, str, str]:
    return (task.dag, str(task.model), task.method, str(task.red_limit))


class Tracer:
    """Thread-aware span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> Any:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: Any) -> None:
        self._local.request = value

    def _open(self, name: str, nested: bool) -> list:
        stack = self._stack() if nested else []
        parent = stack[-1] if stack else None
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                parent[0] if parent else None, self.request, 0.0, None]
        if nested:
            stack.append(span)
        span.append(parent)
        return span

    def _close(self, span: list, nested: bool) -> None:
        span[3] = time.perf_counter()
        parent = span.pop()
        if nested:
            self._stack().pop()
        if parent is not None:
            parent[6] += span[3] - span[2]
        self.spans.append(span)

    # -- wrappers ------------------------------------------------------

    def wrap(self, target: str, name: str, meta: Meta = None) -> None:
        owner, attr = _resolve(target)
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return orig(*args, **kwargs)
            span = tracer._open(name, True)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span, True)
            if meta is not None:
                span[7] = meta(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def wrap_async(self, target: str, name: str, meta: Meta = None) -> None:
        """Wrap a coroutine function; its spans are not nested (several
        run interleaved on one event-loop thread)."""
        owner, attr = _resolve(target)
        orig = owner.__dict__[attr]
        tracer = self

        @functools.wraps(orig)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return await orig(*args, **kwargs)
            span = tracer._open(name, False)
            try:
                result = await orig(*args, **kwargs)
            finally:
                tracer._close(span, False)
            if meta is not None:
                span[7] = meta(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def wrap_method_factory(self, target: str, name: str) -> None:
        """Wrap a function that returns callables (``resolve_method``) so
        every callable it hands out records a span when called."""
        owner, attr = _resolve(target)
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def factory(*args: Any, **kwargs: Any) -> Any:
            fn = orig(*args, **kwargs)
            if not tracer.enabled:
                return fn

            def traced(*a: Any, **k: Any) -> Any:
                span = tracer._open(name, True)
                try:
                    return fn(*a, **k)
                finally:
                    tracer._close(span, True)

            return traced

        setattr(owner, attr, factory)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def detach(self) -> None:
        """Stop recording and drop the spans (for a forked child)."""
        self.enabled = False
        self.spans = []

    def export(self) -> List[list]:
        return [s[:8] for s in self.spans]


def by_name(spans: List[list]) -> Dict[str, List[list]]:
    out: Dict[str, List[list]] = {}
    for span in spans:
        out.setdefault(span[1], []).append(span)
    return out


def duration(span: list) -> float:
    return span[3] - span[2]


def self_time(span: list) -> float:
    return span[3] - span[2] - span[6]


# -- the layer entry points ------------------------------------------------


def _moves_of_result(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result.schedule)


def _search_counts(args: tuple, kwargs: dict, result: Any) -> Tuple[int, int]:
    return (result.expanded, result.generated)


def install_inprocess(tracer: Tracer) -> None:
    """Spans for the solve and heuristic paths run in this process."""
    tracer.wrap("repro.generators:dag_from_spec", "generators.build")
    tracer.wrap("repro.core.instance:PebblingInstance.__init__", "core.instance")
    tracer.wrap("repro.core.simulator:PebblingSimulator.run", "core.replay",
                lambda a, k, r: r.steps)
    tracer.wrap("repro.solvers.exact:solve_optimal", "solvers.solve",
                _search_counts)
    tracer.wrap("repro.solvers.multilevel:solve_multilevel_optimal",
                "multilevel.solve", _search_counts)
    tracer.wrap("repro.multilevel.game:MultilevelSimulator.run",
                "multilevel.replay", lambda a, k, r: r.steps)
    tracer.wrap("repro.heuristics:greedy_pebble", "heuristics.greedy",
                _moves_of_result)
    tracer.wrap("repro.heuristics:beam_search_pebble", "heuristics.beam",
                _moves_of_result)
    tracer.wrap("repro.heuristics:fixed_order_schedule",
                "heuristics.fixed_order", lambda a, k, r: len(r))
    tracer.wrap("repro.experiments.backends:execute_task",
                "experiments.execute", lambda a, k, r: r.wall_time)
    tracer.wrap_method_factory("repro.experiments.methods:resolve_method",
                               "experiments.method")


def install_server(tracer: Tracer) -> None:
    """Spans for the service path, installed in the server process."""
    tracer.wrap_async("repro.service.jobs:JobQueue.submit", "service.submit",
                      lambda a, k, r: (_task_key(a[1]), bool(r.cached)))
    tracer.wrap("repro.experiments.store:ResultStore.get",
                "experiments.store.get", lambda a, k, r: r is not None)
    tracer.wrap("repro.experiments.store:ResultStore.put",
                "experiments.store.put")
    tracer.wrap("repro.experiments.backends:MultiprocessingBackend.run_tasks",
                "experiments.backend.run_tasks",
                lambda a, k, r: {"keys": [_task_key(t) for _, t in a[1]],
                                 "walls": [res.wall_time for _, res in r]})
    tracer.wrap("repro.experiments.backends:MultiprocessingBackend._spawn",
                "experiments.backend.spawn")
    tracer.wrap("repro.experiments.backends:MultiprocessingBackend._retire",
                "experiments.backend.retire")
