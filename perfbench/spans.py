"""Spans for the traced benchmark run, recorded from outside the package.

A `Tracer` rebinds public functions of `bsf` to wrappers that record one span
per call: name, start, end, parent span and request id (the trial index, -1
outside a trial). The rebinding replaces the function object in every loaded
`bsf` module that holds it, so a call through a name imported elsewhere, such
as `harness.gd_igd` or `fitting.weighted_design_matrix`, is traced as well.
Each wrapper also updates the layer's counters (calls, rows, pairs, ...) from
the arguments and the result. Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

PACKAGE = "bsf"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    request: int  # trial index, -1 outside a trial


def _nrows(obj) -> int:
    """Row count of an array or of a SampleSet's objective matrix."""
    rows = getattr(obj, "objectives", obj)
    return len(rows)


def _add(c: dict, key: str, n: int) -> None:
    c[key] = c.get(key, 0) + n


def _result_rows(key: str):
    def count(c, args, kwargs, result):
        _add(c, key, _nrows(result))

    return count


def _count_pairs(c, args, kwargs, result):
    _add(c, "pairs", _nrows(args[0]) * _nrows(args[1]))


def _count_rows_kept(c, args, kwargs, result):
    _add(c, "rows", len(result))
    _add(c, "kept", int(result.sum()))


def _count_new_pool(c, args, kwargs, result):
    # the program caches pools, so only a pool array not returned before is new work
    seen = c.setdefault("_seen", set())
    if id(result[0]) not in seen:
        seen.add(id(result[0]))
        _add(c, "points", len(result[0]))


def _count_fit(c, args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    _add(c, "fits", 1)
    _add(c, "outer_iters", result.outer_iterations)
    _add(c, "capped", int(result.outer_iterations >= cfg.max_outer_iters))


def _trial_of(args, kwargs) -> int:
    return int(kwargs["trial"] if "trial" in kwargs else args[1])


@dataclass(frozen=True)
class Target:
    """One traced function: span name, defining module, attribute path."""

    name: str
    module: str
    attr: str
    count: Callable | None = None
    request: Callable | None = None  # (args, kwargs) -> request id for nested spans


TARGETS = (
    Target("harness.run_trial", "bsf.harness", "run_trial", request=_trial_of),
    Target("problems.make_training_set", "bsf.problems", "make_training_set"),
    Target("problems.feasible_pool", "bsf.problems", "feasible_pool", _count_new_pool),
    Target("pareto.nondominated_mask", "bsf.pareto", "nondominated_mask", _count_rows_kept),
    Target("fitting.fit_inductive_skeleton", "bsf.fitting", "fit_inductive_skeleton", _count_fit),
    Target("fitting.fit_all_at_once", "bsf.fitting", "fit_all_at_once", _count_fit),
    Target("fitting.init_parameters", "bsf.fitting", "init_parameters"),
    Target("fitting.project_parameter", "bsf.fitting", "project_parameter"),
    Target("fitting.solve_control_points", "bsf.fitting", "solve_control_points"),
    Target("bezier.weighted_design_matrix", "bsf.bezier", "weighted_design_matrix", _result_rows("rows")),
    Target("metrics.grid_sample", "bsf.metrics", "grid_sample", _result_rows("points")),
    Target("metrics.gd_igd", "bsf.metrics", "gd_igd", _count_pairs),
    Target("response_surface.fit_response_surface", "bsf.response_surface", "fit_response_surface"),
    Target("response_surface.sample_grid", "bsf.response_surface", "ResponseSurface.sample_grid",
           _result_rows("points")),
)


def rebind(original, replacement, package: str = PACKAGE) -> list[tuple[object, str]]:
    """Put `replacement` wherever a loaded module of `package` holds `original`.

    Returns the (module, attribute) pairs changed, for `restore`.
    """
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def restore(changed: list[tuple[object, str]], original) -> None:
    for owner, attr in changed:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span and counter store; `installed` turns tracing on."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, dict] = {}
        self._stack: list[int] = []
        self._request = -1

    def call(self, name: str, fn, args=(), kwargs=None, request: Callable | None = None,
             count: Callable | None = None):
        """Run fn(*args, **kwargs) inside a span named `name`, then update its
        counters; `request` may name the request id for nested spans."""
        kwargs = kwargs or {}
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        outer_request = self._request
        if request is not None:
            self._request = request(args, kwargs)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._request)
            self._request = outer_request
        counters = self.counts.setdefault(name, {})
        _add(counters, "calls", 1)
        if count is not None:
            count(counters, args, kwargs, result)
        return result

    def wrap(self, target: Target, fn):
        def traced(*args, **kwargs):
            return self.call(target.name, fn, args, kwargs, target.request, target.count)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Rebind every target for the duration of the block, then restore."""
        undo = []
        try:
            for target in targets:
                owner = import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                traced = self.wrap(target, original)
                if path:  # a method: the class attribute is the one place to rebind
                    setattr(owner, attr, traced)
                    undo.append(([(owner, attr)], original))
                else:
                    undo.append((rebind(original, traced), original))
            yield self
        finally:
            for changed, original in reversed(undo):
                restore(changed, original)

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Copy of the cumulative counters, without private bookkeeping keys."""
        return {
            name: {k: v for k, v in counters.items() if not k.startswith("_")}
            for name, counters in self.counts.items()
        }

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.finished()):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "request": s.request}
                    )
                    + "\n"
                )


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span], indices=None) -> dict[str, float]:
    """Per span name, the summed duration not covered by the span's children.

    `indices` limits the sum to some spans (for example one batch); children
    are looked up over the whole list, so pass whole trees.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for i in range(len(spans)) if indices is None else indices:
        s = spans[i]
        own = (s.end - s.start) - covered(s.start, s.end, children.get(i, ()))
        out[s.name] = out.get(s.name, 0.0) + own
    return out
