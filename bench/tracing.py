"""Layer spans for the traced benchmark runs, recorded from outside.

The program is not edited: a :class:`Tracer` replaces named functions
of ``repro`` with timing wrappers at every place a caller looks them up
-- each module-level binding of the function object (so ``from x
import f`` importers are covered), a class attribute, or an entry of a
registry dict -- and restores the originals on :meth:`Tracer.uninstall`.
Spans are kept in memory as ``(layer, start, end, thread, count,
is_async)`` tuples on the monotonic clock, which every process on the
host shares, so server-side spans line up with client timestamps.

Two ways to turn spans into self time:

- :func:`exclusive_wall` partitions an interval of wall time among
  layers: at each instant every thread inside a span credits its
  innermost layer, concurrent threads split the instant evenly, and an
  instant with no thread in any span goes to ``other``.  The parts sum
  to the interval exactly, threads or not.
- the serve benchmark sums durations per request instead (see
  ``serve_bench.breakdown``), because requests overlap on one loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

OTHER = "other"

Span = Tuple[str, float, float, int, int, bool]


def _one(args, kwargs, result) -> int:
    return 1


class Target:
    """One function to wrap.

    ``where`` is ``"module:attr"``, ``"module:Class.attr"`` or
    ``"module:DICT[key]"``.  ``count(args, kwargs, result)`` gives the
    span's work count (lanes, records, ...); it runs only on success.
    """

    def __init__(self, where: str, layer: str,
                 count: Callable = _one) -> None:
        self.where = where
        self.layer = layer
        self.count = count


class Tracer:
    """Install/uninstall timing wrappers; spans land in :attr:`spans`."""

    def __init__(self, targets: Sequence[Target]) -> None:
        self.spans: List[Span] = []
        self._patches: List[Tuple[object, object, object, object]] = []
        for target in targets:
            self._plan(target)

    def _plan(self, target: Target) -> None:
        module_name, _, path = target.where.partition(":")
        module = importlib.import_module(module_name)
        if "[" in path:
            name, _, key = path.partition("[")
            registry = getattr(module, name)
            key = key.rstrip("]")
            original = registry[key]
            self._patches.append((registry, key, original,
                                  self._wrap(original, target)))
        elif "." in path:
            class_name, _, attr = path.partition(".")
            owner = getattr(module, class_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._patches.append((owner, attr, raw, wrapped))
        else:
            original = getattr(module, path)
            wrapped = self._wrap(original, target)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, name, original,
                                              wrapped))

    def _wrap(self, function, target: Target):
        spans = self.spans
        layer, count = target.layer, target.count
        clock, ident = time.monotonic, threading.get_ident
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                start = clock()
                try:
                    return await function(*args, **kwargs)
                finally:
                    spans.append((layer, start, clock(), ident(), 1, True))
            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = clock()
            work = 0
            try:
                result = function(*args, **kwargs)
                work = count(args, kwargs, result)
                return result
            finally:
                spans.append((layer, start, clock(), ident(), work, False))
        return wrapper

    def install(self) -> None:
        for owner, key, _, wrapped in self._patches:
            _assign(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            _assign(owner, key, original)


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def innermost_events(spans: Sequence[Span]
                     ) -> List[Tuple[float, int, Optional[str]]]:
    """``(time, thread, layer)``: from ``time`` on, ``thread``'s innermost
    open span is ``layer`` (None: no span).  Async spans are skipped --
    they interleave on one thread instead of nesting."""
    by_thread: Dict[int, List[Tuple[float, float, str]]] = defaultdict(list)
    for layer, start, end, thread, _, is_async in spans:
        if not is_async:
            by_thread[thread].append((start, end, layer))
    events: List[Tuple[float, int, Optional[str]]] = []
    for thread, items in by_thread.items():
        items.sort(key=lambda item: (item[0], -item[1]))
        stack: List[Tuple[float, str]] = []
        for start, end, layer in items:
            while stack and stack[-1][0] <= start:
                closed, _ = stack.pop()
                events.append((closed, thread,
                               stack[-1][1] if stack else None))
            stack.append((end, layer))
            events.append((start, thread, layer))
        while stack:
            closed, _ = stack.pop()
            events.append((closed, thread, stack[-1][1] if stack else None))
    events.sort(key=lambda event: event[0])
    return events


def exclusive_wall(spans: Sequence[Span], start: float,
                   end: float) -> Dict[str, float]:
    """Split ``[start, end]`` among layers (seconds, summing to the span)."""
    totals: Dict[str, float] = defaultdict(float)
    active: Dict[int, str] = {}
    previous = start

    def credit(until: float) -> None:
        elapsed = until - previous
        if elapsed <= 0:
            return
        if active:
            share = elapsed / len(active)
            for layer in active.values():
                totals[layer] += share
        else:
            totals[OTHER] += elapsed

    for moment, thread, layer in innermost_events(spans):
        moment = min(max(moment, start), end)
        credit(moment)
        previous = max(previous, moment)
        if layer is None:
            active.pop(thread, None)
        else:
            active[thread] = layer
    credit(end)
    return dict(totals)


def layer_stats(spans: Sequence[Span]) -> Dict[str, Tuple[int, int]]:
    """Per layer: (calls, summed work counts)."""
    stats: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for layer, _, _, _, work, _ in spans:
        entry = stats[layer]
        entry[0] += 1
        entry[1] += work
    return {layer: (calls, work) for layer, (calls, work) in stats.items()}


def with_child(spans: Sequence[Span], outer: str,
               inner: str) -> List[Tuple[Span, float]]:
    """``(outer span, time inside inner children)`` for every ``outer``
    span that encloses at least one ``inner`` span on its thread."""
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span[0] in (outer, inner) and not span[5]:
            by_thread[span[3]].append(span)
    found = []
    for items in by_thread.values():
        items.sort(key=lambda span: (span[1], -span[2]))
        for index, span in enumerate(items):
            if span[0] != outer:
                continue
            inside, children = 0.0, 0
            following = index + 1
            while following < len(items) and items[following][1] < span[2]:
                child = items[following]
                if child[0] == inner:
                    inside += child[2] - child[1]
                    children += 1
                following += 1
            if children:
                found.append((span, inside))
    return found
