"""Span recording for the traced run, kept entirely in this package.

A :class:`Tracer` holds spans in memory; :meth:`Tracer.wrap` replaces a
public callable (on a module, a class or an instance) with a shim that
records one span per call.  Nothing under ``src/`` is edited: the shims
are installed only by a traced run and removed by :meth:`Tracer.restore`.

Span fields: ``parent`` (index of the enclosing span, ``None`` for the
root of an operation), ``layer`` (the ``repro`` module, e.g.
``server.planner``), ``name``, ``start_ns`` / ``end_ns``
(``perf_counter_ns`` of the recording process), ``trace`` (the
``(client_id, frame index)`` of the operation, set on its root and
inherited by descendants) and ``counts``.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Any, Callable

PARENT, LAYER, NAME, START, END, TRACE, COUNTS = range(7)

#: ``counts`` hook of a shim: ``(result, args) -> {count name: number}``.
CountFn = Callable[[Any, tuple], dict]


class _NullSpan:
    """What a disabled tracer hands out: enters and exits for free."""

    def __enter__(self) -> int:
        return -1

    def __exit__(self, *exc: object) -> None:
        return None


_NULL = _NullSpan()


class _Span:
    """Context manager of one synchronous span on the tracer's stack."""

    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> int:
        self.tracer._stack.append(self.index)
        return self.index

    def __exit__(self, *exc: object) -> None:
        self.tracer._stack.pop()
        self.tracer.spans[self.index][END] = time.perf_counter_ns()


class Tracer:
    """Span list plus the stack of currently open synchronous spans.

    A disabled tracer (the untraced run) records nothing, so the
    workloads call it unconditionally.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: The awaited span synchronous callees attach to while no
        #: synchronous span is open (a coroutine's span cannot sit on
        #: the stack across its awaits).
        self.async_parent: int | None = None
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def open(
        self,
        layer: str,
        name: str,
        *,
        trace: tuple | None = None,
        parent: int | None = None,
        start_ns: int | None = None,
    ) -> int:
        """Start a span that outlives the call stack (an awaited frame)."""
        if not self.enabled:
            return -1
        if start_ns is None:
            start_ns = time.perf_counter_ns()
        self.spans.append([parent, layer, name, start_ns, None, trace, None])
        return len(self.spans) - 1

    def close(self, index: int, counts: dict | None = None) -> None:
        if not self.enabled:
            return
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        if counts:
            span[COUNTS] = counts

    def span(
        self, layer: str, name: str, *, trace: tuple | None = None
    ) -> "_Span | _NullSpan":
        """A synchronous span under the innermost open one.

        Passing ``trace`` starts a new operation: the span is a root.
        """
        if not self.enabled:
            return _NULL
        parent = None
        if trace is None:
            parent = self._stack[-1] if self._stack else self.async_parent
        return _Span(self, self.open(layer, name, trace=trace, parent=parent))

    def set_trace(self, trace: tuple) -> None:
        """Name the operation the outermost open span belongs to."""
        if self._stack:
            self.spans[self._stack[0]][TRACE] = trace

    def add_counts(self, index: int, counts: dict) -> None:
        span = self.spans[index]
        span[COUNTS] = {**(span[COUNTS] or {}), **counts}

    # -- shims -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: str,
        counts: CountFn | None = None,
        *,
        root: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording shim.

        ``root`` marks the synchronous entry point of an operation: its
        span never takes a parent, and a ``counts`` hook names the trace
        once it is known (:meth:`set_trace`).
        """
        original = getattr(owner, attr)
        raw = inspect.getattr_static(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def shim(*args: Any, **kwargs: Any) -> Any:
                outer = tracer.async_parent
                index = tracer.open(layer, name, parent=outer)
                tracer.async_parent = index
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.async_parent = outer
                    tracer.close(index)

        else:

            @functools.wraps(original)
            def shim(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(layer, name, trace=() if root else None) as index:
                    result = original(*args, **kwargs)
                    if counts is not None:
                        tracer.add_counts(index, counts(result, args))
                    return result

        # An attribute found on a base class (or, for an instance, on its
        # class) is shadowed by the shim, so undoing it is a delete.
        own = attr in vars(owner)
        self._patched.append((owner, attr, raw if own else None))
        setattr(owner, attr, shim)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- export ------------------------------------------------------------

    def records(self) -> list[dict]:
        """Spans as JSON-ready dicts; descendants inherit the root's trace."""
        out = []
        for index, span in enumerate(self.spans):
            root = span
            while root[PARENT] is not None:
                root = self.spans[root[PARENT]]
            out.append(
                {
                    "trace": root[TRACE],
                    "span": index,
                    "parent": span[PARENT],
                    "layer": span[LAYER],
                    "name": span[NAME],
                    "start_ns": span[START],
                    "end_ns": span[END],
                    "counts": span[COUNTS] or {},
                }
            )
        return out


def self_times(records: list[dict]) -> list[int]:
    """Self time of each span: its duration minus its children's."""
    by_id = {r["span"]: i for i, r in enumerate(records)}
    out = [r["end_ns"] - r["start_ns"] for r in records]
    for r in records:
        # A parent outside ``records`` (a filtered-out operation) is skipped.
        if r["parent"] in by_id:
            out[by_id[r["parent"]]] -= r["end_ns"] - r["start_ns"]
    return out


def totals(records: list[dict]) -> tuple[dict, dict]:
    """Sum self time (ns) and counts per ``layer.name`` over ``records``."""
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for record, own in zip(records, self_times(records)):
        key = f"{record['layer']}.{record['name']}"
        self_ns[key] += own
        for count, value in record["counts"].items():
            counts[f"{record['layer']}.{count}"] += value
    return dict(self_ns), dict(counts)
