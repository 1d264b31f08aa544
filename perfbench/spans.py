"""In-memory span recorder for the traced benchmark run.

The traced run wraps public calls into each layer of ``repro`` from the
benchmark's own files (:func:`patch`); no code under ``src/`` changes.
Each span records its name, start and end (``perf_counter`` seconds),
its parent span and the ops (request, campaign or epoch ids) it belongs
to. Spans stay in memory and are written out as JSON lines when the run
ends (:meth:`Recorder.dump`).

Tree rule used by :func:`self_times`: a span's parent is the span that
was open on the same thread when it started. A span without a parent is
either an op root (name :data:`ROOT`) or a top-level span of work done
for ops on another thread (a serve worker's model call answering several
requests); the latter counts as a child of the root of every op it
serves. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

#: Name of the span covering one whole op.
ROOT = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    ops: tuple


class Recorder:
    """Thread-safe span list with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, parent=None, ops=()) -> int:
        """Record a finished span; returns its index."""
        with self._lock:
            self.spans.append(Span(name, start, end, parent, tuple(ops)))
            return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, ops=None):
        """Open a span nested under this thread's innermost open span.

        ``ops`` defaults to the parent's ops, so everything under an op
        root belongs to that op.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ops is None:
            ops = self.spans[parent].ops if parent is not None else ()
        index = self.add(name, time.perf_counter(), float("nan"), parent, ops)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def op(self, op_id):
        """Root span of one op."""
        return self.span(ROOT, ops=(op_id,))

    @contextlib.contextmanager
    def inside(self, index: int):
        """Nest this thread's next spans under the recorded span ``index``
        (an op root that another thread will close)."""
        stack = self._stack()
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()

    def current_ops(self) -> tuple:
        """Ops of this thread's innermost open span."""
        stack = self._stack()
        return self.spans[stack[-1]].ops if stack else ()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span (see the module docstring's tree rule)."""
    roots = {span.ops[0]: i for i, span in enumerate(spans) if span.name == ROOT}
    child = [0.0] * len(spans)
    for span in spans:
        duration = span.end - span.start
        if span.parent is not None:
            child[span.parent] += duration
        elif span.name != ROOT:
            for op in span.ops:
                if op in roots:
                    child[roots[op]] += duration
    return [span.end - span.start - c for span, c in zip(spans, child)]


def layer_totals(spans: list[Span], ops) -> tuple[dict[str, float], float, float]:
    """Self seconds per span name summed over ``ops``.

    A span serving k of the ops counts k times, once per op, so for each
    op the layer self times add up to its root's duration. Returns
    ``(self seconds by name, summed root wall, summed root self)``; the
    root's self time is the op time no layer span covers.
    """
    wanted = set(ops)
    totals: dict[str, float] = {}
    wall = unattributed = 0.0
    for span, own in zip(spans, self_times(spans)):
        share = sum(1 for op in span.ops if op in wanted)
        if not share:
            continue
        if span.name == ROOT:
            wall += span.end - span.start
            unattributed += own
        else:
            totals[span.name] = totals.get(span.name, 0.0) + own * share
    return totals, wall, unattributed


def calls(spans: list[Span], name: str, ops) -> int:
    wanted = set(ops)
    return sum(
        1 for span in spans if span.name == name and wanted.intersection(span.ops)
    )


def inclusive(spans: list[Span], name: str, ops) -> float:
    """Summed duration of the spans called ``name`` that belong to ``ops``."""
    wanted = set(ops)
    return sum(
        span.end - span.start
        for span in spans
        if span.name == name and wanted.intersection(span.ops)
    )


def _wrap(fn, recorder: Recorder, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Wrappers installed on module or class attributes, undone by
    :meth:`undo` (the traced run toggles them between phases)."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original function)``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def span(self, owner, attr: str, recorder: Recorder, name: str) -> None:
        """Wrap ``owner.attr`` in a span called ``name``."""
        self.replace(owner, attr, lambda fn: _wrap(fn, recorder, name))

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
