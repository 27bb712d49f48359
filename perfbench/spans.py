"""Span recording for the traced benchmark run, kept outside the program.

The traced run replaces public functions at the program's module
boundaries with wrappers that record a span: name, start, end, parent span
and operation id.  Each name is replaced where its caller looks it up (a
module global, a class attribute), so the program itself is unchanged.
Spans stay in memory; :meth:`Tracer.records` hands them out at the end.

A handful of the layers the benchmark reports are entered once per explored
state (successor candidates, determinism checks).  Recording a span per
call would cost more than the work, so those are *timers*: the wrapper adds
its elapsed time to the enclosing span's ``inner`` total and to a per-op
counter, and never allocates a record.

An operation can run on more than one thread: a ``serve-edit-stream`` op
pushes and polls on the caller's thread while the daemon's threads do the
work.  A span opened on a thread with an empty stack during an operation
hangs off the innermost span open on the operation's own thread at that
moment, and is marked as being on another *lane*.

A layer's self time is its span's duration minus the part of that interval
its child spans cover, minus the timer time spent directly inside it
(:func:`self_times`).  A span on the operation's own thread also gives up
the time that work on another thread of the same operation covers, so that
concurrent work is counted once, under the layer that does it, and not
again under the caller that waits for it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter


@dataclass(frozen=True)
class Span:
    """One recorded call of a wrapped layer function."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]
    #: Timer time (per-state layers) spent directly inside this span.
    inner: float = 0.0
    #: 0 on the operation's own thread, 1 on any other thread.
    lane: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and per-state timers; installs and removes wrappers."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: (op, timer name) -> [calls, seconds]
        self.timers: Dict[Tuple[Optional[str], str], List[float]] = defaultdict(lambda: [0, 0.0])
        #: The operation in progress, and the span stack of the thread it
        #: runs on: a span opened on another thread with an empty stack (a
        #: server worker) hangs off the innermost span open there.
        self.op: Optional[str] = None
        self._op_stack: Optional[List[list]] = None

    # ------------------------------------------------------------------ spans
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent, lane = stack[-1][0], stack[-1][6]
        elif self._op_stack is None or self._op_stack is stack:
            parent, lane = None, 0
        else:
            # The operation's thread may close its span while this runs.
            innermost = self._op_stack[-1:]
            parent, lane = (innermost[0][0] if innermost else None), 1
        frame = [next(self._ids), name, clock(), parent, self.op, 0.0, lane]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = clock()
        stack = self._stack()
        stack.pop()
        span_id, name, start, parent, op, inner, lane = frame
        self._spans.append(Span(span_id, name, start, end, parent, op, inner, lane))

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            op: Optional[str] = None, inner: float = 0.0) -> int:
        """Record a span measured elsewhere (another process, a timestamp pair)."""
        span_id = next(self._ids)
        self._spans.append(Span(span_id, name, start, end, parent, op, inner))
        return span_id

    def adopt(self, spans: Sequence[Span], op: Optional[str], parent: Optional[int]) -> None:
        """Take in spans recorded by another tracer (another process) under ``parent``."""
        mapping = {span.id: next(self._ids) for span in spans}
        for span in spans:
            self._spans.append(
                Span(mapping[span.id], span.name, span.start, span.end,
                     mapping.get(span.parent, parent), op, span.inner, span.lane)
            )

    def begin_op(self, op: str) -> list:
        """Open the root span of one operation, on the calling thread."""
        self.op = op
        self._op_stack = self._stack()
        return self.open("op")

    def end_op(self, frame: list) -> None:
        self.close(frame)
        self.op = None
        self._op_stack = None

    def records(self) -> List[Span]:
        return list(self._spans)

    # ------------------------------------------------------------------ wrapping
    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Record a span around every call of ``owner.attribute``."""
        function = getattr(owner, attribute)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(frame)

        self._patch(owner, attribute, traced)

    def time(self, owner: object, attribute: str, name: str) -> None:
        """Accumulate the time of every call of ``owner.attribute`` (no span)."""
        function = getattr(owner, attribute)
        timers = self.timers
        local = self._local

        @functools.wraps(function)
        def timed(*args, **kwargs):
            # A timed call made from inside another timed call is left to
            # the outer timer, so no time is counted twice.
            if getattr(local, "timing", False):
                return function(*args, **kwargs)
            local.timing = True
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                local.timing = False
                stack = self._stack()
                if stack:
                    stack[-1][5] += elapsed
                entry = timers[(self.op, name)]
                entry[0] += 1
                entry[1] += elapsed

        self._patch(owner, attribute, timed)

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Put every wrapped name back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------- arithmetic
def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        a = max(a, cursor)
        total += b - a
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus what its children cover and its inner timer time.

    A span on the operation's own thread (lane 0) also gives up the time
    covered by the spans that work on another thread of the same operation
    opened first, so each instant of concurrent work counts once.
    """
    lanes = {span.id: span.lane for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    elsewhere: Dict[Optional[str], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
        if span.lane and lanes.get(span.parent, 0) == 0:
            elsewhere[span.op].append((span.start, span.end))
    own = {}
    for span in spans:
        covered = children.get(span.id, [])
        if span.lane == 0 and span.op is not None:
            covered = covered + elsewhere.get(span.op, [])
        own[span.id] = max(0.0, span.duration - covered_length(covered, span.start, span.end) - span.inner)
    return own


def layer_self_times(spans: Sequence[Span], op_filter: Callable[[Optional[str]], bool]) -> Dict[str, float]:
    """Summed self time per span name over the spans whose op passes ``op_filter``."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if op_filter(span.op):
            totals[span.name] += own[span.id]
    return dict(totals)


def layer_calls(spans: Sequence[Span], op_filter: Callable[[Optional[str]], bool]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        if op_filter(span.op):
            counts[span.name] += 1
    return dict(counts)
