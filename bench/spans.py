"""In-memory span recording for the traced benchmark run.

A span is (name, parent, start, end, outside) in perf_counter nanoseconds.
Spans are appended to flat arrays while the run goes and written out once at
the end. `outside` is the wrapper's own time around the span: its tag, hooks
and bookkeeping, clocked on entry to the wrapper and on leaving it.

Self time is a span's duration minus, for each direct child, the child's
duration, its `outside` time and `child_cost_ns`: what a wrapped call still
leaves in its caller beyond a plain call (the call into the wrapper and the
halves of its first and last clock reads), measured by `child_cost_ns()`.
Without these a parent's self time would mostly be the recording cost of
its children.

Nothing here knows about implicit_td: `layers.py` says which functions to
wrap, and `traced` rebinds them for the duration of a `with` block.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np


def self_times(
    parent: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    outside: np.ndarray,
    child_cost: float = 0.0,
) -> np.ndarray:
    """Duration of each span minus, summed over its direct children, each
    child's duration and `outside` time plus `child_cost`.

    `parent[i]` is the index of span i's parent, or -1 for a root span.
    """
    duration = end - start
    children = np.zeros(duration.shape, dtype=np.float64)
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested] + outside[nested] + child_cost)
    return duration - children


class Tracer:
    """Collects spans and named counters in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outside = array("q")
        self._stack = [-1]
        self.counters: Counter[str] = Counter()

    def name_index(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.outside.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        tag: Callable[..., str] | None = None,
        before: Callable[..., object] | None = None,
        after: Callable[[Counter, object, object, tuple], None] | None = None,
    ) -> Callable:
        """Return `fn` wrapped in a span named `name` (or `name.<tag(args)>`).

        `before(*args)` runs outside the span and its return value is handed
        to `after(counters, token, result, args)`, which also runs outside it.
        """
        fixed = self.name_index(name) if tag is None else -1
        counters = self.counters
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            entered = clock()
            nid = fixed if tag is None else self.name_index(f"{name}.{tag(*args, **kwargs)}")
            token = before(*args, **kwargs) if before is not None else None
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(counters, token, result, args)
            self.outside[i] = clock() - entered - (self.end[i] - self.start[i])
            return result

        return wrapper

    def stats(self, child_cost: float = 0.0) -> "SpanStats":
        """Durations and self times; `child_cost` as in `self_times`."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        outside = np.frombuffer(self.outside, dtype=np.int64)
        return SpanStats(
            names=list(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            duration_ns=end - start,
            self_ns=self_times(parent, start, end, outside, child_cost),
            counters=Counter(self.counters),
        )

    def write(self, path: Path) -> None:
        """Write every recorded span to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            outside_ns=np.frombuffer(self.outside, dtype=np.int64),
        )


def child_cost_ns() -> float:
    """What a wrapped call leaves in its caller's self time beyond its span,
    its `outside` time and a plain call, in nanoseconds.

    A wrapped loop of calls to a wrapped no-op has this per call as self
    time over the time of the same loop of plain calls. Median of 5 pairs.
    """
    calls = 20_000

    def noop() -> None:
        return None

    def loop(fn: Callable[[], None]) -> None:
        for _ in range(calls):
            fn()

    estimates = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        loop(noop)
        plain_ns = time.perf_counter_ns() - t0
        tracer = Tracer()
        tracer.wrap(loop, "loop")(tracer.wrap(noop, "noop"))
        wrapped_ns = tracer.stats().self_total_ns("loop")
        estimates.append((wrapped_ns - plain_ns) / calls)
    return statistics.median(estimates)


class SpanStats(NamedTuple):
    """Per-span durations and self times, grouped by name on request."""

    names: list[str]
    name_id: np.ndarray
    duration_ns: np.ndarray
    self_ns: np.ndarray
    counters: Counter

    def _mask(self, name: str) -> np.ndarray | None:
        if name not in self.names:
            return None
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        mask = self._mask(name)
        return 0 if mask is None else int(mask.sum())

    def self_total_ns(self, name: str) -> int:
        mask = self._mask(name)
        return 0 if mask is None else int(self.self_ns[mask].sum())

    def durations_ns(self, name: str) -> np.ndarray:
        mask = self._mask(name)
        return np.zeros(0, dtype=np.int64) if mask is None else self.duration_ns[mask]


class Binding(NamedTuple):
    """One name to rebind: `owner.attribute`, recorded as span `name`."""

    owner: object
    attribute: str
    name: str
    tag: Callable[..., str] | None = None
    before: Callable[..., object] | None = None
    after: Callable[[Counter, object, object, tuple], None] | None = None


@contextmanager
def traced(tracer: Tracer, bindings: list[Binding]) -> Iterator[Tracer]:
    """Rebind every binding to a span-recording wrapper; restore on exit.

    Bindings must not repeat an (owner, attribute) pair. Originals are read
    from the owner's own `__dict__`, so a class attribute is restored as the
    plain function it was.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for b in bindings:
            original = vars(b.owner)[b.attribute]
            saved.append((b.owner, b.attribute, original))
            setattr(
                b.owner,
                b.attribute,
                tracer.wrap(original, b.name, b.tag, b.before, b.after),
            )
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
