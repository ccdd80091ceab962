"""Nested spans with zero allocation when tracing is disabled.

A :class:`Tracer` records a tree of :class:`Span` objects per query:
``buffer.fetch`` at the storage boundary (one span per physical page
read — the unit the paper counts as NUM_IO), ``index.probe`` per R*-tree
node, ``engine.lb_batch`` per batched lower-bound evaluation,
``candidate.verify`` per verification cascade (one candidate, or one
retrieved batch of them), ``deferred.drain`` per
deferred-buffer flush, and an ``engine.search`` root wrapping the whole
query.  Control-plane checkpoints surface as span *events* so budget /
deadline pressure is visible on the same timeline.

Two design rules keep the disabled tracer free:

* ``tracer.span(...)`` returns a shared :data:`NULL_SPAN` singleton when
  ``enabled`` is false — no ``Span`` object is ever allocated.
* The per-page-read hot paths additionally guard on ``tracer.enabled``
  before even calling ``span()``, so the disabled cost is one attribute
  load and one branch.  The golden-counter suite and the bench engine
  digests prove the disabled tracer is behaviour-identical.

Spans must be opened with a ``with`` statement (``with tracer.span(
"buffer.fetch", page=pid):``), because a span opened without ``with``
stays on the stack and corrupts the nesting of everything recorded
after it; :func:`validate_span_tree`, run over every golden config by
the trace-conformance suite, is what fails when one leaks.  The one
legitimate exception is a span covering a generator's lifetime
(:class:`~repro.engines.ranked_union.MatchStream`), which pairs
``start_span`` with ``end_span`` across calls and is current only
while the generator runs: :meth:`Tracer.suspend` takes it off the
stack between calls and :meth:`Tracer.resume` puts it back.

Timestamps come from an injectable :class:`~repro.core.clock.Clock`;
with ``FakeClock(auto_advance=...)`` every enter/exit tick is distinct,
which is how the conformance suite asserts strict monotonicity without
trusting the host clock.

Thread safety (multi-query era): a tracer may be shared by several
query threads.  The open-span *stack* is thread-local — each thread
records its own well-formed tree, and nesting errors are detected per
thread — while the shared aggregates (recorded roots, span/event
counts, drop counters) are guarded by a lock.  The disabled fast path
takes no lock at all: it is still one attribute load and one branch.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.analysis.concurrency import guarded_by, shared_across_queries
from repro.core.clock import MONOTONIC_CLOCK, Clock
from repro.exceptions import ConfigurationError, UsageError
from repro.obs.metrics import MetricsRegistry

#: Hard ceilings are a safety net, not a tuning knob: a runaway span
#: loop degrades the trace (spans are dropped and counted) instead of
#: exhausting memory.
DEFAULT_MAX_SPANS = 250_000
DEFAULT_MAX_EVENTS = 250_000


class SpanEvent:
    """A point-in-time marker attached to a span (e.g. a checkpoint)."""

    __slots__ = ("name", "time", "attrs")

    def __init__(self, name: str, time: float, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.time = time
        self.attrs = attrs

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "time": self.time}
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        return data


class Span:
    """One timed, attributed node in a query's span tree."""

    __slots__ = ("name", "attrs", "start", "end", "children", "events", "_tracer")

    def __init__(
        self,
        name: str,
        attrs: Dict[str, Any],
        start: float,
        tracer: "Tracer",
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end: Optional[float] = None
        self.children: List[Span] = []
        self.events: List[SpanEvent] = []
        self._tracer = tracer

    # -- context manager --------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer.end_span(self)

    def close(self) -> None:
        """Close a manually opened span (pairs with ``start_span``)."""
        self._tracer.end_span(self)

    # -- introspection ----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus time attributed to direct children."""
        return self.duration - sum(c.duration for c in self.children)

    def iter_tree(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first preorder."""
        stack: List[Span] = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def count(self, name: str) -> int:
        """Number of spans named ``name`` in this subtree."""
        return sum(1 for span in self.iter_tree() if span.name == name)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly recursive representation."""
        data: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.events:
            data["events"] = [event.as_dict() for event in self.events]
        if self.children:
            data["children"] = [child.as_dict() for child in self.children]
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class NullSpan:
    """The shared do-nothing span a disabled tracer hands out.

    Supports the same surface as :class:`Span` so call sites never
    branch on the tracer state just to use the return value.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None

    def close(self) -> None:
        return None

    def count(self, name: str) -> int:
        return 0


#: Singleton: every disabled ``span()`` call returns this same object,
#: so a disabled tracer allocates nothing per call.
NULL_SPAN = NullSpan()

AnySpan = Union[Span, NullSpan]


@shared_across_queries
@guarded_by(
    "_lock",
    "roots",
    "dropped_spans",
    "dropped_events",
    "_span_count",
    "_event_count",
)
class Tracer:
    """Records nested spans and events on an injectable clock.

    Thread safety: the open-span stack lives in a ``threading.local``,
    so concurrent queries each build well-formed per-thread trees; the
    shared aggregates (``roots`` and the span/event/drop counters) are
    guarded by ``_lock``.  A *disabled* tracer never touches the lock.

    Parameters
    ----------
    enabled:
        Off by default.  A disabled tracer is inert: ``span()`` returns
        :data:`NULL_SPAN`, ``event()`` returns immediately, and nothing
        is allocated or recorded.
    clock:
        Time source for span boundaries (default: the process
        monotonic clock).  Inject a FakeClock with ``auto_advance`` for
        deterministic, strictly increasing timestamps.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` instrumented
        code records into alongside spans.  A fresh registry is created
        when not supplied, so ``tracer.metrics`` is always usable.
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if max_spans < 1:
            raise ConfigurationError(f"max_spans must be >= 1, got {max_spans}")
        if max_events < 0:
            raise ConfigurationError(
                f"max_events must be >= 0, got {max_events}"
            )
        self.enabled = bool(enabled)
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_spans = max_spans
        self.max_events = max_events
        self.roots: List[Span] = []
        self.dropped_spans = 0
        self.dropped_events = 0
        self._lock = threading.RLock()
        self._local = threading.local()
        self._span_count = 0
        self._event_count = 0

    @property
    def _stack(self) -> List[Span]:
        """This thread's open-span stack (created lazily per thread)."""
        stack: Optional[List[Span]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- span lifecycle ---------------------------------------------------

    def start_span(self, name: str, **attrs: Any) -> AnySpan:
        """Open a span now; close it with ``with`` or ``end_span``.

        Prefer ``with tracer.span(...)``: a span left open corrupts the
        nesting of everything recorded after it.
        """
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            if self._span_count >= self.max_spans:
                self.dropped_spans += 1
                return NULL_SPAN
            self._span_count += 1
        span = Span(name, attrs, self.clock.monotonic(), self)
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        return span

    #: ``span`` is the public spelling used at instrumentation sites;
    #: ``start_span`` is the primitive.
    def span(self, name: str, **attrs: Any) -> AnySpan:
        return self.start_span(name, **attrs)

    def end_span(self, span: AnySpan) -> None:
        """Close ``span``; it must be this thread's innermost open span."""
        if isinstance(span, Span):
            self.suspend(span)
            span.end = self.clock.monotonic()

    def suspend(self, span: AnySpan) -> None:
        """Take this thread's innermost open span off the stack, open.

        Spans recorded afterwards do not nest under it until
        :meth:`resume` makes it current again.
        """
        if not isinstance(span, Span):
            return
        stack = self._stack
        if not stack or stack[-1] is not span:
            raise UsageError(
                f"out-of-order span close for {span.name!r}: spans must "
                "close innermost-first (open them with 'with')"
            )
        stack.pop()

    def resume(self, span: AnySpan) -> None:
        """Make a suspended span this thread's innermost open span again."""
        if isinstance(span, Span):
            self._stack.append(span)

    def event(self, name: str, **attrs: Any) -> None:
        """Attach an instant event to the innermost open span.

        Events outside any span are dropped (and counted) — an event is
        a point on a query timeline, not a free-floating record.
        """
        if not self.enabled:
            return
        stack = self._stack
        with self._lock:
            if not stack or self._event_count >= self.max_events:
                self.dropped_events += 1
                return
            self._event_count += 1
        stack[-1].events.append(
            SpanEvent(name, self.clock.monotonic(), attrs)
        )

    # -- introspection ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of spans currently open *on the calling thread*."""
        return len(self._stack)

    @property
    def span_total(self) -> int:
        """Spans recorded since the last :meth:`reset` (all threads)."""
        with self._lock:
            return self._span_count

    def iter_spans(self) -> Iterator[Span]:
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.iter_tree()

    def span_count(self, name: str) -> int:
        """Total spans named ``name`` across all recorded roots."""
        return sum(1 for span in self.iter_spans() if span.name == name)

    def reset(self) -> None:
        """Drop all recorded spans/events (open spans included)."""
        with self._lock:
            self.roots = []
            # A fresh threading.local drops every thread's open stack.
            self._local = threading.local()
            self._span_count = 0
            self._event_count = 0
            self.dropped_spans = 0
            self.dropped_events = 0

    # -- export -----------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """All recorded roots in Chrome ``chrome://tracing`` format."""
        with self._lock:
            roots = list(self.roots)
        return chrome_trace(roots)


def chrome_trace(
    roots: List[Span], pid: int = 0, tid: int = 0
) -> Dict[str, Any]:
    """Render span trees as a Chrome trace-event JSON document.

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps; span events become instant (``"ph": "i"``) events.
    Load the file at ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    trace_events: List[Dict[str, Any]] = []
    for root in roots:
        for span in root.iter_tree():
            end = span.end if span.end is not None else span.start
            record: Dict[str, Any] = {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(0.0, (end - span.start)) * 1e6,
                "pid": pid,
                "tid": tid,
            }
            if span.attrs:
                record["args"] = _jsonable(span.attrs)
            trace_events.append(record)
            for event in span.events:
                instant: Dict[str, Any] = {
                    "name": event.name,
                    "ph": "i",
                    "ts": event.time * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                }
                if event.attrs:
                    instant["args"] = _jsonable(event.attrs)
                trace_events.append(instant)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def _jsonable(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Attribute dict with non-JSON values stringified."""
    clean: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            clean[key] = value
        else:
            clean[key] = repr(value)
    return clean


#: The process-wide disabled tracer.  Components default their
#: ``tracer`` attribute to this so un-instrumented construction paths
#: (tests building a bare ``BufferPool``, say) need no wiring.
NULL_TRACER = Tracer(enabled=False)


def validate_span_tree(root: Span) -> List[str]:
    """Structural problems in a span tree (empty list = well-formed).

    Checks every span is closed, ``end >= start``, and children nest
    inside their parent's interval.  Used by the conformance suite and
    handy when debugging new instrumentation.
    """
    problems: List[str] = []
    for span in root.iter_tree():
        if span.end is None:
            problems.append(f"span {span.name!r} never closed")
            continue
        if span.end < span.start:
            problems.append(
                f"span {span.name!r} ends before it starts "
                f"({span.end} < {span.start})"
            )
        for child in span.children:
            if child.start < span.start:
                problems.append(
                    f"child {child.name!r} starts before parent "
                    f"{span.name!r}"
                )
            if child.end is not None and span.end is not None:
                if child.end > span.end:
                    problems.append(
                        f"child {child.name!r} ends after parent "
                        f"{span.name!r}"
                    )
    return problems
