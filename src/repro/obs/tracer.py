"""Execution tracing: nested timed spans with a process-wide active tracer.

Every performance claim about the stack — a compiler pass, a compute
policy, a serving path — is a wall-clock number.  The tracer makes those
numbers *inspectable*: any code
path can open a named :class:`Span` around a unit of work (a compiler pass,
a layer's timestep, an engine call), spans nest per thread, and the finished
records export to JSONL or Chrome trace-event JSON
(:mod:`repro.obs.export`) for timeline inspection in Perfetto or
``chrome://tracing``.

The design mirrors :mod:`repro.runtime.policy`'s active-policy pattern:

* :func:`active_tracer` returns the process-wide tracer — a shared disabled
  :class:`NullTracer` by default, so instrumented code needs no ``if`` at
  module level;
* :func:`set_active_tracer` / :class:`using_tracer` install a real
  :class:`Tracer` process-wide or for a ``with`` block;
* the ``REPRO_TRACE`` environment variable enables tracing for a whole
  process at import time (``REPRO_TRACE=1``), optionally naming an export
  path written at interpreter exit (``REPRO_TRACE=trace.json`` → Chrome
  trace-event JSON, ``REPRO_TRACE=trace.jsonl`` → JSONL).

Overhead contract — the part instrumented hot loops rely on:

* When tracing is disabled, ``active_tracer()`` returns the shared
  :class:`NullTracer`, whose ``span()`` returns the shared
  :data:`NULL_SPAN` singleton: no ``Span`` object, no attribute dict, no
  clock read is ever allocated.  ``tracer.enabled`` is a plain attribute,
  so a hot loop can hoist one boolean check and skip instrumentation
  entirely (the executor does; the pinned gate in
  ``benchmarks/test_obs_overhead.py`` holds the disabled path to ≤2% of an
  uninstrumented loop).
* Hot call sites defer attribute payloads behind ``span.recording`` so a
  disabled run never builds the kwargs dict::

      with tracer.span("layer-step") as span:
          if span.recording:
              span.annotate(layer=layer.name, t=t)
          out = layer.step(signal)

Thread model: each :class:`Tracer` keeps a *per-thread* stack for implicit
parent linkage, so spans opened on one thread can never be adopted by a
span that happens to be open on another (each server worker thread builds
its own subtree).  Cross-thread structure is explicit: a worker passes
``parent=`` to root its subtree under a span opened on another thread.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Tuple, Union

__all__ = [
    "TRACE_ENV_VAR",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "active_tracer",
    "set_active_tracer",
    "using_tracer",
]

#: Environment variable enabling process-wide tracing at import.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Default bound on retained finished spans (oldest dropped beyond it).
DEFAULT_CAPACITY = 65536


class Span:
    """One named, timed unit of work — a context manager recorded on exit.

    Spans carry the fields the exporters need: wall-clock start/duration
    (from ``time.perf_counter``), the owning thread's id and name (the
    Chrome trace-event track), the parent span's id (implicit from the
    tracer's per-thread stack, or explicit via ``parent=``), a category for
    filtering, and a lazily created attribute dict.
    """

    __slots__ = (
        "tracer",
        "name",
        "category",
        "span_id",
        "parent_id",
        "thread_id",
        "thread_name",
        "start_s",
        "duration_s",
        "attributes",
    )

    #: Real spans record; hot call sites key attribute payloads off this.
    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        span_id: int,
        parent_id: Optional[int],
        attributes: Optional[dict],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        self.start_s = 0.0
        self.duration_s: Optional[float] = None
        self.attributes = attributes

    def annotate(self, **attributes) -> "Span":
        """Attach key/value attributes (merged over earlier ones)."""

        if self.attributes is None:
            self.attributes = attributes
        else:
            self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes) -> None:
        """Record an instant event stamped inside this span's track."""

        self.tracer.event(name, category=self.category, parent=self, **attributes)

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.duration_s = time.perf_counter() - self.start_s
        if exc_type is not None:
            self.annotate(error=repr(exc_value))
        self.tracer._pop(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.duration_s is None else f"{self.duration_s * 1e3:.3f}ms"
        return f"<Span {self.name!r} id={self.span_id} parent={self.parent_id} {state}>"


class NullSpan:
    """The do-nothing span — a shared singleton, so disabled tracing
    allocates nothing per call."""

    __slots__ = ()

    recording = False
    name = ""
    category = ""
    span_id = 0
    parent_id = None
    thread_id = 0
    thread_name = ""
    start_s = 0.0
    duration_s = 0.0
    attributes = None

    def annotate(self, **attributes) -> "NullSpan":
        return self

    def event(self, name: str, **attributes) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        pass


#: The shared no-op span every disabled code path receives.
NULL_SPAN = NullSpan()


class Tracer:
    """Thread-safe collector of finished :class:`Span` records.

    One tracer serves a whole process: spans opened concurrently on many
    threads link parents through *per-thread* stacks (`threading.local`),
    finished records land in one bounded, lock-guarded buffer (oldest
    dropped beyond ``capacity``; :attr:`dropped` counts the loss so an
    export can say it is partial).
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._finished: Deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.dropped = 0
        #: perf_counter of construction — the exporters' time origin, so
        #: trace timestamps start near zero instead of at machine uptime.
        self.epoch_s = time.perf_counter()

    # -- span lifecycle --------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(
        self,
        name: str,
        category: str = "repro",
        parent: Optional[Union[Span, NullSpan]] = None,
        **attributes,
    ) -> Span:
        """A new span; enter it with ``with``.  Parentage defaults to the
        innermost span open *on the calling thread*; pass ``parent=`` to
        link across threads (a worker rooting under the spawning run)."""

        if parent is None:
            stack = self._stack()
            parent_id = stack[-1].span_id if stack else None
        else:
            parent_id = parent.span_id if parent.recording else None
        return Span(
            tracer=self,
            name=name,
            category=category,
            span_id=next(self._ids),
            parent_id=parent_id,
            attributes=attributes or None,
        )

    def event(
        self,
        name: str,
        category: str = "repro",
        parent: Optional[Union[Span, NullSpan]] = None,
        **attributes,
    ) -> None:
        """Record an instant (zero-duration) event."""

        # reprolint: allow[tracer] -- instant event: the span is finalised inline below, never entered
        span = self.span(name, category=category, parent=parent, **attributes)
        span.start_s = time.perf_counter()
        span.duration_s = 0.0
        with self._lock:
            if len(self._finished) == self.capacity:
                self.dropped += 1
            self._finished.append(span)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # The span being closed is the innermost on this thread under
        # correct with-nesting; tolerate (and repair) mis-nested exits
        # rather than corrupting parentage for the rest of the run.
        if span in stack:
            while stack:
                if stack.pop() is span:
                    break
        with self._lock:
            if len(self._finished) == self.capacity:
                self.dropped += 1
            self._finished.append(span)

    # -- cross-process stitching -----------------------------------------------

    def adopt(
        self,
        records: List[dict],
        parent: Optional[Union[Span, NullSpan]] = None,
        epoch_s: float = 0.0,
    ) -> List[Span]:
        """Graft span records from another process into this tracer.

        ``records`` are :func:`repro.obs.export.span_record` rows — the
        shape a worker process ships over its reply queue (plain dicts,
        pickle-cheap).  Each record becomes a finished :class:`Span` with a
        *fresh* id from this tracer's counter; intra-batch parent links are
        remapped through the old→new id table, and records whose parent is
        missing from the batch (the worker's roots, or spans whose parent
        fell out of the worker's bounded buffer) are rooted under
        ``parent`` when given.

        ``epoch_s`` is the epoch the records' ``start_us`` values are
        relative to, in this process's ``time.perf_counter`` timebase.
        Workers serialize with ``epoch_s=0.0`` — absolute ``perf_counter``
        readings — which on Linux is ``CLOCK_MONOTONIC``, shared across
        fork, so the default ``0.0`` here aligns worker spans with the
        parent's timeline without any clock handshake.
        """

        parent_id = parent.span_id if parent is not None and parent.recording else None
        remap: dict = {}
        staged: List[Tuple[Span, Optional[int]]] = []
        for record in records:
            attributes = dict(record.get("attributes") or {})
            span = Span(
                tracer=self,
                name=str(record.get("name", "")),
                category=str(record.get("category", "repro")),
                span_id=next(self._ids),
                parent_id=None,
                attributes=attributes or None,
            )
            # Overwrite the thread fields __init__ captured from *this*
            # thread with the recording worker's own.
            span.thread_id = int(record.get("thread_id") or 0)
            span.thread_name = str(record.get("thread_name", ""))
            span.start_s = epoch_s + float(record.get("start_us") or 0.0) / 1e6
            span.duration_s = float(record.get("duration_us") or 0.0) / 1e6
            old_id = record.get("span_id")
            if old_id is not None:
                remap[old_id] = span.span_id
            staged.append((span, record.get("parent_id")))
        adopted: List[Span] = []
        for span, old_parent in staged:
            if old_parent is not None and old_parent in remap:
                span.parent_id = remap[old_parent]
            else:
                span.parent_id = parent_id
            adopted.append(span)
        with self._lock:
            for span in adopted:
                if len(self._finished) == self.capacity:
                    self.dropped += 1
                self._finished.append(span)
        return adopted

    # -- inspection ------------------------------------------------------------

    def finished(self) -> List[Span]:
        """Snapshot of the finished spans, oldest first."""

        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


class NullTracer:
    """The disabled tracer: every ``span()`` is the shared :data:`NULL_SPAN`.

    ``*args, **kwargs`` signatures keep even argument binding trivial —
    though hot call sites should pass no attribute kwargs at all (see the
    module docstring's ``span.recording`` idiom).
    """

    enabled = False
    dropped = 0
    epoch_s = 0.0

    def span(self, *args, **kwargs) -> NullSpan:
        return NULL_SPAN

    def event(self, *args, **kwargs) -> None:
        pass

    def finished(self) -> List[Span]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: The shared disabled tracer installed by default.
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Process-wide active tracer (mirrors repro.runtime's active-policy pattern)
# ---------------------------------------------------------------------------


class _ActiveTracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tracer: Union[Tracer, NullTracer] = NULL_TRACER

    def get(self) -> Union[Tracer, NullTracer]:
        # reprolint: allow[lock] -- single reference read; swaps in set() are atomic, a lock here is hot-path cost for nothing
        return self._tracer

    def set(self, tracer: Union[Tracer, NullTracer, None]) -> Union[Tracer, NullTracer]:
        with self._lock:
            previous = self._tracer
            self._tracer = tracer if tracer is not None else NULL_TRACER
        return previous


_ACTIVE = _ActiveTracer()


def active_tracer() -> Union[Tracer, NullTracer]:
    """The process-wide tracer — :data:`NULL_TRACER` unless one was installed
    via :func:`set_active_tracer`, :class:`using_tracer`, or ``REPRO_TRACE``."""

    return _ACTIVE.get()


def set_active_tracer(tracer: Union[Tracer, NullTracer, None]) -> Union[Tracer, NullTracer]:
    """Install a tracer process-wide (``None`` disables); returns the previous one."""

    return _ACTIVE.set(tracer)


class using_tracer:
    """Context manager scoping the active tracer to a ``with`` block::

        tracer = Tracer()
        with using_tracer(tracer):
            network.simulate(images, timesteps=50)
        write_chrome_trace(tracer, "trace.json")
    """

    def __init__(self, tracer: Union[Tracer, NullTracer, None]) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._previous: Optional[Union[Tracer, NullTracer]] = None

    def __enter__(self) -> Union[Tracer, NullTracer]:
        self._previous = _ACTIVE.set(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _ACTIVE.set(self._previous)


# ---------------------------------------------------------------------------
# REPRO_TRACE environment override
# ---------------------------------------------------------------------------

_TRUTHY = ("1", "true", "on", "yes")


def tracer_from_env(value: Optional[str]) -> Tuple[Union[Tracer, NullTracer], Optional[str]]:
    """The tracer (and optional atexit export path) for a ``REPRO_TRACE`` value.

    Pure so the override is testable without reimporting the module:
    falsy/unset → the disabled tracer; a truthy flag → an enabled tracer
    with no export; anything else is treated as an export path written at
    interpreter exit (``.jsonl`` → JSONL, otherwise Chrome trace-event
    JSON).
    """

    if not value:
        return NULL_TRACER, None
    if value.strip().lower() in _TRUTHY:
        return Tracer(), None
    return Tracer(), value.strip()


def _export_at_exit(tracer: Union[Tracer, NullTracer], path: str) -> None:
    from .export import write_chrome_trace, write_jsonl

    if path.endswith(".jsonl"):
        write_jsonl(tracer, path)
    else:
        write_chrome_trace(tracer, path)


def _install_from_env() -> None:
    tracer, path = tracer_from_env(os.environ.get(TRACE_ENV_VAR))
    if not tracer.enabled:
        return
    _ACTIVE.set(tracer)
    if path is not None:
        atexit.register(_export_at_exit, tracer, path)


_install_from_env()
