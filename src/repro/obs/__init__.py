"""Observability: tracing, metrics and trace export for the whole stack.

``repro.obs`` is a bottom layer next to :mod:`repro.runtime` — it depends
on nothing else in the package, and everything above it (the compiler's
pass pipeline, the timestep executor, the serving tier) is instrumented
against it:

* :class:`Tracer` — thread-safe nested spans with per-thread parent
  linkage, a zero-allocation no-op when disabled, and the process-wide
  :func:`active_tracer` / :func:`using_tracer` /``REPRO_TRACE`` selection
  pattern shared with compute policies;
* :class:`MetricsRegistry` — named counters, gauges and bounded-memory
  histograms (:func:`global_registry` is the shared process instance);
* exporters — :func:`write_jsonl` for flat records and
  :func:`write_chrome_trace` for Chrome trace-event JSON loadable in
  Perfetto / ``chrome://tracing`` (``repro-serve demo --trace out.json``
  produces one), with :func:`validate_chrome_trace` pinning the schema.

``docs/observability.md`` walks the tracer API, the exporters and the
``perfbench/`` benchmark that reads them end to end.
"""

from .tracer import (
    DEFAULT_CAPACITY,
    NULL_SPAN,
    NULL_TRACER,
    TRACE_ENV_VAR,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    active_tracer,
    set_active_tracer,
    tracer_from_env,
    using_tracer,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from .export import (
    chrome_trace_events,
    read_jsonl,
    span_record,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "NULL_SPAN",
    "NULL_TRACER",
    "TRACE_ENV_VAR",
    "NullSpan",
    "NullTracer",
    "Span",
    "Tracer",
    "active_tracer",
    "set_active_tracer",
    "tracer_from_env",
    "using_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "chrome_trace_events",
    "read_jsonl",
    "span_record",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
