"""Trace exporters: JSONL records and Chrome trace-event JSON.

Two formats cover the two consumption modes:

* **JSONL** (:func:`write_jsonl` / :func:`read_jsonl`) — one flat JSON
  object per finished span, for ad-hoc analysis with ``jq``/pandas and for
  lossless round-trips (the reader returns exactly the dictionaries the
  writer produced).
* **Chrome trace-event JSON** (:func:`chrome_trace_events` /
  :func:`write_chrome_trace`) — the ``{"traceEvents": [...]}`` format
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
  directly.  Spans become complete (``"ph": "X"``) events on one track per
  thread; instant events become ``"ph": "i"`` marks; thread names are
  attached as ``"ph": "M"`` metadata so server worker threads are
  labelled in the timeline.

:func:`validate_chrome_trace` checks the structural contract of the
trace-event format (the schema the viewer actually requires) and is what
the test suite runs against every exported trace.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .tracer import NullTracer, Span, Tracer

__all__ = [
    "span_record",
    "write_jsonl",
    "read_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
]


def _spans(source: Union[Tracer, NullTracer, Sequence[Span]]) -> List[Span]:
    if isinstance(source, (Tracer, NullTracer)):
        return source.finished()
    return list(source)


def _epoch(source: Union[Tracer, NullTracer, Sequence[Span]], spans: Sequence[Span]) -> float:
    if isinstance(source, (Tracer, NullTracer)):
        return source.epoch_s
    return min((span.start_s for span in spans), default=0.0)


def span_record(span: Span, epoch_s: float = 0.0) -> Dict[str, object]:
    """One span as a flat JSON-serialisable dictionary (the JSONL row)."""

    return {
        "name": span.name,
        "category": span.category,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "thread_id": span.thread_id,
        "thread_name": span.thread_name,
        "start_us": (span.start_s - epoch_s) * 1e6,
        "duration_us": (span.duration_s or 0.0) * 1e6,
        "attributes": dict(span.attributes) if span.attributes else {},
    }


def write_jsonl(source: Union[Tracer, NullTracer, Sequence[Span]], path: Union[str, os.PathLike]) -> int:
    """Write one JSON object per finished span; returns the span count."""

    spans = _spans(source)
    epoch = _epoch(source, spans)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span_record(span, epoch), sort_keys=True))
            handle.write("\n")
    return len(spans)


def read_jsonl(path: Union[str, os.PathLike]) -> List[Dict[str, object]]:
    """Read the records :func:`write_jsonl` produced, in order."""

    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _json_safe(value: object) -> object:
    """Coerce attribute values to what ``json.dumps`` accepts (repr fallback)."""

    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    try:
        return float(value)  # numpy scalars
    except (TypeError, ValueError):
        return repr(value)


def chrome_trace_events(
    source: Union[Tracer, NullTracer, Sequence[Span]],
    process_name: str = "repro",
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The Chrome trace-event payload for a tracer's finished spans.

    Timestamps are microseconds relative to the tracer's epoch; durations
    are microseconds.  Every thread that contributed a span gets a
    ``thread_name`` metadata event so Perfetto labels its track.
    """

    spans = _spans(source)
    epoch = _epoch(source, spans)
    pid = os.getpid()
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    named_threads: Dict[int, str] = {}
    for span in spans:
        if span.thread_id not in named_threads:
            named_threads[span.thread_id] = span.thread_name
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": {"name": span.thread_name},
                }
            )
        args: Dict[str, object] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.attributes:
            for key, value in span.attributes.items():
                args[str(key)] = _json_safe(value)
        duration_us = (span.duration_s or 0.0) * 1e6
        event: Dict[str, object] = {
            "name": span.name,
            "cat": span.category,
            "pid": pid,
            "tid": span.thread_id,
            "ts": (span.start_s - epoch) * 1e6,
            "args": args,
        }
        if duration_us > 0.0:
            event["ph"] = "X"
            event["dur"] = duration_us
        else:
            event["ph"] = "i"
            event["s"] = "t"  # instant event scoped to its thread
        events.append(event)
    payload: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    other: Dict[str, object] = dict(metadata or {})
    if isinstance(source, (Tracer, NullTracer)) and source.dropped:
        other["dropped_spans"] = source.dropped
    if other:
        payload["otherData"] = {key: _json_safe(value) for key, value in other.items()}
    return payload


def write_chrome_trace(
    source: Union[Tracer, NullTracer, Sequence[Span]],
    path: Union[str, os.PathLike],
    process_name: str = "repro",
    metadata: Optional[Dict[str, object]] = None,
) -> int:
    """Write the Chrome trace-event JSON; returns the span count exported."""

    spans = _spans(source)
    payload = chrome_trace_events(source, process_name=process_name, metadata=metadata)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return len(spans)


_VALID_PHASES = {"X", "i", "M", "B", "E", "b", "e", "C"}


def validate_chrome_trace(payload: object) -> List[Dict[str, object]]:
    """Check ``payload`` against the trace-event structural schema.

    Raises ``ValueError`` on the first violation; returns the event list on
    success.  The checks mirror what Perfetto / ``chrome://tracing``
    require to load a JSON object trace: a ``traceEvents`` list whose
    entries carry a string ``name``, a known ``ph`` phase, numeric
    non-negative ``ts`` (and ``dur`` for complete events), and integer
    ``pid``/``tid``.
    """

    if not isinstance(payload, dict):
        raise ValueError(f"trace payload must be a JSON object, got {type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload must carry a 'traceEvents' list")
    for index, event in enumerate(events):
        label = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{label} must be an object")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{label} needs a non-empty string 'name'")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"{label} has unknown phase {phase!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{label} needs an integer {key!r}")
        if phase == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{label} needs a non-negative numeric 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{label} (complete event) needs a non-negative 'dur'")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{label} 'args' must be an object")
    return events
