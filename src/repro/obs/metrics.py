"""Metrics: named counters, gauges and histograms behind one registry.

Where the tracer (:mod:`repro.obs.tracer`) answers "where did this run
spend its time", metrics answer "how often / how much" across runs: request
counts, queue waits, batch sizes, exit timesteps.  The
instruments are deliberately small:

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — last-written value;
* :class:`Histogram` — streaming count/sum/min/max plus a bounded window of
  recent observations for percentile estimates (the window keeps a
  long-running server's memory constant, exactly like the serving metrics
  ring buffer).

A :class:`MetricsRegistry` maps names to instruments, creating them on
first use so instrumentation sites never need set-up code.  The process
ships one shared registry (:func:`global_registry`) that the serving tier
feeds; isolated registries can be constructed freely (tests do).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
]


class Counter:
    """A monotonically increasing total (thread-safe)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def summary(self) -> Dict[str, float]:
        with self._lock:
            return {"value": self._value}


class Gauge:
    """A last-written value (thread-safe)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def summary(self) -> Dict[str, float]:
        return {"value": self._value}


class Histogram:
    """Streaming distribution summary with bounded percentile memory.

    Count, sum, min and max are exact over every observation; percentiles
    are estimated from the ``window_size`` most recent observations so the
    instrument's memory stays constant however long the process runs.
    """

    kind = "histogram"

    def __init__(self, name: str, window_size: int = 4096) -> None:
        if window_size <= 0:
            raise ValueError(f"window_size must be positive, got {window_size}")
        self.name = name
        self.window_size = window_size
        self._lock = threading.Lock()
        self._window: Deque[float] = deque(maxlen=window_size)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            self._window.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @staticmethod
    def _nearest_rank(window: List[float], q: float) -> float:
        if not window:
            return 0.0
        rank = min(len(window) - 1, max(0, round(q / 100.0 * (len(window) - 1))))
        return window[rank]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained window (0 when empty)."""

        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must lie in [0, 100], got {q}")
        with self._lock:
            window: List[float] = sorted(self._window)
        return self._nearest_rank(window, q)

    def summary(self) -> Dict[str, float]:
        # One locked snapshot so count/sum/percentiles describe the same
        # instant; percentiles come from the local copy rather than
        # self.percentile(), which would re-take the non-reentrant lock.
        with self._lock:
            count = self._count
            total = self._sum
            lo = self._min
            hi = self._max
            window: List[float] = sorted(self._window)
        return {
            "count": float(count),
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "p50": self._nearest_rank(window, 50),
            "p95": self._nearest_rank(window, 95),
            "p99": self._nearest_rank(window, 99),
        }


class MetricsRegistry:
    """Name → instrument map with get-or-create accessors (thread-safe).

    Re-requesting a name returns the existing instrument; requesting it as
    a *different* kind raises, because two code paths silently feeding the
    same name different semantics is exactly the bug a registry exists to
    catch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory(name)
                self._instruments[name] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {instrument.kind}, "
                    f"not a {kind}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, "gauge")

    def histogram(self, name: str, window_size: int = 4096) -> Histogram:
        return self._get_or_create(
            name, lambda n: Histogram(n, window_size=window_size), "histogram"
        )

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{name: summary}`` over every registered instrument."""

        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].summary() for name in sorted(instruments)}

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry the serving tier feeds by default."""

    return _GLOBAL
