"""Serving telemetry: per-request records and aggregate latency/throughput stats.

The server records one entry per retired request — its adaptive latency in
timesteps, its wall-clock latency (queue wait + simulation), and the batch it
was coalesced into.  Aggregation produces the quantities a serving dashboard
would plot: p50/p95/p99 latency in both units — wall-clock additionally split
into its queue-wait and compute components, so a compute speedup (which
moves compute, not queueing) is visible from the CLI — requests-per-second,
mean batch size, and spikes per inference (the SNN energy proxy).

Retention is bounded: records live in a ring buffer (``capacity`` entries,
default 65 536) so a long-running server's memory stays constant however
much traffic it serves.  ``total_count`` streams over *every* record ever
seen, while percentile aggregation runs over the retained window — the same
window/stream split :class:`repro.obs.Histogram` uses.  Throughput is
derived from the first→last record timestamps of the window actually
aggregated, not from the accumulator's construction time, so idle time
before traffic arrives (or after it stops) no longer dilutes the rate.

Every :meth:`ServingMetrics.record` also feeds the observability registry
(:func:`repro.obs.global_registry` unless one is injected): the
``serve.requests`` counter and the ``serve.wall_ms`` / ``serve.queue_ms`` /
``serve.compute_ms`` / ``serve.batch_size`` / ``serve.timesteps``
histograms, so serving latency shows up next to the other registry
metrics in one ``MetricsRegistry.snapshot()``.

The admission-control surface adds three more instruments the servers
drive directly: the ``serve.shed`` counter (:meth:`ServingMetrics.record_shed`
— requests rejected with :class:`~repro.serve.admission.Overloaded`), the
``serve.queue_depth`` gauge (:meth:`ServingMetrics.set_queue_depth` —
admitted-but-uncompleted requests, updated on every admit/complete), and
per-worker ``serve.worker.<id>.utilization`` gauges
(:meth:`ServingMetrics.set_worker_utilization` — the fraction of wall time
a pool worker spent computing since the last report).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Union

import numpy as np

from ..obs import MetricsRegistry, global_registry

__all__ = ["DEFAULT_CAPACITY", "RequestRecord", "MetricsSnapshot", "ServingMetrics"]

#: Default ring-buffer capacity: ~65k records ≈ a few MB, hours of traffic
#: at serving rates, constant forever after.
DEFAULT_CAPACITY = 65536


@dataclass
class RequestRecord:
    """Telemetry of one served request.

    ``recorded_at`` (``time.perf_counter`` at construction) is the
    timestamp throughput derives from — the span between the first and last
    record of a window is the time traffic actually flowed.
    """

    model: str
    timesteps: int
    wall_ms: float
    queue_ms: float
    batch_size: int
    spikes: float
    recorded_at: float = field(default_factory=time.perf_counter)


@dataclass
class MetricsSnapshot:
    """Aggregate view over the retained record window.

    Wall-clock latency is reported whole (``*_wall_ms`` — queue wait plus
    simulation) and split into its two components: ``*_queue_ms`` (time
    coalescing in the micro-batcher) and ``*_compute_ms`` (time inside the
    engine).  Each carries mean/p50/p95/p99 so tail behaviour — the number a
    latency SLO is written against — is visible next to the median.

    ``count`` is the number of records aggregated (bounded by the ring
    buffer); ``total_count`` the number ever recorded.  ``elapsed_seconds``
    spans the first→last aggregated record and is what ``throughput_rps``
    divides by, so idle periods outside the traffic window don't skew the
    rate (a single-record window has no measurable span and reports 0).
    """

    count: int
    total_count: int
    elapsed_seconds: float
    throughput_rps: float
    p50_timesteps: float
    p95_timesteps: float
    mean_timesteps: float
    p50_wall_ms: float
    p95_wall_ms: float
    p99_wall_ms: float
    mean_wall_ms: float
    p50_queue_ms: float
    p95_queue_ms: float
    p99_queue_ms: float
    mean_queue_ms: float
    p50_compute_ms: float
    p95_compute_ms: float
    p99_compute_ms: float
    mean_compute_ms: float
    mean_batch_size: float
    spikes_per_inference: float

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)

    def report(self) -> str:
        lines = [
            f"requests served      : {self.total_count}",
            f"throughput           : {self.throughput_rps:.2f} req/s over {self.elapsed_seconds:.2f}s of traffic",
            f"latency (timesteps)  : mean {self.mean_timesteps:.1f} · p50 {self.p50_timesteps:.0f} · p95 {self.p95_timesteps:.0f}",
            f"latency (wall-clock) : mean {self.mean_wall_ms:.1f}ms · p50 {self.p50_wall_ms:.1f}ms · p95 {self.p95_wall_ms:.1f}ms · p99 {self.p99_wall_ms:.1f}ms",
            f"  queue wait         : mean {self.mean_queue_ms:.1f}ms · p50 {self.p50_queue_ms:.1f}ms · p95 {self.p95_queue_ms:.1f}ms · p99 {self.p99_queue_ms:.1f}ms",
            f"  compute            : mean {self.mean_compute_ms:.1f}ms · p50 {self.p50_compute_ms:.1f}ms · p95 {self.p95_compute_ms:.1f}ms · p99 {self.p99_compute_ms:.1f}ms",
            f"batch size           : mean {self.mean_batch_size:.1f}",
            f"spikes per inference : {self.spikes_per_inference:.0f}",
        ]
        if self.count < self.total_count:
            lines.append(
                f"(percentiles over the most recent {self.count} of {self.total_count} requests)"
            )
        return "\n".join(lines)


class ServingMetrics:
    """Thread-safe, bounded accumulator of :class:`RequestRecord` entries."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._records: Deque[RequestRecord] = deque(maxlen=capacity)
        self._total = 0
        self._sheds = 0
        self._lock = threading.Lock()
        self._registry = registry if registry is not None else global_registry()

    def record(self, record: RequestRecord) -> None:
        with self._lock:
            self._records.append(record)
            self._total += 1
        registry = self._registry
        registry.counter("serve.requests").add()
        registry.histogram("serve.wall_ms").observe(record.wall_ms)
        registry.histogram("serve.queue_ms").observe(record.queue_ms)
        registry.histogram("serve.compute_ms").observe(record.wall_ms - record.queue_ms)
        registry.histogram("serve.batch_size").observe(record.batch_size)
        registry.histogram("serve.timesteps").observe(record.timesteps)

    def record_shed(self) -> None:
        """Count one request rejected by admission control (``serve.shed``)."""

        with self._lock:
            self._sheds += 1
        self._registry.counter("serve.shed").add()

    @property
    def sheds(self) -> int:
        """Requests shed with ``Overloaded`` since construction."""

        with self._lock:
            return self._sheds

    def set_queue_depth(self, depth: int) -> None:
        """Publish the admitted-but-uncompleted request count (``serve.queue_depth``)."""

        self._registry.gauge("serve.queue_depth").set(float(depth))

    def set_worker_utilization(self, worker: Union[int, str], fraction: float) -> None:
        """Publish one worker's busy fraction (``serve.worker.<id>.utilization``)."""

        self._registry.gauge(f"serve.worker.{worker}.utilization").set(float(fraction))

    def records(self, model: Optional[str] = None) -> List[RequestRecord]:
        """The retained window (oldest first), optionally filtered by model."""

        with self._lock:
            records = list(self._records)
        if model is not None:
            records = [r for r in records if r.model == model]
        return records

    @property
    def count(self) -> int:
        """Records ever seen (streaming — not capped by the ring buffer)."""

        with self._lock:
            return self._total

    @property
    def retained(self) -> int:
        """Records currently held in the ring buffer."""

        with self._lock:
            return len(self._records)

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self._total = 0
            self._sheds = 0

    def snapshot(self, model: Optional[str] = None) -> MetricsSnapshot:
        records = self.records(model)
        with self._lock:
            total = self._total
        if not records:
            zeros = {f.name: 0.0 for f in dataclasses.fields(MetricsSnapshot)}
            return MetricsSnapshot(
                **{**zeros, "count": 0, "total_count": total if model is None else 0}
            )
        # Throughput over the window traffic actually spanned: first→last
        # record timestamp.  One record has no measurable span, so the rate
        # is reported as 0 rather than an idle-time-diluted guess.
        elapsed = records[-1].recorded_at - records[0].recorded_at
        throughput = (len(records) / elapsed) if elapsed > 0 else 0.0
        # reprolint: allow[dtype] -- telemetry aggregation stays at full precision regardless of the compute policy
        timesteps = np.array([r.timesteps for r in records], dtype=np.float64)
        wall = np.array([r.wall_ms for r in records], dtype=np.float64)  # reprolint: allow[dtype] -- telemetry
        queue = np.array([r.queue_ms for r in records], dtype=np.float64)  # reprolint: allow[dtype] -- telemetry
        # The wall-clock a client saw decomposes into queue wait + engine
        # compute; recording keeps the sum, so the component is recovered.
        compute = wall - queue
        batches = np.array([r.batch_size for r in records], dtype=np.float64)  # reprolint: allow[dtype] -- telemetry
        spikes = np.array([r.spikes for r in records], dtype=np.float64)  # reprolint: allow[dtype] -- telemetry
        return MetricsSnapshot(
            count=len(records),
            total_count=total if model is None else len(records),
            elapsed_seconds=float(elapsed),
            throughput_rps=float(throughput),
            p50_timesteps=float(np.percentile(timesteps, 50)),
            p95_timesteps=float(np.percentile(timesteps, 95)),
            mean_timesteps=float(timesteps.mean()),
            p50_wall_ms=float(np.percentile(wall, 50)),
            p95_wall_ms=float(np.percentile(wall, 95)),
            p99_wall_ms=float(np.percentile(wall, 99)),
            mean_wall_ms=float(wall.mean()),
            p50_queue_ms=float(np.percentile(queue, 50)),
            p95_queue_ms=float(np.percentile(queue, 95)),
            p99_queue_ms=float(np.percentile(queue, 99)),
            mean_queue_ms=float(queue.mean()),
            p50_compute_ms=float(np.percentile(compute, 50)),
            p95_compute_ms=float(np.percentile(compute, 95)),
            p99_compute_ms=float(np.percentile(compute, 99)),
            mean_compute_ms=float(compute.mean()),
            mean_batch_size=float(batches.mean()),
            spikes_per_inference=float(spikes.mean()),
        )
