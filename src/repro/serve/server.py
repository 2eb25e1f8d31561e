"""Threaded inference server: micro-batching workers over the model registry.

``InferenceServer`` ties the serving subsystem together: requests enter
through :meth:`submit` (returning a future) or the blocking :meth:`infer`;
worker threads pull coalesced micro-batches from the
:class:`~repro.serve.batcher.MicroBatcher`, group them by model, look the
model up in the :class:`~repro.serve.registry.ModelRegistry`, run the
:class:`~repro.serve.engine.AdaptiveEngine`, and resolve each request's
future with an :class:`InferenceReply`.  Telemetry lands in a shared
:class:`~repro.serve.metrics.ServingMetrics`.

A loaded network carries mutable membrane state, so concurrent engine calls
against the same artifact would corrupt each other; the server serialises
engine runs per (model, version) with a lock while different models still run
in parallel across workers.
"""

from __future__ import annotations

import queue
import threading
from collections import defaultdict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import active_tracer
from .admission import AdmissionController, Overloaded
from .batcher import InferenceRequest, MicroBatcher
from .engine import AdaptiveConfig, AdaptiveEngine
from .metrics import RequestRecord, ServingMetrics
from .registry import ModelRegistry

__all__ = ["InferenceReply", "InferenceServer", "Overloaded"]

_POLL_SECONDS = 0.05


@dataclass
class InferenceReply:
    """What a resolved request future carries."""

    prediction: int
    scores: np.ndarray
    timesteps: int
    wall_ms: float
    model: str
    version: str


class InferenceServer:
    """Micro-batching, adaptive-latency inference over published artifacts."""

    def __init__(
        self,
        registry: ModelRegistry,
        engine_config: Optional[AdaptiveConfig] = None,
        batcher: Optional[MicroBatcher] = None,
        metrics: Optional[ServingMetrics] = None,
        num_workers: int = 1,
        max_inflight: Optional[int] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.registry = registry
        self.engine_config = engine_config if engine_config is not None else AdaptiveConfig()
        self.batcher = batcher if batcher is not None else MicroBatcher()
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.num_workers = num_workers
        self.admission = AdmissionController(
            max_inflight,
            on_shed=self.metrics.record_shed,
            on_depth=self.metrics.set_queue_depth,
        )
        self._workers: List[threading.Thread] = []
        self._stop = threading.Event()
        self._model_locks: Dict[Tuple[str, str], threading.Lock] = defaultdict(threading.Lock)
        self._locks_guard = threading.Lock()
        # Guards the closed flag against submits racing a stop(): a submit
        # either enqueues before stop() flips the flag (and is then caught
        # by the post-join drain) or fails fast on a stopped server.
        self._closed = False
        self._submit_guard = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._workers) and not self._stop.is_set()

    def start(self) -> "InferenceServer":
        if self._workers:
            raise RuntimeError("server is already running")
        self._stop.clear()
        with self._submit_guard:
            self._closed = False
        for index in range(self.num_workers):
            worker = threading.Thread(target=self._worker_loop, name=f"repro-serve-{index}", daemon=True)
            worker.start()
            self._workers.append(worker)
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the workers; with ``drain`` the queue is emptied first.

        Every future accepted by :meth:`submit` before this call returns is
        guaranteed to complete: requests the workers picked up resolve
        normally, and any request still queued when the workers exit — a
        request can slip in after the drain loop saw an empty queue but
        before the workers observed the stop signal — is failed with a
        ``RuntimeError`` instead of being dropped with its future forever
        pending.  Once the server is marked closed, further :meth:`submit`
        calls fail fast, so no request can sneak in behind the final drain.
        """

        if not self._workers:
            # Never started (or already stopped): there are no workers to
            # join, but the completion guarantee still applies — close the
            # intake and fail anything queued before start() was ever
            # called, instead of leaving those futures pending forever.
            with self._submit_guard:
                self._closed = True
            self._fail_drained()
            return
        if drain:
            while self.batcher.pending:
                self._stop.wait(_POLL_SECONDS)
        self._stop.set()
        for worker in self._workers:
            worker.join()
        self._workers = []
        # Flip the flag under the submit guard *before* the final drain: a
        # concurrent submit either already enqueued (the drain below catches
        # it) or observes the closed server and raises.
        with self._submit_guard:
            self._closed = True
        self._fail_drained()

    def _fail_drained(self) -> None:
        """Fail every request still queued — no worker will ever serve it."""

        for request in self.batcher.drain():
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    RuntimeError(
                        f"inference server stopped before request for model "
                        f"{request.model!r} was served"
                    )
                )

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request entry points --------------------------------------------------

    def submit(self, image: np.ndarray, model: str, version: Optional[str] = None) -> Future:
        """Enqueue one sample; the returned future resolves to an :class:`InferenceReply`.

        The image's dtype is preserved here — the engine casts the coalesced
        batch once to the target model's compute-policy dtype, so a float32
        request served by an ``infer32`` model is never round-tripped
        through float64.

        Raises ``RuntimeError`` once the server has been stopped: with the
        workers gone the request could never be served, and enqueueing it
        would strand its future forever.  (Submitting *before* ``start()``
        is still allowed — the queue is simply drained when the workers
        come up.)  Raises :class:`~repro.serve.admission.Overloaded` when a
        ``max_inflight`` budget is configured and exhausted — the typed
        load-shed reply; the request was never enqueued.
        """

        request = InferenceRequest(image=np.asarray(image), model=model, version=version)
        with self._submit_guard:
            if self._closed:
                raise RuntimeError("inference server has been stopped; no workers will serve this request")
            self.admission.admit()
            future = self.batcher.submit(request)
        # The admitted request counts against the budget until its future
        # completes — resolution, failure, and cancellation all release.
        future.add_done_callback(self.admission.releaser())
        return future

    def infer(self, image: np.ndarray, model: str, version: Optional[str] = None, timeout: Optional[float] = None) -> InferenceReply:
        """Blocking single-sample inference."""

        return self.submit(image, model, version).result(timeout=timeout)

    # -- worker loop -----------------------------------------------------------

    def _model_lock(self, key: Tuple[str, str]) -> threading.Lock:
        with self._locks_guard:
            return self._model_locks[key]

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                batch = self.batcher.next_batch(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue
            groups: Dict[Tuple[str, Optional[str]], List[InferenceRequest]] = defaultdict(list)
            for request in batch:
                groups[(request.model, request.version)].append(request)
            for (model, version), requests in groups.items():
                try:
                    self._serve_group(model, version, requests)
                except Exception as error:  # never let one bad batch kill the worker
                    for request in requests:
                        if not request.future.done():
                            request.future.set_exception(error)

    def _serve_group(self, model: str, version: Optional[str], requests: List[InferenceRequest]) -> None:
        # Claim every future before doing work: a client that timed out and
        # cancelled its future is dropped here, and the claim guarantees the
        # set_result/set_exception calls below cannot race a late cancel.
        requests = [request for request in requests if request.future.set_running_or_notify_cancel()]
        if not requests:
            return
        queue_ms = [request.queue_ms for request in requests]
        # The request-lifecycle span: by the time the group reaches a worker
        # the queue→batch phase is already behind it (its duration is the
        # recorded queue wait), so the span covers lookup + engine compute,
        # with the engine's own span (and the executor's run/layer spans)
        # nested beneath it on this worker thread.
        tracer = active_tracer()
        with tracer.span("serve:batch", category="serve") as span:
            if span.recording:
                span.annotate(
                    model=model,
                    version=version,
                    batch_size=len(requests),
                    mean_queue_ms=sum(queue_ms) / len(queue_ms),
                    max_queue_ms=max(queue_ms),
                )
            try:
                artifact = self.registry.get(model, version)
                resolved_version = artifact.path.name if artifact.path is not None else (version or "")
                images = np.stack([request.image for request in requests])
                with self._model_lock((model, resolved_version)):
                    outcome = AdaptiveEngine(artifact.network, self.engine_config).infer(images)
            except Exception as error:  # surface the failure on every waiting future
                for request in requests:
                    request.future.set_exception(error)
                return
            if span.recording:
                span.annotate(
                    mean_exit_timesteps=outcome.mean_timesteps,
                    spikes_per_inference=outcome.spikes_per_inference,
                )

        wall_ms = outcome.wall_seconds * 1000.0
        for position, request in enumerate(requests):
            reply = InferenceReply(
                prediction=int(outcome.predictions[position]),
                scores=outcome.scores[position],
                timesteps=int(outcome.exit_timesteps[position]),
                wall_ms=wall_ms,
                model=model,
                version=resolved_version,
            )
            self.metrics.record(
                RequestRecord(
                    model=model,
                    timesteps=reply.timesteps,
                    wall_ms=wall_ms + queue_ms[position],
                    queue_ms=queue_ms[position],
                    batch_size=len(requests),
                    spikes=outcome.spikes_per_inference,
                )
            )
            request.future.set_result(reply)
