"""Tests of the serving infrastructure: batcher, registry, metrics, server."""

from __future__ import annotations

import queue
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AdaptiveConfig,
    AdaptiveEngine,
    ArtifactError,
    InferenceRequest,
    InferenceServer,
    MicroBatcher,
    ModelRegistry,
    RequestRecord,
    ServingMetrics,
)
from repro.snn import SpikingLinear, SpikingNetwork, SpikingOutputLayer


def _tiny_network(seed: int) -> SpikingNetwork:
    rng = np.random.default_rng(seed)
    return SpikingNetwork(
        [
            SpikingLinear(rng.uniform(-0.3, 0.5, (6, 4))),
            SpikingOutputLayer(rng.uniform(-0.3, 0.5, (3, 6))),
        ],
        name=f"tiny{seed}",
    )


def _request(rng, model="m", version=None) -> InferenceRequest:
    return InferenceRequest(image=rng.uniform(0, 1, 4), model=model, version=version)


class TestMicroBatcher:
    def test_coalesces_up_to_max_batch_size(self, rng):
        batcher = MicroBatcher(max_batch_size=3, max_wait_ms=50.0)
        for _ in range(5):
            batcher.submit(_request(rng))
        first = batcher.next_batch(timeout=1.0)
        second = batcher.next_batch(timeout=1.0)
        assert [len(first), len(second)] == [3, 2]

    def test_single_request_released_after_wait(self, rng):
        batcher = MicroBatcher(max_batch_size=8, max_wait_ms=5.0)
        batcher.submit(_request(rng))
        started = time.perf_counter()
        batch = batcher.next_batch(timeout=1.0)
        assert len(batch) == 1
        assert time.perf_counter() - started < 0.5

    def test_empty_queue_times_out(self):
        batcher = MicroBatcher()
        with pytest.raises(queue.Empty):
            batcher.next_batch(timeout=0.01)

    def test_late_arrivals_join_open_batch(self, rng):
        batcher = MicroBatcher(max_batch_size=4, max_wait_ms=100.0)
        batcher.submit(_request(rng))

        def feed():
            time.sleep(0.02)
            batcher.submit(_request(rng))

        feeder = threading.Thread(target=feed)
        feeder.start()
        batch = batcher.next_batch(timeout=1.0)
        feeder.join()
        assert len(batch) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_ms=-1.0)

    def test_drain_empties_queue_in_fifo_order(self, rng):
        batcher = MicroBatcher()
        submitted = [_request(rng, model=f"m{i}") for i in range(4)]
        for request in submitted:
            batcher.submit(request)
        drained = batcher.drain()
        assert drained == submitted
        assert batcher.pending == 0
        assert batcher.drain() == []


class TestModelRegistry:
    def test_publish_get_roundtrip(self, rng, tmp_path):
        registry = ModelRegistry(tmp_path)
        network = _tiny_network(0)
        registry.publish("model", network, metadata={"strategy": "tcl"})
        artifact = registry.get("model")
        # save_artifact auto-records the network's compute-policy profile.
        assert artifact.metadata == {"strategy": "tcl", "precision": network.policy_spec}
        images = rng.uniform(0, 1, (4, 4))
        reference = network.simulate(images, timesteps=15)
        replay = artifact.network.simulate(images, timesteps=15)
        assert np.array_equal(reference.scores[15], replay.scores[15])

    def test_lru_eviction_and_hit_accounting(self, tmp_path):
        registry = ModelRegistry(tmp_path, capacity=2)
        for seed in range(3):
            registry.publish(f"m{seed}", _tiny_network(seed))
        for seed in range(3):
            registry.get(f"m{seed}")
        assert registry.misses == 3
        assert registry.evictions == 1
        assert registry.cached_keys() == [("m1", "v1"), ("m2", "v1")]
        registry.get("m2")
        assert registry.hits == 1
        # m0 was evicted: fetching it is a miss that evicts m1 (LRU).
        registry.get("m0")
        assert registry.misses == 4
        assert ("m1", "v1") not in registry.cached_keys()

    def test_latest_version_resolution(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(0), version="v1")
        registry.publish("model", _tiny_network(1), version="v2")
        assert registry.latest_version("model") == "v2"
        assert registry.get("model").network.name == "tiny1"
        assert registry.list_models() == {"model": ["v1", "v2"]}

    def test_latest_version_sorts_naturally(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for version in ("v2", "v9", "v10"):
            registry.publish("model", _tiny_network(0), version=version)
        assert registry.latest_version("model") == "v10"

    def test_unpublish_and_missing_model(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(0))
        registry.unpublish("model")
        with pytest.raises(ArtifactError):
            registry.get("model")

    def test_unpublish_over_preexisting_tree(self, tmp_path):
        # A second registry instance over the same tree never published the
        # model itself; unpublishing through it must still fully remove the
        # model and leave nothing cached.
        ModelRegistry(tmp_path).publish("model", _tiny_network(0))
        registry = ModelRegistry(tmp_path)
        registry.get("model")
        registry.unpublish("model")
        assert registry.cached_keys() == []
        with pytest.raises(ArtifactError):
            registry.get("model")

    def test_republish_invalidates_cache(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(0))
        registry.get("model")
        registry.publish("model", _tiny_network(1))
        assert registry.get("model").network.name == "tiny1"

    def test_invalid_capacity(self, tmp_path):
        with pytest.raises(ValueError):
            ModelRegistry(tmp_path, capacity=0)

    def test_replica_declarations_default_and_roundtrip(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.replicas("anything") == 1  # undeclared models default to 1
        registry.set_replicas("model", 3)  # may precede the publish
        assert registry.replicas("model") == 3
        registry.publish("model", _tiny_network(0))
        assert registry.replicas("model") == 3
        with pytest.raises(ValueError):
            registry.set_replicas("model", 0)

    def test_replica_declarations_survive_lru_eviction(self, tmp_path):
        # Eviction drops cached *weights*; the replica declaration is
        # routing policy and must outlive the cache entry.
        registry = ModelRegistry(tmp_path, capacity=2)
        registry.set_replicas("m0", 2)
        for seed in range(3):
            registry.publish(f"m{seed}", _tiny_network(seed))
            registry.get(f"m{seed}")
        assert registry.evictions == 1
        assert ("m0", "v1") not in registry.cached_keys()
        assert registry.replicas("m0") == 2

    def test_generation_bumps_on_every_publish_and_unpublish(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.generation("model") == 0
        registry.publish("model", _tiny_network(0))
        first = registry.generation("model")
        assert first > 0
        registry.publish("model", _tiny_network(1))
        second = registry.generation("model")
        assert second > first
        registry.unpublish("model")
        assert registry.generation("model") > second

    def test_generation_is_per_version(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(0), version="v1")
        registry.publish("model", _tiny_network(1), version="v2")
        assert registry.generation("model", "v1") > 0
        assert registry.generation("model", "v3") == 0

    def test_concurrent_publish_while_getting_never_serves_stale(self, tmp_path):
        # get() racing publish() must end with the cache holding the new
        # bundle, never re-caching the replaced one.
        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(0))
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    registry.get("model")
                except Exception as error:  # pragma: no cover - surfaced below
                    errors.append(error)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for seed in range(1, 5):
                registry.publish("model", _tiny_network(seed))
        finally:
            stop.set()
            thread.join()
        assert errors == []
        assert registry.get("model").network.name == "tiny4"


class TestServingMetrics:
    def test_snapshot_aggregates(self):
        metrics = ServingMetrics()
        for timesteps in (10, 20, 30, 40):
            metrics.record(
                RequestRecord(model="m", timesteps=timesteps, wall_ms=float(timesteps), queue_ms=1.0, batch_size=2, spikes=100.0)
            )
        snapshot = metrics.snapshot()
        assert snapshot.count == 4
        assert snapshot.mean_timesteps == pytest.approx(25.0)
        assert snapshot.p50_timesteps == pytest.approx(25.0)
        assert snapshot.p95_timesteps <= 40.0
        assert snapshot.mean_batch_size == pytest.approx(2.0)
        assert snapshot.spikes_per_inference == pytest.approx(100.0)
        assert "requests served" in snapshot.report()

    def test_percentiles_split_queue_and_compute(self):
        metrics = ServingMetrics()
        # wall = queue + compute; queue fixed at 2ms, compute spans 8..98ms.
        for compute in range(8, 99, 10):
            metrics.record(
                RequestRecord(
                    model="m",
                    timesteps=10,
                    wall_ms=2.0 + compute,
                    queue_ms=2.0,
                    batch_size=1,
                    spikes=1.0,
                )
            )
        snapshot = metrics.snapshot()
        assert snapshot.p50_queue_ms == pytest.approx(2.0)
        assert snapshot.p99_queue_ms == pytest.approx(2.0)
        assert snapshot.mean_compute_ms == pytest.approx(53.0)
        assert snapshot.p50_compute_ms == pytest.approx(53.0)
        assert snapshot.p95_compute_ms <= snapshot.p99_compute_ms <= 98.0
        assert snapshot.p99_wall_ms == pytest.approx(snapshot.p99_compute_ms + 2.0)
        # The CLI's telemetry block surfaces all three percentile rows.
        report = snapshot.report()
        assert "p99" in report and "queue wait" in report and "compute" in report

    def test_empty_snapshot_has_zero_percentiles(self):
        snapshot = ServingMetrics().snapshot()
        assert snapshot.count == 0
        assert snapshot.p99_wall_ms == 0.0
        assert snapshot.p99_compute_ms == 0.0
        assert snapshot.report()

    def test_per_model_filter_and_reset(self):
        metrics = ServingMetrics()
        metrics.record(RequestRecord(model="a", timesteps=10, wall_ms=1.0, queue_ms=0.0, batch_size=1, spikes=1.0))
        metrics.record(RequestRecord(model="b", timesteps=50, wall_ms=1.0, queue_ms=0.0, batch_size=1, spikes=1.0))
        assert metrics.snapshot(model="a").mean_timesteps == pytest.approx(10.0)
        metrics.reset()
        assert metrics.snapshot().count == 0

    def test_ring_buffer_bounds_retention_but_not_the_count(self):
        metrics = ServingMetrics(capacity=4)
        for timesteps in range(10):
            metrics.record(
                RequestRecord(model="m", timesteps=timesteps, wall_ms=1.0, queue_ms=0.0, batch_size=1, spikes=1.0)
            )
        assert metrics.count == 10  # streaming total survives eviction
        assert metrics.retained == 4
        # Aggregation sees only the newest `capacity` records…
        retained = [record.timesteps for record in metrics.records()]
        assert retained == [6, 7, 8, 9]
        snapshot = metrics.snapshot()
        assert snapshot.count == 4
        assert snapshot.total_count == 10
        assert snapshot.mean_timesteps == pytest.approx(7.5)
        # …and the report says the window is partial.
        assert "most recent 4 of 10" in snapshot.report()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ServingMetrics(capacity=0)

    def test_throughput_derives_from_record_timestamps(self):
        # Two records one (synthetic) second apart: 2 requests over 1s of
        # traffic.  Idle time before/after must not appear in the rate, so
        # the records' own timestamps are doctored instead of sleeping.
        metrics = ServingMetrics()
        first = RequestRecord(model="m", timesteps=1, wall_ms=1.0, queue_ms=0.0, batch_size=1, spikes=1.0)
        second = RequestRecord(model="m", timesteps=1, wall_ms=1.0, queue_ms=0.0, batch_size=1, spikes=1.0)
        second.recorded_at = first.recorded_at + 1.0
        metrics.record(first)
        metrics.record(second)
        snapshot = metrics.snapshot()
        assert snapshot.elapsed_seconds == pytest.approx(1.0)
        assert snapshot.throughput_rps == pytest.approx(2.0)

    def test_throughput_ignores_idle_time_before_traffic(self):
        # The old implementation divided by "seconds since the accumulator
        # was constructed", so construct-then-wait deflated the rate.  Now
        # only the records' own span counts.
        metrics = ServingMetrics()
        records = [
            RequestRecord(model="m", timesteps=1, wall_ms=1.0, queue_ms=0.0, batch_size=1, spikes=1.0)
            for _ in range(3)
        ]
        base = records[0].recorded_at + 100.0  # as if traffic started 100s later
        for offset, record in enumerate(records):
            record.recorded_at = base + offset * 0.5
            metrics.record(record)
        assert metrics.snapshot().throughput_rps == pytest.approx(3 / 1.0)

    def test_single_record_reports_zero_throughput(self):
        metrics = ServingMetrics()
        metrics.record(RequestRecord(model="m", timesteps=1, wall_ms=1.0, queue_ms=0.0, batch_size=1, spikes=1.0))
        snapshot = metrics.snapshot()
        assert snapshot.count == 1
        assert snapshot.throughput_rps == 0.0  # no measurable traffic span


class TestInferenceServer:
    def test_served_predictions_match_direct_engine(self, rng, tmp_path):
        registry = ModelRegistry(tmp_path)
        network = _tiny_network(3)
        registry.publish("model", network)
        config = AdaptiveConfig(max_timesteps=25, adaptive=False)
        images = rng.uniform(0, 1, (10, 4))
        direct = AdaptiveEngine(registry.get("model").network, config).infer(images)

        server = InferenceServer(
            registry,
            engine_config=config,
            batcher=MicroBatcher(max_batch_size=4, max_wait_ms=20.0),
            num_workers=2,
        )
        with server:
            futures = [server.submit(image, "model") for image in images]
            replies = [future.result(timeout=30) for future in futures]

        predictions = np.array([reply.prediction for reply in replies])
        assert np.array_equal(predictions, direct.predictions)
        assert all(reply.timesteps == 25 for reply in replies)
        snapshot = server.metrics.snapshot()
        assert snapshot.count == 10
        assert snapshot.mean_batch_size > 1.0

    def test_cancelled_future_does_not_kill_worker(self, rng, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(3))
        config = AdaptiveConfig(max_timesteps=25, adaptive=False)
        server = InferenceServer(registry, engine_config=config)
        # Cancel before the server starts: the worker must skip the claimed-
        # cancelled future instead of dying on InvalidStateError, and keep
        # serving subsequent requests.
        cancelled = server.submit(rng.uniform(0, 1, 4), "model")
        assert cancelled.cancel()
        with server:
            reply = server.infer(rng.uniform(0, 1, 4), "model", timeout=30)
        assert reply.timesteps == 25
        assert server.metrics.count == 1

    def test_unknown_model_surfaces_error_on_future(self, rng, tmp_path):
        server = InferenceServer(ModelRegistry(tmp_path))
        with server:
            future = server.submit(rng.uniform(0, 1, 4), "missing")
            with pytest.raises(ArtifactError):
                future.result(timeout=30)

    def test_stop_resolves_requests_stranded_in_the_queue(self, rng, tmp_path):
        # The shutdown race: a request that enters the queue after the drain
        # loop saw it empty — or while draining is disabled — must not leave
        # its future pending forever once the workers are gone.  A batcher
        # that never releases batches makes the stranding deterministic.
        class StuckBatcher(MicroBatcher):
            def next_batch(self, timeout=None):
                time.sleep(timeout or 0.01)
                raise queue.Empty

        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(3))
        server = InferenceServer(registry, batcher=StuckBatcher())
        server.start()
        futures = [server.submit(rng.uniform(0, 1, 4), "model") for _ in range(3)]
        server.stop(drain=False)
        for future in futures:
            assert future.done()
            with pytest.raises(RuntimeError, match="stopped before request"):
                future.result()

    def test_stop_with_drain_completes_every_accepted_future(self, rng, tmp_path):
        # Futures in flight when stop() is called resolve with a result;
        # anything left in the queue when the workers exit resolves with an
        # error — either way, nothing submitted before stop() hangs.
        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(3))
        server = InferenceServer(
            registry,
            engine_config=AdaptiveConfig(max_timesteps=10, adaptive=False),
            batcher=MicroBatcher(max_batch_size=4, max_wait_ms=1.0),
            num_workers=2,
        )
        server.start()
        futures = [server.submit(rng.uniform(0, 1, 4), "model") for _ in range(12)]
        server.stop(drain=True)
        assert all(future.done() for future in futures)
        replies = [future.result() for future in futures]
        assert all(reply.timesteps == 10 for reply in replies)

    def test_stop_without_start_fails_queued_futures(self, rng, tmp_path):
        # Submitting before start() is allowed (the queue drains when the
        # workers come up), so stopping a never-started server must close
        # the intake and fail what was queued rather than strand it.
        server = InferenceServer(ModelRegistry(tmp_path))
        future = server.submit(rng.uniform(0, 1, 4), "model")
        server.stop()
        with pytest.raises(RuntimeError, match="stopped before request"):
            future.result(timeout=5)
        with pytest.raises(RuntimeError, match="has been stopped"):
            server.submit(rng.uniform(0, 1, 4), "model")

    def test_submit_after_stop_fails_fast(self, rng, tmp_path):
        # With the workers gone a queued request could never be served, so
        # submitting to a stopped server raises instead of stranding a
        # future (this closes the submit-vs-stop race: a submit either
        # enqueues before stop() flips the closed flag — and is then failed
        # by the final drain — or raises here).
        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(3))
        server = InferenceServer(registry, engine_config=AdaptiveConfig(max_timesteps=10, adaptive=False))
        with server:
            server.infer(rng.uniform(0, 1, 4), "model", timeout=30)
        with pytest.raises(RuntimeError, match="has been stopped"):
            server.submit(rng.uniform(0, 1, 4), "model")
        # Restarting reopens the intake.
        with server:
            reply = server.infer(rng.uniform(0, 1, 4), "model", timeout=30)
        assert reply.timesteps == 10

    def test_start_twice_rejected(self, tmp_path):
        server = InferenceServer(ModelRegistry(tmp_path))
        with server:
            with pytest.raises(RuntimeError):
                server.start()

    def test_invalid_workers(self, tmp_path):
        with pytest.raises(ValueError):
            InferenceServer(ModelRegistry(tmp_path), num_workers=0)
