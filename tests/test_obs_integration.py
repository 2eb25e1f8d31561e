"""Integration tests: the tracer wired through the compiler, executor, serving.

The span-tree invariants here are the ones a timeline viewer relies on:
every child starts within (and ends within, up to clock granularity) its
parent, and cross-thread subtrees root under the span that spawned them.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import Converter
from repro.models import ConvNet4
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    using_tracer,
    validate_chrome_trace,
)
from repro.serve import (
    AdaptiveConfig,
    AdaptiveEngine,
    InferenceServer,
    MicroBatcher,
    ModelRegistry,
    RequestRecord,
    ServingMetrics,
)
from repro.snn import SpikingLinear, SpikingNetwork, SpikingOutputLayer

TIMESTEPS = 6


@pytest.fixture(scope="module")
def converted():
    """A tiny TCL-converted ConvNet and a matching image batch."""

    rng = np.random.default_rng(11)
    model = ConvNet4(
        channels=(4, 4, 8, 8), hidden_features=16, image_size=12, num_classes=4, batch_norm=False
    )
    images = rng.random((6, 3, 12, 12))
    snn = Converter(model).strategy("tcl").calibrate(images).convert().snn
    return snn, images


def _tiny_network(seed: int) -> SpikingNetwork:
    rng = np.random.default_rng(seed)
    return SpikingNetwork(
        [
            SpikingLinear(rng.uniform(-0.3, 0.5, (6, 4))),
            SpikingOutputLayer(rng.uniform(-0.3, 0.5, (3, 6))),
        ],
        name=f"tiny{seed}",
    )


def _by_id(spans):
    return {span.span_id: span for span in spans}


def _assert_contained(child, parent) -> None:
    """A child span's interval must lie within its parent's."""

    slack = 1e-4  # clock-read granularity between nested perf_counter calls
    assert child.start_s >= parent.start_s - slack
    assert child.start_s + child.duration_s <= parent.start_s + parent.duration_s + slack


class TestSchedulerSpanTrees:
    def _run(self, converted):
        snn, images = converted
        tracer = Tracer()
        with using_tracer(tracer):
            result = snn.simulate(images, TIMESTEPS)
        return tracer.finished(), result

    def test_sequential_tree_shape(self, converted):
        snn, _ = converted
        spans, _ = self._run(converted)
        spans_by_id = _by_id(spans)
        (run,) = [s for s in spans if s.name == "run:sequential"]
        timesteps = [s for s in spans if s.name == "timestep"]
        layer_steps = [s for s in spans if s.name == "layer-step"]
        assert run.parent_id is None
        assert run.attributes["timesteps"] == TIMESTEPS
        assert len(timesteps) == TIMESTEPS
        assert len(layer_steps) == TIMESTEPS * len(snn.layers)
        assert all(s.parent_id == run.span_id for s in timesteps)
        for step in layer_steps:
            parent = spans_by_id[step.parent_id]
            assert parent.name == "timestep"
            _assert_contained(step, parent)
        for timestep in timesteps:
            _assert_contained(timestep, run)
        # One thread end to end: the timestep loop never forks.
        assert len({s.thread_id for s in spans}) == 1

    def test_sequential_scores_unchanged_by_tracing(self, converted):
        snn, images = converted
        baseline = snn.simulate(images, TIMESTEPS)
        _, traced = self._run(converted)
        np.testing.assert_array_equal(baseline.scores[TIMESTEPS], traced.scores[TIMESTEPS])

    def test_disabled_tracing_records_nothing(self, converted):
        snn, images = converted
        tracer = Tracer()
        snn.simulate(images, TIMESTEPS)  # NULL_TRACER active — no spans
        assert len(tracer) == 0

    def test_traces_export_to_valid_chrome_payloads(self, converted):
        spans, _ = self._run(converted)
        payload = chrome_trace_events(spans)
        validate_chrome_trace(payload)


class TestCompilerSpans:
    def test_conversion_emits_per_pass_spans(self):
        rng = np.random.default_rng(3)
        model = ConvNet4(
            channels=(4, 4, 8, 8), hidden_features=16, image_size=12, num_classes=4, batch_norm=False
        )
        tracer = Tracer()
        with using_tracer(tracer):
            Converter(model).strategy("tcl").calibrate(rng.random((4, 3, 12, 12))).convert()
        spans = tracer.finished()
        pipelines = [s for s in spans if s.name == "pipeline:run"]
        passes = [s for s in spans if s.name.startswith("pass:")]
        assert pipelines and passes
        pipeline_ids = {s.span_id for s in pipelines}
        assert all(s.parent_id in pipeline_ids for s in passes)
        for span in passes:
            assert span.category == "compiler"
            assert span.attributes["nodes"] > 0
            assert "diagnostics" in span.attributes


class TestServingSpans:
    def test_request_lifecycle_spans_nest(self, rng, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("model", _tiny_network(3))
        config = AdaptiveConfig(max_timesteps=10, adaptive=False)
        tracer = Tracer()
        with using_tracer(tracer):
            server = InferenceServer(
                registry,
                engine_config=config,
                batcher=MicroBatcher(max_batch_size=4, max_wait_ms=20.0),
            )
            with server:
                futures = [server.submit(rng.uniform(0, 1, 4), "model") for _ in range(6)]
                for future in futures:
                    future.result(timeout=30)
        spans = tracer.finished()
        spans_by_id = _by_id(spans)
        coalesced = [s for s in spans if s.name == "batch-coalesced"]
        batches = [s for s in spans if s.name == "serve:batch"]
        engine_calls = [s for s in spans if s.name == "engine:infer"]
        assert coalesced and batches and engine_calls
        # queue → batch → engine: every engine call roots under a serve
        # batch on the worker thread, and the batch sizes account for every
        # submitted request.
        assert sum(s.attributes["batch_size"] for s in batches) == 6
        for call in engine_calls:
            parent = spans_by_id[call.parent_id]
            assert parent.name == "serve:batch"
            assert call.thread_id == parent.thread_id
            assert call.attributes["max_timesteps"] == 10
        for batch in batches:
            assert batch.attributes["mean_queue_ms"] >= 0.0
            assert batch.attributes["model"] == "model"
        for event in coalesced:
            assert event.attributes["size"] >= 1
            assert event.attributes["coalesce_wait_ms"] >= 0.0

    def test_engine_infer_span_annotations(self, rng):
        network = _tiny_network(5)
        tracer = Tracer()
        with using_tracer(tracer):
            AdaptiveEngine(network, AdaptiveConfig(max_timesteps=12, adaptive=False)).infer(
                rng.uniform(0, 1, (4, 4))
            )
        (span,) = [s for s in tracer.finished() if s.name == "engine:infer"]
        assert span.attributes["batch"] == 4
        assert span.attributes["adaptive"] is False
        assert span.attributes["mean_exit_timesteps"] == pytest.approx(12.0)
        assert span.attributes["spikes_per_inference"] >= 0.0

    def test_serving_metrics_feed_the_obs_registry(self):
        registry = MetricsRegistry()
        metrics = ServingMetrics(registry=registry)
        for wall in (10.0, 20.0):
            metrics.record(
                RequestRecord(model="m", timesteps=5, wall_ms=wall, queue_ms=2.0, batch_size=2, spikes=7.0)
            )
        snapshot = registry.snapshot()
        assert snapshot["serve.requests"]["value"] == 2
        assert snapshot["serve.wall_ms"]["count"] == 2
        assert snapshot["serve.compute_ms"]["mean"] == pytest.approx(13.0)
        assert snapshot["serve.batch_size"]["mean"] == pytest.approx(2.0)


class TestServeCliTrace:
    def test_demo_trace_flag_writes_a_valid_chrome_trace(self, tmp_path):
        from repro.serve.cli import main

        trace_path = tmp_path / "demo-trace.json"
        status = main(
            [
                "demo",
                "--root", str(tmp_path / "artifacts"),
                "--epochs", "1",
                "--timesteps", "15",
                "--stability-window", "5",
                "--min-timesteps", "5",
                "--trace", str(trace_path),
            ]
        )
        assert status == 0
        payload = json.loads(trace_path.read_text())
        events = validate_chrome_trace(payload)
        names = {event["name"] for event in events}
        # The trace covers the whole journey: conversion passes, executor
        # runs, and the serving tier's request lifecycle.
        assert "pipeline:run" in names
        assert "serve:batch" in names
        assert "engine:infer" in names
        assert any(name.startswith("run:") for name in names)

    def test_demo_trace_flag_supports_jsonl(self, tmp_path):
        from repro.obs import read_jsonl
        from repro.serve.cli import main

        trace_path = tmp_path / "demo-trace.jsonl"
        status = main(
            [
                "demo",
                "--root", str(tmp_path / "artifacts"),
                "--epochs", "1",
                "--timesteps", "15",
                "--stability-window", "5",
                "--min-timesteps", "5",
                "--trace", str(trace_path),
            ]
        )
        assert status == 0
        records = read_jsonl(trace_path)
        assert records
        assert {"name", "span_id", "thread_id", "start_us"} <= set(records[0])

    def test_demo_without_trace_flag_leaves_tracing_disabled(self):
        from repro.obs import active_tracer
        from repro.serve.cli import build_parser

        args = build_parser().parse_args(["demo"])
        assert args.trace is None
        assert not active_tracer().enabled
