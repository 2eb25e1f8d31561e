"""Saturation benchmark — the multi-process pool vs the threaded server.

The threaded :class:`~repro.serve.server.InferenceServer` tops out around
one core of useful work: numpy kernels release the GIL, but the per-timestep
Python glue serialises.  :class:`~repro.serve.pool.ProcessPoolServer` runs
one engine per forked worker over a single shared-memory copy of the
artifact, so throughput should scale with workers while per-worker memory
stays flat.

Two claims are pinned here:

* **throughput scaling** — at 2 workers the pool must clear ≥ 1.7× the
  threaded server's request rate, and scaling to ``min(4, cores)`` workers
  must stay near-linear at a pinned p99.  These tests are gated on
  multi-core runners (the CI saturation step); a 1-core box would measure
  scheduling noise, not scaling.
* **memory sharing** — every worker maps the *same* weight segment: the
  per-worker private footprint of the mapping must be ≈ 0, not one artifact
  copy per worker.  This holds on any core count and runs everywhere Linux
  exposes ``/proc/<pid>/smaps``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import Converter
from repro.models import ConvNet4
from repro.serve import (
    AdaptiveConfig,
    InferenceServer,
    MicroBatcher,
    ModelRegistry,
    ProcessPoolServer,
)

from bench_utils import print_benchmark_header

_CORES = os.cpu_count() or 1
multicore = pytest.mark.skipif(
    _CORES < 2, reason="pool scaling needs >= 2 cores; a 1-core runner measures noise"
)

TIMESTEPS = 24
MODEL_NAME = "convnet4-bench"


def _engine_config() -> AdaptiveConfig:
    return AdaptiveConfig(max_timesteps=TIMESTEPS, min_timesteps=8, stability_window=8)


def _batcher() -> MicroBatcher:
    return MicroBatcher(max_batch_size=8, max_wait_ms=2.0)


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    """An untrained ConvNet-4 published into a registry — same rationale as
    ``tools/bench_report.py``: random weights exercise exactly the kernels
    trained ones do, and the ~400 KB float payload spans enough pages for
    the smaps-based sharing check to be meaningful."""

    rng = np.random.default_rng(7)
    model = ConvNet4(
        channels=(16, 16, 32, 32), hidden_features=64, image_size=16, num_classes=10, batch_norm=False
    )
    calibration = rng.random((32, 3, 16, 16))
    conversion = Converter(model).strategy("tcl").precision("infer32").calibrate(calibration).convert()
    registry = ModelRegistry(tmp_path_factory.mktemp("scaling-artifacts"))
    registry.publish(MODEL_NAME, conversion.snn, metadata=conversion.export_metadata())
    images = rng.random((32, 3, 16, 16))
    return {"registry": registry, "images": images}


def _drive(server, images, rounds: int) -> dict:
    """Serve every image ``rounds`` times; return throughput and tail latency."""

    with server:
        # Warm-up round: worker forks, shared-memory attach, kernel caches.
        for future in [server.submit(image, MODEL_NAME) for image in images]:
            future.result(timeout=300)
        started = time.perf_counter()
        for _ in range(rounds):
            for future in [server.submit(image, MODEL_NAME) for image in images]:
                future.result(timeout=300)
        elapsed = time.perf_counter() - started
        snapshot = server.metrics.snapshot()
    return {
        "rps": (rounds * len(images)) / elapsed,
        "p99_ms": snapshot.p99_wall_ms,
        "snapshot": snapshot,
    }


def _smaps_private_kb(pid: int, segment_name: str) -> int:
    """Private (unshared) KiB of the mapping backing ``segment_name`` in ``pid``."""

    private = 0
    current_is_segment = False
    with open(f"/proc/{pid}/smaps", "r", encoding="utf-8") as handle:
        for line in handle:
            if "-" in line.split(" ", 1)[0] and ":" not in line.split(" ", 1)[0]:
                current_is_segment = segment_name in line
            elif current_is_segment and line.startswith(("Private_Clean:", "Private_Dirty:")):
                private += int(line.split()[1])
    return private


class TestMemorySharing:
    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs Linux /proc smaps")
    def test_workers_share_one_weight_segment(self, serving_setup):
        registry = serving_setup["registry"]
        images = serving_setup["images"]
        registry.set_replicas(MODEL_NAME, 2)
        server = ProcessPoolServer(
            registry, engine_config=_engine_config(), batcher=_batcher(), num_workers=2
        )
        with server:
            for future in [server.submit(image, MODEL_NAME) for image in images[:8]]:
                future.result(timeout=300)
            ((_, segment),) = list(server._shared.values())
            flat_kb = int(segment.size) // 1024
            pids = [server._processes[index].pid for index in server.alive_workers()]
            private = {pid: _smaps_private_kb(pid, segment.name) for pid in pids}
        print_benchmark_header("Pool: per-worker private footprint of the shared segment")
        print(f"flat weight block    : {flat_kb} KiB")
        for pid, kb in private.items():
            print(f"worker pid {pid:<7}: {kb} KiB private")
        assert len(private) == 2
        # Reads through a shared read-only mapping must not privatise pages:
        # per-worker growth stays a rounding error, not one artifact copy.
        for pid, kb in private.items():
            assert kb <= max(flat_kb // 10, 8), f"worker {pid} privatised {kb} KiB of the segment"


class TestThroughputScaling:
    @multicore
    def test_two_workers_beat_threaded_by_1_7x(self, serving_setup):
        registry = serving_setup["registry"]
        images = serving_setup["images"]
        threaded = _drive(
            InferenceServer(
                registry, engine_config=_engine_config(), batcher=_batcher(), num_workers=1
            ),
            images,
            rounds=3,
        )
        pooled = _drive(
            ProcessPoolServer(
                registry, engine_config=_engine_config(), batcher=_batcher(), num_workers=2
            ),
            images,
            rounds=3,
        )
        speedup = pooled["rps"] / threaded["rps"]
        print_benchmark_header("Pool: 2 forked workers vs the threaded server")
        print(f"threaded             : {threaded['rps']:.1f} req/s · p99 {threaded['p99_ms']:.1f}ms")
        print(f"pool (2 workers)     : {pooled['rps']:.1f} req/s · p99 {pooled['p99_ms']:.1f}ms")
        print(f"speedup              : {speedup:.2f}x")
        assert speedup >= 1.7
        # The throughput win must not be bought with a blown-out tail.
        assert pooled["p99_ms"] <= threaded["p99_ms"] * 3.0

    @multicore
    @pytest.mark.skipif(_CORES < 3, reason="near-linear sweep needs >= 3 cores")
    def test_near_linear_scaling_to_four_workers(self, serving_setup):
        registry = serving_setup["registry"]
        images = serving_setup["images"]
        workers = min(4, _CORES)
        single = _drive(
            ProcessPoolServer(
                registry, engine_config=_engine_config(), batcher=_batcher(), num_workers=1
            ),
            images,
            rounds=3,
        )
        wide = _drive(
            ProcessPoolServer(
                registry, engine_config=_engine_config(), batcher=_batcher(), num_workers=workers
            ),
            images,
            rounds=3,
        )
        efficiency = (wide["rps"] / single["rps"]) / workers
        print_benchmark_header(f"Pool: scaling 1 → {workers} workers")
        print(f"1 worker             : {single['rps']:.1f} req/s · p99 {single['p99_ms']:.1f}ms")
        print(f"{workers} workers            : {wide['rps']:.1f} req/s · p99 {wide['p99_ms']:.1f}ms")
        print(f"parallel efficiency  : {efficiency:.2f}")
        assert efficiency >= 0.6, "scaling fell far from linear"
        assert wide["p99_ms"] <= single["p99_ms"] * 3.0
