"""Pinned overhead gate: disabled tracing must cost ≤ 2 % of an uninstrumented loop.

The instrumented executor promises that when no tracer is installed the hot
path is the *verbatim* historical loop — one hoisted ``tracer.enabled``
check per run, no span objects, no attribute dicts, no clock reads.  This
benchmark holds that promise to a number: the traced-build disabled path is
timed against a hand-written uninstrumented timestep loop on the same
network, interleaved best-of-N so machine noise hits both sides equally.

Enabled tracing is also measured (informational, printed with ``-s``): the
per-layer × per-timestep spans are real work and are allowed to cost more.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import Converter
from repro.models import ConvNet4
from repro.obs import Tracer, active_tracer, using_tracer
from bench_utils import print_benchmark_header

BATCH = 16
TIMESTEPS = 30
ROUNDS = 7  # interleaved best-of rounds; best-of absorbs scheduler noise
OVERHEAD_CEILING = 1.02  # the pinned ≤2% contract


@pytest.fixture(scope="module")
def network_and_images():
    rng = np.random.default_rng(23)
    model = ConvNet4(
        channels=(8, 8, 16, 16), hidden_features=32, image_size=12, num_classes=4, batch_norm=False
    )
    images = rng.random((BATCH, 3, 12, 12))
    snn = Converter(model).strategy("tcl").calibrate(images).convert().snn
    return snn, images


def _uninstrumented_run(network, images) -> None:
    """The timestep loop with zero observability code — the reference side."""

    network.reset_state()
    network.encoder.reset(images)
    for t in range(1, TIMESTEPS + 1):
        network.step(network.encoder.step(t))


def _simulate_run(network, images) -> None:
    """The production path (``simulate`` → executor) with tracing disabled."""

    network.simulate(images, TIMESTEPS, collect_statistics=False)


def _best_of_interleaved(network, images, runners, rounds: int = ROUNDS):
    """Best wall-clock per runner, alternating runners within each round."""

    best = [float("inf")] * len(runners)
    for _ in range(rounds):
        for index, runner in enumerate(runners):
            started = time.perf_counter()
            runner(network, images)
            best[index] = min(best[index], time.perf_counter() - started)
    return best


class TestDisabledTracingOverhead:
    def test_disabled_overhead_within_two_percent(self, network_and_images):
        network, images = network_and_images
        assert not active_tracer().enabled  # the gate measures the disabled path
        # Warm-up both paths (kernel caches, allocator pools).
        _uninstrumented_run(network, images)
        _simulate_run(network, images)
        # A shared machine can land a scheduling hiccup on either side of a
        # single measurement; a real regression shows up in *every* attempt,
        # so the gate only fails when repeated measurements agree.
        ratios = []
        print_benchmark_header("tracing-disabled overhead gate")
        for attempt in range(3):
            base, traced = _best_of_interleaved(
                network, images, (_uninstrumented_run, _simulate_run)
            )
            ratio = traced / base
            ratios.append(ratio)
            print(
                f"attempt {attempt}: uninstrumented {base * 1e3:8.2f} ms · "
                f"executor (disabled) {traced * 1e3:8.2f} ms · ratio {ratio:.3f}"
            )
            if ratio <= OVERHEAD_CEILING:
                break
        assert min(ratios) <= OVERHEAD_CEILING, (
            f"tracing-disabled executor path costs {min(ratios):.3f}× the "
            f"uninstrumented loop across {len(ratios)} attempts "
            f"(pinned ceiling {OVERHEAD_CEILING}×)"
        )

    def test_enabled_tracing_cost_is_visible_not_gated(self, network_and_images):
        network, images = network_and_images
        _simulate_run(network, images)  # warm-up

        def enabled_run(net, imgs):
            with using_tracer(Tracer()):
                _simulate_run(net, imgs)

        disabled, enabled = _best_of_interleaved(
            network, images, (_simulate_run, enabled_run), rounds=3
        )
        print_benchmark_header("tracing-enabled cost (informational)")
        print(f"disabled : {disabled * 1e3:8.2f} ms")
        print(f"enabled  : {enabled * 1e3:8.2f} ms  ({enabled / disabled:.2f}×)")
        # Sanity only: enabled tracing produced spans and finished the run.
        tracer = Tracer()
        with using_tracer(tracer):
            _simulate_run(network, images)
        assert len(tracer) == TIMESTEPS * (len(network.layers) + 1) + 1
