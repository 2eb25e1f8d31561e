"""Tests of the execution engine: plans, hooks, result merging, golden parity.

The executor refactor's core promise is that extracting the timestep loop
changed *nothing*: the golden fingerprints below were captured from the
pre-executor ``SpikingNetwork.simulate`` / ``simulate_batched`` /
``AdaptiveEngine.infer`` implementations, so the one timestep loop is
pinned bit-identical to the historical behaviour.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.serve import AdaptiveConfig, AdaptiveEngine
from repro.snn import (
    ExecutionPlan,
    ExecutionResult,
    LayerSpikeStats,
    PoissonCoding,
    ResetMode,
    SpikingConv2d,
    SpikingFlatten,
    SpikingLinear,
    SpikingNetwork,
    SpikingOutputLayer,
    StepHook,
    execute,
    merge_execution_results,
)
from repro.snn.executor import normalize_checkpoints


def build_network(
    seed: int = 42,
    reset_mode: ResetMode = ResetMode.SUBTRACT,
    readout: str = "spike_count",
    encoder=None,
) -> SpikingNetwork:
    """Conv + linear + head with random weights — rebuilt identically per seed."""

    rng = np.random.default_rng(seed)
    return SpikingNetwork(
        [
            SpikingConv2d(
                rng.standard_normal((4, 2, 3, 3)) * 0.4,
                rng.standard_normal(4) * 0.05,
                stride=1,
                padding=1,
                reset_mode=reset_mode,
            ),
            SpikingFlatten(),
            SpikingLinear(rng.standard_normal((6, 4 * 6 * 6)) * 0.15, None, reset_mode=reset_mode),
            SpikingOutputLayer(
                rng.standard_normal((3, 6)) * 0.5,
                rng.standard_normal(3) * 0.1,
                readout=readout,
                reset_mode=reset_mode,
            ),
        ],
        encoder=encoder,
    )


GOLDEN_IMAGES = np.random.default_rng(99).uniform(0.0, 1.0, (5, 2, 6, 6))

#: sha256 prefixes of the checkpoint scores the *pre-executor* simulate
#: produced on ``build_network(42)`` / ``GOLDEN_IMAGES`` (T=25, checkpoints
#: 10 and 20), per (reset_mode, readout), plus the total spike count.
GOLDEN_SIMULATE = {
    ("subtract", "spike_count"): (
        {10: "249b16e6d801ef67", 20: "a73bbb3072e09088", 25: "9ac22286c657424b"},
        4976.0,
    ),
    ("subtract", "membrane"): (
        {10: "0bbfdcc32f08bb3b", 20: "20dfef4ca95e15da", 25: "b1d8fc0e758f1221"},
        4929.0,
    ),
    ("zero", "spike_count"): (
        {10: "e124fc7528a4c639", 20: "d351801233f74b15", 25: "aca3797820014cc1"},
        3973.0,
    ),
    ("zero", "membrane"): (
        {10: "3d34e4cb0c4c8896", 20: "2da6803a6f441d43", 25: "17eb0c604f79ae13"},
        3944.0,
    ),
}
#: Pre-executor ``simulate_batched`` (batch_size=2, checkpoint 10).
GOLDEN_BATCHED = {10: "249b16e6d801ef67", 25: "9ac22286c657424b"}
#: Pre-executor Poisson-coded simulate (gain 0.8, seed 5, T=25).
GOLDEN_POISSON = "a39bddf69111ae19"
#: Pre-executor AdaptiveEngine (max 30, min 3, window 4) on the same fixture.
GOLDEN_ADAPTIVE = ("6e75a6a13ec6b0c4", [5, 10, 5, 15, 14], 1855.0)


def fingerprint(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


class TestGoldenParityWithPreExecutorLoop:
    @pytest.mark.parametrize("reset_mode", [ResetMode.SUBTRACT, ResetMode.ZERO])
    @pytest.mark.parametrize("readout", ["spike_count", "membrane"])
    def test_simulate_matches_pre_refactor_bits(self, reset_mode, readout):
        result = build_network(42, reset_mode, readout).simulate(
            GOLDEN_IMAGES, 25, checkpoints=(10, 20)
        )
        expected_scores, expected_spikes = GOLDEN_SIMULATE[(reset_mode.value, readout)]
        assert {t: fingerprint(s) for t, s in result.scores.items()} == expected_scores
        assert result.total_spikes == expected_spikes

    def test_simulate_batched_matches_pre_refactor_bits(self):
        result = build_network(42).simulate_batched(
            GOLDEN_IMAGES, 25, batch_size=2, checkpoints=(10,)
        )
        assert {t: fingerprint(s) for t, s in result.scores.items()} == GOLDEN_BATCHED
        # Statistics merge to one entry per layer with the full batch size.
        assert [(s.layer_name, s.batch_size) for s in result.spike_stats] == [
            ("0:spiking_conv2d", 5),
            ("2:spiking_linear", 5),
            ("3:spiking_output", 5),
        ]

    def test_poisson_simulate_matches_pre_refactor_bits(self):
        network = build_network(42, encoder=PoissonCoding(gain=0.8, seed=5))
        result = network.simulate(GOLDEN_IMAGES, 25)
        assert fingerprint(result.scores[25]) == GOLDEN_POISSON

    def test_adaptive_engine_matches_pre_refactor_bits(self):
        outcome = AdaptiveEngine(
            build_network(42),
            AdaptiveConfig(max_timesteps=30, min_timesteps=3, stability_window=4),
        ).infer(GOLDEN_IMAGES)
        scores_hash, exits, spikes = GOLDEN_ADAPTIVE
        assert fingerprint(outcome.scores) == scores_hash
        assert outcome.exit_timesteps.tolist() == exits
        assert outcome.total_spikes == spikes


class TestPlanCompilation:
    def test_rejects_non_positive_timesteps(self):
        with pytest.raises(ValueError, match="timesteps must be positive"):
            ExecutionPlan.compile(build_network(), 0)
        # The same shared validation guards every entry point.
        with pytest.raises(ValueError, match="timesteps must be positive"):
            build_network().simulate(GOLDEN_IMAGES, 0)
        with pytest.raises(ValueError, match="timesteps must be positive"):
            build_network().simulate_batched(GOLDEN_IMAGES, -3)
        # A non-positive batch size is rejected before any state changes.
        network = build_network()
        for batch_size in (0, -3):
            with pytest.raises(ValueError, match="batch_size must be positive"):
                network.simulate_batched(GOLDEN_IMAGES, 5, batch_size=batch_size)
        assert all(pool.membrane is None for layer in network.layers for pool in layer.neuron_pools)

    def test_normalize_checkpoints_drops_out_of_range_with_warning(self):
        with pytest.warns(UserWarning, match=r"checkpoints \[0, 50\]"):
            kept = normalize_checkpoints(20, [10, 0, 50])
        assert kept == frozenset({10})

    def test_final_timestep_always_recorded(self):
        plan = ExecutionPlan.compile(build_network(), 20, checkpoints=[5])
        assert plan.checkpoints == frozenset({5, 20})
        hookless = ExecutionPlan.compile(build_network(), 20, record_final=False)
        assert hookless.checkpoints == frozenset()

    def test_simulate_batched_warns_like_simulate(self):
        # The historical duplicate validation now lives in one place; both
        # entry points still surface it.
        with pytest.warns(UserWarning, match="will not be recorded"):
            build_network().simulate_batched(GOLDEN_IMAGES, 10, batch_size=3, checkpoints=[99])


class TestMergeExecutionResults:
    def test_concatenates_scores_and_merges_stats_in_order(self):
        parts = [
            ExecutionResult(
                scores={5: np.array([[1.0, 2.0]]), 10: np.array([[3.0, 4.0]])},
                timesteps=10,
                spike_stats=[LayerSpikeStats("0:layer", 7.0, 4, 10, batch_size=1)],
            ),
            ExecutionResult(
                scores={5: np.array([[5.0, 6.0], [7.0, 8.0]]), 10: np.array([[9.0, 10.0], [11.0, 12.0]])},
                timesteps=10,
                spike_stats=[LayerSpikeStats("0:layer", 3.0, 4, 10, batch_size=2)],
            ),
        ]
        merged = merge_execution_results(parts)
        assert merged.timesteps == 10
        assert np.array_equal(merged.scores[5], np.array([[1.0, 2.0], [5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(merged.scores[10], np.array([[3.0, 4.0], [9.0, 10.0], [11.0, 12.0]]))
        assert len(merged.spike_stats) == 1
        stat = merged.spike_stats[0]
        assert (stat.total_spikes, stat.batch_size, stat.num_neurons) == (10.0, 3, 4)


class TestEncoderClone:
    def test_poisson_encoder_clone_restarts_from_seed(self):
        original = build_network(11, encoder=PoissonCoding(gain=0.6, seed=9))
        original.simulate(GOLDEN_IMAGES, 7)  # advances the original's stream
        twin = build_network(11, encoder=original.encoder.clone())
        fresh = build_network(11, encoder=PoissonCoding(gain=0.6, seed=9))
        assert np.array_equal(
            twin.simulate(GOLDEN_IMAGES, 7).scores[7],
            fresh.simulate(GOLDEN_IMAGES, 7).scores[7],
        )


class _StopAtHook(StepHook):
    """Stops the run after a fixed number of timesteps; records what it saw."""

    def __init__(self, stop_at: int) -> None:
        self.stop_at = stop_at
        self.seen = []

    def start(self, network, batch_size):
        self.network = network
        self.batch = batch_size

    def after_step(self, t):
        self.seen.append(t)
        return t >= self.stop_at

    def result(self):
        return list(self.seen)


class TestStepHooks:
    def test_hook_can_stop_a_run_early(self):
        network = build_network(5)
        plan = ExecutionPlan.compile(network, 30, hook=_StopAtHook(4), record_final=False)
        result = execute(plan, GOLDEN_IMAGES)
        assert result.hook_result == [1, 2, 3, 4]
        assert network.layers[0].neurons.steps == 4
