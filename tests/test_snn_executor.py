"""Tests of the execution engine: plans, hooks, result merging, golden parity.

The executor refactor's core promise is that extracting the timestep loop
changed *nothing*: the golden fingerprints below were captured from the
pre-executor ``SpikingNetwork.simulate`` / ``simulate_batched`` /
``AdaptiveEngine.infer`` implementations, so the one timestep loop is
pinned bit-identical to the historical behaviour.  ``GOLDEN_PROFILES``
pins the float32 profiles (``infer32`` and the quantized ``infer8``) the
same way, with and without a λ/2 initial membrane.
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
    SpikingAvgPool2d,
    SpikingConv2d,
    SpikingFlatten,
    SpikingLinear,
    SpikingNetwork,
    SpikingOutputLayer,
    SpikingResidualBlock,
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
#: The float32 profiles on the same fixture, per (profile, v_init): simulate
#: (T=25, checkpoints 10 and 20) per reset mode with its spike total, the
#: batched run (batch_size=2, checkpoint 10) and the adaptive engine (max 30,
#: min 3, window 4).  Captured from the masked-reset IF step and the im2col
#: pooling kernels, so the branch-free kernels are pinned to their bits.
GOLDEN_PROFILES = {
    ("infer32", 0.0): {
        "subtract": ({10: "fc4a41166b39a543", 20: "393d4650b0a38f05", 25: "8ced56f5bb28298d"}, 4976.0),
        "zero": ({10: "3dc3a380d7ee981c", 20: "6ac2e688782102d5", 25: "d020c9f068f8753d"}, 3973.0),
        "batched": {10: "fc4a41166b39a543", 25: "8ced56f5bb28298d"},
        "adaptive": ("ffdab2ce1320b475", [5, 10, 5, 15, 14], 1855.0),
    },
    ("infer32", 0.5): {
        "subtract": ({10: "ff19b6cb6496f891", 20: "63e5ec36cc18c5ad", 25: "cf2ff1643f9ab3b3"}, 5166.0),
        "zero": ({10: "e70f2a9ac442e4f2", 20: "56b111b200143431", 25: "4185b40009825d87"}, 4171.0),
        "batched": {10: "ff19b6cb6496f891", 25: "cf2ff1643f9ab3b3"},
        "adaptive": ("4fac0f1cfe660b58", [6, 7, 4, 6, 5], 1160.0),
    },
    ("infer8", 0.0): {
        "subtract": ({10: "fc4a41166b39a543", 20: "393d4650b0a38f05", 25: "5b415b0c6003d462"}, 4984.0),
        "zero": ({10: "3dc3a380d7ee981c", 20: "6ac2e688782102d5", 25: "1fcfca55471d72c9"}, 3972.0),
        "batched": {10: "fc4a41166b39a543", 25: "5b415b0c6003d462"},
        "adaptive": ("2256aadefa3b4662", [4, 8, 5, 15, 14], 1741.0),
    },
    ("infer8", 0.5): {
        "subtract": ({10: "ff19b6cb6496f891", 20: "63e5ec36cc18c5ad", 25: "4cd485896f4788dd"}, 5172.0),
        "zero": ({10: "3d73e64ed8684a12", 20: "ed723d8c97706c5b", 25: "6d1028edf94a1f72"}, 4166.0),
        "batched": {10: "ff19b6cb6496f891", 25: "4cd485896f4788dd"},
        "adaptive": ("4fac0f1cfe660b58", [10, 7, 4, 6, 5], 1312.0),
    },
}


def build_profiled_network(
    profile: str, v_init: float, reset_mode: ResetMode = ResetMode.SUBTRACT
) -> SpikingNetwork:
    """``build_network(42)`` under ``profile`` with every pool starting at ``v_init``."""

    network = build_network(42, reset_mode).set_policy(profile)
    for layer in network.layers:
        layer.set_membrane_init(v_init)
    return network


def build_spike_conv_network(seed: int = 7) -> SpikingNetwork:
    """A deeper stack whose convolutions mostly read spikes, not pixels.

    Layer 0 sees the analog input; after it come spike-input convolutions
    of every geometry the kernels distinguish: 3×3 pad 1, 3×3 pad 0, 1×1,
    a stride-2 3×3 (which keeps the im2col unfold) and a residual block
    (3×3 NS and OS paths plus a 1×1 projection shortcut).
    """

    rng = np.random.default_rng(seed)

    def weight(shape):
        return rng.standard_normal(shape) * 2.0 / np.sqrt(np.prod(shape[1:]))

    def bias(channels):
        return 0.05 + rng.standard_normal(channels) * 0.05

    return SpikingNetwork(
        [
            SpikingConv2d(weight((4, 2, 3, 3)) * 0.5, bias(4), stride=1, padding=1),
            SpikingConv2d(weight((6, 4, 3, 3)), bias(6), stride=1, padding=1),
            SpikingConv2d(weight((6, 6, 3, 3)), bias(6), stride=1, padding=0),
            SpikingConv2d(weight((8, 6, 1, 1)), bias(8), stride=1, padding=0),
            SpikingConv2d(weight((8, 8, 3, 3)), bias(8), stride=2, padding=1),
            SpikingResidualBlock(
                weight((8, 8, 3, 3)),
                bias(8),
                weight((8, 8, 3, 3)),
                weight((8, 8, 1, 1)),
                bias(8),
                block_type="B",
            ),
            SpikingAvgPool2d(2),
            SpikingFlatten(),
            SpikingOutputLayer(weight((3, 32)), bias(3)),
        ]
    )


SPIKE_CONV_IMAGES = np.random.default_rng(99).uniform(0.0, 1.0, (6, 2, 10, 10))

#: ``build_spike_conv_network()`` on ``SPIKE_CONV_IMAGES`` per profile:
#: simulate (T=25, checkpoints 10 and 20) with its spike total, the batched
#: run (batch_size=4, so the batches hold 4 and 2 samples) and the adaptive
#: engine (max 30, min 3, window 4).  Captured from the per-sample GEMM loop,
#: the im2col unfold of every spike-input convolution and a layer-0 current
#: recomputed at every timestep.
GOLDEN_SPIKE_CONVS = {
    "train64": {
        "simulate": ({10: "8f5cbdc434f28933", 20: "2ed28665b2cc7843", 25: "0c4320ef7d49ef60"}, 42971.0),
        "batched": {10: "8f5cbdc434f28933", 25: "0c4320ef7d49ef60"},
        "adaptive": ("d9e3cb3c06ee8a13", [8, 7, 10, 8, 10, 8], 10812.0),
    },
    "infer32": {
        "simulate": ({10: "c429b50ed66a68d2", 20: "eda8d01f046401cf", 25: "50e90aa554cff2c5"}, 42971.0),
        "batched": {10: "c429b50ed66a68d2", 25: "50e90aa554cff2c5"},
        "adaptive": ("d07a40a03be54edd", [8, 7, 10, 8, 10, 8], 10812.0),
    },
    "infer8": {
        "simulate": ({10: "bcd8a1b1e753b090", 20: "ef6577054ec5755d", 25: "e036f3aea0566c44"}, 42894.0),
        "batched": {10: "bcd8a1b1e753b090", 25: "e036f3aea0566c44"},
        "adaptive": ("44f5beedab84ddf5", [9, 7, 8, 8, 8, 11], 10784.0),
    },
}


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

    @pytest.mark.parametrize("reset_mode", [ResetMode.SUBTRACT, ResetMode.ZERO])
    @pytest.mark.parametrize("profile, v_init", sorted(GOLDEN_PROFILES))
    def test_profile_simulate_matches_golden_bits(self, profile, v_init, reset_mode):
        result = build_profiled_network(profile, v_init, reset_mode).simulate(
            GOLDEN_IMAGES, 25, checkpoints=(10, 20)
        )
        expected_scores, expected_spikes = GOLDEN_PROFILES[(profile, v_init)][reset_mode.value]
        assert {t: fingerprint(s) for t, s in result.scores.items()} == expected_scores
        assert result.total_spikes == expected_spikes

    @pytest.mark.parametrize("profile, v_init", sorted(GOLDEN_PROFILES))
    def test_profile_simulate_batched_matches_golden_bits(self, profile, v_init):
        result = build_profiled_network(profile, v_init).simulate_batched(
            GOLDEN_IMAGES, 25, batch_size=2, checkpoints=(10,)
        )
        expected = GOLDEN_PROFILES[(profile, v_init)]["batched"]
        assert {t: fingerprint(s) for t, s in result.scores.items()} == expected

    @pytest.mark.parametrize("profile, v_init", sorted(GOLDEN_PROFILES))
    def test_profile_adaptive_engine_matches_golden_bits(self, profile, v_init):
        outcome = AdaptiveEngine(
            build_profiled_network(profile, v_init),
            AdaptiveConfig(max_timesteps=30, min_timesteps=3, stability_window=4),
        ).infer(GOLDEN_IMAGES)
        scores_hash, exits, spikes = GOLDEN_PROFILES[(profile, v_init)]["adaptive"]
        assert fingerprint(outcome.scores) == scores_hash
        assert outcome.exit_timesteps.tolist() == exits
        assert outcome.total_spikes == spikes


class TestSpikeConvGolden:
    """Pins the spike-input convolution kernels on a network that uses them."""

    @pytest.mark.parametrize("profile", sorted(GOLDEN_SPIKE_CONVS))
    def test_simulate_matches_golden_bits(self, profile):
        result = build_spike_conv_network().set_policy(profile).simulate(
            SPIKE_CONV_IMAGES, 25, checkpoints=(10, 20)
        )
        expected_scores, expected_spikes = GOLDEN_SPIKE_CONVS[profile]["simulate"]
        assert {t: fingerprint(s) for t, s in result.scores.items()} == expected_scores
        assert result.total_spikes == expected_spikes

    @pytest.mark.parametrize("profile", sorted(GOLDEN_SPIKE_CONVS))
    def test_simulate_batched_matches_golden_bits(self, profile):
        result = build_spike_conv_network().set_policy(profile).simulate_batched(
            SPIKE_CONV_IMAGES, 25, batch_size=4, checkpoints=(10,)
        )
        expected = GOLDEN_SPIKE_CONVS[profile]["batched"]
        assert {t: fingerprint(s) for t, s in result.scores.items()} == expected

    @pytest.mark.parametrize("profile", sorted(GOLDEN_SPIKE_CONVS))
    def test_adaptive_engine_matches_golden_bits(self, profile):
        outcome = AdaptiveEngine(
            build_spike_conv_network().set_policy(profile),
            AdaptiveConfig(max_timesteps=30, min_timesteps=3, stability_window=4),
        ).infer(SPIKE_CONV_IMAGES)
        scores_hash, exits, spikes = GOLDEN_SPIKE_CONVS[profile]["adaptive"]
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
