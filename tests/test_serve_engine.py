"""Tests of the adaptive inference engine and the batch-compaction substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import convert_ann_to_snn
from repro.runtime import active_policy
from repro.serve import AdaptiveConfig, AdaptiveEngine
from repro.snn import SpikingLinear, SpikingNetwork, SpikingOutputLayer


def _stable_network() -> SpikingNetwork:
    """A network whose prediction is decided within a few timesteps.

    The output layer's class-0 row dominates every other row, so constant
    positive inputs make class 0 the arg-max as soon as spikes start flowing —
    the designed-stable case where early exit must trigger.
    """

    hidden = np.full((6, 4), 0.5)
    head = np.vstack([np.full(6, 1.0), np.full(6, 0.15), np.full(6, 0.1)])
    return SpikingNetwork([SpikingLinear(hidden), SpikingOutputLayer(head)])


class TestAdaptiveEngine:
    def test_fixed_mode_matches_simulate(self, rng):
        network = _stable_network()
        images = rng.uniform(0.2, 1.0, (8, 4))
        reference = network.simulate(images, timesteps=30)
        outcome = AdaptiveEngine(network, AdaptiveConfig(max_timesteps=30, adaptive=False)).infer(images)
        assert np.array_equal(outcome.scores, reference.scores[30])
        assert (outcome.exit_timesteps == 30).all()
        assert outcome.mean_timesteps == pytest.approx(30.0)

    def test_stable_samples_exit_early_with_matching_predictions(self, rng):
        network = _stable_network()
        images = rng.uniform(0.2, 1.0, (8, 4))
        fixed = network.simulate(images, timesteps=60).predictions()
        outcome = AdaptiveEngine(
            network, AdaptiveConfig(max_timesteps=60, min_timesteps=5, stability_window=10)
        ).infer(images)
        assert (outcome.exit_timesteps < 60).all()
        assert np.array_equal(outcome.predictions, fixed)
        assert outcome.mean_timesteps < 60.0

    def test_compacted_samples_match_isolated_simulation(self, rng):
        network = _stable_network()
        images = rng.uniform(0.2, 1.0, (6, 4))
        outcome = AdaptiveEngine(
            network, AdaptiveConfig(max_timesteps=40, min_timesteps=3, stability_window=6)
        ).infer(images)
        # Each sample's retired scores must equal a solo simulation stopped at
        # its exit latency: compaction may never change per-sample dynamics.
        for index in range(len(images)):
            t = int(outcome.exit_timesteps[index])
            solo = network.simulate(images[index: index + 1], timesteps=t)
            assert np.allclose(outcome.scores[index], solo.scores[t][0], atol=1e-12)

    def test_margin_threshold_retires_confident_samples(self, rng):
        # Widely separated firing rates (≈1.0 vs ≈0.15) give the class-0
        # softmax a clear margin over the runner-up.
        hidden = np.full((6, 4), 0.5)
        head = np.vstack([np.full(6, 1.0), np.full(6, 0.025), np.full(6, 0.02)])
        network = SpikingNetwork([SpikingLinear(hidden), SpikingOutputLayer(head)])
        images = rng.uniform(0.2, 1.0, (4, 4))
        outcome = AdaptiveEngine(
            network,
            AdaptiveConfig(max_timesteps=60, min_timesteps=5, stability_window=60, margin_threshold=0.2),
        ).infer(images)
        assert (outcome.exit_timesteps < 60).all()

    def test_no_retirement_before_first_output_spike(self):
        # Weak weights delay the first output spike well past
        # min_timesteps + stability_window: the hidden neuron fires roughly
        # every 5 steps and the head needs several hidden spikes before class
        # 0 reaches threshold.  All-zero (tied) scores carry no prediction,
        # so the engine must keep such samples simulating instead of retiring
        # them with an arbitrary tie-broken arg-max.
        network = SpikingNetwork(
            [
                SpikingLinear(np.array([[0.24]])),
                SpikingOutputLayer(np.array([[0.3], [0.2]])),
            ]
        )
        images = np.ones((2, 1))
        fixed = network.simulate(images, timesteps=40).predictions()
        outcome = AdaptiveEngine(
            network, AdaptiveConfig(max_timesteps=40, min_timesteps=3, stability_window=6)
        ).infer(images)
        assert (outcome.scores.max(axis=1) > 0).all()
        assert np.array_equal(outcome.predictions, fixed)

    def test_total_spikes_accounted(self, rng):
        network = _stable_network()
        images = rng.uniform(0.2, 1.0, (5, 4))
        fixed = AdaptiveEngine(network, AdaptiveConfig(max_timesteps=20, adaptive=False)).infer(images)
        reference = network.simulate(images, timesteps=20)
        assert fixed.total_spikes == pytest.approx(reference.total_spikes)
        assert fixed.spikes_per_inference == pytest.approx(fixed.total_spikes / 5)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(max_timesteps=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(min_timesteps=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(stability_window=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(margin_threshold=1.5)
        with pytest.raises(ValueError, match="min_timesteps"):
            AdaptiveConfig(max_timesteps=50, min_timesteps=100)

    def test_unbatched_input_rejected(self):
        engine = AdaptiveEngine(_stable_network())
        with pytest.raises(ValueError):
            engine.infer(np.array(1.0))


class TestAdaptiveOnConvertedNetwork:
    def test_adaptive_accuracy_with_fewer_timesteps(self, trained_tcl_model, tiny_data):
        if active_policy().quantized:
            pytest.skip(
                "early-exit/fixed-T agreement is exact under float profiles only; "
                "int8 rounding legitimately flips arg-max-marginal samples"
            )
        model, _ = trained_tcl_model
        _, _, test_images, test_labels = tiny_data
        conversion = convert_ann_to_snn(model, calibration_images=test_images)

        timesteps = 80
        fixed = conversion.snn.simulate(test_images, timesteps=timesteps)
        fixed_predictions = fixed.predictions()

        outcome = AdaptiveEngine(
            conversion.snn,
            AdaptiveConfig(max_timesteps=timesteps, min_timesteps=10, stability_window=40),
        ).infer(test_images)

        # Samples the engine retired early were arg-max-stable for the whole
        # window; their predictions must agree with the fixed-T run.
        early = outcome.exit_timesteps < timesteps
        assert early.any()
        assert np.array_equal(outcome.predictions[early], fixed_predictions[early])
        assert outcome.accuracy(test_labels) == pytest.approx(fixed.accuracy(test_labels))
        assert outcome.mean_timesteps < timesteps
