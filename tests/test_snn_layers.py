"""Tests of spiking layers, encoders, network simulation and statistics."""

import numpy as np
import pytest

from repro.snn import (
    PoissonCoding,
    RealCoding,
    SpikingAvgPool2d,
    SpikingConv2d,
    SpikingFlatten,
    SpikingGlobalAvgPool2d,
    SpikingLinear,
    SpikingNetwork,
    SpikingOutputLayer,
    SpikingResidualBlock,
    avg_pool2d_raw,
    collect_spike_stats,
    conv2d_raw,
    global_avg_pool2d_raw,
    latency_to_accuracy,
    linear_raw,
    mean_firing_rate,
    total_synaptic_operations,
)


class TestRawKernels:
    def test_conv2d_raw_matches_autograd(self, rng):
        from repro.autograd import Tensor, conv2d

        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        raw = conv2d_raw(x, w, b, stride=1, padding=1)
        auto = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1).data
        assert np.allclose(raw, auto)

    def test_linear_raw(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((2, 5))
        b = rng.standard_normal(2)
        assert np.allclose(linear_raw(x, w, b), x @ w.T + b)

    def test_avg_pool_raw(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        assert np.allclose(avg_pool2d_raw(x, 2)[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_global_avg_pool_raw(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        assert np.allclose(global_avg_pool2d_raw(x), x.mean(axis=(2, 3)))


class TestSpikingLayers:
    def test_spiking_linear_rate_approximates_activation(self, rng):
        """A spiking linear layer driven by constant input reproduces the
        clipped ReLU activation of the equivalent analog layer as a rate."""

        w = rng.uniform(-0.2, 0.4, size=(5, 8))
        b = rng.uniform(-0.1, 0.1, size=5)
        x = rng.uniform(0.0, 1.0, size=(3, 8))
        analog = np.clip(x @ w.T + b, 0.0, 1.0)

        layer = SpikingLinear(w, b)
        timesteps = 400
        counts = np.zeros_like(analog)
        for _ in range(timesteps):
            counts += layer.step(x)
        assert np.allclose(counts / timesteps, analog, atol=0.02)

    def test_spiking_conv_output_shape(self, rng):
        layer = SpikingConv2d(rng.standard_normal((4, 3, 3, 3)), np.zeros(4), stride=1, padding=1)
        spikes = layer.step(rng.uniform(0, 1, size=(2, 3, 6, 6)))
        assert spikes.shape == (2, 4, 6, 6)
        assert set(np.unique(spikes)).issubset({0.0, 1.0})

    def test_spiking_avg_pool_rate(self):
        layer = SpikingAvgPool2d(2)
        x = np.full((1, 1, 4, 4), 0.5)
        timesteps = 100
        counts = np.zeros((1, 1, 2, 2))
        for _ in range(timesteps):
            counts += layer.step(x)
        assert np.allclose(counts / timesteps, 0.5, atol=0.02)

    def test_spiking_global_avg_pool_shape(self, rng):
        layer = SpikingGlobalAvgPool2d()
        assert layer.step(rng.uniform(0, 1, (2, 5, 3, 3))).shape == (2, 5)

    def test_spiking_flatten_is_stateless(self, rng):
        layer = SpikingFlatten()
        x = rng.uniform(0, 1, (2, 3, 4, 4))
        assert layer.step(x).shape == (2, 48)
        assert layer.neuron_pools == []

    def test_reset_state_restores_initial_behaviour(self, rng):
        w = rng.standard_normal((3, 4))
        layer = SpikingLinear(w)
        x = rng.uniform(0, 1, (2, 4))
        first = [layer.step(x).copy() for _ in range(5)]
        layer.reset_state()
        second = [layer.step(x).copy() for _ in range(5)]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestSpikingOutputLayer:
    def test_spike_count_readout_scores(self, rng):
        w = np.eye(3)
        layer = SpikingOutputLayer(w, readout="spike_count")
        x = np.array([[0.9, 0.5, 0.1]])
        for _ in range(100):
            layer.step(x)
        scores = layer.scores()
        assert scores[0, 0] > scores[0, 1] > scores[0, 2]

    def test_membrane_readout_scores(self):
        layer = SpikingOutputLayer(np.eye(2), readout="membrane")
        x = np.array([[0.3, -0.8]])
        for _ in range(10):
            layer.step(x)
        scores = layer.scores()
        assert scores[0, 0] == pytest.approx(3.0)
        assert scores[0, 1] == pytest.approx(-8.0)

    def test_membrane_readout_emits_no_spikes(self):
        layer = SpikingOutputLayer(np.eye(2), readout="membrane")
        spikes = layer.step(np.array([[5.0, 5.0]]))
        assert np.allclose(spikes, 0.0)

    def test_invalid_readout(self):
        with pytest.raises(ValueError):
            SpikingOutputLayer(np.eye(2), readout="voltage")

    def test_scores_before_step_raises(self):
        with pytest.raises(RuntimeError):
            SpikingOutputLayer(np.eye(2)).scores()


class TestSpikingResidualBlock:
    def test_identity_shortcut_passes_rate_through(self):
        """With zero main-path weights, the OS rate equals the input rate (identity)."""

        channels = 3
        ns_weight = np.zeros((channels, channels, 3, 3))
        osn_weight = np.zeros((channels, channels, 3, 3))
        osi_weight = np.zeros((channels, channels, 1, 1))
        for c in range(channels):
            osi_weight[c, c, 0, 0] = 1.0
        block = SpikingResidualBlock(ns_weight, None, osn_weight, osi_weight, None)

        rate = 0.6
        x = np.full((1, channels, 4, 4), rate)
        timesteps = 200
        counts = np.zeros_like(x)
        for _ in range(timesteps):
            counts += block.step(x)
        assert np.allclose(counts / timesteps, rate, atol=0.02)

    def test_has_two_neuron_pools(self):
        block = SpikingResidualBlock(
            np.zeros((2, 2, 3, 3)), None, np.zeros((2, 2, 3, 3)), np.zeros((2, 2, 1, 1)), None
        )
        assert len(block.neuron_pools) == 2

    def test_stride_downsamples(self, rng):
        block = SpikingResidualBlock(
            rng.standard_normal((4, 2, 3, 3)) * 0.1,
            None,
            rng.standard_normal((4, 4, 3, 3)) * 0.1,
            rng.standard_normal((4, 2, 1, 1)) * 0.1,
            None,
            ns_stride=2,
            osi_stride=2,
        )
        out = block.step(rng.uniform(0, 1, (1, 2, 8, 8)))
        assert out.shape == (1, 4, 4, 4)

    def test_synaptic_paths_keep_separate_kernel_caches(self, rng):
        block = SpikingResidualBlock(
            rng.standard_normal((4, 4, 3, 3)) * 0.3,
            None,
            rng.standard_normal((4, 4, 3, 3)) * 0.3,
            rng.standard_normal((4, 4, 1, 1)) * 0.5,
            None,
        ).set_policy("infer32")
        block.step(rng.uniform(0, 1, (2, 4, 6, 6)).astype(np.float32))
        # One sub-cache per synaptic path (NS / OSN / OSI), plus the policy stamp;
        # each path reuses its own scratch workspace.
        assert set(block.backend_cache) == {"ns", "osn", "osi", "policy"}
        workspaces = [block.backend_cache[path]["workspace"] for path in ("ns", "osn", "osi")]
        assert len({id(workspace) for workspace in workspaces}) == 3


class TestEncoders:
    def test_real_coding_constant(self, rng):
        encoder = RealCoding()
        images = rng.standard_normal((2, 3, 4, 4))
        encoder.reset(images)
        assert np.array_equal(encoder.step(0), images)
        assert np.array_equal(encoder.step(10), images)

    def test_poisson_coding_rates(self):
        encoder = PoissonCoding(seed=0)
        images = np.array([[[[0.0, 1.0]]]])
        encoder.reset(images)
        counts = np.zeros_like(images)
        for t in range(500):
            counts += encoder.step(t)
        assert counts[0, 0, 0, 0] == 0.0
        assert counts[0, 0, 0, 1] / 500 == pytest.approx(1.0, abs=0.05)

    def test_poisson_binary_output(self, rng):
        encoder = PoissonCoding(seed=1)
        encoder.reset(rng.uniform(0, 1, (2, 1, 3, 3)))
        spikes = encoder.step(0)
        assert set(np.unique(spikes)).issubset({0.0, 1.0})

    def test_poisson_invalid_gain(self):
        with pytest.raises(ValueError):
            PoissonCoding(gain=0.0)


class TestSpikingNetwork:
    def _network(self, rng):
        w1 = rng.uniform(-0.3, 0.5, size=(6, 4))
        w2 = rng.uniform(-0.3, 0.5, size=(3, 6))
        return SpikingNetwork([SpikingLinear(w1), SpikingOutputLayer(w2)])

    def test_requires_output_layer_last(self, rng):
        with pytest.raises(TypeError):
            SpikingNetwork([SpikingLinear(rng.standard_normal((3, 3)))])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            SpikingNetwork([])

    def test_simulate_returns_checkpoints(self, rng):
        net = self._network(rng)
        images = rng.uniform(0, 1, size=(5, 4))
        result = net.simulate(images, timesteps=30, checkpoints=[10, 20])
        assert set(result.scores) == {10, 20, 30}
        assert result.scores[30].shape == (5, 3)

    def test_invalid_timesteps(self, rng):
        with pytest.raises(ValueError):
            self._network(rng).simulate(rng.uniform(0, 1, (2, 4)), timesteps=0)

    def test_predictions_and_accuracy(self, rng):
        net = self._network(rng)
        images = rng.uniform(0, 1, size=(8, 4))
        result = net.simulate(images, timesteps=40)
        labels = result.predictions()
        assert result.accuracy(labels) == pytest.approx(1.0)

    def test_accuracy_curve_keys(self, rng):
        net = self._network(rng)
        result = net.simulate(rng.uniform(0, 1, (4, 4)), timesteps=20, checkpoints=[5, 10])
        curve = result.accuracy_curve(np.zeros(4, dtype=int))
        assert sorted(curve) == [5, 10, 20]

    def test_unknown_checkpoint_raises(self, rng):
        net = self._network(rng)
        result = net.simulate(rng.uniform(0, 1, (2, 4)), timesteps=10)
        with pytest.raises(KeyError):
            result.predictions(at=7)

    def test_batched_simulation_matches_single(self, rng):
        net = self._network(rng)
        images = rng.uniform(0, 1, size=(10, 4))
        full = net.simulate(images, timesteps=25)
        batched = net.simulate_batched(images, timesteps=25, batch_size=3)
        assert np.allclose(full.scores[25], batched.scores[25])

    def test_batched_simulation_merges_stats_per_layer(self, rng):
        net = self._network(rng)
        images = rng.uniform(0, 1, size=(10, 4))
        full = net.simulate(images, timesteps=25)
        batched = net.simulate_batched(images, timesteps=25, batch_size=3)
        # One entry per layer regardless of how many batches ran, covering the
        # whole evaluation set.
        assert len(batched.spike_stats) == len(full.spike_stats)
        for merged, single in zip(batched.spike_stats, full.spike_stats):
            assert merged.layer_name == single.layer_name
            assert merged.batch_size == 10
            assert merged.total_spikes == pytest.approx(single.total_spikes)
            assert merged.mean_rate == pytest.approx(single.mean_rate)

    def test_out_of_range_checkpoints_warn(self, rng):
        net = self._network(rng)
        images = rng.uniform(0, 1, size=(3, 4))
        with pytest.warns(UserWarning, match=r"checkpoints \[50\]"):
            result = net.simulate(images, timesteps=20, checkpoints=[10, 50])
        assert set(result.scores) == {10, 20}

    def test_compact_drops_samples_from_state(self, rng):
        net = self._network(rng)
        images = rng.uniform(0, 1, size=(5, 4))
        net.reset_state()
        for _ in range(3):
            net.step(images)
        keep = np.array([True, False, True, True, False])
        net.compact(keep)
        for layer in net.layers:
            for pool in layer.neuron_pools:
                assert pool.membrane.shape[0] == 3
                assert pool.spike_count.shape[0] == 3

    def test_spike_stats_collected(self, rng):
        net = self._network(rng)
        result = net.simulate(rng.uniform(0, 1, (3, 4)), timesteps=15)
        assert len(result.spike_stats) == 2
        assert result.total_spikes >= 0

    def test_latency_to_accuracy_helper(self, rng):
        net = self._network(rng)
        images = rng.uniform(0, 1, size=(6, 4))
        result = net.simulate(images, timesteps=50, checkpoints=[10, 25])
        labels = result.predictions()
        assert latency_to_accuracy(result, labels, target_accuracy=1.0) in (10, 25, 50)
        assert latency_to_accuracy(result, (labels + 1) % 3, target_accuracy=1.0) == -1


class TestStatisticsHelpers:
    def test_collect_and_aggregate(self, rng):
        layer = SpikingLinear(rng.uniform(0, 0.5, (4, 4)))
        for _ in range(10):
            layer.step(rng.uniform(0, 1, (2, 4)))
        stats = collect_spike_stats([layer], timesteps=10)
        assert len(stats) == 1
        assert stats[0].num_neurons == 4
        assert 0.0 <= stats[0].mean_rate <= 1.0
        assert mean_firing_rate(stats) == pytest.approx(stats[0].mean_rate)
        assert total_synaptic_operations(stats, fanout=10.0) == pytest.approx(stats[0].total_spikes * 10.0)

    def test_empty_stats(self):
        assert mean_firing_rate([]) == 0.0
