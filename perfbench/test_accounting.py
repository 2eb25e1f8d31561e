"""Unit tests of the benchmark's own arithmetic (``accounting.py``)."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import accounting  # noqa: E402
from repro.snn import SpikingNetwork  # noqa: E402
from repro.snn.layers import (  # noqa: E402
    SpikingAvgPool2d,
    SpikingConv2d,
    SpikingFlatten,
    SpikingLinear,
    SpikingOutputLayer,
)


class TestPercentileRules:
    @pytest.mark.parametrize(
        "count, expected",
        [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, count, expected):
        assert accounting.tail_percentile(count) == expected

    def test_requested_percentile_caps_the_ladder(self):
        assert accounting.tail_percentile(100_000, requested=95.0) == 95.0

    def test_tail_reports_the_percentile_it_used(self):
        values = np.arange(1, 201, dtype=float)
        value, percentile = accounting.tail(values)
        assert percentile == 95.0
        assert value == pytest.approx(np.percentile(values, 95.0))

    def test_tiny_samples_fall_back_to_the_maximum(self):
        assert accounting.tail([3.0, 9.0, 1.0]) == (9.0, 100.0)

    def test_empty_sample_is_rejected(self):
        with pytest.raises(ValueError):
            accounting.tail([])


def _span(span_id, parent_id, name, duration, **attributes):
    return SimpleNamespace(
        span_id=span_id, parent_id=parent_id, name=name, duration_s=duration, attributes=attributes or None
    )


class TestSelfTime:
    def spans(self):
        return [
            _span(1, None, "bench:simulate", 10.0),
            _span(2, 1, "timestep", 6.0),
            _span(3, 2, "layer-step", 2.5, layer="0:spiking_conv2d"),
            _span(4, 2, "layer-step", 1.5, layer="1:spiking_output"),
            _span(5, 1, "timestep", 3.0),
            _span(6, 5, "layer-step", 2.0, layer="0:spiking_conv2d"),
            _span(7, None, "pass:error-compensation", 4.0),
            _span(8, 7, "layer-step", 3.0, layer="0:spiking_conv2d"),
        ]

    def test_self_time_subtracts_direct_children_only(self):
        selfs = accounting.self_times(self.spans())
        assert selfs[1] == pytest.approx(1.0)
        assert selfs[2] == pytest.approx(2.0)
        assert selfs[5] == pytest.approx(1.0)
        assert selfs[3] == pytest.approx(2.5)
        assert selfs[7] == pytest.approx(1.0)

    def test_self_times_of_a_tree_sum_to_the_root_duration(self):
        under = accounting.descendants_of(self.spans(), ["bench:simulate"])
        assert sum(accounting.self_times(under).values()) == pytest.approx(10.0)

    def test_descendants_exclude_other_roots(self):
        under = accounting.descendants_of(self.spans(), ["bench:simulate"])
        assert sorted(span.span_id for span in under) == [1, 2, 3, 4, 5, 6]

    def test_grouping_by_layer_index(self):
        under = accounting.descendants_of(self.spans(), ["bench:simulate"])
        by_layer = accounting.self_time_by(under, accounting.layer_index)
        assert by_layer == {0: pytest.approx(4.5), 1: pytest.approx(1.5)}


class TestSynops:
    def test_fan_out_from_weight_shapes(self):
        conv = SpikingConv2d(np.zeros((4, 2, 3, 3)), stride=1, padding=1)
        strided = SpikingConv2d(np.zeros((4, 2, 3, 3)), stride=2, padding=1)
        assert accounting.fan_out(conv) == 36.0
        assert accounting.fan_out(strided) == 9.0
        assert accounting.fan_out(SpikingAvgPool2d(2)) == 1.0
        assert accounting.fan_out(SpikingLinear(np.zeros((5, 7)))) == 5.0
        assert accounting.fan_out(SpikingFlatten()) == 0.0

    def test_hand_built_two_layer_network(self):
        hidden = SpikingLinear(np.full((3, 5), 0.3))
        output = SpikingOutputLayer(np.full((2, 3), 0.4))
        network = SpikingNetwork([hidden, output])
        images = np.ones((4, 5))
        stats = network.simulate(images, 10).spike_stats
        spikes = [stat.total_spikes for stat in stats]
        assert spikes[0] > 0

        ops = accounting.synops(network.layers, spikes, first_layer_neurons=3, sample_steps=4 * 10)
        # Layer 0 integrates the analog input densely: 3 neurons × 5 inputs
        # on each of 10 timesteps of 4 samples.
        assert ops[0] == 3 * 5 * 10 * 4
        # Layer 1 receives layer 0's spikes, each driving 2 output synapses.
        assert ops[1] == spikes[0] * 2

    def test_flatten_passes_presynaptic_spikes_through(self):
        layers = [
            SpikingConv2d(np.zeros((2, 1, 3, 3)), padding=1),
            SpikingFlatten(),
            SpikingOutputLayer(np.zeros((3, 8))),
        ]
        ops = accounting.synops(layers, [11.0, None, 2.0], first_layer_neurons=8, sample_steps=1)
        assert ops == [8 * 9, 0.0, 11.0 * 3]
