"""Spiking neural-network substrate: IF neurons, spiking layers, simulator."""

from .neuron import IFNeuronPool, ResetMode
from .functional import conv2d_raw, linear_raw, avg_pool2d_raw, global_avg_pool2d_raw
from .layers import (
    SpikingLayer,
    SpikingConv2d,
    SpikingLinear,
    SpikingAvgPool2d,
    SpikingGlobalAvgPool2d,
    SpikingFlatten,
    SpikingResidualBlock,
    SpikingOutputLayer,
    LAYER_REGISTRY,
    layer_from_state,
)
from .encoding import InputEncoder, RealCoding, PoissonCoding
from .executor import ExecutionPlan, ExecutionResult, StepHook, execute, merge_execution_results
from .network import SpikingNetwork, SimulationResult
from .statistics import (
    LayerSpikeStats,
    collect_spike_stats,
    merge_spike_stats,
    mean_firing_rate,
    total_synaptic_operations,
)
from .readout import predict, accuracy_at, latency_to_accuracy

__all__ = [
    "IFNeuronPool",
    "ResetMode",
    "conv2d_raw",
    "linear_raw",
    "avg_pool2d_raw",
    "global_avg_pool2d_raw",
    "SpikingLayer",
    "SpikingConv2d",
    "SpikingLinear",
    "SpikingAvgPool2d",
    "SpikingGlobalAvgPool2d",
    "SpikingFlatten",
    "SpikingResidualBlock",
    "SpikingOutputLayer",
    "LAYER_REGISTRY",
    "layer_from_state",
    "InputEncoder",
    "RealCoding",
    "PoissonCoding",
    "ExecutionPlan",
    "ExecutionResult",
    "StepHook",
    "execute",
    "merge_execution_results",
    "SpikingNetwork",
    "SimulationResult",
    "LayerSpikeStats",
    "collect_spike_stats",
    "merge_spike_stats",
    "mean_firing_rate",
    "total_synaptic_operations",
    "predict",
    "accuracy_at",
    "latency_to_accuracy",
]
