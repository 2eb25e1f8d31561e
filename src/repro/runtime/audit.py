"""Dtype audit: prove that no intermediate array escapes a network's policy.

The compute-policy refactor only pays off if the dtype *flows*: one stray
``np.asarray(..., dtype=np.float64)`` anywhere in a simulated timestep
silently upcasts everything downstream and erases the float32 bandwidth win
while every top-level array still looks right.  :func:`audit_network_dtypes`
is the parity harness guarding against that regression — it steps a network
and inspects every seam a timestep touches:

* the encoder's emitted input tensor,
* every layer's synaptic weight arrays and step output,
* every IF pool's membrane potential and spike counters,
* every array in each layer's kernel cache (accumulator weight casts,
  buffer-pool scratch workspaces),
* the output layer's accumulated class scores.

Under a *quantized* policy (``infer8``) the audit additionally checks the
integer side of the contract: every quantized weight group must actually sit
on an integer grid (a float weight tensor there means a cast silently undid
the quantization), and every spiking layer must emit spikes in the policy's
``spike_dtype``.  The float checks above still apply to the accumulate path
— the membrane and current lanes are policy-dtype floats, so a stray
float64 upcast is caught exactly as in the unquantized profiles.

It returns a list of human-readable violations (empty = clean), so the test
suite asserts ``audit_network_dtypes(net, images) == []`` and a failure names
the exact seam that leaked.

The module is duck-typed on the ``SpikingNetwork`` protocol (``layers``,
``encoder``, ``policy``, ``reset_state``) rather than importing
:mod:`repro.snn` — ``repro.runtime`` sits below every other package in the
layering.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .buffers import BufferPool
from .policy import ComputePolicy

__all__ = ["audit_network_dtypes"]


def _check(violations: List[str], where: str, array, dtype) -> None:
    if array is None:
        return
    if isinstance(array, np.ndarray) and array.dtype.kind == "f" and array.dtype != dtype:
        violations.append(f"{where}: {array.dtype.name} (policy wants {dtype.name})")


def _audit_cache(violations: List[str], where: str, cache, dtype) -> None:
    if not isinstance(cache, dict):
        return
    for key, value in cache.items():
        if isinstance(value, np.ndarray):
            _check(violations, f"{where}[{key!r}]", value, dtype)
        elif isinstance(value, BufferPool):
            for slot, buffer in value._buffers.items():
                _check(violations, f"{where}[{key!r}].{slot}", buffer, dtype)
        elif isinstance(value, dict):
            _audit_cache(violations, f"{where}[{key!r}]", value, dtype)


def audit_network_dtypes(
    network,
    images: np.ndarray,
    timesteps: int = 3,
    policy: Optional[ComputePolicy] = None,
) -> List[str]:
    """Step ``network`` and report every array that escapes the policy dtype.

    The network is reset, driven for ``timesteps`` cycles, and every seam a
    timestep touches is checked against ``policy`` (default: the network's
    own).  The list of violations is returned — empty means no intermediate
    array leaked.  State is reset again afterwards, so auditing a served
    network does not perturb later inferences.
    """

    if policy is None:
        policy = network.policy
    dtype = policy.dtype
    quantized = bool(getattr(policy, "quantized", False))
    spike_dtype = getattr(policy, "spike_dtype", dtype)
    violations: List[str] = []

    network.reset_state()
    network.encoder.reset(images)
    for t in range(1, timesteps + 1):
        signal = network.encoder.step(t)
        _check(violations, f"t={t} encoder output", signal, dtype)
        for index, layer in enumerate(network.layers):
            signal = layer.step(signal)
            where = f"t={t} layer{index}:{layer.name}"
            _check(violations, f"{where} output", signal, dtype)
            for attr in getattr(layer, "_array_attrs", ()):
                _check(violations, f"{where}.{attr}", getattr(layer, attr, None), dtype)
            if quantized:
                if layer.neuron_pools and isinstance(signal, np.ndarray) and signal.dtype != spike_dtype:
                    violations.append(
                        f"{where} output: {signal.dtype.name} spikes "
                        f"(quantized policy wants {np.dtype(spike_dtype).name})"
                    )
                for scale_attr, weight_attrs, _biases, _pools in getattr(layer, "_quant_groups", ()):
                    if getattr(layer, scale_attr, None) is None:
                        violations.append(f"{where}.{scale_attr}: unset under a quantized policy")
                        continue
                    for attr in weight_attrs:
                        value = getattr(layer, attr, None)
                        if isinstance(value, np.ndarray) and value.dtype.kind not in "iu":
                            violations.append(
                                f"{where}.{attr}: {value.dtype.name} "
                                "(quantized weights must sit on an integer grid)"
                            )
            for pool_index, pool in enumerate(layer.neuron_pools):
                _check(violations, f"{where} pool{pool_index}.membrane", pool.membrane, dtype)
                _check(violations, f"{where} pool{pool_index}.spike_count", pool.spike_count, dtype)
            _audit_cache(violations, f"{where} cache", getattr(layer, "_backend_cache", None), dtype)
        head = network.layers[-1]
        _check(violations, f"t={t} head scores", head.scores(), dtype)
    network.reset_state()
    return violations
