"""Spiking layers: synaptic transforms followed by IF neuron pools.

Each spiking layer owns the *already data-normalized* weights (Ŵ, b̂ of
paper Eq. 5) and a pool of IF neurons with threshold 1.  Every timestep the
layer computes its weighted spike input ``z`` (Eq. 1) from the incoming spike
tensor and advances its neuron pool (Eq. 2/3).

The ``z`` computation calls the dense kernels of
:mod:`repro.snn.functional` directly — one full matrix product per timestep
(once per batch for layer 0 under real coding, see ``hold_constant_input``).
Everything a layer caches for those kernels (the compute-policy stamp, the
scratch workspace, accumulator-dtype casts of its weights) lives in its
``backend_cache`` dict.

``SpikingResidualBlock`` implements the Section-5 conversion of a residual
block: a non-identity spiking layer (NS) fed by the block input and an output
spiking layer (OS) fed both by NS spikes (weights Ŵ_osn) and by the block
input (weights Ŵ_osi — the projection convolution for type-B blocks, a
virtual 1×1 identity convolution for type-A blocks).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..runtime import (
    QMAX,
    BufferPool,
    ComputePolicy,
    active_policy,
    as_float_array,
    dequantize_array,
    quantization_params,
    quantize_array,
    quantize_bias,
    resolve_policy,
)
from .functional import (
    ROW_UNFOLD_MAX_WIDTH,
    avg_pool2d_raw,
    conv2d_raw,
    conv2d_spikes_raw,
    global_avg_pool2d_raw,
    linear_raw,
)
from .neuron import IFNeuronPool, ResetMode

__all__ = [
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
]

IntPair = Union[int, Tuple[int, int]]


def _pair_to_state(value):
    """JSON-friendly encoding of an ``IntPair`` (or ``None``)."""

    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return [int(value[0]), int(value[1])]
    return int(value)


def _pair_from_state(value):
    """Inverse of :func:`_pair_to_state` (JSON lists come back as tuples)."""

    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return (int(value[0]), int(value[1]))
    return int(value)


def _array_or_none(value) -> Optional[np.ndarray]:
    """Float-array coercion that *preserves* an existing float dtype.

    Weights loaded from an ``infer32`` artifact arrive as float32 and must
    stay float32 — re-pinning ``float64`` here (the historical behaviour)
    was exactly the silent upcast the compute-policy runtime eliminates.
    Non-float input is cast to the active policy's dtype.
    """

    return None if value is None else as_float_array(value)


def _workspace(cache: Dict[str, object]) -> Optional[BufferPool]:
    """The cache's scratch-buffer pool, or ``None`` outside in-place profiles.

    The owning layer stamps its :class:`~repro.runtime.ComputePolicy` into
    the cache (``cache["policy"]``); only policies with ``in_place`` enabled
    get a :class:`~repro.runtime.BufferPool`, so the default ``train64``
    profile keeps the historical allocation-per-call kernels bit-identical.
    """

    policy = cache.get("policy")
    if policy is None or not policy.in_place:
        return None
    workspace = cache.get("workspace")
    if workspace is None:
        workspace = policy.buffer_pool()
        cache["workspace"] = workspace
    return workspace


def _accum_dtype(cache: Dict[str, object]):
    """The accumulator dtype for quantized policies, else ``None``.

    Quantized (``infer8``) layers store int8 weights and emit int8 spikes;
    the kernels accumulate in the policy's float dtype, whose lanes carry
    the integer semantics exactly (values stay far below 2**24).
    """

    policy = cache.get("policy")
    if policy is None or not getattr(policy, "quantized", False):
        return None
    return policy.dtype


def _acc_operand(cache: Dict[str, object], key: str, array, accum):
    """A cached accumulator-dtype cast of a static operand (weight / bias).

    Integer weights would force numpy's type promotion through slow or
    float64 paths inside the kernels; casting them once per layer (the
    arrays are read-only during simulation) keeps every per-timestep product
    a plain float BLAS call.  Pass-through when ``accum`` is ``None`` (the
    unquantized profiles) or the operand is absent.
    """

    if accum is None or array is None:
        return array
    cached = cache.get(key)
    if cached is None or cached.shape != array.shape:
        cached = np.ascontiguousarray(array.astype(accum, copy=False))
        cache[key] = cached
    return cached


def _linear_current(spikes, weight, bias, cache: Dict[str, object]) -> np.ndarray:
    """``W @ s + b`` for one timestep, with the cache's workspace and casts."""

    accum = _accum_dtype(cache)
    return linear_raw(
        spikes,
        _acc_operand(cache, "weight_acc", weight, accum),
        _acc_operand(cache, "bias_acc", bias, accum),
        workspace=_workspace(cache),
        accum_dtype=accum,
    )


def _conv2d_current(spikes, weight, bias, stride, padding, cache: Dict[str, object]) -> np.ndarray:
    """The convolutional analogue of :func:`_linear_current`; stride-1 int8
    spike convs on narrow maps take the row-padded kernel."""

    accum = _accum_dtype(cache)
    weight_acc = _acc_operand(cache, "weight_acc", weight, accum)
    bias_acc = _acc_operand(cache, "bias_acc", bias, accum)
    workspace = _workspace(cache)
    if "spike_rows" not in cache:
        # Decided once per cache: the row-padded kernel is exact for int8
        # weights when the worst-case partial sum stays below 2**24.
        c_in, kh, kw = weight.shape[1:]
        exact = stride in (1, (1, 1)) and weight.dtype == np.int8 and QMAX * c_in * kh * kw < 2**24
        cache["spike_rows"] = exact and workspace is not None
    if cache["spike_rows"] and spikes.dtype.kind != "f" and spikes.shape[3] <= ROW_UNFOLD_MAX_WIDTH:
        return conv2d_spikes_raw(spikes, weight_acc, bias_acc, padding, workspace)
    return conv2d_raw(spikes, weight_acc, bias_acc, stride, padding, workspace=workspace, accum_dtype=accum)


class SpikingLayer:
    """Base class: a stateful layer advanced one timestep at a time."""

    name: str = "spiking"
    #: Instance attributes, declared at class level so subclasses need not
    #: call a base ``__init__``: the per-layer kernel cache and the compute
    #: policy (``None`` means the process-wide active policy).
    _backend_cache: Optional[Dict[str, object]] = None
    _policy: Optional[ComputePolicy] = None
    #: Array-valued attributes :meth:`set_policy` casts (subclasses override).
    _array_attrs: Tuple[str, ...] = ()
    #: Quantization groups: ``(scale_attr, weight_attrs, bias_attrs,
    #: pool_attrs)`` tuples.  Each group shares one λ-derived scale — weights
    #: whose currents sum into the same membrane must live on the same grid
    #: (the residual block's two OS paths are the motivating case).  Empty for
    #: layers without synaptic weights, which simply pass spikes through.
    _quant_groups: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]], ...] = ()
    #: Bias-compensation sites: ``(pool_attr, bias_attr, scale_attr)``
    #: tuples mapping each IF pool to the bias its stranded charge can be
    #: released through.  The ``ErrorCompensation`` low-latency pass folds
    #: its measured per-channel residuals here; ``scale_attr`` (or ``""``)
    #: names the quantization-group scale the bias lives on, so quantized
    #: layers receive their compensation on the integer grid.
    _bias_sites: Tuple[Tuple[str, str, str], ...] = ()
    #: Constant-input hold, armed per run by :meth:`hold_constant_input`,
    #: and the synaptic current it keeps.
    _holds_input: bool = False
    _held_current: Optional[np.ndarray] = None

    @property
    def policy(self) -> ComputePolicy:
        """The compute policy governing this layer's arrays and kernels."""

        return self._policy if self._policy is not None else active_policy()

    @property
    def backend_cache(self) -> Dict[str, object]:
        """Per-layer kernel state (lazily created).

        Holds the compute-policy stamp (``"policy"``), the in-place profiles'
        scratch-buffer pool (``"workspace"``) and the quantized profiles'
        accumulator-dtype weight/bias casts.  ``set_policy`` drops the
        cache, so the stamp always reflects the current policy.
        """

        if self._backend_cache is None:
            self._backend_cache = {"policy": self.policy}
        return self._backend_cache

    def set_policy(self, spec: Union[str, ComputePolicy]) -> "SpikingLayer":
        """Switch the layer (weights, pools, caches) to a compute policy.

        Synaptic weight arrays are cast to the policy dtype in place (a
        no-op when they already match; note a ``float32`` → ``float64``
        switch cannot restore bits a previous downcast discarded), every
        owned IF pool follows, and the kernel cache is dropped because its
        cached operands (weight casts, scratch buffers) carry the old
        dtype.  Returns ``self``.

        A *quantized* policy additionally moves the weights onto their
        per-group int8 grids via :meth:`quantize` (a no-op when already
        quantized); switching back to a float policy reconstructs float
        weights via :meth:`dequantize` — lossy by the quantization rounding,
        exactly as the float32 downcast above is lossy.
        """

        policy = resolve_policy(spec)
        self._policy = policy
        self._backend_cache = None
        self._held_current = None
        if policy.quantized:
            self.quantize()
        else:
            self.dequantize()
        skip = self._quantized_attrs()
        for attr in self._array_attrs:
            if attr in skip:
                continue
            value = getattr(self, attr, None)
            if value is not None:
                setattr(self, attr, policy.cast(value))
        for pool in self.neuron_pools:
            pool.set_policy(policy)
        return self

    # -- quantization ---------------------------------------------------------

    def quantize(self) -> "SpikingLayer":
        """Move synaptic weights onto per-group λ-derived int8 grids.

        For each :attr:`_quant_groups` entry the scale comes from
        :func:`repro.runtime.quantization_params` over the group's weight
        range and the pool threshold (snapped so the threshold is a whole
        number of levels); weights become int8, biases int32 on the same
        grid, and every pool in the group learns its quantized threshold.
        Groups that already carry a scale are left untouched, so the method
        is idempotent and the ``QuantizeWeights`` compiler pass composes with
        a later ``set_policy("infer8")``.  Returns ``self``.
        """

        for scale_attr, weight_attrs, bias_attrs, pool_attrs in self._quant_groups:
            if getattr(self, scale_attr, None) is not None:
                continue
            pools = [getattr(self, attr) for attr in pool_attrs]
            max_abs = 0.0
            for attr in weight_attrs:
                value = getattr(self, attr, None)
                if value is not None and value.size:
                    max_abs = max(max_abs, float(np.abs(value).max()))
            threshold = pools[0].threshold if pools else 1.0
            scale, _levels = quantization_params(max_abs, threshold)
            for attr in weight_attrs:
                value = getattr(self, attr, None)
                if value is not None:
                    setattr(self, attr, quantize_array(value, scale))
            for attr in bias_attrs:
                setattr(self, attr, quantize_bias(getattr(self, attr, None), scale))
            setattr(self, scale_attr, scale)
            for pool in pools:
                pool.set_quantization(scale)
        if self._quant_groups:
            self._backend_cache = None
        return self

    def dequantize(self) -> "SpikingLayer":
        """Reconstruct float weights (``q * scale``) and clear the scales.

        The inverse of :meth:`quantize` up to its rounding — restored
        weights differ from the originals by at most ``scale / 2`` per
        element.  A no-op for layers that are not quantized.  Returns
        ``self``.
        """

        changed = False
        for scale_attr, weight_attrs, bias_attrs, pool_attrs in self._quant_groups:
            scale = getattr(self, scale_attr, None)
            if scale is None:
                continue
            changed = True
            for attr in (*weight_attrs, *bias_attrs):
                value = getattr(self, attr, None)
                if value is not None:
                    setattr(self, attr, dequantize_array(value, scale, self.policy.dtype))
            setattr(self, scale_attr, None)
            for attr in pool_attrs:
                getattr(self, attr).set_quantization(None)
        if changed:
            self._backend_cache = None
        return self

    def quantization_scales(self) -> Dict[str, float]:
        """The λ-derived scales currently applied, keyed by scale attribute.

        Empty for unquantized (or weight-free) layers; the
        ``QuantizeWeights`` pass records these into the conversion graph and
        artifact metadata.
        """

        scales: Dict[str, float] = {}
        for scale_attr, _weights, _biases, _pools in self._quant_groups:
            value = getattr(self, scale_attr, None)
            if value is not None:
                scales[scale_attr] = float(value)
        return scales

    def _quantized_attrs(self) -> frozenset:
        """Attributes currently holding quantized integer arrays."""

        attrs = set()
        for scale_attr, weight_attrs, bias_attrs, _pools in self._quant_groups:
            if getattr(self, scale_attr, None) is not None:
                attrs.update(weight_attrs)
                attrs.update(bias_attrs)
        return frozenset(attrs)

    def _scales_state(self) -> Dict[str, object]:
        """Scale entries for :meth:`state_dict` (empty when unquantized)."""

        return self.quantization_scales()

    def _restore_quantization(self, state: Dict[str, object]) -> None:
        """Re-apply quantized arrays after ``from_state``'s float coercion.

        ``from_state`` constructors funnel every array through
        :func:`~repro.runtime.as_float_array`, which would silently promote
        int8 payloads loaded from an ``infer8`` artifact.  When the state
        carries a group's scale, the original (dtype-preserving) arrays are
        put back verbatim and the pools relearn their quantized thresholds.
        """

        for scale_attr, weight_attrs, bias_attrs, pool_attrs in self._quant_groups:
            scale = state.get(scale_attr)
            if scale is None:
                continue
            scale = float(scale)
            setattr(self, scale_attr, scale)
            for attr in (*weight_attrs, *bias_attrs):
                value = state.get(attr)
                if value is not None:
                    setattr(self, attr, np.asarray(value))
            for attr in pool_attrs:
                getattr(self, attr).set_quantization(scale)

    # -- low-latency conversion support ---------------------------------------

    def set_membrane_init(self, fraction: float) -> "SpikingLayer":
        """Set every owned pool's initial membrane potential (as a threshold
        fraction; λ/2 initialization passes 0.5).  Returns ``self``.
        """

        for pool in self.neuron_pools:
            pool.v_init = float(fraction)
        return self

    def fold_compensation(self, pool_attr: str, delta: np.ndarray) -> bool:
        """Fold a per-channel error-compensation current into a pool's bias.

        ``delta`` is the additional per-timestep input current (in the
        pool's *float* units) that releases the systematic residual charge
        the ``ErrorCompensation`` pass measured on calibration data.  The
        bias is created when the layer had none; on a quantized layer the
        delta is snapped onto the group's int32 grid so the integer-membrane
        invariant survives.  Returns whether this layer owns the pool.
        """

        for pool_name, bias_attr, scale_attr in self._bias_sites:
            if pool_name != pool_attr:
                continue
            bias = getattr(self, bias_attr, None)
            scale = getattr(self, scale_attr, None) if scale_attr else None
            if scale is not None:
                step = quantize_bias(np.asarray(delta, dtype=self.policy.dtype), scale)
                bias = step if bias is None else bias + step
            else:
                step = self.policy.asarray(np.asarray(delta))
                bias = step.copy() if bias is None else self.policy.cast(bias) + step
            setattr(self, bias_attr, bias)
            self._backend_cache = None
            return True
        return False

    def _latency_state(self) -> Dict[str, object]:
        """Membrane-init entry for :meth:`state_dict` (empty when zero).

        Conditional so bundles converted without the low-latency passes stay
        byte-identical to their historical form.
        """

        pools = self.neuron_pools
        if pools and pools[0].v_init:
            return {"v_init": pools[0].v_init}
        return {}

    def reset_state(self) -> None:
        """Clear membrane potentials / counters before a new stimulus."""

        for pool in self.neuron_pools:
            pool.reset_state()
        self._holds_input = False
        self._held_current = None

    def hold_constant_input(self) -> None:
        """Declare that every step until :meth:`reset_state` sees the same input
        (the executor arms layer 0 under real coding): synaptic layers then
        compute their current in the first step and reuse a copy of it."""

        self._holds_input = True

    def _hold(self, current: np.ndarray) -> np.ndarray:
        """Keep a copy of ``current`` (a workspace slot) while the input is held."""

        if self._holds_input:
            current = self._held_current = current.copy()
        return current

    def step(self, inputs: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def neuron_pools(self) -> List[IFNeuronPool]:
        """IF pools owned by this layer (empty for stateless reshaping layers)."""

        return []

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired samples from every pool's batch axis (adaptive serving)."""

        for pool in self.neuron_pools:
            pool.compact(keep)
        if self._held_current is not None:
            self._held_current = self._held_current[keep]

    # -- serialization --------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A flat, serializable description of the layer.

        Array-valued entries hold the layer's synaptic weights; everything
        else is JSON-compatible configuration.  ``kind`` always equals the
        class's :attr:`name` so :func:`layer_from_state` can dispatch.
        """

        raise NotImplementedError

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SpikingLayer":
        """Rebuild a layer from the dictionary :meth:`state_dict` produced."""

        raise NotImplementedError


class SpikingConv2d(SpikingLayer):
    """Convolutional synapses + IF neurons."""

    name = "spiking_conv2d"
    _array_attrs = ("weight", "bias")
    _quant_groups = (("weight_scale", ("weight",), ("bias",), ("neurons",)),)
    _bias_sites = (("neurons", "bias", "weight_scale"),)
    weight_scale: Optional[float] = None

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: IntPair = 1,
        padding: IntPair = 0,
        threshold: float = 1.0,
        reset_mode: ResetMode = ResetMode.SUBTRACT,
    ) -> None:
        self.weight = as_float_array(weight)
        self.bias = _array_or_none(bias)
        self.stride = stride
        self.padding = padding
        self.neurons = IFNeuronPool(threshold=threshold, reset_mode=reset_mode)

    def step(self, inputs: np.ndarray) -> np.ndarray:
        current = self._held_current
        if current is None:
            current = _conv2d_current(inputs, self.weight, self.bias, self.stride, self.padding, self.backend_cache)
            current = self._hold(current)
        return self.neurons.step(current)

    @property
    def neuron_pools(self) -> List[IFNeuronPool]:
        return [self.neurons]

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": self.name,
            "weight": self.weight,
            "bias": self.bias,
            "stride": _pair_to_state(self.stride),
            "padding": _pair_to_state(self.padding),
            "threshold": self.neurons.threshold,
            "reset_mode": self.neurons.reset_mode.value,
            **self._latency_state(),
            **self._scales_state(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SpikingConv2d":
        return cls(
            weight=as_float_array(state["weight"]),
            bias=_array_or_none(state.get("bias")),
            stride=_pair_from_state(state.get("stride", 1)),
            padding=_pair_from_state(state.get("padding", 0)),
            threshold=float(state.get("threshold", 1.0)),
            reset_mode=ResetMode(state.get("reset_mode", "subtract")),
        )


class SpikingLinear(SpikingLayer):
    """Fully connected synapses + IF neurons."""

    name = "spiking_linear"
    _array_attrs = ("weight", "bias")
    _quant_groups = (("weight_scale", ("weight",), ("bias",), ("neurons",)),)
    _bias_sites = (("neurons", "bias", "weight_scale"),)
    weight_scale: Optional[float] = None

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        threshold: float = 1.0,
        reset_mode: ResetMode = ResetMode.SUBTRACT,
    ) -> None:
        self.weight = as_float_array(weight)
        self.bias = _array_or_none(bias)
        self.neurons = IFNeuronPool(threshold=threshold, reset_mode=reset_mode)

    def step(self, inputs: np.ndarray) -> np.ndarray:
        current = self._held_current
        if current is None:
            current = self._hold(_linear_current(inputs, self.weight, self.bias, self.backend_cache))
        return self.neurons.step(current)

    @property
    def neuron_pools(self) -> List[IFNeuronPool]:
        return [self.neurons]

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": self.name,
            "weight": self.weight,
            "bias": self.bias,
            "threshold": self.neurons.threshold,
            "reset_mode": self.neurons.reset_mode.value,
            **self._latency_state(),
            **self._scales_state(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SpikingLinear":
        return cls(
            weight=as_float_array(state["weight"]),
            bias=_array_or_none(state.get("bias")),
            threshold=float(state.get("threshold", 1.0)),
            reset_mode=ResetMode(state.get("reset_mode", "subtract")),
        )


class SpikingAvgPool2d(SpikingLayer):
    """Average pooling realised as fixed ``1/(kh*kw)`` synapses + IF neurons.

    The paper replaces max-pooling by average-pooling precisely because the
    average is a fixed linear map representable by spiking synapses
    (Section 3.1).  The pooling layer does not change the activation scale, so
    its norm-factor equals that of the preceding layer and its threshold stays
    at 1.
    """

    name = "spiking_avg_pool2d"

    def __init__(
        self,
        kernel_size: IntPair,
        stride: Optional[IntPair] = None,
        threshold: float = 1.0,
        reset_mode: ResetMode = ResetMode.SUBTRACT,
    ) -> None:
        self.kernel_size = kernel_size
        self.stride = stride
        self.neurons = IFNeuronPool(threshold=threshold, reset_mode=reset_mode)

    def step(self, inputs: np.ndarray) -> np.ndarray:
        cache = self.backend_cache
        current = avg_pool2d_raw(
            inputs,
            self.kernel_size,
            self.stride,
            workspace=_workspace(cache),
            accum_dtype=_accum_dtype(cache),
        )
        return self.neurons.step(current)

    @property
    def neuron_pools(self) -> List[IFNeuronPool]:
        return [self.neurons]

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": self.name,
            "kernel_size": _pair_to_state(self.kernel_size),
            "stride": _pair_to_state(self.stride),
            "threshold": self.neurons.threshold,
            "reset_mode": self.neurons.reset_mode.value,
            **self._latency_state(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SpikingAvgPool2d":
        return cls(
            kernel_size=_pair_from_state(state["kernel_size"]),
            stride=_pair_from_state(state.get("stride")),
            threshold=float(state.get("threshold", 1.0)),
            reset_mode=ResetMode(state.get("reset_mode", "subtract")),
        )


class SpikingGlobalAvgPool2d(SpikingLayer):
    """Global average pooling + IF neurons (used by the ResNet heads)."""

    name = "spiking_global_avg_pool2d"

    def __init__(self, threshold: float = 1.0, reset_mode: ResetMode = ResetMode.SUBTRACT) -> None:
        self.neurons = IFNeuronPool(threshold=threshold, reset_mode=reset_mode)

    def step(self, inputs: np.ndarray) -> np.ndarray:
        cache = self.backend_cache
        current = global_avg_pool2d_raw(
            inputs, workspace=_workspace(cache), accum_dtype=_accum_dtype(cache)
        )
        return self.neurons.step(current)

    @property
    def neuron_pools(self) -> List[IFNeuronPool]:
        return [self.neurons]

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": self.name,
            "threshold": self.neurons.threshold,
            "reset_mode": self.neurons.reset_mode.value,
            **self._latency_state(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SpikingGlobalAvgPool2d":
        return cls(
            threshold=float(state.get("threshold", 1.0)),
            reset_mode=ResetMode(state.get("reset_mode", "subtract")),
        )


class SpikingFlatten(SpikingLayer):
    """Stateless reshaping layer: spike tensors are flattened per sample."""

    name = "spiking_flatten"

    def step(self, inputs: np.ndarray) -> np.ndarray:
        return inputs.reshape(inputs.shape[0], -1)

    def state_dict(self) -> Dict[str, object]:
        return {"kind": self.name}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SpikingFlatten":
        return cls()


class SpikingResidualBlock(SpikingLayer):
    """The spiking residual block of paper Figure 3 C.

    Parameters
    ----------
    ns_weight, ns_bias, ns_stride:
        Normalized weights of the non-identity spiking layer (from Conv1):
        ``Ŵ_ns = W_c1 * λ_pre / λ_c1`` and ``b̂_ns = b_c1 / λ_c1``.
    osn_weight:
        Normalized weights from NS spikes to OS (from Conv2):
        ``Ŵ_osn = W_c2 * λ_c1 / λ_out``.
    osi_weight, osi_stride:
        Normalized weights from the block input to OS (from the shortcut
        convolution; the virtual identity 1×1 kernel for type-A blocks):
        ``Ŵ_osi = W_sh * λ_pre / λ_out``.
    os_bias:
        ``b̂_os = (b_c2 + b_sh) / λ_out``.
    """

    name = "spiking_residual_block"
    _array_attrs = ("ns_weight", "ns_bias", "osn_weight", "osi_weight", "os_bias")
    # The osn and osi currents sum into the OS membrane, so both weight
    # tensors must share one grid; NS quantizes independently.
    _quant_groups = (
        ("ns_scale", ("ns_weight",), ("ns_bias",), ("ns_neurons",)),
        ("os_scale", ("osn_weight", "osi_weight"), ("os_bias",), ("os_neurons",)),
    )
    _bias_sites = (
        ("ns_neurons", "ns_bias", "ns_scale"),
        ("os_neurons", "os_bias", "os_scale"),
    )
    ns_scale: Optional[float] = None
    os_scale: Optional[float] = None

    def __init__(
        self,
        ns_weight: np.ndarray,
        ns_bias: Optional[np.ndarray],
        osn_weight: np.ndarray,
        osi_weight: np.ndarray,
        os_bias: Optional[np.ndarray],
        ns_stride: IntPair = 1,
        osi_stride: IntPair = 1,
        threshold: float = 1.0,
        reset_mode: ResetMode = ResetMode.SUBTRACT,
        block_type: str = "A",
    ) -> None:
        self.ns_weight = as_float_array(ns_weight)
        self.ns_bias = _array_or_none(ns_bias)
        self.osn_weight = as_float_array(osn_weight)
        self.osi_weight = as_float_array(osi_weight)
        self.os_bias = _array_or_none(os_bias)
        self.ns_stride = ns_stride
        self.osi_stride = osi_stride
        self.block_type = block_type
        self.ns_neurons = IFNeuronPool(threshold=threshold, reset_mode=reset_mode)
        self.os_neurons = IFNeuronPool(threshold=threshold, reset_mode=reset_mode)

    def _sub_cache(self, name: str) -> Dict[str, object]:
        """One synaptic path's kernel cache (policy-stamped like the parent)."""

        return self.backend_cache.setdefault(name, {"policy": self.policy})

    def step(self, inputs: np.ndarray) -> np.ndarray:
        # The block owns three synaptic paths; each gets its own sub-cache so
        # their scratch workspaces and weight casts stay separate.
        # Non-identity spiking layer (from Conv1), 3x3 with padding 1.
        ns_current = _conv2d_current(
            inputs, self.ns_weight, self.ns_bias, self.ns_stride, 1, self._sub_cache("ns")
        )
        ns_spikes = self.ns_neurons.step(ns_current)
        # Output spiking layer: input from NS (Conv2 path, 3x3 pad 1, stride 1)
        # plus input from the previous layer through the shortcut (1x1, no pad).
        os_current = _conv2d_current(ns_spikes, self.osn_weight, None, 1, 1, self._sub_cache("osn"))
        osi_current = _conv2d_current(
            inputs, self.osi_weight, None, self.osi_stride, 0, self._sub_cache("osi")
        )
        if self.policy.in_place:
            # ``os_current`` is the osn path's reused scratch output, so the
            # sum can land in it instead of allocating a fresh array.
            os_current += osi_current
        else:
            os_current = os_current + osi_current
        if self.os_bias is not None:
            os_current += self.os_bias.reshape(1, -1, 1, 1)
        return self.os_neurons.step(os_current)

    @property
    def neuron_pools(self) -> List[IFNeuronPool]:
        return [self.ns_neurons, self.os_neurons]

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": self.name,
            "ns_weight": self.ns_weight,
            "ns_bias": self.ns_bias,
            "osn_weight": self.osn_weight,
            "osi_weight": self.osi_weight,
            "os_bias": self.os_bias,
            "ns_stride": _pair_to_state(self.ns_stride),
            "osi_stride": _pair_to_state(self.osi_stride),
            "block_type": self.block_type,
            "threshold": self.ns_neurons.threshold,
            "reset_mode": self.ns_neurons.reset_mode.value,
            **self._latency_state(),
            **self._scales_state(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SpikingResidualBlock":
        return cls(
            ns_weight=as_float_array(state["ns_weight"]),
            ns_bias=_array_or_none(state.get("ns_bias")),
            osn_weight=as_float_array(state["osn_weight"]),
            osi_weight=as_float_array(state["osi_weight"]),
            os_bias=_array_or_none(state.get("os_bias")),
            ns_stride=_pair_from_state(state.get("ns_stride", 1)),
            osi_stride=_pair_from_state(state.get("osi_stride", 1)),
            threshold=float(state.get("threshold", 1.0)),
            reset_mode=ResetMode(state.get("reset_mode", "subtract")),
            block_type=str(state.get("block_type", "A")),
        )


class SpikingOutputLayer(SpikingLayer):
    """The classifier head of a converted network.

    Two readout modes are supported:

    * ``"spike_count"`` — the head is an ordinary spiking layer and the
      classification is the arg-max of accumulated output spikes.  This is the
      readout the paper describes ("we simply count the number of spiking
      signals and take the maximum").
    * ``"membrane"`` — the head integrates its input current without firing
      and the classification is the arg-max of the membrane potential.  This
      avoids saturation when several logits exceed the output norm-factor and
      is provided for the ablation benchmarks.
    """

    name = "spiking_output"
    _array_attrs = ("weight", "bias")
    _quant_groups = (("weight_scale", ("weight",), ("bias",), ("neurons",)),)
    _bias_sites = (("neurons", "bias", "weight_scale"),)
    weight_scale: Optional[float] = None
    #: Reused all-zero spike output of the (never firing) membrane readout;
    #: nothing may write into it.
    _zero_scratch: Optional[np.ndarray] = None

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        readout: str = "spike_count",
        threshold: float = 1.0,
        reset_mode: ResetMode = ResetMode.SUBTRACT,
    ) -> None:
        if readout not in ("spike_count", "membrane"):
            raise ValueError(f"unknown readout {readout!r}")
        self.weight = as_float_array(weight)
        self.bias = _array_or_none(bias)
        self.readout = readout
        self.neurons = IFNeuronPool(threshold=threshold, reset_mode=reset_mode)
        self.accumulated: Optional[np.ndarray] = None

    def reset_state(self) -> None:
        super().reset_state()
        self.neurons.reset_state()  # hidden from `neuron_pools` under the membrane readout
        self.accumulated = None

    def step(self, inputs: np.ndarray) -> np.ndarray:
        current = _linear_current(inputs, self.weight, self.bias, self.backend_cache)
        if self.readout == "membrane":
            if self.accumulated is None:
                self.accumulated = np.zeros_like(current)
            self.accumulated += current
            if not self.policy.in_place:
                return np.zeros_like(current)
            zeros = self._zero_scratch
            if zeros is None or zeros.shape != current.shape or zeros.dtype != current.dtype:
                zeros = np.zeros_like(current)
                self._zero_scratch = zeros
            return zeros
        return self.neurons.step(current)

    def scores(self) -> np.ndarray:
        """Class scores accumulated so far (spike counts or membrane potential)."""

        if self.readout == "membrane":
            if self.accumulated is None:
                raise RuntimeError("output layer has not been stepped yet")
            return self.accumulated
        if self.neurons.spike_count is None:
            raise RuntimeError("output layer has not been stepped yet")
        return self.neurons.spike_count

    @property
    def neuron_pools(self) -> List[IFNeuronPool]:
        return [self.neurons] if self.readout == "spike_count" else []

    def set_policy(self, spec: Union[str, ComputePolicy]) -> "SpikingOutputLayer":
        # The membrane readout hides the pool from `neuron_pools` (it never
        # fires), but its policy — and the accumulated scores — must follow.
        super().set_policy(spec)
        self.neurons.set_policy(self.policy)
        self.accumulated = self.policy.cast(self.accumulated)
        self._zero_scratch = None
        return self

    def compact(self, keep: np.ndarray) -> None:
        self.neurons.compact(keep)
        if self.accumulated is not None:
            self.accumulated = self.accumulated[keep]

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": self.name,
            "weight": self.weight,
            "bias": self.bias,
            "readout": self.readout,
            "threshold": self.neurons.threshold,
            "reset_mode": self.neurons.reset_mode.value,
            **self._latency_state(),
            **self._scales_state(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SpikingOutputLayer":
        return cls(
            weight=as_float_array(state["weight"]),
            bias=_array_or_none(state.get("bias")),
            readout=str(state.get("readout", "spike_count")),
            threshold=float(state.get("threshold", 1.0)),
            reset_mode=ResetMode(state.get("reset_mode", "subtract")),
        )


#: ``kind`` string → layer class, used by the artifact store to rebuild
#: networks from their serialized :meth:`SpikingLayer.state_dict` form.
LAYER_REGISTRY: Dict[str, type] = {
    cls.name: cls
    for cls in (
        SpikingConv2d,
        SpikingLinear,
        SpikingAvgPool2d,
        SpikingGlobalAvgPool2d,
        SpikingFlatten,
        SpikingResidualBlock,
        SpikingOutputLayer,
    )
}


def layer_from_state(state: Dict[str, object]) -> SpikingLayer:
    """Rebuild any registered spiking layer from its ``state_dict`` form."""

    kind = state.get("kind")
    if kind not in LAYER_REGISTRY:
        raise ValueError(f"unknown spiking layer kind {kind!r}; known: {sorted(LAYER_REGISTRY)}")
    layer = LAYER_REGISTRY[kind].from_state(state)
    # Quantized (infer8) states carry per-group scales alongside integer
    # arrays; re-apply them after the constructors' float coercion.
    layer._restore_quantization(state)
    # Low-latency states carry the λ/2 membrane-initialization fraction.
    v_init = state.get("v_init")
    if v_init is not None:
        for pool in layer.neuron_pools:
            pool.v_init = float(v_init)
    return layer
