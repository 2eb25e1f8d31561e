"""Lowering registry: per-module-type rules mapping ANN layers onto the IR.

Every convertible ANN layer type owns a :class:`LoweringRule` registered with
:func:`register_lowering`.  A rule plays two roles:

* **trace** — when :func:`repro.core.graph.trace` meets a module of the
  registered type it asks the rule to classify it (the node ``op``) and to
  record any structural annotations (stride, padding, rejection reason, …);
* **emit** — when the ``LowerResidual`` / ``EmitSpiking`` passes reach the
  node, the rule turns it into zero or more spiking layers.

New layer types therefore plug in without touching the compiler core::

    @register_lowering(MyPool2d)
    class MyPoolLowering(LoweringRule):
        op = "transparent"          # norm-factor transparent, like avg-pool

        def emit(self, node, ctx):
            return [MySpikingPool2d(node.module.kernel_size, reset_mode=ctx.reset_mode)]

Rule lookup walks the module's MRO, so subclasses of registered types inherit
their parent's rule unless they register their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..nn.activation import ReLU
from ..nn.conv import Conv2d
from ..nn.layers import Dropout, Flatten, Identity, Linear
from ..nn.module import Module
from ..nn.norm import BatchNorm1d, BatchNorm2d
from ..nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..nn.residual import BasicBlock
from ..snn.layers import (
    SpikingAvgPool2d,
    SpikingConv2d,
    SpikingFlatten,
    SpikingGlobalAvgPool2d,
    SpikingLayer,
    SpikingLinear,
    SpikingOutputLayer,
)
from ..snn.neuron import ResetMode
from .graph import ConversionError, GraphNode
from .normfactor import NormFactorStrategy
from .residual import ResidualNormFactors, lower_basic_block, residual_site_factors
from .tcl import ClippedReLU

__all__ = [
    "LoweringContext",
    "LoweringRule",
    "register_lowering",
    "unregister_lowering",
    "lowering_for",
    "registered_lowerings",
    "scaled_weights",
]


@dataclass
class LoweringContext:
    """Conversion-wide knobs every rule may consult while emitting.

    ``precision`` is the compute-policy spec the conversion targets
    (``"train64"``/``"infer32"``/``"infer8"``, a
    :class:`~repro.runtime.ComputePolicy`, or ``None`` to inherit the active
    policy).  The emit rules ignore it — layers are emitted under the active
    policy as always — but the ``QuantizeWeights`` pass consults it to decide
    whether the emitted weights move onto int8 grids at compile time.

    ``latency_mode`` / ``timesteps`` configure the low-latency conversion
    passes (``"standard"`` keeps the historical bit-identical pipeline;
    ``"low"`` activates ``ShiftThresholds`` / ``InitMembrane`` /
    ``ErrorCompensation`` targeting the given simulation budget T).
    ``calibration`` is the analog calibration batch the
    ``ErrorCompensation`` pass replays through the emitted network (``None``
    skips compensation), and ``encoder`` the input coding that replay uses.
    """

    strategy: NormFactorStrategy
    reset_mode: ResetMode = ResetMode.SUBTRACT
    readout: str = "spike_count"
    output_norm_factor: float = 1.0
    precision: object = None
    latency_mode: str = "standard"
    timesteps: Optional[int] = None
    calibration: Optional[np.ndarray] = None
    encoder: object = None


class LoweringRule:
    """Base class of one module-type's trace/emit behaviour.

    Subclasses set :attr:`op` (the IR node type their modules become) and
    override :meth:`emit`; :meth:`trace` is optional and defaults to a no-op.
    """

    #: IR node type: "synapse", "batchnorm", "activation", "block",
    #: "transparent", "noop", or "invalid".
    op: str = "transparent"

    def trace(self, module: Module, node: GraphNode) -> None:
        """Annotate the freshly traced node (stride, padding, reasons, …)."""

    def emit(self, node: GraphNode, ctx: LoweringContext) -> Sequence[SpikingLayer]:
        """Lower the node to spiking layers (called by the emit passes)."""

        raise NotImplementedError(
            f"lowering rule {type(self).__name__} (op={self.op!r}) does not emit spiking layers"
        )

    def site_factors(
        self, node: GraphNode, lambda_pre: float, ctx: LoweringContext, site_prefix: str
    ) -> ResidualNormFactors:
        """Decide the norm-factors of an ``op == "block"`` node.

        ``AssignNormFactors`` dispatches here for every block node, so a
        custom block type controls its own λ decisions by overriding this
        (see :class:`ResidualLowering` for the BasicBlock implementation).
        """

        raise ConversionError(
            f"{node.describe()}: lowering rule {type(self).__name__} declares op='block' "
            "but does not implement site_factors(); override it to supply the block's norm-factors"
        )


_REGISTRY: Dict[Type[Module], LoweringRule] = {}
#: Rules displaced by a re-registration, restored by unregister_lowering.
_SHADOWED: Dict[Type[Module], List[LoweringRule]] = {}


def register_lowering(*module_types: Type[Module]):
    """Class decorator registering a :class:`LoweringRule` for module types.

    The decorated class is instantiated once and shared; it is returned
    unchanged so it can still be subclassed or re-registered elsewhere.
    Registering over an already-registered type shadows the previous rule —
    :func:`unregister_lowering` restores it, so overriding a built-in (e.g.
    in a test) is reversible.
    """

    if not module_types:
        raise ValueError("register_lowering needs at least one module type")

    def decorator(rule_cls: Type[LoweringRule]) -> Type[LoweringRule]:
        rule = rule_cls()
        for module_type in module_types:
            previous = _REGISTRY.get(module_type)
            if previous is not None:
                _SHADOWED.setdefault(module_type, []).append(previous)
            _REGISTRY[module_type] = rule
        return rule_cls

    return decorator


def unregister_lowering(*module_types: Type[Module]) -> None:
    """Undo the most recent registration for each type.

    The previously shadowed rule (if any) is restored, so unregistering a
    throwaway override of a built-in type brings the built-in back.
    """

    for module_type in module_types:
        shadowed = _SHADOWED.get(module_type)
        if shadowed:
            _REGISTRY[module_type] = shadowed.pop()
            if not shadowed:
                del _SHADOWED[module_type]
        else:
            _REGISTRY.pop(module_type, None)


def lowering_for(module_type: Type[Module]) -> Optional[LoweringRule]:
    """The rule registered for ``module_type`` or its nearest base class."""

    for base in module_type.__mro__:
        rule = _REGISTRY.get(base)
        if rule is not None:
            return rule
    return None


def registered_lowerings() -> Dict[Type[Module], LoweringRule]:
    """A copy of the registry (module type → rule instance)."""

    return dict(_REGISTRY)


def scaled_weights(node: GraphNode) -> Tuple[np.ndarray, np.ndarray]:
    """Data-normalized (Ŵ, b̂) of a synapse node (paper Eq. 5).

    ``Ŵ = W · λ_in / λ_out`` and ``b̂ = b / λ_out``, computed exactly in this
    form so conversions are bit-identical run to run.
    """

    if node.weights is None or node.lambda_in is None or node.lambda_out is None:
        raise RuntimeError(
            f"{node.describe()} has no folded weights / λ lineage yet; "
            "run FoldBatchNorm and AssignNormFactors before emitting"
        )
    weight = node.weights.weight * (node.lambda_in / node.lambda_out)
    bias = node.weights.bias / node.lambda_out
    return weight, bias


# -- built-in rules -----------------------------------------------------------


@register_lowering(Conv2d)
class ConvLowering(LoweringRule):
    """Conv2d → SpikingConv2d (after pairing with its activation site)."""

    op = "synapse"

    def trace(self, module: Module, node: GraphNode) -> None:
        node.meta.update({"kind": "conv", "stride": module.stride, "padding": module.padding})

    def emit(self, node: GraphNode, ctx: LoweringContext) -> List[SpikingLayer]:
        weight, bias = scaled_weights(node)
        return [
            SpikingConv2d(
                weight,
                bias,
                stride=node.meta["stride"],
                padding=node.meta["padding"],
                reset_mode=ctx.reset_mode,
            )
        ]


@register_lowering(Linear)
class LinearLowering(LoweringRule):
    """Linear → SpikingLinear, or SpikingOutputLayer for the classifier head."""

    op = "synapse"

    def trace(self, module: Module, node: GraphNode) -> None:
        node.meta["kind"] = "linear"

    def emit(self, node: GraphNode, ctx: LoweringContext) -> List[SpikingLayer]:
        weight, bias = scaled_weights(node)
        if node.is_head:
            return [SpikingOutputLayer(weight, bias, readout=ctx.readout, reset_mode=ctx.reset_mode)]
        return [SpikingLinear(weight, bias, reset_mode=ctx.reset_mode)]


@register_lowering(BatchNorm1d, BatchNorm2d)
class BatchNormLowering(LoweringRule):
    """Batch-norm folds into the preceding synapse (Eq. 7) and vanishes."""

    op = "batchnorm"

    def emit(self, node: GraphNode, ctx: LoweringContext) -> List[SpikingLayer]:
        return []


@register_lowering(ClippedReLU)
class ActivationLowering(LoweringRule):
    """An activation site: absorbed into the synapse it closes."""

    op = "activation"

    def emit(self, node: GraphNode, ctx: LoweringContext) -> List[SpikingLayer]:
        return []


@register_lowering(ReLU)
class PlainReLULowering(LoweringRule):
    """Plain ReLU carries no observable site — rejected with guidance."""

    op = "invalid"

    def trace(self, module: Module, node: GraphNode) -> None:
        node.meta["reason"] = (
            "plain nn.ReLU activations are not observable; convertible models "
            "must use ClippedReLU (with clip_enabled=False for the non-TCL baseline)"
        )


@register_lowering(MaxPool2d)
class MaxPoolLowering(LoweringRule):
    """Max-pooling has no IF-neuron realisation — rejected with guidance."""

    op = "invalid"

    def trace(self, module: Module, node: GraphNode) -> None:
        node.meta["reason"] = (
            "max-pooling cannot be modelled by IF neurons; build the network "
            "with average pooling (convertible=True) as the paper prescribes"
        )


@register_lowering(BasicBlock)
class ResidualLowering(LoweringRule):
    """BasicBlock → SpikingResidualBlock (paper Section 5, NS/OS rewrite)."""

    op = "block"

    def site_factors(
        self, node: GraphNode, lambda_pre: float, ctx: LoweringContext, site_prefix: str
    ) -> ResidualNormFactors:
        return residual_site_factors(node.module, lambda_pre, ctx.strategy, site_prefix=site_prefix)

    def emit(self, node: GraphNode, ctx: LoweringContext) -> List[SpikingLayer]:
        factors = node.meta.get("factors")
        if factors is None:
            raise RuntimeError(
                f"{node.describe()} has no residual norm-factors; run AssignNormFactors first"
            )
        return [lower_basic_block(node.module, factors, reset_mode=ctx.reset_mode)]


@register_lowering(AvgPool2d)
class AvgPoolLowering(LoweringRule):
    """Average pooling is a fixed linear map: norm-transparent spiking layer."""

    op = "transparent"

    def emit(self, node: GraphNode, ctx: LoweringContext) -> List[SpikingLayer]:
        module = node.module
        return [SpikingAvgPool2d(module.kernel_size, module.stride, reset_mode=ctx.reset_mode)]


@register_lowering(GlobalAvgPool2d)
class GlobalAvgPoolLowering(LoweringRule):
    """Global average pooling: norm-transparent spiking layer."""

    op = "transparent"

    def emit(self, node: GraphNode, ctx: LoweringContext) -> List[SpikingLayer]:
        return [SpikingGlobalAvgPool2d(reset_mode=ctx.reset_mode)]


@register_lowering(Flatten)
class FlattenLowering(LoweringRule):
    """Flatten reshapes spike tensors; no neurons involved."""

    op = "transparent"

    def emit(self, node: GraphNode, ctx: LoweringContext) -> List[SpikingLayer]:
        return [SpikingFlatten()]


@register_lowering(Dropout, Identity)
class NoOpLowering(LoweringRule):
    """Inference no-ops are elided from the graph."""

    op = "noop"

    def emit(self, node: GraphNode, ctx: LoweringContext) -> List[SpikingLayer]:
        return []
