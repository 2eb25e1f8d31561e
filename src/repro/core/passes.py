"""The conversion pass pipeline: ordered graph→graph transforms.

Each pass takes the :class:`~repro.core.graph.ConversionGraph` plus the
shared :class:`~repro.core.lowering.LoweringContext` and transforms the graph
in place, stamping provenance on every node it touches.  The default order —
the conversion recipe of the paper, one concern per pass — is:

1. :class:`ValidateTopology` — check the pairing invariants of a convertible
   network (every conv/linear followed by an activation site, BN only after a
   synapse, a linear classifier head at the end, no max-pool / plain-ReLU /
   unknown layers) and record *all* violations as diagnostics.
2. :class:`FoldBatchNorm` — materialise each synapse's effective weights and
   absorb every following batch-norm into them (paper Eq. 7).
3. :class:`ElideNoOps` — drop inference no-ops (dropout, identity).
4. :class:`AssignNormFactors` — thread the λ lineage through the graph
   (paper Eq. 5): every activation site gets its norm-factor from the
   strategy, residual blocks their (λ_pre, λ_c1, λ_out) triple, and the head
   its output scale.
5. :class:`LowerResidual` — rewrite residual blocks into spiking NS/OS pairs
   (paper Section 5) via the registered lowering rule.
6. :class:`EmitSpiking` — lower every remaining node to spiking layers
   through the lowering registry.
7. :class:`QuantizeWeights` — under a quantized precision (``infer8``), move
   every emitted layer's weights onto per-layer int8 grids whose scales
   derive from the λ lineage the earlier passes threaded (the λ-scaled
   weight range *is* the quantization range), recording the scales on the
   graph.  A no-op for float precisions, so the default pipeline is safe to
   run unchanged everywhere.

Three further passes implement the **low-latency conversion mode**
(``ctx.latency_mode == "low"``; all three are exact no-ops otherwise, so the
standard pipeline stays bit-identical).  The recipe follows Bu et al.'s
optimal ANN-to-SNN conversion (quantized clip-floor-shift activation,
arXiv 2303.04347) plus error-compensation calibration (arXiv 2506.01968):

* :class:`ShiftThresholds` (between validation and folding) — wraps the
  norm-factor strategy so every site λ shrinks by the expected-error
  minimizing factor ``2T/(2T+1)``, trading a sliver of clipping error
  against the quantization error of simulating only T timesteps.
* :class:`InitMembrane` (after emission) — λ/2 initial membrane potential
  on every emitted IF pool, cancelling the floor bias of rate decoding.
* :class:`ErrorCompensation` (last) — replays the calibration batch through
  the emitted network for T timesteps, measures each pool's mean stranded
  charge, and folds the per-channel residual back into the layer biases
  (on the integer grid for quantized layers).

A strict pipeline run raises :class:`~repro.core.graph.ConversionError` with
the first diagnostic after each pass; ``Converter.dry_run`` runs only the
validation prefix without strictness to collect the full diagnostics list.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn.residual import BasicBlock
from ..obs import active_tracer
from ..runtime import resolve_policy, using_policy
from .folding import EffectiveWeights
from .graph import ConversionGraph, ConversionError, GraphNode
from .lowering import LoweringContext, lowering_for
from .normfactor import NormFactorStrategy
from .tcl import ClippedReLU

__all__ = [
    "Pass",
    "ValidateTopology",
    "ShiftThresholds",
    "FoldBatchNorm",
    "ElideNoOps",
    "AssignNormFactors",
    "LowerResidual",
    "EmitSpiking",
    "InitMembrane",
    "QuantizeWeights",
    "ErrorCompensation",
    "PassPipeline",
    "default_passes",
    "default_pipeline",
    "LATENCY_MODES",
    "DEFAULT_LOW_LATENCY_TIMESTEPS",
    "shift_factor",
]

#: Latency modes the conversion pipeline understands.
LATENCY_MODES = ("standard", "low")

#: Simulation budget T the low-latency mode targets when none is given.
DEFAULT_LOW_LATENCY_TIMESTEPS = 8


def shift_factor(timesteps: int) -> float:
    """The expected-error-minimizing threshold shrink factor ``2T/(2T+1)``.

    A rate code with T timesteps quantizes activations onto the grid
    ``{0, λ/T, …, λ}``; for activations uniform on ``[0, λ]`` the expected
    squared conversion error (clipping above λ̂ plus rounding below it) is
    minimized by clipping at ``λ̂ = λ · 2T/(2T+1)`` — the clip-floor-shift
    threshold of Bu et al. (arXiv 2303.04347) with the half-step shift
    folded in.  The factor tends to 1 as T grows, so the shift vanishes in
    the long-latency limit.
    """

    if timesteps <= 0:
        raise ConversionError(f"timesteps must be positive, got {timesteps}")
    return (2.0 * timesteps) / (2.0 * timesteps + 1.0)


class Pass:
    """Base class of one conversion pass (a named graph transform)."""

    name: str = "pass"

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class ValidateTopology(Pass):
    """Check the structural invariants of a convertible network.

    Violations are recorded as diagnostics on the graph (never raised here),
    so a dry run reports every problem at once.  The pass is purely
    diagnostic: it reads the structural facts ``trace`` recorded — the
    synapse–activation pairs, BN folding targets, interrupted synapses, and
    the classifier head — and reports every gap; there is no second pairing
    state machine to keep in sync with the tracer.
    """

    name = "validate-topology"

    _PENDING_MESSAGE = (
        "synaptic layer without a following activation before {context}; "
        "convertible networks must follow every conv/linear (except the "
        "classifier head) with a ReLU/ClippedReLU"
    )

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        trailing: Optional[GraphNode] = None
        for node in graph.active_nodes():
            node.stamp(self.name)
            if node.op == "unknown":
                graph.diagnose(node, f"unsupported layer type {node.source}")
            elif node.op == "invalid":
                graph.diagnose(node, str(node.meta.get("reason", f"{node.source} cannot be converted")))
            elif node.op == "synapse" and node.meta.get("trailing"):
                trailing = node
            elif node.op == "batchnorm":
                if node.meta.get("folds_into") is None:
                    graph.diagnose(node, "batch-norm without a preceding conv/linear layer")
            elif node.op == "activation":
                if node.meta.get("synapse") is None:
                    graph.diagnose(node, f"activation site ({node.source}) has no preceding conv/linear layer")
            elif node.op == "block" and isinstance(node.module, BasicBlock):
                block = node.module
                if not (
                    isinstance(block.activation1, ClippedReLU)
                    and isinstance(block.activation_out, ClippedReLU)
                ):
                    graph.diagnose(
                        node,
                        "residual-block activations must be ClippedReLU modules; rebuild the "
                        "block with a TCL activation factory (clip_enabled=False for the "
                        "non-TCL baseline)",
                    )
            interrupted = node.meta.get("interrupts")
            if interrupted is not None:
                graph.diagnose(interrupted, self._PENDING_MESSAGE.format(context=node.describe()))

        if trailing is None:
            graph.diagnose(None, "the network must end with a linear classifier head")
        elif trailing.meta.get("kind") != "linear":
            graph.diagnose(trailing, "the classifier head must be a Linear layer")
        else:
            trailing.stamp(self.name, "classifier head")
        return graph


class _ShiftedStrategy(NormFactorStrategy):
    """A norm-factor strategy scaled by the clip-floor-shift factor.

    Wrapping the strategy (rather than post-editing thresholds) means the
    shifted λ flows through *every* downstream consumer untouched — the λ
    lineage ``AssignNormFactors`` records, the residual-block triples, the
    data-normalized weights, and the λ-derived int8 grids ``QuantizeWeights``
    chooses — so a shifted threshold is still a whole number of quantization
    levels by construction.
    """

    def __init__(self, inner: NormFactorStrategy, factor: float) -> None:
        self.inner = inner
        self.factor = float(factor)
        self.name = inner.name
        self.requires_observers = inner.requires_observers

    def site_norm_factor(self, site_name: str, module) -> float:
        return self._validated(self.inner.site_norm_factor(site_name, module) * self.factor, site_name)


class ShiftThresholds(Pass):
    """Shrink every site λ by ``2T/(2T+1)`` (low-latency mode only).

    Runs before ``AssignNormFactors`` so the shift is applied at the single
    point every λ decision flows through: the context's strategy is wrapped
    in a :class:`_ShiftedStrategy` and the rest of the pipeline is none the
    wiser.  A no-op in standard mode.
    """

    name = "shift-thresholds"

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        if ctx.latency_mode != "low":
            return graph
        timesteps = int(ctx.timesteps or DEFAULT_LOW_LATENCY_TIMESTEPS)
        factor = shift_factor(timesteps)
        ctx.strategy = _ShiftedStrategy(ctx.strategy, factor)
        for node in graph.active_nodes():
            if node.op in ("activation", "block"):
                node.stamp(self.name, f"λ × {factor:g} (T={timesteps})")
        return graph


class FoldBatchNorm(Pass):
    """Absorb batch-norm layers into the preceding synapse (paper Eq. 7)."""

    name = "fold-batchnorm"

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        for node in graph.active_nodes():
            if node.op == "synapse":
                module = node.module
                bias = None if module.bias is None else module.bias.data
                node.weights = EffectiveWeights(module.weight.data, bias)
                node.stamp(self.name, "materialised effective weights")
            elif node.op == "batchnorm":
                target = node.meta.get("folds_into")
                if target is None:
                    continue  # unpaired BN; validation diagnoses this
                target.weights.fold_batchnorm(node.module)
                node.elided = True
                node.stamp(self.name, f"folded into module {target.index}")
                target.stamp(self.name, f"absorbed BN from module {node.index}")
        return graph


class ElideNoOps(Pass):
    """Drop inference no-ops (dropout, identity) from the graph."""

    name = "elide-noops"

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        for node in graph.active_nodes():
            if node.op == "noop":
                node.elided = True
                node.stamp(self.name, "inference no-op")
        return graph


class AssignNormFactors(Pass):
    """Thread the λ lineage through the graph (paper Eq. 5).

    Activation sites are numbered ``site1..siteN`` in network order (residual
    blocks share the counter as ``block{n}``, a naming contract the golden
    parity tests pin down), each receiving its norm-factor from the strategy; every
    synapse records the (λ_in, λ_out) pair its weights will be scaled by, and
    the head takes the output norm-factor from the context.
    """

    name = "assign-norm-factors"

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        lambda_prev = float(graph.input_norm_factor)
        graph.norm_factors = {"input": lambda_prev}
        graph.residual_factors = []
        site = 0
        for node in graph.active_nodes():
            if node.op == "synapse":
                if node.is_head:
                    node.lambda_in = lambda_prev
                    node.lambda_out = float(ctx.output_norm_factor)
                    node.site_name = "output"
                    graph.norm_factors["output"] = node.lambda_out
                    graph.output_norm_factor = node.lambda_out
                    node.stamp(self.name, f"λ {node.lambda_in:g} -> {node.lambda_out:g} (output)")
                # a non-head synapse is assigned when its activation arrives
            elif node.op == "activation":
                synapse = node.meta.get("synapse")
                if synapse is None:
                    continue  # unpaired site; flagged by validation
                site += 1
                site_name = f"site{site}"
                lambda_this = ctx.strategy.site_norm_factor(site_name, node.module)
                synapse.lambda_in = lambda_prev
                synapse.lambda_out = lambda_this
                synapse.site_name = site_name
                synapse.stamp(self.name, f"λ {lambda_prev:g} -> {lambda_this:g} ({site_name})")
                node.lambda_in = node.lambda_out = lambda_this
                node.site_name = site_name
                node.stamp(self.name, f"{site_name} λ = {lambda_this:g}")
                graph.norm_factors[site_name] = lambda_this
                lambda_prev = lambda_this
            elif node.op == "block":
                site += 1
                rule = lowering_for(type(node.module))
                factors = rule.site_factors(node, lambda_prev, ctx, site_prefix=f"block{site}.")
                node.meta["factors"] = factors
                node.site_name = f"block{site}"
                node.lambda_in = factors.lambda_pre
                node.lambda_out = factors.lambda_out
                node.stamp(
                    self.name,
                    f"λ_pre={factors.lambda_pre:g} λ_c1={factors.lambda_c1:g} λ_out={factors.lambda_out:g}",
                )
                graph.norm_factors[f"block{site}.c1"] = factors.lambda_c1
                graph.norm_factors[f"block{site}.out"] = factors.lambda_out
                graph.residual_factors.append(factors)
                lambda_prev = factors.lambda_out
            else:
                # pooling / flatten / custom transparent layers do not change
                # the activation scale.
                node.lambda_in = node.lambda_out = lambda_prev
                node.stamp(self.name, "λ-transparent")
        return graph


class LowerResidual(Pass):
    """Rewrite residual blocks into spiking NS/OS pairs (paper Section 5)."""

    name = "lower-residual"

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        for node in graph.active_nodes():
            if node.op != "block":
                continue
            rule = lowering_for(type(node.module))
            node.emitted = list(rule.emit(node, ctx))
            node.stamp(self.name, ", ".join(type(layer).__name__ for layer in node.emitted))
        return graph


class EmitSpiking(Pass):
    """Lower every remaining node to spiking layers via the registry."""

    name = "emit-spiking"

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        for node in graph.active_nodes():
            if node.op == "block":
                continue  # lowered by LowerResidual
            if node.op == "activation":
                synapse = node.meta.get("synapse")
                node.stamp(self.name, f"absorbed into module {synapse.index}" if synapse else "unpaired")
                continue
            if node.op in ("invalid", "unknown"):
                # Reachable only in pipelines without a validation pass; keep
                # the guidance the lowering rule recorded at trace time.
                reason = str(node.meta.get("reason", f"unsupported layer type {node.source}"))
                raise ConversionError(f"{node.describe()}: {reason}")
            rule = lowering_for(type(node.module))
            if rule is None:
                raise ConversionError(f"{node.describe()}: unsupported layer type {node.source}")
            node.emitted = list(rule.emit(node, ctx))
            emitted = ", ".join(type(layer).__name__ for layer in node.emitted)
            node.stamp(self.name, emitted if emitted else "nothing")
        return graph


class QuantizeWeights(Pass):
    """Quantize emitted layers onto λ-derived int8 grids (``infer8`` only).

    Runs after the emission passes, when every layer carries its
    data-normalized weights ``Ŵ = W · λ_in / λ_out`` — so each layer's weight
    range, and hence its quantization scale, is a pure function of the λ
    lineage ``AssignNormFactors`` threaded (``max|Ŵ| = (λ_in/λ_out)·max|W|``).
    The pass resolves ``ctx.precision`` (``None`` inherits the active policy,
    matching the Converter) and does nothing unless it is quantized; under a
    quantized precision every emitted layer's :meth:`SpikingLayer.quantize`
    runs at this defined compiler point and the chosen scales are recorded in
    ``graph.weight_scales`` keyed ``"<site>.<scale_attr>"`` for the
    conversion report and artifact metadata.
    """

    name = "quantize-weights"

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        policy = resolve_policy(ctx.precision)
        if not policy.quantized:
            return graph
        graph.weight_scales = {}
        for node in graph.active_nodes():
            if not node.emitted:
                continue
            scales = {}
            for layer in node.emitted:
                layer.quantize()
                scales.update(layer.quantization_scales())
            if not scales:
                continue
            site = node.site_name or f"module{node.index}"
            for attr, scale in scales.items():
                graph.weight_scales[f"{site}.{attr}"] = scale
            node.stamp(
                self.name,
                ", ".join(f"{attr} 1/{1.0 / scale:g}" for attr, scale in scales.items()),
            )
        return graph


class InitMembrane(Pass):
    """λ/2 initial membrane potential on every emitted pool (low-latency).

    Starting each membrane at half the threshold cancels the floor bias of
    rate decoding (a neuron driven at rate r fires its first spike T/2 steps
    earlier on average), the second ingredient of the clip-floor-shift
    recipe.  The fraction is stored on the pools (``IFNeuronPool.v_init``)
    rather than materialised, so it survives policy switches, artifact
    round-trips, and quantized grids (where the absolute value snaps onto
    the integer-level lattice at state allocation).  A no-op in standard
    mode, leaving standard conversions bit-identical.
    """

    name = "init-membrane"

    #: Initial membrane potential as a fraction of the firing threshold.
    fraction = 0.5

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        if ctx.latency_mode != "low":
            return graph
        for node in graph.active_nodes():
            if not node.emitted:
                continue
            touched = 0
            for layer in node.emitted:
                if layer.neuron_pools:
                    layer.set_membrane_init(self.fraction)
                    touched += 1
            if touched:
                node.stamp(self.name, f"v₀ = {self.fraction:g}·V_thr")
        return graph


class ErrorCompensation(Pass):
    """Fold measured residual conversion error into biases (low-latency).

    The shift/init passes fix the *expected* conversion error; what remains
    is layer-specific: charge that arrives during the T-step window but
    never crosses the threshold stays stranded on the membrane.  This pass
    measures exactly that — it replays (a slice of) the calibration batch
    through the emitted network for T timesteps, takes each pool's mean
    membrane deviation from its initial value per output channel, and folds
    ``residual / T`` into the layer's bias so the stranded charge is
    released over the simulation window (arXiv 2506.01968's compensation,
    computed in closed form instead of learned).

    Runs *last*: after ``QuantizeWeights`` the measurement sees the actual
    inference-time arithmetic (integer membranes under ``infer8``), and the
    compensation lands on the quantized grid via the layer's declared
    ``_bias_sites``.  Skipped without calibration data or in standard mode.
    """

    name = "error-compensation"

    #: Upper bound on calibration samples replayed (keeps the pass O(batch)).
    max_samples = 256

    def run(self, graph: ConversionGraph, ctx: LoweringContext) -> ConversionGraph:
        if ctx.latency_mode != "low" or ctx.calibration is None:
            return graph
        layers = graph.emitted_layers()
        if not layers:
            return graph
        from ..snn.encoding import RealCoding
        from ..snn.network import SpikingNetwork

        timesteps = int(ctx.timesteps or DEFAULT_LOW_LATENCY_TIMESTEPS)
        batch = np.asarray(ctx.calibration)[: self.max_samples]
        encoder = ctx.encoder if ctx.encoder is not None else RealCoding()
        policy = resolve_policy(ctx.precision)
        # The replay must run under the *target* policy — the same arithmetic
        # the converted network will serve with — so the measured residuals
        # include quantization effects.  The network wrapper is temporary;
        # the layers are the graph's own emitted layers, reset afterwards.
        with using_policy(policy):
            net = SpikingNetwork(layers, encoder=encoder.clone())
            net.set_policy(policy)
            net.simulate(batch, timesteps, collect_statistics=False)
        try:
            for node in graph.active_nodes():
                notes = []
                for layer in node.emitted:
                    notes.extend(self._compensate_layer(layer, timesteps))
                if notes:
                    node.stamp(self.name, ", ".join(notes))
        finally:
            net.reset_state()
        return graph

    def _compensate_layer(self, layer, timesteps: int) -> List[str]:
        """Measure and fold one layer's per-pool residuals; returns notes."""

        notes = []
        for pool_attr, _bias_attr, scale_attr in layer._bias_sites:
            pool = getattr(layer, pool_attr)
            membrane = pool.membrane
            if membrane is None:
                continue
            scale = getattr(layer, scale_attr, None) if scale_attr else None
            threshold = pool.threshold
            if scale is not None and pool.threshold_q is not None:
                threshold = pool.threshold_q
            # Mean stranded charge per output channel: average the membrane
            # deviation from its initial value over batch (and any spatial)
            # axes, leaving the channel axis that aligns with the bias.
            # The residual theorem (rate error = ΔV / (V_thr·T)) only holds
            # for neurons that participate in the rate code, so dead neurons
            # — whose membranes drift unboundedly negative and whose ANN
            # activation is a clean ReLU zero — are masked out, and the
            # deviation is clamped to one threshold either way.
            deviation = np.clip(
                np.asarray(membrane, dtype=np.float64) - pool.initial_membrane(),  # reprolint: allow[dtype] -- calibration statistics accumulate at full precision regardless of the serving policy
                -threshold,
                threshold,
            )
            axes = (0,) if membrane.ndim <= 2 else (0, *range(2, membrane.ndim))
            if pool.spike_count is not None:
                active = np.asarray(pool.spike_count, dtype=np.float64) > 0  # reprolint: allow[dtype] -- calibration statistics
                counts = active.sum(axis=axes)
                residual = np.where(
                    counts > 0,
                    (deviation * active).sum(axis=axes) / np.maximum(counts, 1.0),
                    0.0,
                )
            else:
                residual = deviation.mean(axis=axes)
            if scale is not None:
                # Quantized membranes live in scale units; bring the residual
                # back to float units before folding (fold_compensation
                # re-quantizes onto the int32 bias grid).
                residual = residual * float(scale)
            delta = residual / float(timesteps)
            if layer.fold_compensation(pool_attr, delta):
                notes.append(f"{pool_attr} |δ|={float(np.abs(delta).max()):.3g}")
        return notes


class PassPipeline:
    """An ordered list of passes run strictly (or leniently, for dry runs)."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes: List[Pass] = list(passes)

    @property
    def names(self) -> List[str]:
        return [p.name for p in self.passes]

    def run(self, graph: ConversionGraph, ctx: LoweringContext, strict: bool = True) -> ConversionGraph:
        """Run the passes in order until diagnostics appear.

        Each pass collects *all* the problems it can see before the pipeline
        reacts.  With ``strict=True`` (conversion) the first diagnosing pass
        aborts with :class:`ConversionError`; with ``strict=False`` (dry run)
        the pipeline stops after that pass without raising, leaving the full
        diagnostics list on the graph for the caller — later passes are
        skipped either way, since they assume a validated graph.

        With a tracer active (:func:`repro.obs.active_tracer`) the run emits
        one ``compiler`` span per pass, annotated with the pass name, the
        active node count it saw, and how many diagnostics it raised.
        """

        tracer = active_tracer()
        with tracer.span("pipeline:run", category="compiler", passes=len(self.passes)):
            for pass_ in self.passes:
                with tracer.span(f"pass:{pass_.name}", category="compiler") as span:
                    if span.recording:
                        span.annotate(nodes=len(list(graph.active_nodes())))
                    pass_.run(graph, ctx)
                    if span.recording:
                        span.annotate(diagnostics=len(graph.diagnostics))
                if graph.diagnostics:
                    if strict:
                        graph.raise_on_diagnostics()
                    break
        return graph


def default_passes() -> List[Pass]:
    """The paper's conversion recipe as an ordered pass list.

    The three low-latency passes are always present but gate themselves on
    ``ctx.latency_mode``, so the standard-mode pipeline remains bit-identical
    to the historical seven-pass recipe (pinned by the golden parity tests).
    """

    return [
        ValidateTopology(),
        ShiftThresholds(),
        FoldBatchNorm(),
        ElideNoOps(),
        AssignNormFactors(),
        LowerResidual(),
        EmitSpiking(),
        InitMembrane(),
        QuantizeWeights(),
        ErrorCompensation(),
    ]


def default_pipeline() -> PassPipeline:
    return PassPipeline(default_passes())
