"""The driver of the conversion compiler: configuration, builder, result.

Conversion is organised as a small compiler (see ``docs/architecture.md``
for the full dataflow).  This module owns its user-facing layer: the
declarative :class:`ConversionConfig`, the fluent :class:`Converter` builder
that drives trace → pass pipeline → lowering and packages the emitted
:class:`~repro.snn.SpikingNetwork`, and the :class:`ConversionResult` /
:class:`ConversionReport` bookkeeping that serving artifacts and the
analysis tables consume.  The graph IR lives in :mod:`repro.core.graph`, the
passes in :mod:`repro.core.passes`, and the per-layer-type lowering rules in
:mod:`repro.core.lowering`.

The user-facing entry point is the fluent :class:`Converter` builder::

    result = (
        Converter(model)
        .strategy("tcl")
        .reset(ResetMode.SUBTRACT)
        .readout("spike_count")
        .precision("infer32")
        .calibrate(images)
        .convert()
    )

:meth:`Converter.dry_run` validates the topology without converting,
collecting *all* problems in one diagnostics list instead of failing on the
first.  :func:`convert_ann_to_snn` is deprecated and remains only as a thin
backward-compatible wrapper over the builder.

Pooling: average pooling maps onto spiking average-pool layers (threshold 1,
norm-factor transparent); max pooling is rejected with a
:class:`ConversionError`, because it cannot be modelled by IF neurons — the
model zoo builds convertible networks with average pooling, following the
paper.

The final linear layer (the classifier head, not followed by a ReLU) becomes a
:class:`~repro.snn.SpikingOutputLayer`.  Its norm-factor is taken from the
observed maximum of the logits on calibration data when available (spike-count
readout needs a sensible output scale); for the membrane readout the scale is
irrelevant to the arg-max and defaults to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

import numpy as np

from ..autograd import Tensor, no_grad
from ..nn.container import Sequential
from ..nn.module import Module
from ..runtime import ComputePolicy, resolve_policy, using_policy, validate_policy_spec
from ..snn.encoding import InputEncoder, RealCoding
from ..snn.network import SpikingNetwork
from ..snn.neuron import ResetMode
from .graph import ConversionError, ConversionGraph, Diagnostic, trace
from .lowering import LoweringContext
from .normfactor import STRATEGY_REGISTRY, NormFactorStrategy, TCLNormFactor, build_strategy
from .observers import attach_observers, detach_observers
from .passes import (
    DEFAULT_LOW_LATENCY_TIMESTEPS,
    LATENCY_MODES,
    PassPipeline,
    ValidateTopology,
    default_pipeline,
)
from .residual import ResidualNormFactors

__all__ = [
    "ConversionError",
    "VALID_READOUTS",
    "ConversionConfig",
    "LayerReport",
    "ConversionReport",
    "ConversionResult",
    "Converter",
    "register_artifact_writer",
    "run_calibration",
    "convert_ann_to_snn",
]

#: Readout modes the output layer supports, validated at the API boundary.
VALID_READOUTS = ("spike_count", "membrane")

#: The artifact persistence hook :meth:`ConversionResult.save` calls.
#:
#: ``repro.serve`` sits *above* ``repro.core`` in the package layering, so
#: this module must not import it (the checker in ``tools/reprolint`` flags
#: exactly that).  Instead the serving tier registers its writer when it is
#: imported — ``repro/__init__`` imports core before serve, so any code that
#: can reach ``ConversionResult`` has the writer installed already.
_ARTIFACT_WRITER = None


def register_artifact_writer(writer) -> None:
    """Install the callable ``save(snn, path, metadata=...)`` delegates to.

    Called by ``repro.serve`` at import time with
    :func:`repro.serve.serialize.save_artifact`; tests may install a stub.
    """

    global _ARTIFACT_WRITER
    _ARTIFACT_WRITER = writer


def _coerce_reset_mode(mode: Union[ResetMode, str]) -> ResetMode:
    if isinstance(mode, ResetMode):
        return mode
    try:
        return ResetMode(mode)
    except ValueError:
        valid = ", ".join(m.value for m in ResetMode)
        raise ConversionError(f"unknown reset mode {mode!r}; valid modes: {valid}") from None


def _validate_readout(readout: str) -> str:
    if readout not in VALID_READOUTS:
        valid = ", ".join(repr(r) for r in VALID_READOUTS)
        raise ConversionError(f"unknown readout {readout!r}; valid readouts: {valid}")
    return readout


def _validate_strategy(strategy) -> None:
    if isinstance(strategy, NormFactorStrategy):
        return
    if not isinstance(strategy, str) or strategy.lower() not in STRATEGY_REGISTRY:
        raise ConversionError(
            f"unknown norm-factor strategy {strategy!r}; "
            f"available: {sorted(STRATEGY_REGISTRY)} (or a NormFactorStrategy instance)"
        )


def _validate_precision(precision) -> None:
    try:
        validate_policy_spec(precision, allow_none=True)
    except ValueError as error:
        raise ConversionError(str(error)) from None


@dataclass
class ConversionConfig:
    """Declarative description of one conversion.

    Attributes
    ----------
    strategy:
        Norm-factor strategy — a :class:`NormFactorStrategy` instance or a
        registry name (``"tcl"``, ``"max"``, ``"percentile"``, ``"fixed"``).
    reset_mode:
        IF reset rule (paper default: reset-by-subtraction).
    readout:
        ``"spike_count"`` (paper) or ``"membrane"``.
    encoder:
        Input coding; ``None`` selects the paper's real (constant-current)
        coding.
    precision:
        Compute-policy profile of the converted network — ``"train64"``
        (float64, bit-identical historical behaviour), ``"infer32"``
        (float32 inference profile with in-place scratch reuse),
        ``"infer8"`` (int8 weights on per-layer λ-derived scales with
        integer accumulation, quantized by the ``QuantizeWeights`` pass), a
        :class:`~repro.runtime.ComputePolicy` instance, or ``None``
        (default) to inherit the process-wide active policy.  Conversion
        arithmetic itself (folding, norm-factors) runs under the active
        policy; the profile chosen here is applied to the emitted spiking
        network and recorded in serving-artifact metadata.
    latency_mode:
        ``"standard"`` (default, the bit-identical historical pipeline) or
        ``"low"`` — activate the ultra-low-latency conversion passes
        (``ShiftThresholds`` / ``InitMembrane`` / ``ErrorCompensation``)
        targeting ``timesteps`` simulation cycles.
    timesteps:
        Simulation budget T the low-latency passes optimize for; ``None``
        under ``"low"`` selects ``DEFAULT_LOW_LATENCY_TIMESTEPS`` (8).
        Recorded on the result as ``recommended_timesteps`` either way.
    input_norm_factor:
        λ of the network input (1.0 when images are fed in their natural
        scale, as the paper does).
    calibration_batch_size:
        Batch size of the calibration forward passes.
    """

    strategy: Union[str, NormFactorStrategy] = "tcl"
    reset_mode: ResetMode = ResetMode.SUBTRACT
    readout: str = "spike_count"
    encoder: Optional[InputEncoder] = None
    precision: Union[None, str, ComputePolicy] = None
    latency_mode: str = "standard"
    timesteps: Optional[int] = None
    input_norm_factor: float = 1.0
    calibration_batch_size: int = 64

    def validated(self) -> "ConversionConfig":
        """Check every field, returning a normalised copy.

        Raises :class:`ConversionError` at the API boundary — before any
        training-time work — instead of threading bad values into the
        spiking layers.
        """

        config = replace(
            self,
            reset_mode=_coerce_reset_mode(self.reset_mode),
            readout=_validate_readout(self.readout),
        )
        _validate_strategy(config.strategy)
        _validate_precision(config.precision)
        if config.latency_mode not in LATENCY_MODES:
            valid = ", ".join(repr(m) for m in LATENCY_MODES)
            raise ConversionError(
                f"unknown latency mode {config.latency_mode!r}; valid modes: {valid}"
            )
        if config.timesteps is not None and config.timesteps <= 0:
            raise ConversionError(f"timesteps must be positive, got {config.timesteps}")
        if config.latency_mode == "low" and config.timesteps is None:
            config = replace(config, timesteps=DEFAULT_LOW_LATENCY_TIMESTEPS)
        if config.input_norm_factor <= 0:
            raise ConversionError(f"input_norm_factor must be positive, got {config.input_norm_factor}")
        if config.calibration_batch_size <= 0:
            raise ConversionError(f"calibration_batch_size must be positive, got {config.calibration_batch_size}")
        return config

    def resolve_strategy(self) -> NormFactorStrategy:
        if isinstance(self.strategy, NormFactorStrategy):
            return self.strategy
        return build_strategy(self.strategy)


@dataclass
class LayerReport:
    """Provenance of one source module through the pass pipeline."""

    index: int
    source: str
    op: str
    site_name: Optional[str] = None
    lambda_in: Optional[float] = None
    lambda_out: Optional[float] = None
    emitted: List[str] = field(default_factory=list)
    passes: List[str] = field(default_factory=list)


@dataclass
class ConversionReport:
    """Per-layer pass provenance and λ lineage plus collected diagnostics."""

    layers: List[LayerReport] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    pass_names: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def messages(self) -> List[str]:
        """The diagnostics as plain strings (one per topology problem)."""

        return [str(d) for d in self.diagnostics]

    def summary(self) -> str:
        """A human-readable per-layer table of the conversion."""

        lines = []
        for layer in self.layers:
            lineage = ""
            if layer.lambda_in is not None and layer.lambda_out is not None:
                lineage = f"  λ {layer.lambda_in:g} -> {layer.lambda_out:g}"
            emitted = f"  => {', '.join(layer.emitted)}" if layer.emitted else ""
            site = f"  [{layer.site_name}]" if layer.site_name else ""
            lines.append(f"{layer.index:3d}  {layer.source:<20s} {layer.op:<12s}{site}{lineage}{emitted}")
        for diagnostic in self.diagnostics:
            lines.append(f"  !! {diagnostic}")
        return "\n".join(lines)


def _report_from_graph(graph: ConversionGraph, pass_names: List[str]) -> ConversionReport:
    layers = [
        LayerReport(
            index=node.index,
            source=node.source,
            op=node.op,
            site_name=node.site_name,
            lambda_in=node.lambda_in,
            lambda_out=node.lambda_out,
            emitted=[type(layer).__name__ for layer in node.emitted],
            passes=list(node.provenance),
        )
        for node in graph.nodes
    ]
    return ConversionReport(layers=layers, diagnostics=list(graph.diagnostics), pass_names=pass_names)


@dataclass
class ConversionResult:
    """A converted spiking network plus the bookkeeping of the conversion."""

    snn: SpikingNetwork
    strategy_name: str
    norm_factors: Dict[str, float] = field(default_factory=dict)
    residual_factors: List[ResidualNormFactors] = field(default_factory=list)
    output_norm_factor: float = 1.0
    reset_mode: ResetMode = ResetMode.SUBTRACT
    readout: str = "spike_count"
    precision: str = "train64"
    #: Latency mode of the conversion (``"standard"`` or ``"low"``) and the
    #: simulation budget T the low-latency passes optimized for (``None``
    #: in standard mode: any T works, longer is more accurate).
    latency_mode: str = "standard"
    timesteps: Optional[int] = None
    #: Per-layer quantization scales (``"<site>.<scale_attr>"`` → scale) the
    #: ``QuantizeWeights`` pass chose; empty for float precisions.
    weight_scales: Dict[str, float] = field(default_factory=dict)
    report: Optional[ConversionReport] = None

    @property
    def num_spiking_layers(self) -> int:
        return len(self.snn.layers)

    @property
    def recommended_timesteps(self) -> Optional[int]:
        """The simulation budget this conversion was optimized for.

        ``None`` for standard conversions (accuracy keeps improving with T,
        so serving defaults apply); the calibrated T for low-latency
        conversions — simulating longer than the budget the shift/init/
        compensation passes targeted buys nothing and costs linearly.
        """

        if self.timesteps is not None:
            return int(self.timesteps)
        return DEFAULT_LOW_LATENCY_TIMESTEPS if self.latency_mode == "low" else None

    def export_metadata(self) -> Dict[str, object]:
        """The conversion bookkeeping in the JSON form serving artifacts store."""

        from dataclasses import asdict

        metadata = {
            "strategy_name": self.strategy_name,
            "norm_factors": {name: float(value) for name, value in self.norm_factors.items()},
            "residual_factors": [asdict(factors) for factors in self.residual_factors],
            "output_norm_factor": float(self.output_norm_factor),
            "reset_mode": self.reset_mode.value,
            "readout": self.readout,
            "precision": self.precision,
            "weight_scales": {name: float(value) for name, value in self.weight_scales.items()},
        }
        # Only non-standard conversions record latency keys: absence means
        # "standard", keeping pre-existing artifact manifests byte-identical.
        if self.latency_mode != "standard":
            metadata["latency_mode"] = self.latency_mode
            if self.timesteps is not None:
                metadata["timesteps"] = int(self.timesteps)
        return metadata

    def save(self, path) -> "object":
        """Persist the converted network as a serving artifact bundle.

        Returns the bundle path; :func:`repro.serve.load_artifact` (or a
        :class:`repro.serve.ModelRegistry`) reloads it in a fresh process with
        bit-identical simulation behaviour.
        """

        writer = _ARTIFACT_WRITER
        if writer is None:
            raise RuntimeError(
                "no artifact writer is registered; import repro.serve (importing "
                "the top-level repro package does) before calling save()"
            )
        return writer(self.snn, path, metadata=self.export_metadata())


def run_calibration(model: Module, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Run calibration images through the ANN (eval mode, no gradients).

    Observers attached to the activation sites accumulate statistics as a side
    effect; the concatenated output logits are returned so the converter can
    derive the output-layer norm-factor.
    """

    model.eval()
    outputs: List[np.ndarray] = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            batch = images[start: start + batch_size]
            logits = model(Tensor(batch))
            outputs.append(np.array(logits.data, copy=True))
    return np.concatenate(outputs, axis=0)


def _output_norm_from_logits(logits: Optional[np.ndarray]) -> float:
    """Output-layer norm-factor: the largest positive logit seen (≥ 1)."""

    if logits is None or logits.size == 0:
        return 1.0
    peak = float(np.max(logits))
    return max(peak, 1.0)


class Converter:
    """Fluent builder over the conversion compiler.

    Every setter mutates the builder and returns it, so conversions read as
    one chain::

        result = (
            Converter(model)
            .strategy("percentile", percentile=99.9)
            .reset("zero")
            .readout("membrane")
            .calibrate(images)
            .convert()
        )

    :meth:`dry_run` traces and validates without converting, returning a
    :class:`ConversionReport` whose diagnostics list *every* topology problem
    at once; :meth:`convert` runs the full pipeline and returns a
    :class:`ConversionResult`.
    """

    def __init__(
        self,
        model: Sequential,
        config: Optional[ConversionConfig] = None,
        pipeline: Optional[PassPipeline] = None,
    ) -> None:
        self._model = model
        self._config = config if config is not None else ConversionConfig()
        self._pipeline = pipeline if pipeline is not None else default_pipeline()
        self._calibration_images: Optional[np.ndarray] = None

    # -- fluent setters ------------------------------------------------------

    def strategy(self, strategy: Union[str, NormFactorStrategy], **kwargs) -> "Converter":
        """Choose the norm-factor strategy (instance or registry name)."""

        _validate_strategy(strategy)
        if isinstance(strategy, str) and kwargs:
            strategy = build_strategy(strategy, **kwargs)
        elif kwargs:
            raise TypeError("strategy kwargs are only valid with a registry name")
        self._config = replace(self._config, strategy=strategy)
        return self

    def reset(self, mode: Union[ResetMode, str]) -> "Converter":
        """Choose the IF reset rule (``ResetMode`` or its string value)."""

        self._config = replace(self._config, reset_mode=_coerce_reset_mode(mode))
        return self

    def readout(self, readout: str) -> "Converter":
        """Choose the output readout (``"spike_count"`` or ``"membrane"``)."""

        self._config = replace(self._config, readout=_validate_readout(readout))
        return self

    def precision(self, precision: Union[str, ComputePolicy]) -> "Converter":
        """Choose the compute-policy profile of the converted network.

        ``"train64"`` (float64, the bit-identical historical behaviour),
        ``"infer32"`` (float32 inference profile with in-place scratch
        reuse), ``"infer8"`` (int8 weights on λ-derived scales; the
        ``QuantizeWeights`` pass chooses the per-layer grids at compile
        time), or a :class:`~repro.runtime.ComputePolicy` instance.  The
        profile is applied to the emitted spiking network
        (:meth:`~repro.snn.SpikingNetwork.set_policy`) and recorded in the
        artifact metadata so served copies run the way they were exported.
        """

        _validate_precision(precision)
        self._config = replace(self._config, precision=precision)
        return self

    def latency(self, mode: str, timesteps: Optional[int] = None) -> "Converter":
        """Choose the conversion latency mode (and its timestep budget T).

        ``"standard"`` (default) keeps the historical pipeline: conversions
        are bit-identical to every previous release and accuracy improves
        monotonically with T.  ``"low"`` activates the ultra-low-latency
        passes — expected-error-minimizing threshold shift, λ/2 membrane
        initialization, and residual error compensation on the calibration
        batch — calibrated for ``timesteps`` simulation cycles (default
        8), so the converted network reaches its accuracy with ~4× fewer
        timesteps than an unshifted T=32 baseline::

            result = Converter(model).latency("low", timesteps=8).convert()
            result.snn.simulate(images, result.recommended_timesteps)

        The mode and budget are recorded in artifact metadata; serving
        re-applies them on load (``LoadedArtifact.latency``).
        """

        if mode not in LATENCY_MODES:
            valid = ", ".join(repr(m) for m in LATENCY_MODES)
            raise ConversionError(f"unknown latency mode {mode!r}; valid modes: {valid}")
        if timesteps is not None and int(timesteps) <= 0:
            raise ConversionError(f"timesteps must be positive, got {timesteps}")
        self._config = replace(
            self._config,
            latency_mode=mode,
            timesteps=None if timesteps is None else int(timesteps),
        )
        return self

    def encode(self, encoder: InputEncoder) -> "Converter":
        """Choose the input coding (default: real / constant-current)."""

        self._config = replace(self._config, encoder=encoder)
        return self

    def input_norm(self, value: float) -> "Converter":
        """Set λ of the network input (1.0 for natural-scale images)."""

        self._config = replace(self._config, input_norm_factor=float(value))
        return self

    def calibrate(self, images: np.ndarray, batch_size: Optional[int] = None) -> "Converter":
        """Provide calibration images (observer statistics + output scale)."""

        self._calibration_images = images
        if batch_size is not None:
            self._config = replace(self._config, calibration_batch_size=int(batch_size))
        return self

    def with_config(self, config: ConversionConfig) -> "Converter":
        """Replace the whole configuration at once."""

        self._config = config
        return self

    @property
    def config(self) -> ConversionConfig:
        return self._config

    # -- compilation ---------------------------------------------------------

    def dry_run(self) -> ConversionReport:
        """Trace and validate the model without converting it.

        Unlike :meth:`convert`, which aborts on the first problem, the dry
        run collects *all* topology diagnostics (max-pool sites, unpaired
        batch-norms, a missing classifier head, …) in one report, so a model
        can be fixed in a single round trip.

        The validation passes come from this converter's pipeline, so a
        custom pipeline with its own (sub-classed) validation is judged by
        the same rules :meth:`convert` will apply; a pipeline with no
        validation pass falls back to the stock :class:`ValidateTopology`.
        """

        config = self._config.validated()
        graph = trace(self._model, input_norm_factor=config.input_norm_factor)
        ctx = LoweringContext(
            strategy=config.resolve_strategy(),
            reset_mode=config.reset_mode,
            readout=config.readout,
        )
        validator = self._validators(fallback=True)
        validator.run(graph, ctx, strict=False)
        return _report_from_graph(graph, validator.names)

    def _validators(self, fallback: bool) -> PassPipeline:
        """The pipeline's validation passes (stock validation as fallback)."""

        validators = [p for p in self._pipeline.passes if isinstance(p, ValidateTopology)]
        if not validators and fallback:
            validators = [ValidateTopology()]
        return PassPipeline(validators)

    def convert(self) -> ConversionResult:
        """Run the full pass pipeline and package the spiking network."""

        config = self._config.validated()
        strategy = config.resolve_strategy()
        model = self._model
        model.eval()

        # Fail fast: run the pipeline's validation passes on a throwaway
        # trace before spending the calibration forward passes on a model
        # that cannot convert.  A custom pipeline that deliberately omits
        # validation skips this too.
        precheck = self._validators(fallback=False)
        if precheck.passes:
            precheck_ctx = LoweringContext(
                strategy=strategy, reset_mode=config.reset_mode, readout=config.readout
            )
            precheck.run(trace(model, input_norm_factor=config.input_norm_factor), precheck_ctx, strict=True)

        logits: Optional[np.ndarray] = None
        attached = False
        try:
            if strategy.requires_observers:
                if self._calibration_images is None:
                    raise ConversionError(
                        f"strategy {strategy.name!r} analyses activations and therefore needs calibration_images"
                    )
                attach_observers(model)
                attached = True
            if self._calibration_images is not None:
                logits = run_calibration(
                    model, self._calibration_images, batch_size=config.calibration_batch_size
                )

            graph = trace(model, input_norm_factor=config.input_norm_factor)
            ctx = LoweringContext(
                strategy=strategy,
                reset_mode=config.reset_mode,
                readout=config.readout,
                output_norm_factor=(
                    _output_norm_from_logits(logits) if config.readout == "spike_count" else 1.0
                ),
                precision=config.precision,
                latency_mode=config.latency_mode,
                timesteps=config.timesteps,
                calibration=self._calibration_images,
                encoder=config.encoder,
            )
            self._pipeline.run(graph, ctx, strict=True)
        finally:
            if attached:
                detach_observers(model)

        encoder = config.encoder if config.encoder is not None else RealCoding()
        # Construction happens under the *target* profile: building under a
        # different quantized active policy would transiently snap the
        # emitted float weights onto int8 grids, and the later switch to the
        # requested profile cannot undo that rounding.
        target = resolve_policy(config.precision)
        with using_policy(target):
            snn = SpikingNetwork(graph.emitted_layers(), encoder=encoder)
        # Conversion arithmetic ran under the active policy; the emitted
        # network switches to the requested inference profile (None inherits
        # the active policy, so the default stays bit-identical f64).
        snn.set_policy(target)
        return ConversionResult(
            snn=snn,
            strategy_name=strategy.name,
            norm_factors=graph.norm_factors,
            residual_factors=graph.residual_factors,
            output_norm_factor=graph.output_norm_factor,
            reset_mode=config.reset_mode,
            readout=config.readout,
            precision=snn.policy_spec,
            latency_mode=config.latency_mode,
            timesteps=config.timesteps,
            weight_scales=dict(graph.weight_scales),
            report=_report_from_graph(graph, self._pipeline.names),
        )


def convert_ann_to_snn(
    model: Sequential,
    strategy: Optional[NormFactorStrategy] = None,
    calibration_images: Optional[np.ndarray] = None,
    reset_mode: ResetMode = ResetMode.SUBTRACT,
    readout: str = "spike_count",
    encoder: Optional[InputEncoder] = None,
    input_norm_factor: float = 1.0,
    calibration_batch_size: int = 64,
) -> ConversionResult:
    """Convert a trained convertible ANN into a spiking network.

    .. deprecated:: 1.2
        This is the frozen legacy entry point, kept only so pre-compiler
        call sites keep working; it is a thin wrapper over the
        :class:`Converter` builder and produces bit-identical conversions
        (guarded by golden parity tests in ``tests/test_core_converter.py``).
        New code should use the builder: capabilities added since the
        pass-based compiler landed — ``dry_run()``, per-layer
        :class:`ConversionReport` provenance, custom pass pipelines, and
        precision / latency selection (``Converter.precision`` /
        ``Converter.latency``) — exist only there, and this wrapper will not grow parameters for them.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.Sequential` network built from the supported layer
        types (the model zoo's ConvNet4 / VGG / ResNet instances).
    strategy:
        Norm-factor strategy; defaults to :class:`TCLNormFactor` (the paper's
        method).
    calibration_images:
        Analog images used (a) to gather activation statistics when the
        strategy requires observation and (b) to scale the output layer for
        the spike-count readout.  Mandatory for max / percentile strategies.
    reset_mode:
        IF reset rule (paper default: reset-by-subtraction).
    readout:
        ``"spike_count"`` (paper) or ``"membrane"``.
    encoder:
        Input coding; defaults to the paper's real (constant-current) coding.
    input_norm_factor:
        λ of the network input (1.0 when images are fed in their natural
        scale, as the paper does).
    """

    converter = (
        Converter(model)
        .strategy(strategy if strategy is not None else TCLNormFactor())
        .reset(reset_mode)
        .readout(readout)
        .input_norm(input_norm_factor)
    )
    if encoder is not None:
        converter.encode(encoder)
    if calibration_images is not None:
        converter.calibrate(calibration_images, batch_size=calibration_batch_size)
    return converter.convert()
