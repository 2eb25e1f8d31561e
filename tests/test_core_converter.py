"""Tests of the pass-based conversion compiler and the fluent Converter API.

Covers the graph IR + pass pipeline (trace, validation diagnostics via
``dry_run``), the lowering registry (third-party layer types registered
without touching core), the fluent builder itself, and the golden parity
between the new compiler and the legacy ``convert_ann_to_snn`` entry point.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    ClippedReLU,
    ConversionConfig,
    ConversionError,
    Converter,
    LoweringRule,
    MaxNormFactor,
    convert_ann_to_snn,
    register_lowering,
    run_experiment,
    trace,
    unregister_lowering,
)
from repro.core.pipeline import ExperimentConfig
from repro.models import ConvNet4, resnet20, vgg11
from repro.nn import BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Sequential
from repro.nn.module import Module
from repro.snn import ResetMode, SpikingLayer, SpikingLinear, SpikingOutputLayer
from repro.training import TrainingConfig


def _linear_tcl_net(rng, lambdas=(1.5, 2.0)):
    return Sequential(
        Linear(6, 10, rng=rng),
        ClippedReLU(initial_lambda=lambdas[0]),
        Linear(10, 8, rng=rng),
        ClippedReLU(initial_lambda=lambdas[1]),
        Linear(8, 4, rng=rng),
    )


class TestFluentConverter:
    def test_chain_matches_direct_config(self, rng):
        net = _linear_tcl_net(rng)
        result = (
            Converter(net)
            .strategy("tcl")
            .reset(ResetMode.ZERO)
            .readout("membrane")
            .input_norm(1.0)
            .convert()
        )
        assert result.strategy_name == "tcl"
        assert result.reset_mode is ResetMode.ZERO
        assert result.readout == "membrane"
        assert result.snn.layers[0].neurons.reset_mode is ResetMode.ZERO

    def test_reset_accepts_string_values(self, rng):
        net = _linear_tcl_net(rng)
        result = Converter(net).reset("zero").convert()
        assert result.reset_mode is ResetMode.ZERO

    def test_strategy_registry_name_with_kwargs(self, rng):
        net = _linear_tcl_net(rng)
        images = rng.uniform(0, 1, (16, 6))
        result = Converter(net).strategy("percentile", percentile=95.0).calibrate(images).convert()
        assert result.strategy_name == "percentile-95"

    def test_with_config_replaces_everything(self, rng):
        net = _linear_tcl_net(rng)
        config = ConversionConfig(strategy="tcl", reset_mode=ResetMode.ZERO, readout="membrane")
        result = Converter(net).with_config(config).convert()
        assert result.reset_mode is ResetMode.ZERO
        assert result.readout == "membrane"

    def test_observer_strategy_requires_calibration(self, rng):
        net = _linear_tcl_net(rng)
        with pytest.raises(ConversionError, match="calibration"):
            Converter(net).strategy(MaxNormFactor()).convert()

    def test_report_carries_pass_provenance_and_lambda_lineage(self, rng):
        net = _linear_tcl_net(rng, lambdas=(1.5, 2.5))
        result = Converter(net).convert()
        report = result.report
        assert report is not None and report.ok
        assert "assign-norm-factors" in result.report.pass_names
        first = report.layers[0]
        assert first.source == "Linear"
        assert first.lambda_in == pytest.approx(1.0)
        assert first.lambda_out == pytest.approx(1.5)
        assert first.emitted == ["SpikingLinear"]
        assert any(entry.startswith("trace") for entry in first.passes)
        assert any(entry.startswith("emit-spiking") for entry in first.passes)
        head = report.layers[-1]
        assert head.site_name == "output"
        assert head.emitted == ["SpikingOutputLayer"]
        assert report.summary()  # renders without blowing up

    def test_export_metadata_includes_reset_mode_and_readout(self, rng):
        net = _linear_tcl_net(rng)
        result = Converter(net).reset(ResetMode.ZERO).readout("membrane").convert()
        metadata = result.export_metadata()
        assert metadata["reset_mode"] == "zero"
        assert metadata["readout"] == "membrane"
        # Execution options no longer exist, so nothing records them.
        assert "backend" not in metadata and "scheduler" not in metadata

    def test_saved_artifact_reconstructs_conversion_settings(self, rng, tmp_path):
        from repro.serve import load_artifact

        net = _linear_tcl_net(rng)
        result = Converter(net).reset("zero").readout("membrane").convert()
        loaded = load_artifact(result.save(tmp_path / "bundle"))
        assert loaded.strategy_name == "tcl"
        assert loaded.reset_mode == "zero"
        assert loaded.readout == "membrane"


class TestReadoutValidation:
    def test_builder_rejects_unknown_readout(self, rng):
        net = _linear_tcl_net(rng)
        with pytest.raises(ConversionError, match="readout"):
            Converter(net).readout("votes")

    def test_legacy_wrapper_rejects_unknown_readout(self, rng):
        net = _linear_tcl_net(rng)
        with pytest.raises(ConversionError, match="readout"):
            convert_ann_to_snn(net, readout="votes")

    def test_config_validated_rejects_unknown_readout(self):
        with pytest.raises(ConversionError, match="readout"):
            ConversionConfig(readout="votes").validated()

    def test_unknown_reset_mode_rejected(self, rng):
        net = _linear_tcl_net(rng)
        with pytest.raises(ConversionError, match="reset mode"):
            Converter(net).reset("bounce")

    def test_unknown_strategy_name_rejected_at_boundary(self, rng):
        net = _linear_tcl_net(rng)
        with pytest.raises(ConversionError, match="strategy"):
            Converter(net).strategy("tlc")
        with pytest.raises(ConversionError, match="strategy"):
            ConversionConfig(strategy="bogus").validated()
        with pytest.raises(ConversionError, match="strategy"):
            Converter(net, ConversionConfig(strategy="bogus")).dry_run()


class TestDryRunDiagnostics:
    def test_all_topology_errors_reported_in_one_list(self, rng):
        """One dry run surfaces every problem: max-pool, BN without a conv,
        a conv without a following activation, and a missing linear head."""

        net = Sequential(
            BatchNorm2d(3),                      # BN with no preceding synapse
            Conv2d(3, 4, 3, padding=1, rng=rng),  # conv never closed by an activation
            MaxPool2d(2),                         # unconvertible pooling
            Flatten(),                            # ends without a Linear head
        )
        report = Converter(net).dry_run()
        assert not report.ok
        messages = "\n".join(report.messages())
        assert "batch-norm without a preceding" in messages
        assert "max-pool" in messages
        assert "without a following activation" in messages
        assert "classifier head" in messages
        assert len(report.diagnostics) == 4

    def test_dry_run_is_clean_for_convertible_model(self, rng):
        model = ConvNet4(image_size=12, channels=(4, 4, 8, 8), hidden_features=16, rng=rng)
        report = Converter(model).dry_run()
        assert report.ok
        assert report.messages() == []

    def test_dry_run_does_not_convert_or_mutate(self, rng):
        net = _linear_tcl_net(rng)
        before = net[0].weight.data.copy()
        report = Converter(net).dry_run()
        assert report.ok
        assert all(layer.emitted == [] for layer in report.layers)
        assert np.array_equal(net[0].weight.data, before)

    def test_plain_relu_residual_block_diagnosed(self, rng):
        """A BasicBlock built without TCL activations is a topology error the
        dry run reports (and convert rejects with ConversionError, not a raw
        TypeError from deep inside the residual lowering)."""

        from repro.nn import GlobalAvgPool2d
        from repro.nn.residual import BasicBlock

        net = Sequential(
            BasicBlock(3, 3, batch_norm=False, rng=rng),  # default plain-ReLU factory
            GlobalAvgPool2d(),
            Flatten(),
            Linear(3, 2, rng=rng),
        )
        report = Converter(net).dry_run()
        assert any("ClippedReLU" in message for message in report.messages())
        with pytest.raises(ConversionError, match="ClippedReLU"):
            Converter(net).convert()

    def test_strict_convert_raises_first_diagnostic(self, rng):
        net = Sequential(
            Linear(4, 4, rng=rng),
            ClippedReLU(),
            MaxPool2d(2),
            Linear(4, 2, rng=rng),
        )
        with pytest.raises(ConversionError, match="max-pool"):
            Converter(net).convert()


class TestCustomPipelines:
    def test_pipeline_without_validation_still_converts(self, rng):
        """Structural linking happens at trace time, so a custom pipeline
        that omits ValidateTopology converts a valid model correctly."""

        from repro.core import PassPipeline, default_passes

        net = _linear_tcl_net(rng)
        pipeline = PassPipeline(default_passes()[1:])  # no ValidateTopology
        result = Converter(net, pipeline=pipeline).convert()
        reference = Converter(net).convert()
        assert result.norm_factors == reference.norm_factors
        assert [type(layer) for layer in result.snn.layers] == [
            type(layer) for layer in reference.snn.layers
        ]

    def test_pipeline_without_validation_keeps_rejection_guidance(self, rng):
        from repro.core import PassPipeline, default_passes

        net = Sequential(
            Linear(4, 4, rng=rng),
            ClippedReLU(),
            MaxPool2d(2),
            Linear(4, 2, rng=rng),
        )
        pipeline = PassPipeline(default_passes()[1:])  # no ValidateTopology
        with pytest.raises(ConversionError, match="max-pool"):
            Converter(net, pipeline=pipeline).convert()

    def test_lenient_full_pipeline_reports_instead_of_crashing(self, rng):
        from repro.core import LoweringContext, PassPipeline, TCLNormFactor, default_passes

        graph = trace(Sequential(ClippedReLU(initial_lambda=1.0), Linear(4, 2, rng=rng)))
        ctx = LoweringContext(strategy=TCLNormFactor())
        PassPipeline(default_passes()).run(graph, ctx, strict=False)
        assert graph.diagnostics


class TestGraphIR:
    def test_trace_assigns_ops_and_provenance(self, rng):
        net = _linear_tcl_net(rng)
        graph = trace(net)
        assert [node.op for node in graph.nodes] == [
            "synapse", "activation", "synapse", "activation", "synapse",
        ]
        assert all(node.provenance for node in graph.nodes)

    def test_trace_rejects_non_sequential(self, rng):
        with pytest.raises(ConversionError, match="Sequential"):
            trace(Linear(3, 3, rng=rng))


class _Doubling(Module):
    """A third-party layer the core modules know nothing about."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs + inputs


class _SpikingDoubling(SpikingLayer):
    name = "spiking_doubling_test"

    def step(self, inputs: np.ndarray) -> np.ndarray:
        return np.concatenate([inputs, inputs], axis=-1)


class TestCustomLowering:
    def test_unregistered_type_is_reported(self, rng):
        net = Sequential(
            Linear(6, 6, rng=rng),
            ClippedReLU(initial_lambda=1.5),
            _Doubling(),
            Linear(12, 3, rng=rng),
        )
        report = Converter(net).dry_run()
        assert any("unsupported layer type _Doubling" in message for message in report.messages())

    def test_register_lowering_makes_type_convertible(self, rng):
        """A third-party layer becomes convertible via @register_lowering
        alone — no core module is touched."""

        net = Sequential(
            Linear(6, 6, rng=rng),
            ClippedReLU(initial_lambda=1.5),
            _Doubling(),
            Linear(12, 3, rng=rng),
        )

        @register_lowering(_Doubling)
        class _DoublingLowering(LoweringRule):
            op = "transparent"

            def emit(self, node, ctx):
                return [_SpikingDoubling()]

        try:
            report = Converter(net).dry_run()
            assert report.ok
            result = Converter(net).strategy("tcl").convert()
            kinds = [type(layer).__name__ for layer in result.snn.layers]
            assert kinds == ["SpikingLinear", "_SpikingDoubling", "SpikingOutputLayer"]
            scores = result.snn.simulate(rng.uniform(0, 1, (4, 6)), timesteps=20)
            assert scores.scores[20].shape == (4, 3)
        finally:
            unregister_lowering(_Doubling)
        assert any(
            "unsupported layer type _Doubling" in message
            for message in Converter(net).dry_run().messages()
        )

    def test_custom_block_rule_supplies_its_own_norm_factors(self, rng):
        """An op='block' rule plugs into AssignNormFactors via site_factors."""

        from repro.core import ResidualNormFactors

        class _PassBlock(Module):
            """A stand-in third-party block (structure irrelevant here)."""

        class _SpikingPass(SpikingLayer):
            name = "spiking_pass_test"

            def step(self, inputs):
                return inputs

        @register_lowering(_PassBlock)
        class _PassBlockLowering(LoweringRule):
            op = "block"

            def site_factors(self, node, lambda_pre, ctx, site_prefix):
                return ResidualNormFactors(lambda_pre=lambda_pre, lambda_c1=1.0, lambda_out=lambda_pre)

            def emit(self, node, ctx):
                return [_SpikingPass()]

        net = Sequential(
            Linear(6, 6, rng=rng),
            ClippedReLU(initial_lambda=1.5),
            _PassBlock(),
            Linear(6, 3, rng=rng),
        )
        try:
            result = Converter(net).convert()
            assert result.norm_factors["block2.out"] == pytest.approx(1.5)
            assert any(type(layer).__name__ == "_SpikingPass" for layer in result.snn.layers)
            assert result.residual_factors[0].lambda_pre == pytest.approx(1.5)
        finally:
            unregister_lowering(_PassBlock)

    def test_overriding_builtin_rule_is_reversible(self, rng):
        """Registering over a built-in type shadows it; unregistering
        restores the built-in instead of leaving the type unconvertible."""

        from repro.nn import AvgPool2d
        from repro.core import lowering_for

        builtin_rule = lowering_for(AvgPool2d)

        @register_lowering(AvgPool2d)
        class _Override(LoweringRule):
            op = "transparent"

            def emit(self, node, ctx):
                return [_SpikingDoubling()]

        try:
            assert lowering_for(AvgPool2d) is not builtin_rule
        finally:
            unregister_lowering(AvgPool2d)
        assert lowering_for(AvgPool2d) is builtin_rule

    def test_topology_validated_before_calibration(self, rng):
        """convert() rejects a bad topology before spending the calibration
        forward passes (wrong-shaped images would crash if they ran)."""

        net = Sequential(
            Linear(4, 4, rng=rng),
            ClippedReLU(),
            MaxPool2d(2),
            Linear(4, 2, rng=rng),
        )
        bad_shape_images = rng.uniform(0, 1, (8, 999))
        with pytest.raises(ConversionError, match="max-pool"):
            Converter(net).strategy(MaxNormFactor()).calibrate(bad_shape_images).convert()

    def test_subclasses_inherit_parent_rule(self, rng):
        class _NarrowLinear(Linear):
            pass

        net = Sequential(
            _NarrowLinear(6, 6, rng=rng),
            ClippedReLU(initial_lambda=1.5),
            Linear(6, 3, rng=rng),
        )
        result = Converter(net).convert()
        assert isinstance(result.snn.layers[0], SpikingLinear)
        assert isinstance(result.snn.layers[-1], SpikingOutputLayer)


def _layer_arrays(layer):
    """All array-valued state of one spiking layer (for bit-parity checks)."""

    return {
        key: value
        for key, value in layer.state_dict().items()
        if isinstance(value, np.ndarray)
    }


def _assert_bit_identical(result_a, result_b):
    assert result_a.strategy_name == result_b.strategy_name
    assert result_a.norm_factors == result_b.norm_factors
    assert result_a.output_norm_factor == result_b.output_norm_factor
    assert len(result_a.residual_factors) == len(result_b.residual_factors)
    for factors_a, factors_b in zip(result_a.residual_factors, result_b.residual_factors):
        assert factors_a == factors_b
    assert len(result_a.snn.layers) == len(result_b.snn.layers)
    for layer_a, layer_b in zip(result_a.snn.layers, result_b.snn.layers):
        assert type(layer_a) is type(layer_b)
        arrays_a, arrays_b = _layer_arrays(layer_a), _layer_arrays(layer_b)
        assert arrays_a.keys() == arrays_b.keys()
        for key in arrays_a:
            assert np.array_equal(arrays_a[key], arrays_b[key]), key


class TestGoldenParity:
    """Converter and the legacy entry point produce bit-identical conversions."""

    def test_convnet4_parity(self, rng):
        model = ConvNet4(image_size=12, channels=(4, 4, 8, 8), hidden_features=16, rng=rng)
        images = rng.uniform(0, 1, (8, 3, 12, 12))
        new = Converter(model).strategy("tcl").calibrate(images).convert()
        legacy = convert_ann_to_snn(model, calibration_images=images)
        _assert_bit_identical(new, legacy)

        test_images = rng.uniform(0, 1, (6, 3, 12, 12))
        labels = rng.integers(0, 4, 6)
        curve_new = new.snn.simulate(test_images, timesteps=30, checkpoints=[10, 30]).accuracy_curve(labels)
        curve_legacy = legacy.snn.simulate(test_images, timesteps=30, checkpoints=[10, 30]).accuracy_curve(labels)
        assert curve_new == curve_legacy

    def test_vgg_parity(self, rng):
        model = vgg11(num_classes=4, image_size=16, width_multiplier=0.125, classifier_width=32, rng=rng)
        images = rng.uniform(0, 1, (4, 3, 16, 16))
        new = Converter(model).strategy("tcl").calibrate(images).convert()
        legacy = convert_ann_to_snn(model, calibration_images=images)
        _assert_bit_identical(new, legacy)

    def test_resnet_parity(self, rng):
        model = resnet20(num_classes=4, image_size=12, width_multiplier=0.25, rng=rng)
        images = rng.uniform(0, 1, (4, 3, 12, 12))
        new = Converter(model).strategy("tcl").calibrate(images).convert()
        legacy = convert_ann_to_snn(model, calibration_images=images)
        _assert_bit_identical(new, legacy)

    def test_observer_strategy_parity(self, rng):
        model = _linear_tcl_net(rng)
        images = rng.uniform(0, 1, (16, 6))
        new = Converter(model).strategy(MaxNormFactor()).calibrate(images).convert()
        legacy = convert_ann_to_snn(model, MaxNormFactor(), calibration_images=images)
        _assert_bit_identical(new, legacy)


# Fingerprints captured by running the ORIGINAL monolithic `_ConversionWalk`
# converter (pre-compiler, commit e1db710) on seeded fixtures: sha256 digests
# (first 16 hex chars) of every emitted layer array plus the full-precision
# norm-factor table.  They anchor the parity guarantee to the deleted legacy
# implementation itself, so the Converter-vs-wrapper tests above cannot drift
# together unnoticed.
_LEGACY_GOLDENS = json.loads('{"convnet4":{"layers":[{"bias":"66687aadf862bd77","kind":"SpikingConv2d","weight":"697bb6fa8d6da414"},{"bias":"66687aadf862bd77","kind":"SpikingConv2d","weight":"b542af464b3a8350"},{"kind":"SpikingAvgPool2d"},{"bias":"f5a5fd42d16a2030","kind":"SpikingConv2d","weight":"f26be81e44f32d9c"},{"bias":"f5a5fd42d16a2030","kind":"SpikingConv2d","weight":"c35aeb2fb08e7c9d"},{"kind":"SpikingAvgPool2d"},{"kind":"SpikingFlatten"},{"bias":"38723a2e5e8a17aa","kind":"SpikingLinear","weight":"2f532d50aae89db7"},{"bias":"5b6fb58e61fa4759","kind":"SpikingOutputLayer","weight":"9be0dca96677b82b"}],"norm_factors":{"input":"1.0","output":"1.0","site1":"2.0","site2":"2.0","site3":"2.0","site4":"2.0","site5":"2.0"},"output_norm_factor":"1.0"},"resnet20":{"layers":[{"bias":"f5a5fd42d16a2030","kind":"SpikingConv2d","weight":"3e23ed0719bdbf27"},{"kind":"SpikingResidualBlock","ns_bias":"f5a5fd42d16a2030","ns_weight":"0ae4587e84657040","os_bias":"f5a5fd42d16a2030","osi_weight":"912b8f2f0b10b7b2","osn_weight":"7eaf811b00d01450"},{"kind":"SpikingResidualBlock","ns_bias":"f5a5fd42d16a2030","ns_weight":"26396f99e142180d","os_bias":"f5a5fd42d16a2030","osi_weight":"912b8f2f0b10b7b2","osn_weight":"4c6ff2df918342e7"},{"kind":"SpikingResidualBlock","ns_bias":"f5a5fd42d16a2030","ns_weight":"d217082cb97e1938","os_bias":"f5a5fd42d16a2030","osi_weight":"912b8f2f0b10b7b2","osn_weight":"dfef478f622d4eba"},{"kind":"SpikingResidualBlock","ns_bias":"f5a5fd42d16a2030","ns_weight":"49ace888dd41b2ce","os_bias":"f5a5fd42d16a2030","osi_weight":"1cfbfa8bce55d847","osn_weight":"4335668065925a0b"},{"kind":"SpikingResidualBlock","ns_bias":"f5a5fd42d16a2030","ns_weight":"22fa7783fa896e49","os_bias":"f5a5fd42d16a2030","osi_weight":"912b8f2f0b10b7b2","osn_weight":"e44aeee830247417"},{"kind":"SpikingResidualBlock","ns_bias":"f5a5fd42d16a2030","ns_weight":"4c341315dce063f5","os_bias":"f5a5fd42d16a2030","osi_weight":"912b8f2f0b10b7b2","osn_weight":"3e89b5b8db254c67"},{"kind":"SpikingResidualBlock","ns_bias":"38723a2e5e8a17aa","ns_weight":"f92faf72e8b3e2e1","os_bias":"38723a2e5e8a17aa","osi_weight":"c2a37accde59a935","osn_weight":"df349d4e9f8cc734"},{"kind":"SpikingResidualBlock","ns_bias":"38723a2e5e8a17aa","ns_weight":"ae2a65cb139d568e","os_bias":"38723a2e5e8a17aa","osi_weight":"286a39757f600aad","osn_weight":"ceecce9c66c561b5"},{"kind":"SpikingResidualBlock","ns_bias":"38723a2e5e8a17aa","ns_weight":"42f502ba3470ca76","os_bias":"38723a2e5e8a17aa","osi_weight":"286a39757f600aad","osn_weight":"afc24426353174c7"},{"kind":"SpikingGlobalAvgPool2d"},{"bias":"66687aadf862bd77","kind":"SpikingOutputLayer","weight":"6e7a7a43921640ab"}],"norm_factors":{"block10.c1":"2.0","block10.out":"2.0","block2.c1":"2.0","block2.out":"2.0","block3.c1":"2.0","block3.out":"2.0","block4.c1":"2.0","block4.out":"2.0","block5.c1":"2.0","block5.out":"2.0","block6.c1":"2.0","block6.out":"2.0","block7.c1":"2.0","block7.out":"2.0","block8.c1":"2.0","block8.out":"2.0","block9.c1":"2.0","block9.out":"2.0","input":"1.0","output":"2.2719248214080556","site1":"2.0"},"output_norm_factor":"2.2719248214080556"}}')


def _fingerprint(result):
    def digest(arr):
        data = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
        return hashlib.sha256(data).hexdigest()[:16]

    layers = []
    for layer in result.snn.layers:
        entry = {"kind": type(layer).__name__}
        for key, value in layer.state_dict().items():
            if isinstance(value, np.ndarray):
                entry[key] = digest(value)
        layers.append(entry)
    return {
        "norm_factors": {k: repr(float(v)) for k, v in result.norm_factors.items()},
        "output_norm_factor": repr(float(result.output_norm_factor)),
        "layers": layers,
    }


class TestLegacyGoldenFingerprints:
    """The compiler reproduces the deleted `_ConversionWalk` bit for bit."""

    def test_convnet4_matches_legacy_fingerprint(self):
        rng = np.random.default_rng(20260730)
        model = ConvNet4(image_size=12, channels=(4, 4, 8, 8), hidden_features=16, rng=rng)
        images = rng.uniform(0.0, 1.0, (8, 3, 12, 12))
        result = Converter(model).strategy("tcl").calibrate(images).convert()
        assert _fingerprint(result) == _LEGACY_GOLDENS["convnet4"]

    def test_resnet20_matches_legacy_fingerprint(self):
        rng = np.random.default_rng(20260731)
        model = resnet20(num_classes=4, image_size=12, width_multiplier=0.25, rng=rng)
        images = rng.uniform(0.0, 1.0, (4, 3, 12, 12))
        result = Converter(model).strategy("tcl").calibrate(images).convert()
        assert _fingerprint(result) == _LEGACY_GOLDENS["resnet20"]


def _skiptwin_config() -> ExperimentConfig:
    return ExperimentConfig(
        model="convnet4",
        dataset="cifar",
        model_kwargs={"channels": (4, 4, 8, 8), "hidden_features": 16},
        training=TrainingConfig(epochs=1, learning_rate=0.05),
        strategies=("tcl",),
        timesteps=10,
        checkpoints=(10,),
        train_per_class=4,
        test_per_class=2,
        num_classes=3,
        image_size=12,
        seed=5,
    )


class TestPipelineTwinControl:
    def test_explicit_false_skips_plain_twin(self):
        result = run_experiment(_skiptwin_config(), train_original_baseline=False)
        assert result.original_ann_accuracy is None
        assert [outcome.source_model for outcome in result.outcomes] == ["tcl"]

    def test_explicit_false_with_observer_strategy_raises(self):
        from dataclasses import replace

        config = replace(_skiptwin_config(), strategies=("tcl", "max"))
        with pytest.raises(ConversionError, match="train_original_baseline"):
            run_experiment(config, train_original_baseline=False)
