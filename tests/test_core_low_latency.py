"""Unit + property tests for the ultra-low-latency conversion mode.

The low-latency mode (``Converter(...).latency("low", timesteps=T)``) adds
three passes to the conversion compiler — the expected-error-minimizing
threshold shift ``2T/(2T+1)``, λ/2 membrane initialization, and calibration
-measured error compensation.  These tests pin the pieces individually:

* the shift-factor arithmetic and its validation boundary,
* the fluent/config API surface (mode validation, T normalization,
  ``recommended_timesteps``, conditional export metadata),
* pass behaviour — shifted λ lineage, v_init on every pool, standard-mode
  conversions bit-identical to a pipeline without the latency passes,
* the quantized invariant: ``infer8`` thresholds stay whole quantization
  levels after the shift (property over T),
* artifact round-trips: latency metadata, v_init on pooling layers, and
  ``AdaptiveConfig.for_artifact`` serving defaults.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DEFAULT_LOW_LATENCY_TIMESTEPS,
    ClippedReLU,
    ConversionConfig,
    ConversionError,
    Converter,
    ErrorCompensation,
    InitMembrane,
    PassPipeline,
    ShiftThresholds,
    default_passes,
    shift_factor,
)
from repro.models import ConvNet4
from repro.nn import Linear, Sequential
from repro.serve import AdaptiveConfig, load_artifact
from repro.serve.serialize import MANIFEST_FILE

# Every example converts (and some simulate) a real network; keep counts low.
COMMON_SETTINGS = settings(max_examples=8, deadline=None)

LATENCY_PASS_TYPES = (ShiftThresholds, InitMembrane, ErrorCompensation)


def _linear_tcl_net(rng, lambdas=(1.5, 2.0)):
    return Sequential(
        Linear(6, 10, rng=rng),
        ClippedReLU(initial_lambda=lambdas[0]),
        Linear(10, 8, rng=rng),
        ClippedReLU(initial_lambda=lambdas[1]),
        Linear(8, 4, rng=rng),
    )


def _tiny_convnet():
    """An untrained ConvNet-4 — exercises conv, avg-pool, and linear layers
    (the pooling layers matter: their v_init must survive serialization)."""

    return ConvNet4(
        channels=(4, 4, 8, 8), hidden_features=16, image_size=12, num_classes=4, batch_norm=False
    )


class TestShiftFactor:
    def test_matches_closed_form(self):
        for t in (1, 2, 8, 32, 1000):
            assert shift_factor(t) == pytest.approx(2 * t / (2 * t + 1))

    def test_monotone_toward_one(self):
        factors = [shift_factor(t) for t in (1, 2, 4, 8, 16, 32)]
        assert factors == sorted(factors)
        assert all(0 < f < 1 for f in factors)

    def test_rejects_non_positive_budgets(self):
        for t in (0, -1):
            with pytest.raises(ConversionError):
                shift_factor(t)


class TestLatencyAPI:
    def test_low_mode_defaults_to_eight_timesteps(self, rng):
        result = Converter(_linear_tcl_net(rng)).latency("low").convert()
        assert result.latency_mode == "low"
        assert result.recommended_timesteps == DEFAULT_LOW_LATENCY_TIMESTEPS

    def test_explicit_budget_is_recorded(self, rng):
        result = Converter(_linear_tcl_net(rng)).latency("low", timesteps=4).convert()
        assert result.timesteps == 4
        assert result.recommended_timesteps == 4

    def test_standard_mode_recommends_nothing(self, rng):
        result = Converter(_linear_tcl_net(rng)).convert()
        assert result.latency_mode == "standard"
        assert result.recommended_timesteps is None

    def test_unknown_mode_rejected_at_boundary(self, rng):
        with pytest.raises(ConversionError, match="latency"):
            Converter(_linear_tcl_net(rng)).latency("warp")

    def test_non_positive_budget_rejected(self, rng):
        for bad in (0, -8):
            with pytest.raises(ConversionError):
                Converter(_linear_tcl_net(rng)).latency("low", timesteps=bad)

    def test_config_validated_normalizes_low_mode_budget(self):
        config = ConversionConfig(latency_mode="low").validated()
        assert config.timesteps == DEFAULT_LOW_LATENCY_TIMESTEPS
        with pytest.raises(ConversionError):
            ConversionConfig(latency_mode="warp").validated()

    def test_export_metadata_keys_are_conditional(self, rng):
        standard = Converter(_linear_tcl_net(rng)).convert().export_metadata()
        assert "latency_mode" not in standard and "timesteps" not in standard
        low = Converter(_linear_tcl_net(rng)).latency("low", timesteps=4).convert()
        metadata = low.export_metadata()
        assert metadata["latency_mode"] == "low"
        assert metadata["timesteps"] == 4


class TestPassBehaviour:
    def test_shift_scales_the_lambda_lineage(self):
        lambdas = (1.5, 2.0)
        standard = (
            Converter(_linear_tcl_net(np.random.default_rng(0), lambdas)).strategy("tcl").convert()
        )
        low = (
            Converter(_linear_tcl_net(np.random.default_rng(0), lambdas))
            .strategy("tcl")
            .latency("low", timesteps=8)
            .convert()
        )
        factor = shift_factor(8)
        # Activation-site λ shrink by the shift factor; the input/output norm
        # factors are not λ decisions and stay put.
        assert low.norm_factors["site1"] == pytest.approx(lambdas[0] * factor)
        assert low.norm_factors["site2"] == pytest.approx(lambdas[1] * factor)
        assert low.norm_factors["input"] == standard.norm_factors["input"]
        assert low.output_norm_factor == standard.output_norm_factor

    def test_shift_stamps_provenance(self, rng):
        low = Converter(_linear_tcl_net(rng)).latency("low").convert()
        stamped = [
            layer
            for layer in low.report.layers
            if any(entry.startswith("shift-thresholds") for entry in layer.passes)
        ]
        assert stamped, "low-latency conversions must stamp the shift on activation nodes"
        standard = Converter(_linear_tcl_net(rng)).convert()
        for layer in standard.report.layers:
            assert not any(entry.startswith("shift-thresholds") for entry in layer.passes)

    def test_init_membrane_lands_on_every_pool(self, rng):
        low = Converter(_linear_tcl_net(rng)).latency("low").convert()
        pools = [pool for layer in low.snn.layers for pool in layer.neuron_pools]
        assert pools and all(pool.v_init == 0.5 for pool in pools)
        standard = Converter(_linear_tcl_net(rng)).convert()
        for layer in standard.snn.layers:
            for pool in layer.neuron_pools:
                assert pool.v_init == 0.0

    def test_compensation_skipped_without_calibration(self, rng):
        # No calibration batch → the compensation pass is a no-op, not a crash.
        result = Converter(_linear_tcl_net(rng)).latency("low").convert()
        assert result.latency_mode == "low"

    def test_standard_mode_identical_without_latency_passes(self):
        """The three passes must be strict no-ops in standard mode: removing
        them from the pipeline yields a bit-identical network."""

        stripped = PassPipeline(
            [p for p in default_passes() if not isinstance(p, LATENCY_PASS_TYPES)]
        )
        net_default = Converter(_linear_tcl_net(np.random.default_rng(0))).convert().snn
        net_stripped = (
            Converter(_linear_tcl_net(np.random.default_rng(0)), pipeline=stripped).convert().snn
        )
        states_default = [layer.state_dict() for layer in net_default.layers]
        states_stripped = [layer.state_dict() for layer in net_stripped.layers]
        assert json.dumps(states_default, default=_jsonable, sort_keys=True) == json.dumps(
            states_stripped, default=_jsonable, sort_keys=True
        )


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")


class TestQuantizedInvariant:
    @COMMON_SETTINGS
    @given(timesteps=st.integers(min_value=1, max_value=16))
    def test_infer8_thresholds_stay_whole_levels(self, timesteps):
        """The shift multiplies λ *before* grid derivation, so quantized
        thresholds remain whole quantization levels — the shift must never
        strand a threshold between grid points."""

        rng = np.random.default_rng(timesteps)
        calibration = rng.uniform(0, 1, (16, 6))
        result = (
            Converter(_linear_tcl_net(rng))
            .strategy("tcl")
            .precision("infer8")
            .latency("low", timesteps=timesteps)
            .calibrate(calibration)
            .convert()
        )
        quantized = 0
        for layer in result.snn.layers:
            for pool in layer.neuron_pools:
                if pool.threshold_q is None:
                    continue
                quantized += 1
                assert pool.threshold_q == np.rint(pool.threshold_q)
                assert pool.threshold_q >= 1.0
        assert quantized, "infer8 conversion produced no quantized pools"


class TestArtifactRoundTrip:
    @pytest.fixture(scope="class")
    def low_bundle(self, tmp_path_factory):
        rng = np.random.default_rng(11)
        calibration = rng.uniform(0, 1, (16, 3, 12, 12))
        result = (
            Converter(_tiny_convnet())
            .strategy("tcl")
            .latency("low", timesteps=4)
            .calibrate(calibration)
            .convert()
        )
        path = result.save(tmp_path_factory.mktemp("artifacts") / "low")
        return result, path

    def test_latency_metadata_round_trips(self, low_bundle):
        result, path = low_bundle
        artifact = load_artifact(path)
        assert artifact.latency == "low"
        assert artifact.recommended_timesteps == 4

    def test_v_init_survives_on_every_pool(self, low_bundle):
        """Pooling layers serialize v_init too — a reloaded bundle must not
        silently lose the λ/2 start on its avg-pool neuron pools."""

        _, path = low_bundle
        artifact = load_artifact(path)
        pools = [pool for layer in artifact.network.layers for pool in layer.neuron_pools]
        assert pools and all(pool.v_init == 0.5 for pool in pools)

    def test_reloaded_network_scores_bit_identically(self, low_bundle):
        result, path = low_bundle
        artifact = load_artifact(path)
        rng = np.random.default_rng(13)
        images = rng.uniform(0, 1, (4, 3, 12, 12))
        original = result.snn.simulate(images, 4, collect_statistics=False).scores[4]
        reloaded = artifact.network.simulate(images, 4, collect_statistics=False).scores[4]
        np.testing.assert_array_equal(reloaded, original)

    def test_unknown_latency_mode_warns_and_degrades(self, low_bundle, tmp_path):
        import shutil

        _, path = low_bundle
        tampered = tmp_path / "tampered"
        shutil.copytree(path, tampered)
        manifest_path = tampered / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["metadata"]["latency_mode"] = "warp"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.warns(UserWarning, match="latency"):
            artifact = load_artifact(tampered)
        assert artifact.latency == "standard"

    def test_pre_latency_bundles_read_as_none(self, rng, tmp_path):
        result = Converter(_linear_tcl_net(rng)).convert()
        artifact = load_artifact(result.save(tmp_path / "standard"))
        assert artifact.latency is None
        assert artifact.recommended_timesteps is None


class TestServingDefaults:
    def test_for_artifact_caps_budgets_to_recommendation(self, rng, tmp_path):
        result = Converter(_linear_tcl_net(rng)).latency("low", timesteps=8).convert()
        artifact = load_artifact(result.save(tmp_path / "low"))
        config = AdaptiveConfig.for_artifact(artifact)
        assert config.max_timesteps == 8
        assert config.min_timesteps <= 8
        assert config.stability_window <= 8

    def test_explicit_overrides_win(self, rng, tmp_path):
        result = Converter(_linear_tcl_net(rng)).latency("low", timesteps=8).convert()
        artifact = load_artifact(result.save(tmp_path / "low"))
        config = AdaptiveConfig.for_artifact(artifact, max_timesteps=16)
        assert config.max_timesteps == 16

    def test_standard_artifacts_keep_serving_defaults(self, rng, tmp_path):
        result = Converter(_linear_tcl_net(rng)).convert()
        artifact = load_artifact(result.save(tmp_path / "standard"))
        config = AdaptiveConfig.for_artifact(artifact)
        assert config.max_timesteps == AdaptiveConfig.max_timesteps
