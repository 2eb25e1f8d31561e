"""Precision parity harness: train64 is bit-identical, infer32 is leak-free.

Three properties gate the compute-policy refactor:

1. **train64 is the historical behaviour** — a conversion under the default
   profile produces float64 everywhere and exactly the same scores as an
   explicit ``set_policy("train64")`` round trip (the golden fingerprint
   suite in ``tests/test_core_converter.py`` separately pins the absolute
   bit-pattern).
2. **infer32 predicts identically** — the float32 profile may move spike
   timings by ulps, but arg-max predictions on the trained ConvNet4 fixture
   must match the float64 simulation.
3. **no intermediate leaks** — one stray ``np.asarray(..., float64)``
   anywhere in a simulated timestep silently erases the win;
   :func:`repro.runtime.audit_network_dtypes` walks every seam (encoder
   output, layer outputs, pool state, kernel caches, scores) and must come
   back empty.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Converter
from repro.runtime import PROFILES, audit_network_dtypes, using_policy
from repro.serve import AdaptiveConfig, AdaptiveEngine
from repro.snn import SpikingLinear, SpikingNetwork, SpikingOutputLayer


@pytest.fixture(scope="module")
def converted_pair(trained_tcl_model, tiny_data):
    """The same trained ConvNet4 converted under both precision profiles.

    The float64 twin is converted under an explicit ``train64`` scope so the
    pair stays a genuine f64-vs-f32 comparison even when the whole process
    runs under ``REPRO_COMPUTE_PROFILE=infer32`` (the CI smoke job).
    """

    model, _ = trained_tcl_model
    _, _, test_images, _ = tiny_data
    with using_policy("train64"):
        test_images = np.asarray(test_images, dtype=np.float64)
        plain = Converter(model).strategy("tcl").calibrate(test_images).convert()
        fast = (
            Converter(model).strategy("tcl").precision("infer32").calibrate(test_images).convert()
        )
    return plain, fast, test_images


def _toy_network(rng) -> SpikingNetwork:
    return SpikingNetwork(
        [
            SpikingLinear(rng.uniform(-0.3, 0.5, (6, 10)), rng.uniform(-0.1, 0.1, 6)),
            SpikingOutputLayer(rng.uniform(-0.3, 0.5, (3, 6)), rng.uniform(-0.1, 0.1, 3)),
        ]
    )


class TestTrain64IsDefaultAndExact:
    def test_default_conversion_records_train64(self, converted_pair):
        plain, _, _ = converted_pair
        assert plain.precision == "train64"
        assert plain.snn.policy_spec == "train64"
        assert plain.export_metadata()["precision"] == "train64"

    def test_default_precision_inherits_active_policy(self, trained_tcl_model):
        model, _ = trained_tcl_model
        with using_policy("infer32"):
            result = Converter(model).strategy("tcl").convert()
        assert result.precision == "infer32"
        assert result.snn.policy_spec == "infer32"

    def test_default_profile_arrays_are_float64(self, converted_pair):
        plain, _, images = converted_pair
        violations = audit_network_dtypes(plain.snn, images[:2], policy=PROFILES["train64"])
        assert violations == []

    def test_explicit_train64_roundtrip_is_bit_identical(self, rng):
        with using_policy("train64"):
            reference = _toy_network(rng)
            images = rng.uniform(0, 1, (4, 10))
            baseline = reference.simulate(images, 30, checkpoints=[10])
            reference.set_policy("train64")  # explicit re-apply must be a no-op
            replay = reference.simulate(images, 30, checkpoints=[10])
        for t in (10, 30):
            assert np.array_equal(baseline.scores[t], replay.scores[t])


class TestInfer32Parity:
    def test_infer32_predictions_match_train64(self, converted_pair):
        plain, fast, images = converted_pair
        assert fast.precision == "infer32"
        reference = plain.snn.simulate(images, timesteps=60)
        result = fast.snn.simulate(images, timesteps=60)
        assert result.scores[60].dtype == np.float32
        assert np.array_equal(reference.predictions(), result.predictions())

    def test_infer32_weights_and_scores_are_float32(self, converted_pair):
        _, fast, _ = converted_pair
        for layer in fast.snn.layers:
            for attr in layer._array_attrs:
                value = getattr(layer, attr)
                if value is not None:
                    assert value.dtype == np.float32, f"{layer.name}.{attr}"

    def test_no_intermediate_escapes_float32(self, converted_pair):
        """The dtype-leak audit: every seam of a simulated step stays f32."""

        _, fast, images = converted_pair
        violations = audit_network_dtypes(fast.snn, images[:3], timesteps=4)
        assert violations == [], "\n".join(violations)

    def test_audit_flags_planted_leak(self, rng):
        """The harness itself must catch a float64 sneaking in."""

        network = _toy_network(rng)
        network.set_policy("infer32")
        network.layers[0].weight = network.layers[0].weight.astype(np.float64)
        violations = audit_network_dtypes(network, rng.uniform(0, 1, (2, 10)))
        assert any("layer0" in violation for violation in violations)

    def test_copy_free_step_when_dtype_matches(self, rng):
        """Satellite: the pool no longer copies matching input currents."""

        network = _toy_network(rng)
        network.set_policy("infer32")
        pool = network.layers[0].neurons
        current = rng.uniform(0, 1, (2, 6)).astype(np.float32)
        assert pool.policy.asarray(current) is current

    def test_zero_steady_state_buffer_allocations(self, rng):
        """After warmup, dense in-place simulation reuses every scratch slot."""

        network = _toy_network(rng)
        network.set_policy("infer32")
        images = rng.uniform(0, 1, (3, 10)).astype(np.float32)
        network.reset_state()
        network.encoder.reset(images)
        for t in range(1, 3):  # warmup allocates the scratch slots
            network.step(network.encoder.step(t))
        pools = [
            cache["workspace"]
            for layer in network.layers
            for cache in [layer.backend_cache]
            if "workspace" in cache
        ]
        assert pools, "in-place profile should have created workspaces"
        before = [pool.allocations for pool in pools]
        for t in range(3, 10):
            network.step(network.encoder.step(t))
        assert [pool.allocations for pool in pools] == before


@pytest.fixture(scope="module")
def quantized_conversion(trained_tcl_model, tiny_data):
    """The trained ConvNet4 converted under the int8 profile (train64 scope
    so the comparison stays meaningful under the CI smoke jobs)."""

    model, _ = trained_tcl_model
    _, _, test_images, _ = tiny_data
    with using_policy("train64"):
        test_images = np.asarray(test_images, dtype=np.float64)
        result = (
            Converter(model).strategy("tcl").precision("infer8").calibrate(test_images).convert()
        )
    return result, test_images


class TestInfer8Parity:
    def test_infer8_conversion_records_profile_and_scales(self, quantized_conversion):
        result, _ = quantized_conversion
        assert result.precision == "infer8"
        assert result.snn.policy_spec == "infer8"
        assert result.weight_scales
        assert result.export_metadata()["weight_scales"] == result.weight_scales

    def test_infer8_weights_sit_on_the_int8_grid(self, quantized_conversion):
        result, _ = quantized_conversion
        quantized_layers = 0
        for layer in result.snn.layers:
            for scale_attr, weight_attrs, bias_attrs, _ in layer._quant_groups:
                assert getattr(layer, scale_attr) is not None, layer.name
                for attr in weight_attrs:
                    assert getattr(layer, attr).dtype == np.int8, f"{layer.name}.{attr}"
                for attr in bias_attrs:
                    value = getattr(layer, attr)
                    if value is not None:
                        assert value.dtype == np.int32, f"{layer.name}.{attr}"
                quantized_layers += 1
        assert quantized_layers >= 5  # conv x4 + hidden + head on ConvNet4

    def test_infer8_top1_accuracy_matches_infer32(
        self, converted_pair, quantized_conversion, tiny_data
    ):
        """The headline gate: top-1 accuracy under int8 must stay within
        0.5% of infer32.  On the 32-image fixture accuracy moves in 3.125%
        steps, so the gate effectively demands *identical* accuracy — int8
        rounding may flip an already-misclassified sample between wrong
        classes, but must not lose a correct prediction."""

        _, fast, images = converted_pair
        quantized, _ = quantized_conversion
        _, _, _, test_labels = tiny_data
        reference = fast.snn.simulate(images, timesteps=60).predictions()
        result = quantized.snn.simulate(images, timesteps=60).predictions()
        acc32 = float((reference == test_labels).mean())
        acc8 = float((result == test_labels).mean())
        assert abs(acc32 - acc8) <= 0.005, f"infer32 {acc32:.4f} vs infer8 {acc8:.4f}"

    def test_infer8_repeat_runs_bit_identical_and_no_dtype_leaks(self, quantized_conversion):
        """Repeated int8 runs are bit-identical, and the dtype audit stays
        clean on every seam (int8 spikes, f32 integer-valued membranes)."""

        quantized, images = quantized_conversion
        reference = quantized.snn.simulate(images[:8], timesteps=40).scores[40]
        result = quantized.snn.simulate(images[:8], timesteps=40)
        assert np.array_equal(result.scores[40], reference)
        violations = audit_network_dtypes(quantized.snn, images[:3], timesteps=4)
        assert violations == [], "\n".join(violations)

    def test_integer_accumulate_keeps_membrane_on_the_grid(self, rng):
        """Binary spikes through int8 weights: the membrane of a downstream
        layer stays integer-valued (the contract the kernels rely on)."""

        network = _toy_network(rng)
        network.set_policy("infer8")
        images = rng.uniform(0, 1, (3, 10))
        network.reset_state()
        network.encoder.reset(images)
        for t in range(1, 6):
            spikes = network.step(network.encoder.step(t))
            assert spikes.dtype == np.int8
            membrane = network.layers[1].neurons.membrane  # spike-fed layer
            assert np.array_equal(membrane, np.rint(membrane))

    def test_infer8_to_train64_dequantizes(self, rng):
        # Pinned scope: the restored-weight assertions below need float64
        # originals (the infer8 smoke job would otherwise quantize the toy
        # network at construction).
        with using_policy("train64"):
            network = _toy_network(rng)
        original = network.layers[0].weight.copy()
        network.set_policy("infer8")
        scale = network.layers[0].weight_scale
        assert network.layers[0].weight.dtype == np.int8
        network.set_policy("train64")
        restored = network.layers[0].weight
        assert restored.dtype == np.float64
        assert network.layers[0].weight_scale is None
        assert np.max(np.abs(restored - original)) <= scale / 2 + 1e-12

    def test_engine_applies_infer8_override(self, rng):
        network = _toy_network(rng)
        engine = AdaptiveEngine(network, AdaptiveConfig(max_timesteps=20, precision="infer8"))
        outcome = engine.infer(rng.uniform(0, 1, (3, 10)))
        assert network.policy_spec == "infer8"
        assert network.layers[0].weight.dtype == np.int8
        assert outcome.scores.shape == (3, 3)


class TestPolicySwitching:
    def test_set_policy_casts_live_state(self, rng):
        network = _toy_network(rng)
        images = rng.uniform(0, 1, (2, 10))
        network.simulate(images, 5)
        # Run a few steps, then switch mid-life: membrane state must survive.
        network.reset_state()
        network.encoder.reset(images)
        network.step(network.encoder.step(1))
        membrane_before = network.layers[0].neurons.membrane.copy()
        network.set_policy("infer32")
        pool = network.layers[0].neurons
        assert pool.membrane.dtype == np.float32
        assert np.allclose(pool.membrane, membrane_before, atol=1e-6)

    def test_set_policy_drops_backend_caches(self, rng):
        network = _toy_network(rng)
        network.set_policy("infer32")  # in-place profile: the kernels keep a
        network.simulate(rng.uniform(0, 1, (2, 10)), 3)  # scratch workspace
        assert "workspace" in network.layers[0].backend_cache
        network.set_policy("train64")
        assert "workspace" not in network.layers[0].backend_cache

    def test_using_policy_scopes_construction(self, rng):
        with using_policy("infer32"):
            network = _toy_network(rng)
        assert network.policy_spec == "infer32"
        assert network.layers[0].weight.dtype == np.float64  # floats preserved
        assert network.layers[0].neurons.policy.name == "infer32"


class TestEnginePrecision:
    def test_engine_applies_precision_override(self, rng):
        network = _toy_network(rng)
        engine = AdaptiveEngine(network, AdaptiveConfig(max_timesteps=20, precision="infer32"))
        outcome = engine.infer(rng.uniform(0, 1, (3, 10)))
        assert network.policy_spec == "infer32"
        assert outcome.scores.dtype == np.float32

    def test_engine_skips_reapplying_active_policy(self, rng):
        network = _toy_network(rng)
        network.set_policy("infer32")
        network.simulate(rng.uniform(0, 1, (2, 10)).astype(np.float32), 3)
        cache = network.layers[0].backend_cache
        assert "workspace" in cache
        AdaptiveEngine(network, AdaptiveConfig(max_timesteps=10, precision="infer32"))
        # The hot-path guard must not have cleared the per-layer caches.
        assert network.layers[0].backend_cache["workspace"] is cache["workspace"]

    def test_config_rejects_unknown_precision(self):
        with pytest.raises(ValueError, match="compute-policy"):
            AdaptiveConfig(precision="float8")
