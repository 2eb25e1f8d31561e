"""Round-trip tests of the serving artifact store (`repro.serve.serialize`).

Every spiking layer type must survive ``state_dict → bundle → from_state``
with bit-identical simulation behaviour, because a served model that drifts
from its in-memory original would silently invalidate every accuracy number
reported from the offline sweeps.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core import convert_ann_to_snn
from repro.serve import ArtifactError, load_artifact, read_manifest, save_artifact
from repro.serve.serialize import (
    FLAT_ALIGN,
    FLAT_FILE,
    arrays_from_buffer,
    flat_block_bytes,
    flat_layout,
)
from repro.snn import (
    PoissonCoding,
    ResetMode,
    SpikingAvgPool2d,
    SpikingConv2d,
    SpikingFlatten,
    SpikingGlobalAvgPool2d,
    SpikingLinear,
    SpikingNetwork,
    SpikingOutputLayer,
    SpikingResidualBlock,
    layer_from_state,
)


def _toy_network(rng, readout: str = "spike_count", encoder=None) -> SpikingNetwork:
    """A small network exercising every spiking layer type at once.

    The trailing ``set_policy`` casts the float64 literal weights to the
    ambient profile's dtype (a no-op under ``train64``), so the fixture is
    policy-consistent even when the suite runs under
    ``REPRO_COMPUTE_PROFILE=infer32`` — a mixed-precision network would
    otherwise differ by an ulp from its round-tripped (profile-normalised)
    copy.
    """

    network = SpikingNetwork(
        [
            SpikingConv2d(
                rng.uniform(-0.2, 0.4, (4, 3, 3, 3)),
                rng.uniform(-0.1, 0.1, 4),
                stride=1,
                padding=1,
            ),
            SpikingAvgPool2d(2),
            SpikingResidualBlock(
                ns_weight=rng.uniform(-0.2, 0.4, (4, 4, 3, 3)),
                ns_bias=rng.uniform(-0.1, 0.1, 4),
                osn_weight=rng.uniform(-0.2, 0.4, (4, 4, 3, 3)),
                osi_weight=rng.uniform(-0.2, 0.4, (4, 4, 1, 1)),
                os_bias=rng.uniform(-0.1, 0.1, 4),
                block_type="B",
            ),
            SpikingGlobalAvgPool2d(),
            SpikingFlatten(),
            SpikingLinear(rng.uniform(-0.3, 0.5, (6, 4))),
            SpikingOutputLayer(rng.uniform(-0.3, 0.5, (3, 6)), rng.uniform(-0.1, 0.1, 3), readout=readout),
        ],
        encoder=encoder,
        name="toy",
    )
    return network.set_policy(network.policy)


class TestLayerStateRoundTrip:
    """state_dict → from_state keeps every layer's per-step behaviour."""

    def _assert_step_parity(self, layer, clone, inputs) -> None:
        layer.reset_state()
        clone.reset_state()
        for _ in range(5):
            assert np.array_equal(layer.step(inputs), clone.step(inputs))

    def test_conv2d(self, rng):
        layer = SpikingConv2d(
            rng.uniform(-0.3, 0.5, (5, 3, 3, 3)),
            rng.uniform(-0.1, 0.1, 5),
            stride=(2, 2),
            padding=1,
            threshold=0.8,
            reset_mode=ResetMode.ZERO,
        )
        clone = layer_from_state(layer.state_dict())
        assert isinstance(clone, SpikingConv2d)
        assert clone.neurons.threshold == pytest.approx(0.8)
        assert clone.neurons.reset_mode is ResetMode.ZERO
        self._assert_step_parity(layer, clone, rng.uniform(0, 1, (2, 3, 8, 8)))

    def test_conv2d_without_bias(self, rng):
        layer = SpikingConv2d(rng.uniform(-0.3, 0.5, (4, 3, 3, 3)), None, padding=1)
        clone = layer_from_state(layer.state_dict())
        assert clone.bias is None
        self._assert_step_parity(layer, clone, rng.uniform(0, 1, (2, 3, 6, 6)))

    def test_linear(self, rng):
        layer = SpikingLinear(rng.uniform(-0.3, 0.5, (6, 10)), rng.uniform(-0.1, 0.1, 6))
        clone = layer_from_state(layer.state_dict())
        self._assert_step_parity(layer, clone, rng.uniform(0, 1, (3, 10)))

    def test_avg_pool(self, rng):
        layer = SpikingAvgPool2d((2, 2), stride=(2, 2))
        clone = layer_from_state(layer.state_dict())
        assert clone.kernel_size == (2, 2)
        assert clone.stride == (2, 2)
        self._assert_step_parity(layer, clone, rng.uniform(0, 1, (2, 3, 8, 8)))

    def test_global_avg_pool(self, rng):
        layer = SpikingGlobalAvgPool2d(threshold=0.5)
        clone = layer_from_state(layer.state_dict())
        assert clone.neurons.threshold == pytest.approx(0.5)
        self._assert_step_parity(layer, clone, rng.uniform(0, 2, (2, 3, 4, 4)))

    def test_flatten(self, rng):
        clone = layer_from_state(SpikingFlatten().state_dict())
        inputs = rng.uniform(0, 1, (2, 3, 4, 4))
        assert clone.step(inputs).shape == (2, 48)

    def test_residual_block(self, rng):
        layer = SpikingResidualBlock(
            ns_weight=rng.uniform(-0.2, 0.4, (4, 4, 3, 3)),
            ns_bias=None,
            osn_weight=rng.uniform(-0.2, 0.4, (4, 4, 3, 3)),
            osi_weight=rng.uniform(-0.2, 0.4, (4, 4, 1, 1)),
            os_bias=rng.uniform(-0.1, 0.1, 4),
            ns_stride=(1, 1),
            block_type="B",
        )
        clone = layer_from_state(layer.state_dict())
        assert clone.block_type == "B"
        assert clone.ns_bias is None
        self._assert_step_parity(layer, clone, rng.uniform(0, 1, (2, 4, 6, 6)))

    def test_output_layer_both_readouts(self, rng):
        for readout in ("spike_count", "membrane"):
            layer = SpikingOutputLayer(rng.uniform(-0.3, 0.5, (3, 6)), rng.uniform(-0.1, 0.1, 3), readout=readout)
            clone = layer_from_state(layer.state_dict())
            assert clone.readout == readout
            inputs = rng.uniform(0, 1, (2, 6))
            layer.reset_state()
            clone.reset_state()
            for _ in range(5):
                layer.step(inputs)
                clone.step(inputs)
            assert np.array_equal(layer.scores(), clone.scores())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown spiking layer kind"):
            layer_from_state({"kind": "no_such_layer"})


class TestArtifactBundles:
    def test_bundle_roundtrip_is_bit_identical(self, rng, tmp_path):
        network = _toy_network(rng)
        images = rng.uniform(0, 1, (6, 3, 8, 8))
        reference = network.simulate(images, timesteps=25, checkpoints=[10])

        path = save_artifact(network, tmp_path / "toy", metadata={"note": "test"})
        loaded = load_artifact(path)
        assert loaded.network.name == "toy"
        # The network's compute-policy profile is recorded automatically.
        assert loaded.metadata == {"note": "test", "precision": network.policy_spec}

        replay = loaded.network.simulate(images, timesteps=25, checkpoints=[10])
        for t in (10, 25):
            assert np.array_equal(reference.scores[t], replay.scores[t])

    def test_membrane_readout_roundtrip(self, rng, tmp_path):
        network = _toy_network(rng, readout="membrane")
        images = rng.uniform(0, 1, (4, 3, 8, 8))
        reference = network.simulate(images, timesteps=15)
        loaded = load_artifact(save_artifact(network, tmp_path / "membrane"))
        replay = loaded.network.simulate(images, timesteps=15)
        assert np.array_equal(reference.scores[15], replay.scores[15])

    def test_poisson_encoder_roundtrip(self, rng, tmp_path):
        network = _toy_network(rng, encoder=PoissonCoding(gain=0.7, seed=11))
        loaded = load_artifact(save_artifact(network, tmp_path / "poisson"))
        encoder = loaded.network.encoder
        assert isinstance(encoder, PoissonCoding)
        assert encoder.gain == pytest.approx(0.7)
        assert encoder.seed == 11
        # Fresh generators with the same seed: spike trains replay identically.
        images = rng.uniform(0, 1, (3, 3, 8, 8))
        reference = network.simulate(images, timesteps=10)
        replay = loaded.network.simulate(images, timesteps=10)
        assert np.array_equal(reference.scores[10], replay.scores[10])

    def test_unseeded_poisson_encoder_roundtrip(self, rng, tmp_path):
        network = _toy_network(rng, encoder=PoissonCoding(gain=0.5, seed=None))
        loaded = load_artifact(save_artifact(network, tmp_path / "unseeded"))
        encoder = loaded.network.encoder
        assert isinstance(encoder, PoissonCoding)
        assert encoder.seed is None

    def test_overwriting_save_leaves_no_staging_dirs(self, rng, tmp_path):
        path = tmp_path / "bundle"
        save_artifact(_toy_network(rng), path)
        save_artifact(_toy_network(rng), path)
        assert load_artifact(path).network.name == "toy"
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "bundle"]
        assert leftovers == []

    def test_manifest_is_json_readable(self, rng, tmp_path):
        path = save_artifact(_toy_network(rng), tmp_path / "toy")
        with open(path / "manifest.json", "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        kinds = [entry["kind"] for entry in manifest["layers"]]
        assert kinds == [
            "spiking_conv2d",
            "spiking_avg_pool2d",
            "spiking_residual_block",
            "spiking_global_avg_pool2d",
            "spiking_flatten",
            "spiking_linear",
            "spiking_output",
        ]
        # Weights live in the npz, not the manifest.
        assert "weight" not in manifest["layers"][0]

    def test_missing_bundle_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="missing manifest.json"):
            load_artifact(tmp_path / "nowhere")

    def test_format_version_mismatch_raises(self, rng, tmp_path):
        path = save_artifact(_toy_network(rng), tmp_path / "toy")
        manifest = read_manifest(path)
        manifest["format_version"] = 999
        with open(path / "manifest.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="format_version"):
            load_artifact(path)


class TestPrecisionRoundTrip:
    """Artifact bundles must preserve array dtypes and re-apply the recorded
    compute-policy profile (unknown profiles degrade to train64 with a
    warning)."""

    def _weight_dtypes(self, network):
        return {
            f"{index}:{attr}": getattr(layer, attr).dtype
            for index, layer in enumerate(network.layers)
            for attr in layer._array_attrs
            if getattr(layer, attr) is not None
        }

    def test_infer32_bundle_preserves_dtypes_and_profile(self, rng, tmp_path):
        network = _toy_network(rng).set_policy("infer32")
        images = rng.uniform(0, 1, (4, 3, 8, 8)).astype(np.float32)
        reference = network.simulate(images, timesteps=20)

        # No explicit metadata: save_artifact records the live profile itself.
        path = save_artifact(network, tmp_path / "f32")
        loaded = load_artifact(path)
        assert loaded.precision == "infer32"
        assert loaded.network.policy_spec == "infer32"
        dtypes = self._weight_dtypes(loaded.network)
        assert dtypes and all(dtype == np.float32 for dtype in dtypes.values()), dtypes

        replay = loaded.network.simulate(images, timesteps=20)
        assert replay.scores[20].dtype == np.float32
        assert np.array_equal(reference.scores[20], replay.scores[20])

    def test_train64_bundle_preserves_dtypes_and_profile(self, rng, tmp_path):
        network = _toy_network(rng).set_policy("train64")
        path = save_artifact(network, tmp_path / "f64")
        loaded = load_artifact(path)
        assert loaded.precision == "train64"
        assert loaded.network.policy_spec == "train64"
        dtypes = self._weight_dtypes(loaded.network)
        assert dtypes and all(dtype == np.float64 for dtype in dtypes.values()), dtypes

    def test_unknown_recorded_profile_degrades_to_train64(self, rng, tmp_path):
        network = _toy_network(rng)
        path = save_artifact(network, tmp_path / "odd", metadata={"precision": "float8"})
        with pytest.warns(UserWarning, match="unknown compute-policy profile"):
            loaded = load_artifact(path)
        assert loaded.network.policy_spec == "train64"

    def test_bundle_without_profile_keeps_active_policy(self, rng, tmp_path):
        # Simulate a bundle written before compute policies existed by
        # stripping the auto-recorded key from the manifest.
        path = save_artifact(_toy_network(rng), tmp_path / "legacy")
        manifest = read_manifest(path)
        del manifest["metadata"]["precision"]
        with open(path / "manifest.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

        loaded = load_artifact(path)
        assert loaded.precision is None
        from repro.runtime import active_policy

        assert loaded.network.policy_spec == active_policy().name

    def test_conversion_save_records_precision(self, trained_tcl_model, tiny_data, tmp_path):
        model, _ = trained_tcl_model
        _, _, test_images, _ = tiny_data
        from repro.core import Converter

        conversion = (
            Converter(model).strategy("tcl").precision("infer32").calibrate(test_images).convert()
        )
        loaded = load_artifact(conversion.save(tmp_path / "fast"))
        assert loaded.metadata["precision"] == "infer32"
        assert loaded.network.policy_spec == "infer32"
        reference = conversion.snn.simulate(test_images, timesteps=30)
        replay = loaded.network.simulate(test_images, timesteps=30)
        assert np.array_equal(reference.scores[30], replay.scores[30])


class TestInfer8RoundTrip:
    """Quantized bundles: int8 payloads must survive the npz round trip
    bit-for-bit, the λ-derived scales must ride along in the manifest, and
    an int8 artifact must be dramatically smaller than its float64 twin."""

    @staticmethod
    def _bundle_bytes(path):
        return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())

    def test_infer8_bundle_preserves_int8_payloads_and_replay(self, rng, tmp_path):
        network = _toy_network(rng).set_policy("infer8")
        images = rng.uniform(0, 1, (4, 3, 8, 8))
        reference = network.simulate(images, timesteps=20)

        loaded = load_artifact(save_artifact(network, tmp_path / "q8"))
        assert loaded.precision == "infer8"
        assert loaded.network.policy_spec == "infer8"
        for original, clone in zip(network.layers, loaded.network.layers):
            assert clone.quantization_scales() == original.quantization_scales()
            for _, weight_attrs, bias_attrs, _ in clone._quant_groups:
                for attr in weight_attrs:
                    restored = getattr(clone, attr)
                    assert restored.dtype == np.int8, f"{clone.name}.{attr}"
                    assert np.array_equal(restored, getattr(original, attr))
                for attr in bias_attrs:
                    restored = getattr(clone, attr)
                    if restored is not None:
                        assert restored.dtype == np.int32, f"{clone.name}.{attr}"
                        assert np.array_equal(restored, getattr(original, attr))

        replay = loaded.network.simulate(images, timesteps=20)
        assert np.array_equal(reference.scores[20], replay.scores[20])

    def test_scales_live_in_the_manifest_not_the_npz(self, rng, tmp_path):
        path = save_artifact(_toy_network(rng).set_policy("infer8"), tmp_path / "q8")
        manifest = read_manifest(path)
        by_kind = {entry["kind"]: entry for entry in manifest["layers"]}
        assert by_kind["spiking_linear"]["weight_scale"] > 0
        assert by_kind["spiking_residual_block"]["ns_scale"] > 0
        assert by_kind["spiking_residual_block"]["os_scale"] > 0
        with np.load(path / "arrays.npz") as arrays:
            assert not any(name.endswith("_scale") for name in arrays.files)

    def test_quantized_layer_state_dict_roundtrip(self, rng):
        layer = SpikingLinear(rng.uniform(-0.3, 0.5, (6, 10)), rng.uniform(-0.1, 0.1, 6))
        layer.quantize()
        clone = layer_from_state(layer.state_dict())
        assert clone.weight.dtype == np.int8
        assert clone.weight_scale == layer.weight_scale
        assert clone.neurons.threshold_q == layer.neurons.threshold_q
        inputs = (rng.uniform(0, 1, (3, 10)) > 0.5).astype(np.int8)
        layer.reset_state()
        clone.reset_state()
        for _ in range(5):
            assert np.array_equal(layer.step(inputs), clone.step(inputs))

    def test_infer8_bundle_is_under_a_third_of_train64(
        self, trained_tcl_model, tiny_data, tmp_path
    ):
        from repro.core import Converter
        from repro.runtime import using_policy

        model, _ = trained_tcl_model
        _, _, test_images, _ = tiny_data
        with using_policy("train64"):
            plain = Converter(model).strategy("tcl").calibrate(test_images).convert()
            quantized = (
                Converter(model).strategy("tcl").precision("infer8").calibrate(test_images).convert()
            )
        float_bytes = self._bundle_bytes(plain.save(tmp_path / "f64"))
        int8_bytes = self._bundle_bytes(quantized.save(tmp_path / "q8"))
        assert int8_bytes <= 0.3 * float_bytes, f"{int8_bytes} vs {float_bytes}"

    def test_unknown_profile_fallback_dequantizes_to_train64(self, rng, tmp_path):
        """A quantized bundle whose recorded profile this build doesn't know
        degrades to train64 — which must *dequantize*, not reinterpret the
        int8 codes as float weights."""

        network = _toy_network(rng).set_policy("infer8")
        path = save_artifact(network, tmp_path / "odd")
        manifest = read_manifest(path)
        manifest["metadata"]["precision"] = "infer4"
        with open(path / "manifest.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

        with pytest.warns(UserWarning, match="unknown compute-policy profile"):
            loaded = load_artifact(path)
        assert loaded.network.policy_spec == "train64"
        head = loaded.network.layers[-1]
        assert head.weight.dtype == np.float64
        assert head.weight_scale is None
        assert np.max(np.abs(head.weight)) < 2.0  # dequantized, not raw codes


class TestRetiredExecutionKeys:
    """Older writers recorded the simulation backend and execution scheduler
    in bundle metadata.  Every recorded value loads and runs the one
    timestep loop, bit-identical to the source network; only values other
    than ``dense`` / ``sequential`` warn, once, naming the key and value."""

    def _save_and_load(self, rng, tmp_path, recorded):
        network = _toy_network(rng)
        path = save_artifact(network, tmp_path / "old", metadata=recorded)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_artifact(path)
        images = rng.uniform(0, 1, (4, 3, 8, 8))
        reference = network.simulate(images, timesteps=20)
        replay = loaded.network.simulate(images, timesteps=20)
        assert np.array_equal(reference.scores[20], replay.scores[20])
        return caught

    @pytest.mark.parametrize(
        "recorded",
        [
            {"backend": "event"},
            {"backend": "auto"},
            {"scheduler": "pipelined"},
            {"scheduler": "sharded"},
            {"backend": "my-custom-backend"},
        ],
    )
    def test_retired_value_loads_with_one_warning(self, rng, tmp_path, recorded):
        caught = self._save_and_load(rng, tmp_path, recorded)
        assert [warning.category for warning in caught] == [UserWarning]
        ((key, value),) = recorded.items()
        message = str(caught[0].message)
        assert f"{key}={value!r}" in message

    @pytest.mark.parametrize(
        "recorded",
        [{}, {"backend": "dense"}, {"scheduler": "sequential"}, {"backend": "dense", "scheduler": "sequential"}],
    )
    def test_missing_or_default_value_loads_silently(self, rng, tmp_path, recorded):
        assert self._save_and_load(rng, tmp_path, recorded) == []


class TestFlatBuffer:
    """The memory-mappable flat weight block written beside the npz."""

    def test_manifest_records_an_aligned_offset_table(self, rng, tmp_path):
        path = save_artifact(_toy_network(rng), tmp_path / "toy")
        flat = read_manifest(path)["flat"]
        assert flat["file"] == FLAT_FILE
        assert flat["align"] == FLAT_ALIGN
        assert (path / FLAT_FILE).stat().st_size == flat["size"]
        assert list(flat["arrays"]) == sorted(flat["arrays"])
        end = 0
        for entry in flat["arrays"].values():
            assert entry["offset"] % FLAT_ALIGN == 0
            assert entry["offset"] >= end  # blocks never overlap
            count = int(np.prod(entry["shape"])) if entry["shape"] else 1
            end = entry["offset"] + count * np.dtype(entry["dtype"]).itemsize
        assert end <= flat["size"]

    def test_mmap_load_is_lazy_readonly_and_bit_identical(self, rng, tmp_path):
        path = save_artifact(_toy_network(rng), tmp_path / "toy")
        images = rng.uniform(0, 1, (4, 3, 8, 8))
        eager = load_artifact(path, mmap=False)
        mapped = load_artifact(path)  # default: flat block present → mmap
        weight = mapped.network.layers[0].weight
        assert not weight.flags["OWNDATA"]  # a view over the page cache
        assert not weight.flags["WRITEABLE"]
        # The eager path hands out a private writable copy, the mapped path
        # a read-only view — writability is the observable difference.
        assert eager.network.layers[0].weight.flags["WRITEABLE"]
        reference = eager.network.simulate(images, timesteps=20)
        replay = mapped.network.simulate(images, timesteps=20)
        assert np.array_equal(reference.scores[20], replay.scores[20])

    def test_mmap_required_raises_without_flat_block(self, rng, tmp_path):
        path = save_artifact(_toy_network(rng), tmp_path / "toy")
        manifest = read_manifest(path)
        del manifest["flat"]
        with open(path / "manifest.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        (path / FLAT_FILE).unlink()
        with pytest.raises(ArtifactError, match="no flat block"):
            load_artifact(path, mmap=True)
        # The default degrades to the eager npz path — pre-flat bundles
        # (and bundles whose flat file was stripped) keep loading.
        assert load_artifact(path).network.name == "toy"

    def test_truncated_flat_block_falls_back_to_npz(self, rng, tmp_path):
        path = save_artifact(_toy_network(rng), tmp_path / "toy")
        with open(path / FLAT_FILE, "r+b") as handle:
            handle.truncate(8)
        loaded = load_artifact(path)  # auto mode must not map a short file
        assert loaded.network.layers[0].weight.flags["WRITEABLE"]
        with pytest.raises(ArtifactError, match="no flat block"):
            load_artifact(path, mmap=True)

    def test_flat_block_round_trips_through_a_plain_buffer(self, rng):
        arrays = {
            "a/weight": rng.uniform(-1, 1, (3, 4)),
            "b/bias": rng.uniform(-1, 1, 5).astype(np.float32),
            "c/scalar": np.asarray(2.5),
        }
        layout = flat_layout(arrays)
        views = arrays_from_buffer(bytes(flat_block_bytes(arrays, layout)), layout)
        assert set(views) == set(arrays)
        for key in arrays:
            assert views[key].dtype == arrays[key].dtype
            assert np.array_equal(views[key], arrays[key])
            assert not views[key].flags["WRITEABLE"]


class TestConversionResultExport:
    def test_converted_network_roundtrips(self, trained_tcl_model, tiny_data, tmp_path):
        model, _ = trained_tcl_model
        _, _, test_images, _ = tiny_data
        conversion = convert_ann_to_snn(model, calibration_images=test_images)
        reference = conversion.snn.simulate(test_images, timesteps=40)

        path = conversion.save(tmp_path / "converted")
        loaded = load_artifact(path)
        assert loaded.metadata["strategy_name"] == "tcl"
        assert loaded.metadata["norm_factors"]
        assert loaded.metadata["output_norm_factor"] == pytest.approx(conversion.output_norm_factor)

        replay = loaded.network.simulate(test_images, timesteps=40)
        assert np.array_equal(reference.scores[40], replay.scores[40])
