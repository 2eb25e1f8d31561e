"""Artifact store: persist a converted spiking network as an ``.npz`` + JSON bundle.

A serving artifact is a directory containing

* ``manifest.json`` — the network's structure: one entry per spiking layer
  (its ``kind`` plus all JSON-compatible configuration from
  :meth:`~repro.snn.layers.SpikingLayer.state_dict`), the input-encoder
  configuration, free-form metadata recorded by the exporter (norm-factor
  strategy, per-site λ values, …), and the ``flat`` offset table describing
  ``arrays.flat``;
* ``arrays.npz`` — every array-valued entry of every layer's state dict,
  keyed ``layer{index}/{field}`` (the compressed *interchange* form);
* ``arrays.flat`` — the same arrays as one contiguous block, each array
  C-contiguous and aligned to :data:`FLAT_ALIGN` bytes at the offset the
  manifest's ``flat.arrays`` table records (the *serving* form).

The split keeps the structural description human-inspectable (``repro-serve
inspect``) while the bulk weights stay in binary form.  Loading rebuilds each
layer through :func:`~repro.snn.layers.layer_from_state`, so round-tripped
networks simulate bit-identically to the in-memory original.

The flat block exists for the serving tier: it can be memory-mapped
(``load_artifact`` does, by default, when the block is present) so a cold
load never double-buffers the payload through a decompression copy, and it
can be copied *once* into :mod:`multiprocessing.shared_memory` and opened
zero-copy by every worker of a process-pool server
(:mod:`repro.serve.shm`).  The npz stays the durable interchange format —
bundles written before the flat block existed load exactly as before.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.passes import DEFAULT_LOW_LATENCY_TIMESTEPS, LATENCY_MODES
from ..runtime import active_policy, using_policy, validate_policy_spec
from ..snn.encoding import InputEncoder, PoissonCoding, RealCoding
from ..snn.layers import layer_from_state
from ..snn.network import SpikingNetwork

__all__ = [
    "FORMAT_VERSION",
    "FLAT_ALIGN",
    "ArtifactError",
    "LoadedArtifact",
    "save_artifact",
    "load_artifact",
    "swap_in_progress",
    "read_manifest",
    "flat_layout",
    "flat_block_bytes",
    "arrays_from_buffer",
    "network_from_manifest",
]

FORMAT_VERSION = 1
MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.npz"
FLAT_FILE = "arrays.flat"
#: Byte alignment of every array inside the flat block.  64 covers the
#: widest vector registers numpy kernels care about and keeps rows
#: cache-line aligned however the block is mapped (file mmap or shm).
FLAT_ALIGN = 64


class ArtifactError(RuntimeError):
    """Raised when an artifact bundle is missing, malformed, or incompatible."""


@dataclass
class LoadedArtifact:
    """A spiking network rebuilt from disk, plus the bundle's bookkeeping."""

    network: SpikingNetwork
    metadata: Dict = field(default_factory=dict)
    manifest: Dict = field(default_factory=dict)
    path: Optional[Path] = None

    # Conversion provenance recorded by ConversionResult.export_metadata().
    # Bundles written before reset_mode / readout were exported return None,
    # so callers can distinguish "unknown" from a recorded default.

    @property
    def strategy_name(self) -> Optional[str]:
        """Norm-factor strategy the exporter used (None for foreign bundles)."""

        value = self.metadata.get("strategy_name")
        return None if value is None else str(value)

    @property
    def reset_mode(self) -> Optional[str]:
        """IF reset rule of the converted network ("subtract" / "zero")."""

        value = self.metadata.get("reset_mode")
        return None if value is None else str(value)

    @property
    def readout(self) -> Optional[str]:
        """Output readout of the converted network ("spike_count" / "membrane")."""

        value = self.metadata.get("readout")
        return None if value is None else str(value)

    @property
    def precision(self) -> Optional[str]:
        """Compute-policy profile recorded by the exporter
        ("train64"/"infer32"/"infer8").

        ``load_artifact`` already applied it to the rebuilt network; bundles
        written before compute policies existed return None and run under
        the active policy.  Only the profile *name* round-trips: a custom
        ``ComputePolicy`` instance must be re-applied with ``set_policy``
        after loading — unknown recorded names degrade to ``train64`` with a
        warning, which casts the bundle's arrays to float64 exactly as
        ``set_policy("train64")`` would (re-apply the custom policy to get
        its dtype back; the on-disk bundle is untouched).  ``infer8``
        bundles store int8 weights and per-layer scales in their layer
        states (the npz payload preserves integer dtypes), so the degraded
        ``train64`` fallback *dequantizes* — lossy, like any float cast of
        a quantized grid.
        """

        value = self.metadata.get("precision")
        return None if value is None else str(value)

    @property
    def latency(self) -> Optional[str]:
        """Conversion latency mode recorded by the exporter ("standard"/"low").

        The mode itself needs no re-application — its effects (shifted
        thresholds, λ/2 membrane-initialization fractions, compensated
        biases) are baked into the layer states ``load_artifact`` rebuilds,
        so a low-latency bundle simulates bit-identically to the exported
        network.  The recorded mode is advisory: serving reads it (with
        :attr:`recommended_timesteps`) to size simulation budgets.  Bundles
        written before latency modes existed return None and are treated as
        standard; unknown recorded modes degrade to standard with a warning
        at load time.
        """

        value = self.metadata.get("latency_mode")
        if value is None:
            return None
        value = str(value)
        return value if value in LATENCY_MODES else "standard"

    @property
    def recommended_timesteps(self) -> Optional[int]:
        """Simulation budget T the conversion was calibrated for (or None).

        Low-latency bundles record the T their shift/init/compensation
        passes targeted; simulating longer buys no accuracy and costs
        linearly, so serving uses this to cap ``AdaptiveConfig`` budgets
        (:meth:`repro.serve.AdaptiveConfig.for_artifact`).
        """

        value = self.metadata.get("timesteps")
        if value is None:
            return DEFAULT_LOW_LATENCY_TIMESTEPS if self.latency == "low" else None
        return int(value)


def _jsonable(value):
    """Coerce exporter metadata into JSON-compatible values."""

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _encoder_to_state(encoder: InputEncoder) -> Dict[str, object]:
    if isinstance(encoder, PoissonCoding):
        return {"kind": "poisson", "gain": encoder.gain, "seed": encoder.seed}
    if isinstance(encoder, RealCoding):
        return {"kind": "real"}
    raise ArtifactError(
        f"cannot serialize input encoder of type {type(encoder).__name__}; "
        "serving artifacts support RealCoding and PoissonCoding"
    )


def _encoder_from_state(state: Dict[str, object]) -> InputEncoder:
    kind = state.get("kind", "real")
    if kind == "real":
        return RealCoding()
    if kind == "poisson":
        # seed may be JSON null: PoissonCoding(seed=None) is a valid,
        # intentionally unseeded encoder and must round-trip as such.
        seed = state.get("seed", 0)
        return PoissonCoding(gain=float(state.get("gain", 1.0)), seed=None if seed is None else int(seed))
    raise ArtifactError(f"unknown encoder kind {kind!r} in artifact manifest")


# ---------------------------------------------------------------------------
# Flat-buffer layout: one contiguous aligned block + offset table
# ---------------------------------------------------------------------------


def flat_layout(arrays: Dict[str, np.ndarray]) -> Dict[str, object]:
    """The manifest ``flat`` section for a key→array mapping.

    Arrays are laid out in sorted-key order, each C-contiguous at an offset
    rounded up to :data:`FLAT_ALIGN`; the table records offset, shape and
    dtype (numpy ``dtype.str``, so byte order is explicit) per key, plus the
    total block size.  Pure layout — no bytes are produced here — so the
    same table describes the on-disk ``arrays.flat`` file and any
    shared-memory copy of it.
    """

    table: Dict[str, Dict[str, object]] = {}
    offset = 0
    for key in sorted(arrays):
        array = arrays[key]
        offset = -(-offset // FLAT_ALIGN) * FLAT_ALIGN
        table[key] = {
            "offset": offset,
            "shape": [int(dim) for dim in array.shape],
            "dtype": array.dtype.str,
        }
        offset += array.nbytes
    return {"file": FLAT_FILE, "align": FLAT_ALIGN, "size": offset, "arrays": table}


def flat_block_bytes(arrays: Dict[str, np.ndarray], layout: Dict[str, object]) -> bytearray:
    """Materialise the contiguous block ``layout`` describes (padding zeroed)."""

    block = bytearray(int(layout["size"]))
    for key, entry in layout["arrays"].items():
        data = np.ascontiguousarray(arrays[key])
        start = int(entry["offset"])
        block[start:start + data.nbytes] = data.tobytes()
    return block


def arrays_from_buffer(buffer, layout: Dict[str, object], writable: bool = False) -> Dict[str, np.ndarray]:
    """Zero-copy array views over a buffer holding a flat block.

    ``buffer`` is anything exposing the buffer protocol over at least
    ``layout["size"]`` bytes — a ``memmap`` of ``arrays.flat``, a
    ``SharedMemory.buf`` memoryview, raw ``bytes``.  Views are marked
    read-only unless ``writable`` (weights are read-only during simulation;
    an accidental in-place write through a shared mapping would corrupt
    every attached process).
    """

    views: Dict[str, np.ndarray] = {}
    for key, entry in layout["arrays"].items():
        dtype = np.dtype(str(entry["dtype"]))
        shape = tuple(int(dim) for dim in entry["shape"])
        view = np.frombuffer(buffer, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)), offset=int(entry["offset"]))
        view = view.reshape(shape)
        view.flags.writeable = bool(writable) and view.flags.writeable
        views[key] = view
    return views


def _read_flat_views(path: Path, manifest: Dict) -> Optional[Dict[str, np.ndarray]]:
    """Memory-mapped views over the bundle's flat block, or ``None``.

    ``None`` (bundle predates the flat block, or the file is missing /
    truncated) sends the caller down the npz fallback path.
    """

    flat = manifest.get("flat")
    if not isinstance(flat, dict) or "arrays" not in flat:
        return None
    flat_path = path / str(flat.get("file", FLAT_FILE))
    if not flat_path.is_file() or flat_path.stat().st_size < int(flat.get("size", 0)):
        return None
    if int(flat.get("size", 0)) == 0:
        return {}
    # mode="r": pages fault in lazily from the file and stay clean/shared,
    # so a cold load of a large bundle touches only what simulation reads
    # and never holds a second decompressed copy of the payload.
    raw = np.memmap(flat_path, dtype=np.uint8, mode="r")
    return arrays_from_buffer(raw, flat)


#: Infix of the name a replaced bundle is renamed to while a save swaps it out.
_RETIRED_TAG = ".retired-"


def swap_in_progress(path: Union[str, Path]) -> bool:
    """Whether :func:`save_artifact` has moved the bundle at ``path`` aside
    and not yet removed it — the swap's window with no bundle at ``path``.

    The final path component may be a glob (``model/*``: any version).
    """

    path = Path(path)
    return any(path.parent.glob(f".{path.name}{_RETIRED_TAG}*"))


def save_artifact(
    network: SpikingNetwork,
    path: Union[str, Path],
    metadata: Optional[Dict] = None,
) -> Path:
    """Write ``network`` (and optional exporter metadata) as a bundle at ``path``.

    The network's compute-policy profile is recorded under the
    ``precision`` metadata key unless the caller already supplied it (as
    ``ConversionResult.export_metadata`` does), so a directly-saved
    ``infer32`` network reloads under ``infer32``.

    ``path`` is created as a directory (parents included); an existing bundle
    at the same location is replaced.  The bundle is written into a staging
    directory first and swapped in via renames at the end, so a concurrent
    reader never observes a manifest from one save paired with arrays from
    another (though it may briefly find no bundle at all in the instant
    between the two renames of a replacement — :func:`swap_in_progress`
    reports that instant, and the registry retries such a load).  Returns
    the bundle path.
    """

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique per call (not just per process): concurrent saves of the same
    # bundle must never share or delete each other's scratch directories.
    token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    staging = path.parent / f".{path.name}.staging-{token}"
    staging.mkdir()

    arrays: Dict[str, np.ndarray] = {}
    layer_entries: List[Dict[str, object]] = []
    for index, layer in enumerate(network.layers):
        entry: Dict[str, object] = {}
        for key, value in layer.state_dict().items():
            if isinstance(value, np.ndarray):
                arrays[f"layer{index}/{key}"] = value
            else:
                entry[key] = _jsonable(value)
        layer_entries.append(entry)

    recorded = dict(metadata or {})
    recorded.setdefault("precision", network.policy_spec)
    flat = flat_layout(arrays)
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": network.name,
        "encoder": _encoder_to_state(network.encoder),
        "layers": layer_entries,
        "flat": flat,
        "metadata": _jsonable(recorded),
    }
    retired_dirs: List[Path] = []
    try:
        with open(staging / MANIFEST_FILE, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        np.savez_compressed(staging / ARRAYS_FILE, **arrays)
        with open(staging / FLAT_FILE, "wb") as handle:
            handle.write(flat_block_bytes(arrays, flat))
        # Rename the old bundle aside (cheap) rather than rmtree-ing it in
        # place (slow), so the no-bundle window a concurrent reader can hit
        # is two renames wide instead of a whole recursive delete.  A
        # concurrent writer can re-create ``path`` between the two renames
        # (os.replace cannot overwrite a non-empty directory), so the swap
        # retries a bounded number of times, moving the interloper aside too
        # — last writer wins with a complete bundle either way.
        swap_error: Optional[OSError] = None
        for attempt in range(5):
            try:
                if path.exists():
                    retired = path.parent / f".{path.name}{_RETIRED_TAG}{token}-{attempt}"
                    os.replace(path, retired)
                    retired_dirs.append(retired)
                os.replace(staging, path)
                break
            except OSError as error:
                # Lost a race with another writer (it took ``path`` between
                # our exists() check and a rename, or re-created it); retry.
                swap_error = error
        else:
            raise swap_error if swap_error is not None else ArtifactError(f"could not install bundle at {path}")
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        # The save failed after a previous bundle was moved aside: put the
        # most recent one back so the model does not vanish.  If even the
        # restore fails, that copy is deliberately left on disk as the
        # surviving data.
        if retired_dirs and not path.exists():
            try:
                os.replace(retired_dirs[-1], path)
            except OSError:
                pass
            retired_dirs.pop()
        for leftover in retired_dirs:
            shutil.rmtree(leftover, ignore_errors=True)
        raise
    for leftover in retired_dirs:
        shutil.rmtree(leftover, ignore_errors=True)
    return path


def read_manifest(path: Union[str, Path]) -> Dict:
    """Read and validate the manifest of a bundle without loading the weights."""

    path = Path(path)
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise ArtifactError(f"no serving artifact at {path}: missing {MANIFEST_FILE}")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"artifact at {path} has format_version={version!r}; this build reads version {FORMAT_VERSION}"
        )
    return manifest


#: Metadata keys older writers recorded for execution options that no longer
#: exist, with the one value every build runs.
_RETIRED_EXECUTION_KEYS = {"backend": "dense", "scheduler": "sequential"}


def _warn_retired_execution_key(metadata: Dict, key: str, default: str, origin: str) -> None:
    """Warn once when an old bundle records an execution option other than ``default``.

    Older writers recorded the simulation backend and execution scheduler a
    network ran with.  Both were execution choices, never semantics, so any
    recorded value loads and runs the one timestep loop; only values other
    than the loop's own name are worth telling the operator about.
    """

    value = metadata.get(key)
    if value is None or str(value) == default:
        return
    warnings.warn(
        f"{origin} records {key}={value!r}, an execution option that no longer "
        f"exists; running the {default} path",
        UserWarning,
        stacklevel=3,
    )


def network_from_manifest(
    manifest: Dict,
    arrays: Dict[str, np.ndarray],
    origin: str = "bundle",
) -> SpikingNetwork:
    """Rebuild a :class:`~repro.snn.SpikingNetwork` from a manifest + arrays.

    ``arrays`` maps the manifest's ``layer{index}/{field}`` keys to the
    weight arrays — eagerly decompressed from the npz, memory-mapped views
    of the flat block, or zero-copy views over a shared-memory segment
    (:mod:`repro.serve.shm`); the rebuild never copies a float array whose
    dtype already matches the bundle's recorded profile, so the backing
    buffer is genuinely shared.  Applies the recorded compute-policy
    profile exactly as :func:`load_artifact` always has (unknown names
    degrade with a warning naming ``origin``).
    """

    by_layer: Dict[int, Dict[str, np.ndarray]] = {}
    for key, value in arrays.items():
        layer_tag, _, field_name = key.partition("/")
        if layer_tag.startswith("layer") and field_name:
            try:
                index = int(layer_tag[len("layer"):])
            except ValueError:
                continue
            by_layer.setdefault(index, {})[field_name] = value

    metadata = manifest.get("metadata", {})
    precision = metadata.get("precision")
    target: Optional[str] = None
    if precision is not None:
        # The exporter's compute-policy profile travels with the bundle so a
        # served copy runs (and allocates) the way it was benchmarked.  The
        # stored arrays already carry the right dtypes; re-applying the
        # profile aligns the pools, encoder and kernel mode with them.
        try:
            validate_policy_spec(str(precision))
            target = str(precision)
        except ValueError:
            warnings.warn(
                f"{origin} records unknown compute-policy profile {precision!r}; "
                "running under 'train64' (custom ComputePolicy instances do not round-trip "
                "through bundles — re-apply with set_policy)",
                UserWarning,
                stacklevel=2,
            )
            target = "train64"
    # Construction happens under the bundle's own profile: building under a
    # *different* quantized active policy would transiently snap the float
    # payloads onto int8 grids, and the quantize → dequantize round trip is
    # lossy (weights come back as q·scale, not the saved bits).
    with using_policy(target if target is not None else active_policy()):
        layers = []
        for index, entry in enumerate(manifest["layers"]):
            state = dict(entry)
            state.update(by_layer.get(index, {}))
            layers.append(layer_from_state(state))
        network = SpikingNetwork(
            layers,
            encoder=_encoder_from_state(manifest.get("encoder", {})),
            name=manifest.get("name", "snn"),
        )
    if target is not None:
        network.set_policy(target)
    latency = metadata.get("latency_mode")
    if latency is not None and str(latency) not in LATENCY_MODES:
        # Latency modes are baked into the layer states (thresholds, v_init,
        # biases), so there is nothing to un-apply; the warning tells the
        # operator the advisory mode is from a newer writer and serving will
        # size its timestep budgets as for a standard conversion.
        warnings.warn(
            f"{origin} records unknown latency mode {latency!r}; "
            "treating it as 'standard' (the converted weights load unchanged)",
            UserWarning,
            stacklevel=2,
        )
    for key, default in _RETIRED_EXECUTION_KEYS.items():
        _warn_retired_execution_key(metadata, key, default, origin)
    return network


def load_artifact(path: Union[str, Path], mmap: Optional[bool] = None) -> LoadedArtifact:
    """Rebuild a :class:`~repro.snn.SpikingNetwork` from a bundle directory.

    ``mmap`` controls how the weight payload is opened:

    * ``None`` (default) — memory-map the flat block when the bundle has
      one, otherwise decompress the npz eagerly (pre-flat bundles);
    * ``True`` — require the flat block (:class:`ArtifactError` without it);
    * ``False`` — always decompress the npz (a private, file-independent
      copy — e.g. before deleting the bundle from disk).

    A memory-mapped load keeps weights as read-only views over the page
    cache: cold loads stop double-buffering the payload in RAM, pages fault
    in lazily as simulation first touches them, and every process mapping
    the same bundle shares one physical copy.
    """

    path = Path(path)
    manifest = read_manifest(path)
    arrays: Optional[Dict[str, np.ndarray]] = None
    if mmap is None or mmap:
        arrays = _read_flat_views(path, manifest)
        if arrays is None and mmap:
            raise ArtifactError(
                f"artifact at {path} has no flat block to memory-map; "
                "re-save it with this build (or load with mmap=False)"
            )
    if arrays is None:
        arrays_path = path / ARRAYS_FILE
        if not arrays_path.is_file():
            raise ArtifactError(f"no serving artifact at {path}: missing {ARRAYS_FILE}")
        with np.load(arrays_path) as stored:
            arrays = {key: stored[key] for key in stored.files}

    network = network_from_manifest(manifest, arrays, origin=f"artifact at {path}")
    return LoadedArtifact(
        network=network,
        metadata=manifest.get("metadata", {}),
        manifest=manifest,
        path=path,
    )
