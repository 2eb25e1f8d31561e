"""Model registry: versioned artifact storage with a bounded LRU cache.

The registry owns a directory tree ``root/<name>/<version>/`` of serving
artifacts.  ``publish`` writes a bundle into the tree; ``get`` loads one —
through a capacity-bounded least-recently-used cache, so a server holding many
published models only keeps the hot ones resident.  All public methods are
thread-safe; the serving worker loop calls ``get`` concurrently.
"""

from __future__ import annotations

import os
import re
import shutil
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..snn.network import SpikingNetwork
from .serialize import ArtifactError, LoadedArtifact, load_artifact, save_artifact, swap_in_progress

__all__ = ["ModelRegistry"]

DEFAULT_VERSION = "v1"
#: ``get`` tries a load this often while a republish swaps the bundle under
#: it, backing off from 1 ms and doubling (about 0.13 s in all).
_LOAD_ATTEMPTS = 8


def _backoff(attempt: int) -> None:
    time.sleep(0.001 * 2 ** attempt)


def _identity(path: Path) -> Optional[Tuple[int, int, int]]:
    """Which directory ``path`` names right now (``None``: nothing there)."""

    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_dev, stat.st_ino, stat.st_ctime_ns)


def _version_sort_key(version: str) -> Tuple:
    """Natural-sort key so ``v10`` is newer than ``v9`` (not ``v1 < v10 < v2``)."""

    return tuple(int(part) if part.isdigit() else part for part in re.split(r"(\d+)", version))


class ModelRegistry:
    """Capacity-bounded LRU cache over a directory tree of serving artifacts."""

    def __init__(self, root: Union[str, Path], capacity: int = 4) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.capacity = capacity
        self._cache: "OrderedDict[Tuple[str, str], LoadedArtifact]" = OrderedDict()
        self._lock = threading.Lock()
        # Monotonic write counters: a get() that overlapped a publish or
        # unpublish must not poison the model cache (per-key counter) or the
        # latest-version memo (per-name counter) with what it resolved from
        # the old state.
        self._write_generation: Dict[Tuple[str, str], int] = {}
        self._name_generation: Dict[str, int] = {}
        self._latest: Dict[str, str] = {}
        # Per-key publish serialisation: concurrent publishes of the same
        # name/version would otherwise race each other's bundle swap on disk.
        self._publish_locks: Dict[Tuple[str, str], threading.Lock] = {}
        # Desired replica count per model name (how many pool workers should
        # hold the model resident); names without an entry default to 1.
        self._replicas: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- storage ---------------------------------------------------------------

    def artifact_path(self, name: str, version: str = DEFAULT_VERSION) -> Path:
        return self.root / name / version

    def publish(
        self,
        name: str,
        network: SpikingNetwork,
        version: str = DEFAULT_VERSION,
        metadata: Optional[Dict] = None,
    ) -> Path:
        """Save ``network`` under ``root/name/version`` and invalidate the cache."""

        key = (name, version)
        with self._lock:
            publish_lock = self._publish_locks.setdefault(key, threading.Lock())
        with publish_lock:
            with self._lock:
                self._write_generation[key] = self._write_generation.get(key, 0) + 1
                self._name_generation[name] = self._name_generation.get(name, 0) + 1
            path = save_artifact(network, self.artifact_path(name, version), metadata=metadata)
            with self._lock:
                self._cache.pop(key, None)
                self._latest.pop(name, None)
                # Second bump, after the bundle swap: a pool dispatcher that
                # read the pre-save bump and then shared the *old* bundle
                # (the swap hadn't landed yet) would otherwise record the
                # final generation against stale weights and never re-share.
                self._write_generation[key] = self._write_generation.get(key, 0) + 1
        return path

    def unpublish(self, name: str, version: Optional[str] = None) -> None:
        """Delete a version (or, with ``version=None``, every version) of a model."""

        target = self.root / name if version is None else self.artifact_path(name, version)
        # Bump generations for every affected version actually on disk (the
        # registry may sit over a pre-existing tree this instance never
        # published to), so an in-flight get() cannot re-cache a deleted model.
        if version is None:
            affected = self.list_models().get(name, [])
        else:
            affected = [version]
        with self._lock:
            for v in affected:
                key = (name, v)
                self._write_generation[key] = self._write_generation.get(key, 0) + 1
            self._name_generation[name] = self._name_generation.get(name, 0) + 1
        if target.exists():
            shutil.rmtree(target)
        with self._lock:
            for key in [k for k in self._cache if k[0] == name and (version is None or k[1] == version)]:
                del self._cache[key]
            self._latest.pop(name, None)

    def list_models(self) -> Dict[str, List[str]]:
        """``{name: [versions...]}`` for every artifact bundle under the root."""

        models: Dict[str, List[str]] = {}
        for manifest in sorted(self.root.glob("*/*/manifest.json")):
            version_dir = manifest.parent
            if version_dir.name.startswith("."):
                continue  # a save's staging copy or a bundle it swapped out
            models.setdefault(version_dir.parent.name, []).append(version_dir.name)
        return models

    def latest_version(self, name: str) -> str:
        versions = self.list_models().get(name)
        if not versions:
            raise ArtifactError(f"no published versions of model {name!r} under {self.root}")
        return max(versions, key=_version_sort_key)

    # -- replica counts --------------------------------------------------------

    def set_replicas(self, name: str, count: int) -> None:
        """Declare how many pool workers should hold ``name`` resident.

        A *desired* count, not a reservation: the
        :class:`~repro.serve.pool.ProcessPoolServer` clamps it to its worker
        count at load time (with a warning) and the threaded server ignores
        it entirely.  The model does not need to be published yet — the
        declaration applies whenever it is.
        """

        if count <= 0:
            raise ValueError(f"replica count must be positive, got {count}")
        with self._lock:
            self._replicas[name] = int(count)

    def replicas(self, name: str) -> int:
        """The declared replica count for ``name`` (default 1)."""

        with self._lock:
            return self._replicas.get(name, 1)

    def generation(self, name: str, version: str = DEFAULT_VERSION) -> int:
        """Monotonic write counter for ``(name, version)``.

        Bumped by every ``publish``/``unpublish`` touching the key.  Pool
        dispatchers compare generations to decide whether a worker's
        resident copy of a model is stale and must be re-shared.
        """

        with self._lock:
            return self._write_generation.get((name, version), 0)

    # -- cached loading --------------------------------------------------------

    def get(self, name: str, version: Optional[str] = None) -> LoadedArtifact:
        """Load an artifact, preferring the in-memory LRU cache.

        ``version=None`` resolves to the lexicographically latest published
        version of the model.

        A load that lands in a republish's bundle swap — the version
        directory missing, or replaced while the load reads it — is retried
        a bounded number of times, so ``get`` returns one whole bundle; any
        other load error propagates at once.
        """

        for attempt in range(_LOAD_ATTEMPTS - 1):
            artifact = self._get_once(name, version, may_retry=True)
            if artifact is not None:
                return artifact
            _backoff(attempt)
        return self._get_once(name, version, may_retry=False)

    def _get_once(self, name: str, version: Optional[str], may_retry: bool) -> Optional[LoadedArtifact]:
        """One cache lookup or load; ``None`` when it hit a bundle swap."""

        if version is None:
            # Resolving "latest" walks the registry tree; memoise it so the
            # serving hot path (which submits with version=None) stays off the
            # filesystem on cache hits.  publish/unpublish invalidate the
            # memo, and the name-generation check keeps a resolution that
            # overlapped such a write from re-installing a stale answer.
            with self._lock:
                version = self._latest.get(name)
                name_generation = self._name_generation.get(name, 0)
            if version is None:
                try:
                    version = self.latest_version(name)
                except ArtifactError:
                    if may_retry and swap_in_progress(self.artifact_path(name, "*")):
                        return None
                    raise
                with self._lock:
                    if self._name_generation.get(name, 0) == name_generation:
                        self._latest[name] = version
        key = (name, version)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
            generation = self._write_generation.get(key, 0)
        # Load outside the lock: artifact IO can be slow and the cache must
        # stay available to other workers meanwhile.
        path = self.artifact_path(name, version)
        before = _identity(path)
        try:
            artifact = load_artifact(path)
        except (ArtifactError, OSError):
            if may_retry and (_identity(path) != before or swap_in_progress(path)):
                return None
            raise
        if may_retry and _identity(path) != before:
            return None
        with self._lock:
            if self._write_generation.get(key, 0) == generation:
                self._cache[key] = artifact
                self._cache.move_to_end(key)
                while len(self._cache) > self.capacity:
                    self._cache.popitem(last=False)
                    self.evictions += 1
        return artifact

    def cached_keys(self) -> List[Tuple[str, str]]:
        with self._lock:
            return list(self._cache)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
