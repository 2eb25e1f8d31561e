"""Inference serving for converted spiking networks.

The subsystem turns a :class:`~repro.core.ConversionResult` into a servable
on-disk artifact and runs adaptive-latency inference against it:

* :mod:`repro.serve.serialize` — ``.npz`` + JSON artifact bundles with a
  memory-mappable flat-buffer weight block,
* :mod:`repro.serve.registry` — versioned storage with a bounded LRU cache
  and per-model replica counts,
* :mod:`repro.serve.engine` — per-sample early-exit simulation with batch
  compaction and an optional compute-policy override,
* :mod:`repro.serve.batcher` — dynamic micro-batching of single requests,
* :mod:`repro.serve.server` — threaded worker loop plus futures API,
* :mod:`repro.serve.pool` — multi-process worker pool over shared-memory
  artifacts (one physical weight copy per model, however many workers),
* :mod:`repro.serve.shm` — shared-memory artifact segments and zero-copy
  worker-side network reconstruction,
* :mod:`repro.serve.admission` — bounded inflight budget with the typed
  :class:`~repro.serve.admission.Overloaded` load-shed reply,
* :mod:`repro.serve.metrics` — p50/p95/p99 latency (queue and compute
  components split out), throughput, queue-depth/shed/utilization gauges
  and energy-proxy telemetry,
* :mod:`repro.serve.cli` — the ``repro-serve`` console entry point.
"""

from ..core.conversion import register_artifact_writer
from .serialize import (
    FORMAT_VERSION,
    ArtifactError,
    LoadedArtifact,
    load_artifact,
    network_from_manifest,
    read_manifest,
    save_artifact,
)
from .registry import ModelRegistry
from .engine import AdaptiveConfig, AdaptiveEngine, InferenceOutcome
from .batcher import InferenceRequest, MicroBatcher
from .metrics import MetricsSnapshot, RequestRecord, ServingMetrics
from .admission import AdmissionController, Overloaded
from .server import InferenceReply, InferenceServer
from .pool import ProcessPoolServer
from .shm import AttachedArtifact, SharedArtifact, attach_shared_artifact, share_artifact

# Close the dependency inversion: core's ConversionResult.save persists via
# whatever writer the serving tier registers, so core never imports upward.
register_artifact_writer(save_artifact)

__all__ = [
    "FORMAT_VERSION",
    "ArtifactError",
    "LoadedArtifact",
    "load_artifact",
    "network_from_manifest",
    "read_manifest",
    "save_artifact",
    "ModelRegistry",
    "AdaptiveConfig",
    "AdaptiveEngine",
    "InferenceOutcome",
    "InferenceRequest",
    "MicroBatcher",
    "MetricsSnapshot",
    "RequestRecord",
    "ServingMetrics",
    "AdmissionController",
    "Overloaded",
    "InferenceReply",
    "InferenceServer",
    "ProcessPoolServer",
    "SharedArtifact",
    "AttachedArtifact",
    "share_artifact",
    "attach_shared_artifact",
]
