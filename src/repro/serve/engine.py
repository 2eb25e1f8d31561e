"""Adaptive-latency inference engine for converted spiking networks.

The TCL conversion makes near-ANN accuracy reachable at latencies of ~100
timesteps instead of ~1000 — which turns per-sample adaptive latency into the
natural serving primitive: most inputs produce a stable prediction long before
the worst-case latency, so the engine retires each sample as soon as its
prediction is confident and keeps simulating only the undecided remainder.

Two retirement rules can be combined:

* **stability window** — the arg-max class has not changed for
  ``stability_window`` consecutive timesteps;
* **softmax margin** — the softmax (over per-timestep firing rates,
  ``scores / t``) puts at least ``margin_threshold`` more probability on the
  top class than on the runner-up.

Retired samples are removed from the active batch via the network's
:meth:`~repro.snn.SpikingNetwork.compact` support, so later timesteps run on
ever-smaller batches.  With the deterministic real (constant-current) coding
the paper uses, per-sample results are identical to simulating each sample
alone for its exit latency; under stochastic Poisson coding the spike draws
depend on the active-batch shape, so per-sample results vary with batch
composition exactly as they vary across Poisson runs in general.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..obs import active_tracer
from ..runtime import ComputePolicy, resolve_policy, validate_policy_spec
from ..snn.executor import ExecutionPlan, StepHook, execute
from ..snn.network import SpikingNetwork

__all__ = ["AdaptiveConfig", "InferenceOutcome", "AdaptiveEngine"]


@dataclass
class AdaptiveConfig:
    """Retirement policy of the adaptive engine.

    ``adaptive=False`` disables early exit entirely: every sample runs the
    full ``max_timesteps`` (the fixed-T baseline the benchmarks compare
    against).

    ``precision`` overrides the network's compute-policy profile
    (``"train64"``/``"infer32"``/``"infer8"`` or a
    :class:`~repro.runtime.ComputePolicy` instance); ``None`` keeps the
    network's current policy — typically the loaded artifact's recorded
    profile.  Overriding a float profile with ``"infer8"`` quantizes the
    live network's weights (and ``"train64"`` on an ``infer8`` network
    dequantizes them), with the loss documented on
    :meth:`~repro.snn.SpikingLayer.set_policy`.
    """

    max_timesteps: int = 200
    min_timesteps: int = 10
    stability_window: int = 20
    margin_threshold: Optional[float] = None
    adaptive: bool = True
    precision: Optional[Union[str, ComputePolicy]] = None

    def __post_init__(self) -> None:
        if self.max_timesteps <= 0:
            raise ValueError(f"max_timesteps must be positive, got {self.max_timesteps}")
        if self.min_timesteps < 1:
            raise ValueError(f"min_timesteps must be >= 1, got {self.min_timesteps}")
        if self.min_timesteps > self.max_timesteps:
            raise ValueError(
                f"min_timesteps ({self.min_timesteps}) must not exceed max_timesteps ({self.max_timesteps}); "
                "an inverted range would silently disable early exit"
            )
        if self.stability_window < 1:
            raise ValueError(f"stability_window must be >= 1, got {self.stability_window}")
        if self.margin_threshold is not None and not 0.0 < self.margin_threshold <= 1.0:
            raise ValueError(f"margin_threshold must lie in (0, 1], got {self.margin_threshold}")
        validate_policy_spec(self.precision, allow_none=True)

    @classmethod
    def for_artifact(cls, artifact, **overrides) -> "AdaptiveConfig":
        """Serving defaults sized to a loaded artifact's conversion.

        Low-latency bundles record the simulation budget T their conversion
        passes were calibrated for (``LoadedArtifact.recommended_timesteps``);
        simulating past it buys no accuracy and costs linearly, so the
        returned config caps ``max_timesteps`` at the budget — instead of
        the generic 200-step default — and shrinks ``min_timesteps`` /
        ``stability_window`` to fit inside it.  Standard bundles (and plain
        ``ConversionResult`` objects, which expose the same attribute) get
        the stock defaults.  Keyword overrides win over both.
        """

        recommended = getattr(artifact, "recommended_timesteps", None)
        defaults = {}
        if recommended is not None:
            budget = int(recommended)
            defaults = {
                "max_timesteps": budget,
                "min_timesteps": min(cls.min_timesteps, budget),
                "stability_window": min(cls.stability_window, budget),
            }
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class InferenceOutcome:
    """Per-sample results of one engine invocation."""

    scores: np.ndarray
    exit_timesteps: np.ndarray
    max_timesteps: int
    total_spikes: float = 0.0
    wall_seconds: float = 0.0
    predictions: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.predictions = self.scores.argmax(axis=1)

    @property
    def mean_timesteps(self) -> float:
        return float(self.exit_timesteps.mean()) if self.exit_timesteps.size else 0.0

    @property
    def spikes_per_inference(self) -> float:
        count = len(self.exit_timesteps)
        return self.total_spikes / count if count else 0.0

    def accuracy(self, labels: np.ndarray) -> float:
        return float((self.predictions == np.asarray(labels)).mean())


def _softmax_margin(scores: np.ndarray, t: int) -> np.ndarray:
    """Top-1 minus top-2 softmax probability of per-timestep firing rates."""

    rates = scores / float(t)
    shifted = rates - rates.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    top2 = np.partition(probs, probs.shape[1] - 2, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


@dataclass
class _EarlyExitResult:
    """One hook's payload: final scores, exit latencies, spike total."""

    scores: np.ndarray
    exit_timesteps: np.ndarray
    total_spikes: float


class _EarlyExitHook(StepHook):
    """The adaptive retirement loop as an executor :class:`StepHook`.

    One instance observes one run over one network: after every timestep
    it reads the output scores, applies the stability-window and
    softmax-margin retirement rules, records retired samples' scores and
    spike budget, and compacts the network and encoder down to the undecided
    remainder.
    """

    def __init__(self, config: AdaptiveConfig) -> None:
        self.config = config

    def start(self, network: SpikingNetwork, batch_size: int) -> None:
        cfg = self.config
        self.network = network
        self.num_samples = batch_size
        self.final_scores: Optional[np.ndarray] = None
        self.exit_timesteps = np.full(batch_size, cfg.max_timesteps, dtype=np.int64)
        self.active_indices = np.arange(batch_size)
        self.last_prediction = np.full(batch_size, -1, dtype=np.int64)
        self.stable_steps = np.zeros(batch_size, dtype=np.int64)
        self.total_spikes = 0.0

    def _active_spikes(self, mask: np.ndarray) -> float:
        """Total spikes recorded so far for the masked samples of the active batch."""

        total = 0.0
        for layer in self.network.layers:
            for pool in layer.neuron_pools:
                if pool.spike_count is not None:
                    total += float(pool.spike_count[mask].sum())
        return total

    def after_step(self, t: int) -> bool:
        cfg = self.config
        network = self.network
        scores = network.output_layer.scores()
        if self.final_scores is None:
            self.final_scores = np.zeros((self.num_samples, scores.shape[1]), dtype=scores.dtype)

        predictions = scores.argmax(axis=1)
        self.stable_steps = np.where(predictions == self.last_prediction, self.stable_steps + 1, 1)
        self.last_prediction = predictions
        # A sample whose classes are all tied (typically all-zero scores
        # before the first output spike arrives) has no prediction yet:
        # its arg-max is an artefact of tie-breaking, so it must not
        # accumulate stability credit or clear a margin threshold.
        undecided = scores.max(axis=1) == scores.min(axis=1)
        self.stable_steps[undecided] = 0

        retire = np.zeros(len(self.active_indices), dtype=bool)
        if cfg.adaptive and t >= cfg.min_timesteps:
            retire |= self.stable_steps >= cfg.stability_window
            if cfg.margin_threshold is not None:
                retire |= _softmax_margin(scores, t) >= cfg.margin_threshold
        if t == cfg.max_timesteps:
            retire[:] = True
        if not retire.any():
            return False

        retired_indices = self.active_indices[retire]
        self.final_scores[retired_indices] = scores[retire]
        self.exit_timesteps[retired_indices] = t
        self.total_spikes += self._active_spikes(retire)

        keep = ~retire
        if not keep.any():
            return True
        network.compact(keep)
        network.encoder.compact(keep)
        self.active_indices = self.active_indices[keep]
        self.last_prediction = self.last_prediction[keep]
        self.stable_steps = self.stable_steps[keep]
        return False

    def result(self) -> _EarlyExitResult:
        assert self.final_scores is not None  # max_timesteps >= 1 guarantees one step
        return _EarlyExitResult(
            scores=self.final_scores,
            exit_timesteps=self.exit_timesteps,
            total_spikes=self.total_spikes,
        )


class AdaptiveEngine:
    """Drives a spiking network timestep-by-timestep with per-sample early exit."""

    def __init__(self, network: SpikingNetwork, config: Optional[AdaptiveConfig] = None) -> None:
        self.network = network
        self.config = config if config is not None else AdaptiveConfig()
        # The server constructs a fresh engine per micro-batch over a shared,
        # long-lived network; re-applying an already-active policy would
        # clear every layer's kernel cache (weight casts, scratch
        # workspaces) on the hot path for nothing.
        precision = self.config.precision
        if precision is not None and resolve_policy(precision) is not network.policy:
            network.set_policy(precision)

    def infer(self, images: np.ndarray) -> InferenceOutcome:
        """Run the adaptive simulation over a batch of analog images.

        The timestep loop is the executor's (:mod:`repro.snn.executor`):
        the engine compiles an :class:`~repro.snn.ExecutionPlan` whose
        :class:`StepHook` carries the retirement logic and runs it.
        """

        cfg = self.config
        # Cast once at the boundary to the network's policy dtype (copy-free
        # when the caller already matches); everything downstream flows.
        images = self.network.policy.asarray(images)
        if images.ndim < 2:
            raise ValueError(f"expected a batched input, got shape {images.shape}")

        network = self.network
        started = time.perf_counter()
        plan = ExecutionPlan.compile(
            network,
            cfg.max_timesteps,
            collect_statistics=False,
            hook=_EarlyExitHook(cfg),
            record_final=False,
        )
        tracer = active_tracer()
        with tracer.span("engine:infer", category="serve") as span:
            if span.recording:
                span.annotate(
                    network=network.name,
                    batch=len(images),
                    max_timesteps=cfg.max_timesteps,
                    adaptive=cfg.adaptive,
                    precision=network.policy_spec,
                )
            early_exit: _EarlyExitResult = execute(plan, images).hook_result
            outcome = InferenceOutcome(
                scores=early_exit.scores,
                exit_timesteps=early_exit.exit_timesteps,
                max_timesteps=cfg.max_timesteps,
                total_spikes=early_exit.total_spikes,
                wall_seconds=time.perf_counter() - started,
            )
            if span.recording:
                span.annotate(
                    mean_exit_timesteps=outcome.mean_timesteps,
                    spikes_per_inference=outcome.spikes_per_inference,
                )
        return outcome
