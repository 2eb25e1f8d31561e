"""The execution engine: one compiled plan, one timestep loop.

Every simulation entry point — ``SpikingNetwork.simulate``,
``SpikingNetwork.simulate_batched`` and the serving engine's adaptive loop —
runs the same single-threaded timestep loop, which lives here:

* :class:`ExecutionPlan` — everything one run needs, compiled once per call:
  the network (layers + encoder + policy stamps), the validated checkpoint
  set, the statistics toggle, and an optional per-timestep
  :class:`StepHook` (the seam the adaptive engine's early-exit / batch
  compaction logic plugs into).
* :func:`execute` — turns a plan plus an input batch into an
  :class:`ExecutionResult`, bit-identical to the pre-executor loop (golden
  parity tests pin this).

Layering: this module sits inside ``repro.snn`` next to the layers it
drives; the serving stack (``repro.serve``) builds on top of it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

from ..obs import active_tracer
from .statistics import LayerSpikeStats, collect_spike_stats, merge_spike_stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network imports us)
    from .network import SpikingNetwork

__all__ = [
    "StepHook",
    "ExecutionPlan",
    "ExecutionResult",
    "execute",
    "merge_execution_results",
]


class StepHook:
    """Per-timestep observer/controller attached to one execution.

    The adaptive serving engine is the canonical implementation: after every
    timestep it reads the output scores, retires confident samples, and
    compacts the network's batch axis.  Hooks are *stateful per run*: the
    plan carries one instance, which :func:`execute` binds with
    :meth:`start` at the beginning of every run.  A hook observes the whole
    stack at one consistent timestep — every layer has advanced to ``t``
    before :meth:`after_step` runs.
    """

    def start(self, network: "SpikingNetwork", batch_size: int) -> None:
        """Bind the hook to the network it will observe."""

    def after_step(self, t: int) -> bool:
        """Observe timestep ``t``; return ``True`` to stop the run early."""

        return False

    def result(self) -> object:
        """The hook's payload, collected into ``ExecutionResult.hook_result``."""

        return None


@dataclass(frozen=True)
class ExecutionPlan:
    """One simulation run, compiled once and handed to :func:`execute`.

    Use :meth:`compile` rather than the constructor: it owns the timestep
    and checkpoint validation that ``simulate`` and ``simulate_batched``
    historically duplicated.
    """

    network: "SpikingNetwork"
    timesteps: int
    checkpoints: FrozenSet[int] = frozenset()
    collect_statistics: bool = True
    hook: Optional[StepHook] = None

    @classmethod
    def compile(
        cls,
        network: "SpikingNetwork",
        timesteps: int,
        checkpoints: Optional[Iterable[int]] = None,
        collect_statistics: bool = True,
        hook: Optional[StepHook] = None,
        record_final: bool = True,
    ) -> "ExecutionPlan":
        """Validate and freeze one run's parameters.

        ``record_final`` adds the final timestep to the checkpoint set (the
        ``simulate`` contract); the adaptive engine passes ``False`` because
        its hook owns all score collection.
        """

        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        checkpoint_set = normalize_checkpoints(timesteps, checkpoints)
        if record_final:
            checkpoint_set = checkpoint_set | {timesteps}
        return cls(
            network=network,
            timesteps=timesteps,
            checkpoints=frozenset(checkpoint_set),
            collect_statistics=collect_statistics,
            hook=hook,
        )


def normalize_checkpoints(timesteps: int, checkpoints: Optional[Iterable[int]]) -> FrozenSet[int]:
    """Validate requested score checkpoints against the run length.

    Out-of-range checkpoints are dropped with a warning (they cannot be
    recorded); the in-range remainder is returned as a set.  This is the one
    shared implementation of the validation ``simulate`` and
    ``simulate_batched`` each used to carry.
    """

    requested = {int(t) for t in (checkpoints or [])}
    out_of_range = sorted(t for t in requested if not 0 < t <= timesteps)
    if out_of_range:
        # stacklevel walks normalize_checkpoints -> compile -> the simulate
        # wrapper -> the user's call site, so the warning lands on user code.
        warnings.warn(
            f"checkpoints {out_of_range} lie outside 1..{timesteps} and will not be recorded; "
            "extend `timesteps` to capture them",
            UserWarning,
            stacklevel=4,
        )
    return frozenset(t for t in requested if 0 < t <= timesteps)


@dataclass
class ExecutionResult:
    """What :func:`execute` hands back: checkpoint scores, statistics, hook payload."""

    scores: Dict[int, np.ndarray] = field(default_factory=dict)
    timesteps: int = 0
    spike_stats: List[LayerSpikeStats] = field(default_factory=list)
    hook_result: object = None


def merge_execution_results(results: Sequence[ExecutionResult]) -> ExecutionResult:
    """Merge per-batch results into one, preserving order.

    Checkpoint scores concatenate along the batch axis in the order the
    partial results are given (evaluation batches are contiguous slices, so
    concatenation restores the original sample order); spike statistics
    aggregate through :func:`~repro.snn.statistics.merge_spike_stats` so
    each layer appears exactly once.  Hook payloads are per run and are not
    merged.
    """

    merged: Dict[int, List[np.ndarray]] = {}
    timesteps = 0
    for result in results:
        timesteps = max(timesteps, result.timesteps)
        for t, score in result.scores.items():
            merged.setdefault(t, []).append(score)
    scores = {t: np.concatenate(parts, axis=0) for t, parts in merged.items()}
    stats = merge_spike_stats([result.spike_stats for result in results])
    return ExecutionResult(scores=scores, timesteps=timesteps, spike_stats=stats)


def execute(plan: ExecutionPlan, images: np.ndarray) -> ExecutionResult:
    """The timestep loop: run ``plan`` over one input batch.

    Reset, encode, step every layer once per timestep, snapshot checkpoint
    scores, let the hook observe (and possibly stop the run), collect
    statistics.

    With a tracer active the loop emits one run span, one span per timestep
    and one per layer × timestep.  With the tracer disabled the loop below
    runs with zero instrumentation — not even a null-span context — so the
    uninstrumented wall-clock is preserved (the ≤2% overhead gate in
    ``benchmarks/test_obs_overhead.py`` pins this).
    """

    tracer = active_tracer()
    network = plan.network
    network.reset_state()
    network.encoder.reset(images)
    if network.encoder.constant:
        network.layers[0].hold_constant_input()
    hook = plan.hook
    if hook is not None:
        hook.start(network, len(images))
    scores: Dict[int, np.ndarray] = {}
    if not tracer.enabled:
        for t in range(1, plan.timesteps + 1):
            network.step(network.encoder.step(t))
            if t in plan.checkpoints:
                scores[t] = network.output_layer.scores().copy()
            if hook is not None and hook.after_step(t):
                break
    else:
        with tracer.span("run:sequential", category="executor") as run_span:
            run_span.annotate(
                network=network.name,
                timesteps=plan.timesteps,
                batch=len(images),
                hooked=hook is not None,
            )
            for t in range(1, plan.timesteps + 1):
                with tracer.span("timestep", category="executor") as step_span:
                    step_span.annotate(t=t)
                    signal = network.encoder.step(t)
                    for index, layer in enumerate(network.layers):
                        with tracer.span("layer-step", category="executor") as layer_span:
                            layer_span.annotate(layer=f"{index}:{layer.name}", t=t)
                            signal = layer.step(signal)
                    if t in plan.checkpoints:
                        scores[t] = network.output_layer.scores().copy()
                    stop = hook is not None and hook.after_step(t)
                if stop:
                    run_span.annotate(exited_at=t)
                    break
    stats = collect_spike_stats(network.layers, plan.timesteps) if plan.collect_statistics else []
    return ExecutionResult(
        scores=scores,
        timesteps=plan.timesteps,
        spike_stats=stats,
        hook_result=None if hook is None else hook.result(),
    )
