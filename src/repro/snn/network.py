"""Time-stepped simulation of a converted spiking network.

A :class:`SpikingNetwork` is an ordered list of spiking layers ending in a
:class:`~repro.snn.layers.SpikingOutputLayer`.  :meth:`SpikingNetwork.simulate`
presents a batch of analog images for ``timesteps`` cycles and returns the
accumulated class scores — optionally at several intermediate latencies in a
single pass, which is how the Table-1 benchmarks sweep T ∈ {50, 100, 150, …}
without re-simulating from scratch for every latency.

The timestep loop itself lives in :mod:`repro.snn.executor`: ``simulate``
and ``simulate_batched`` compile an :class:`~repro.snn.executor.ExecutionPlan`
and hand it to :func:`~repro.snn.executor.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..runtime import ComputePolicy, active_policy, resolve_policy
from .encoding import InputEncoder, RealCoding
from .executor import ExecutionPlan, execute, merge_execution_results
from .layers import SpikingLayer, SpikingOutputLayer
from .statistics import LayerSpikeStats

__all__ = ["SimulationResult", "SpikingNetwork"]


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    scores:
        ``{timesteps: class-score array of shape (N, num_classes)}`` for every
        requested checkpoint (always includes the final timestep).
    timesteps:
        The total number of simulated cycles.
    spike_stats:
        Per-layer spike statistics collected at the end of the run.
    """

    scores: Dict[int, np.ndarray]
    timesteps: int
    spike_stats: List[LayerSpikeStats] = field(default_factory=list)

    def predictions(self, at: Optional[int] = None) -> np.ndarray:
        """Arg-max class predictions at a given checkpoint (default: final)."""

        key = self.timesteps if at is None else at
        if key not in self.scores:
            raise KeyError(f"no checkpoint recorded at T={key}; available: {sorted(self.scores)}")
        return self.scores[key].argmax(axis=1)

    def accuracy(self, labels: np.ndarray, at: Optional[int] = None) -> float:
        """Classification accuracy at a given checkpoint (default: final)."""

        labels = np.asarray(labels)
        return float((self.predictions(at) == labels).mean())

    def accuracy_curve(self, labels: np.ndarray) -> Dict[int, float]:
        """Accuracy at every recorded checkpoint, keyed by latency."""

        return {t: self.accuracy(labels, at=t) for t in sorted(self.scores)}

    @property
    def total_spikes(self) -> float:
        return float(sum(stat.total_spikes for stat in self.spike_stats))


class SpikingNetwork:
    """An ordered stack of spiking layers driven by an input encoder."""

    def __init__(
        self,
        layers: Sequence[SpikingLayer],
        encoder: Optional[InputEncoder] = None,
        name: str = "snn",
    ) -> None:
        layers = list(layers)
        if not layers:
            raise ValueError("a spiking network needs at least one layer")
        if not isinstance(layers[-1], SpikingOutputLayer):
            raise TypeError("the last layer of a SpikingNetwork must be a SpikingOutputLayer")
        self.layers = layers
        self.encoder = encoder if encoder is not None else RealCoding()
        self.name = name
        #: Compute policy of the whole stack (initially the active policy at
        #: construction; :meth:`set_policy` switches it everywhere at once).
        self._policy: ComputePolicy = active_policy()
        self.policy_spec: str = self._policy.name
        if self._policy.quantized:
            # A quantized active policy is a *state* contract, not just a
            # dtype: reporting "infer8" while the handed-over layers still
            # carry float weights would lie to every downstream seam (the
            # engine's precision override skips matching names, artifacts
            # record the spec verbatim).  Idempotent for layers that already
            # sit on their grids (e.g. restored from an int8 artifact).
            self.set_policy(self._policy)

    # -- bookkeeping ----------------------------------------------------------

    def reset_state(self) -> None:
        """Reset every layer's membrane state (new stimulus)."""

        for layer in self.layers:
            layer.reset_state()

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired samples from every layer's batch axis.

        ``keep`` is a boolean mask (or index array) over the current batch.
        The adaptive serving engine retires samples whose prediction has
        stabilised and compacts the network so later timesteps run on an
        ever-smaller batch.
        """

        for layer in self.layers:
            layer.compact(keep)

    # -- compute policy --------------------------------------------------------

    @property
    def policy(self) -> ComputePolicy:
        """The compute policy governing every layer, pool and the encoder."""

        return self._policy

    def set_policy(self, spec: Union[str, ComputePolicy]) -> "SpikingNetwork":
        """Switch the whole stack to a compute policy; returns ``self``.

        ``spec`` is a profile name (``"train64"``, ``"infer32"``), or a
        :class:`~repro.runtime.ComputePolicy` instance.  Every layer casts
        its synaptic weights, every IF pool casts its live state, kernel
        caches are dropped (their cached operands carry the old dtype), and
        the input encoder re-targets its emitted dtype.  Note that switching
        a downcast network back up (``infer32`` → ``train64``) cannot
        restore the bits the downcast discarded.
        """

        policy = resolve_policy(spec)
        for layer in self.layers:
            layer.set_policy(policy)
        self.encoder.set_policy(policy)
        self._policy = policy
        self.policy_spec = policy.name
        return self

    @property
    def output_layer(self) -> SpikingOutputLayer:
        return self.layers[-1]  # type: ignore[return-value]

    @property
    def num_neurons(self) -> int:
        """Total number of IF neurons (known only after at least one step)."""

        return sum(pool.num_neurons for layer in self.layers for pool in layer.neuron_pools)

    # -- simulation --------------------------------------------------------------

    def step(self, analog_input: np.ndarray) -> np.ndarray:
        """Advance the whole stack one timestep; returns the head's spike output."""

        signal = analog_input
        for layer in self.layers:
            signal = layer.step(signal)
        return signal

    def simulate(
        self,
        images: np.ndarray,
        timesteps: int,
        checkpoints: Optional[Iterable[int]] = None,
        collect_statistics: bool = True,
    ) -> SimulationResult:
        """Present ``images`` for ``timesteps`` cycles.

        Parameters
        ----------
        images:
            Analog input batch of shape ``(N, C, H, W)`` (already normalised
            exactly as the ANN's evaluation inputs were).
        timesteps:
            Total number of simulation cycles (the paper's "latency" T).
        checkpoints:
            Optional intermediate latencies at which to snapshot the class
            scores; the final latency is always included.
        collect_statistics:
            Whether to gather per-layer spike statistics at the end.
        """

        plan = ExecutionPlan.compile(
            self, timesteps, checkpoints=checkpoints, collect_statistics=collect_statistics
        )
        images = self._policy.asarray(images)
        result = execute(plan, images)
        return SimulationResult(
            scores=result.scores, timesteps=timesteps, spike_stats=result.spike_stats
        )

    def simulate_batched(
        self,
        images: np.ndarray,
        timesteps: int,
        batch_size: int = 64,
        checkpoints: Optional[Iterable[int]] = None,
    ) -> SimulationResult:
        """Simulate a large evaluation set in smaller batches and merge scores."""

        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        # One compiled plan covers every batch.
        plan = ExecutionPlan.compile(self, timesteps, checkpoints=checkpoints)
        images = self._policy.asarray(images)
        results = []
        for start in range(0, len(images), batch_size):
            batch = images[start: start + batch_size]
            results.append(execute(plan, batch))
        # Merging: score concatenation + one stats entry per layer however
        # many batches the evaluation set was split into.
        merged = merge_execution_results(results)
        return SimulationResult(
            scores=merged.scores, timesteps=timesteps, spike_stats=merged.spike_stats
        )
