"""Integrate-and-fire neuron dynamics (paper Section 2).

The paper converts ANNs onto the IF model: neuron *i* of layer *l* integrates
its weighted spike input ``z`` into a membrane potential ``V`` (Eq. 1), emits
a spike when ``V`` reaches the threshold ``V_thr`` (Eq. 2) and is then reset.
Two reset rules exist; reset-to-zero discards the residual charge above the
threshold while reset-by-subtraction (Eq. 3) keeps it:

    V(t) = V(t-1) + z(t) - V_thr * Θ(t)        (reset-by-subtraction)
    V(t) = (V(t-1) + z(t)) * (1 - Θ(t))        (reset-to-zero)

The paper uses reset-by-subtraction because reset-to-zero "suffers from
considerable information loss" — the ablation benchmark
``benchmarks/test_ablation_reset_mode.py`` reproduces that comparison.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np

from ..runtime import ComputePolicy, resolve_policy

__all__ = ["ResetMode", "IFNeuronPool"]


class ResetMode(str, Enum):
    """Membrane reset rule applied after a spike."""

    SUBTRACT = "subtract"
    ZERO = "zero"


class IFNeuronPool:
    """A pool of integrate-and-fire neurons sharing threshold and reset rule.

    The pool is shape-agnostic: it lazily allocates its membrane state the
    first time :meth:`step` is called, matching whatever (batched) activation
    shape the owning spiking layer produces.

    Parameters
    ----------
    threshold:
        Firing threshold ``V_thr``.  Data-normalized conversions use 1.0 for
        every layer (the norm-factors are folded into the weights instead).
    reset_mode:
        :class:`ResetMode` — reset-by-subtraction (paper default) or
        reset-to-zero.
    record_spikes:
        When true, the pool accumulates the total number of emitted spikes,
        which the statistics module turns into firing rates and energy
        proxies.
    policy:
        Compute policy governing the pool's state dtype and whether
        :meth:`step` reuses preallocated scratch buffers (profile name,
        :class:`~repro.runtime.ComputePolicy`, or ``None`` for the active
        policy at construction time).
    """

    def __init__(
        self,
        threshold: float = 1.0,
        reset_mode: ResetMode = ResetMode.SUBTRACT,
        record_spikes: bool = True,
        policy: Union[None, str, ComputePolicy] = None,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = float(threshold)
        self.reset_mode = ResetMode(reset_mode)
        self.record_spikes = record_spikes
        self.policy: ComputePolicy = resolve_policy(policy)
        self.membrane: Optional[np.ndarray] = None
        self.spike_count: Optional[np.ndarray] = None
        self.steps = 0
        # In-place profiles reuse these across timesteps (the fired indicator
        # in the membrane dtype and the spike output in the spike lane) so
        # `step` allocates nothing after warmup.
        self._theta_scratch: Optional[np.ndarray] = None
        self._spike_scratch: Optional[np.ndarray] = None
        # Quantized threshold in scale units (``rint(threshold / scale)``),
        # set by the owning layer when its weights quantize.  With integer
        # input currents (in scale units) the whole membrane recursion then
        # stays on the integer grid — compare and subtract both use it.
        self.threshold_q: Optional[float] = None
        # Initial membrane potential as a *fraction* of the threshold,
        # set by the ``InitMembrane`` low-latency pass (λ/2 initialization:
        # 0.5).  Expressed as a fraction so it survives quantization — the
        # absolute value follows whichever threshold (float or integer
        # levels) is live when state allocates.
        self.v_init: float = 0.0
        # When enabled (SpikeNorm-style threshold balancing), the pool tracks
        # the largest weighted input current it has ever received.
        self.track_input_stats = False
        self.max_input_current = 0.0

    def set_policy(self, policy: Union[str, ComputePolicy]) -> "IFNeuronPool":
        """Switch compute policy, casting live state in place; returns ``self``.

        Membrane potentials and spike counters survive the switch (cast to
        the new dtype); scratch buffers are dropped and lazily re-allocated.
        """

        self.policy = resolve_policy(policy)
        if self.membrane is not None:
            self.membrane = self.policy.cast(self.membrane)
        if self.spike_count is not None:
            self.spike_count = self.policy.cast(self.spike_count)
        self._theta_scratch = None
        self._spike_scratch = None
        return self

    def set_quantization(self, scale: Optional[float]) -> None:
        """Pin (or clear, with ``None``) the quantized firing threshold.

        The owning layer calls this when its weights move on or off a
        quantized grid; ``scale`` is the layer's weight scale, so membrane
        units become multiples of it and the threshold snaps to the integer
        number of levels :func:`repro.runtime.quantization_params` chose.
        """

        if scale is None:
            self.threshold_q = None
        else:
            self.threshold_q = max(1.0, float(np.rint(self.threshold / float(scale))))

    def reset_state(self) -> None:
        """Forget membrane potential and spike counts (start of a new stimulus)."""

        self.membrane = None
        self.spike_count = None
        self.steps = 0

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired samples from the batch axis of the pool's state.

        ``keep`` is a boolean mask (or index array) over the current batch
        axis; the adaptive serving engine uses this to shrink the simulation
        to the samples that have not yet produced a confident prediction.
        """

        if self.membrane is not None:
            self.membrane = self.membrane[keep]
        if self.spike_count is not None:
            self.spike_count = self.spike_count[keep]

    def initial_membrane(self) -> float:
        """The membrane potential a fresh stimulus starts from.

        ``v_init * threshold`` in the pool's live units: under a quantized
        grid the threshold is the integer number of levels and the initial
        value is rounded onto the lattice, so integer-membrane accumulation
        survives the λ/2 initialization of the low-latency passes.
        """

        if not self.v_init:
            return 0.0
        if self.policy.quantized and self.threshold_q is not None:
            return float(np.rint(self.v_init * self.threshold_q))
        return self.v_init * self.threshold

    def _ensure_state(self, shape: Tuple[int, ...]) -> None:
        policy = self.policy
        if self.membrane is None or self.membrane.shape != shape or self.membrane.dtype != policy.dtype:
            self.membrane = policy.zeros(shape)
            initial = self.initial_membrane()
            if initial:
                self.membrane += initial
            self.spike_count = policy.zeros(shape) if self.record_spikes else None
            self.steps = 0

    def _scratch(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """The step's ``(Θ, spikes)`` buffers: reused under an in-place
        profile, freshly allocated otherwise (callers may keep those)."""

        policy = self.policy
        if not policy.in_place:
            return policy.empty(shape), np.empty(shape, dtype=policy.spike_dtype)
        if (
            self._theta_scratch is None
            or self._theta_scratch.shape != shape
            or self._theta_scratch.dtype != policy.dtype
            or self._spike_scratch.dtype != policy.spike_dtype
        ):
            self._theta_scratch = policy.empty(shape)
            self._spike_scratch = np.empty(shape, dtype=policy.spike_dtype)
        return self._theta_scratch, self._spike_scratch

    def step(self, input_current: np.ndarray) -> np.ndarray:
        """Advance one timestep with the given input current ``z``.

        Returns the binary spike output Θ (same shape as the input current).
        The coercion below is copy-free when the input already carries the
        policy dtype — the common case, since upstream layers produce their
        currents under the same policy.  Under an in-place profile the
        returned spike tensor is a reused scratch buffer, overwritten by the
        next call; callers that keep spikes across timesteps must copy.
        """

        input_current = self.policy.asarray(input_current)
        self._ensure_state(input_current.shape)
        if self.track_input_stats and input_current.size:
            batch_max = float(input_current.max())
            if batch_max > self.max_input_current:
                self.max_input_current = batch_max
        # This is the innermost simulation loop, written as dense same-dtype
        # passes (numpy's masked loops crawl over scattered spike masks):
        # integrate, compare into Θ in the membrane dtype, count, cast Θ into
        # the spike lane, then reset by subtracting ``V_thr * Θ``.  That is
        # bit-identical to ``where(V >= V_thr, V - V_thr, V)``: ``V_thr * 0``
        # is +0.0 and ``V - 0.0`` keeps the bits of ``V`` for every float,
        # -0.0, ±inf and NaN included.  (Which NaN a NaN + NaN integration
        # yields depends on the add's operand order, which IEEE 754 leaves
        # open; a reference must integrate with the same in-place add.)
        self.membrane += input_current
        threshold = self.threshold
        if self.policy.quantized and self.threshold_q is not None:
            # Quantized layers accumulate in scale units; the threshold in
            # those units is the integer number of levels chosen at
            # quantization time, keeping the recursion on the integer grid.
            threshold = self.threshold_q
        theta, spikes = self._scratch(input_current.shape)
        np.greater_equal(self.membrane, threshold, out=theta)
        if self.record_spikes:
            self.spike_count += theta
        np.copyto(spikes, theta, casting="unsafe")
        if self.reset_mode is ResetMode.SUBTRACT:
            theta *= threshold
            self.membrane -= theta
        else:
            self.membrane[self.membrane >= threshold] = 0.0
        self.steps += 1
        return spikes

    # -- statistics ----------------------------------------------------------------

    @property
    def total_spikes(self) -> float:
        """Total number of spikes emitted since the last reset."""

        if self.spike_count is None:
            return 0.0
        return float(self.spike_count.sum())

    @property
    def num_neurons(self) -> int:
        """Number of neurons in the pool (0 before the first step)."""

        if self.membrane is None:
            return 0
        # The leading axis is the batch; neurons are everything after it.
        return int(np.prod(self.membrane.shape[1:]))

    @property
    def batch_size(self) -> int:
        """Batch size of the current stimulus (0 before the first step)."""

        if self.membrane is None:
            return 0
        return int(self.membrane.shape[0])

    def firing_rates(self) -> np.ndarray:
        """Per-neuron firing rate (spikes per timestep) since the last reset."""

        if self.spike_count is None or self.steps == 0:
            raise RuntimeError("no simulation steps recorded")
        return self.spike_count / self.steps
