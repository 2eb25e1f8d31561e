"""Input coding schemes for the first SNN layer.

The paper feeds the first spiking layer with the analog input values at every
timestep ("real coding", Section 3.1), exactly as Rueckauer et al. 2017 do:
the pixel intensities act as constant input currents and the first layer's IF
neurons turn them into spike trains.  Poisson rate coding is provided as an
alternative for the ablation study; it converts each (non-negative, scaled)
pixel into an independent Bernoulli spike train.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..runtime import ComputePolicy, active_policy, resolve_policy

__all__ = ["InputEncoder", "RealCoding", "PoissonCoding"]


class InputEncoder:
    """Base class: produce the input tensor presented at one timestep.

    The dtype the encoder emits follows its compute policy (whatever
    :meth:`set_policy` installed — the owning
    :class:`~repro.snn.SpikingNetwork` keeps it in sync — or the active
    policy by default).  Passing an explicit ``dtype`` pins the emitted
    dtype instead; historically this class silently re-coerced every input
    batch to ``float64``.

    Both knobs are declared as class-level defaults so subclasses with
    their own ``__init__`` need not call the base one (mirroring
    ``SpikingLayer``'s cache/policy attributes).
    """

    #: Explicitly pinned dtype (``None`` defers to the policy) and the
    #: installed compute policy (``None`` means the process-wide active one).
    _dtype: Optional[np.dtype] = None
    _policy: Optional[ComputePolicy] = None

    def __init__(self, dtype=None) -> None:
        if dtype is not None:
            self._dtype = np.dtype(dtype)

    @property
    def dtype(self) -> np.dtype:
        """The floating dtype of the tensors this encoder emits."""

        if self._dtype is not None:
            return self._dtype
        policy = self._policy if self._policy is not None else active_policy()
        return policy.dtype

    def set_policy(self, policy: Union[str, ComputePolicy]) -> "InputEncoder":
        """Follow a compute policy.

        An explicitly pinned ``dtype`` keeps winning — the pin is a direct
        user request (``Converter.convert`` re-applies the network policy
        to the encoder, and must not silently erase it).  A mismatched pin
        shows up in :func:`repro.runtime.audit_network_dtypes`.
        """

        self._policy = resolve_policy(policy)
        return self

    def clone(self) -> "InputEncoder":
        """A fresh, state-free copy of this encoder (same configuration).

        The ``ErrorCompensation`` conversion pass replays calibration data
        through a temporary network with its own encoder, so per-batch state
        (the encoded images) must not leak into the converted network's.
        Subclasses whose ``__init__`` takes configuration must override (a
        seeded stochastic encoder should restart from its seed so copies
        draw deterministically).
        """

        twin = type(self)()
        twin._dtype = self._dtype
        twin._policy = self._policy
        return twin

    def reset(self, images: np.ndarray) -> None:
        """Prepare the encoder for a new batch of analog images.

        Copy-free when ``images`` already carries the encoder's dtype.
        """

        self.images = np.asarray(images, dtype=self.dtype)

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired samples from the encoded batch (adaptive serving)."""

        self.images = self.images[keep]

    def step(self, t: int) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class RealCoding(InputEncoder):
    """Constant-current (analog) input coding — the paper's choice."""

    def step(self, t: int) -> np.ndarray:
        return self.images


class PoissonCoding(InputEncoder):
    """Poisson rate coding: each pixel spikes with probability ∝ its intensity.

    Intensities are shifted/scaled into ``[0, 1]`` per batch before being
    interpreted as firing probabilities; the ``gain`` factor rescales the
    resulting rates.
    """

    def __init__(self, gain: float = 1.0, seed: int = 0, dtype=None) -> None:
        super().__init__(dtype=dtype)
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        self.gain = gain
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def clone(self) -> "PoissonCoding":
        # Restart the twin's stream from the seed: its draws are then a
        # deterministic function of (seed, batch contents), not of how many
        # steps the original has already taken.
        twin = PoissonCoding(gain=self.gain, seed=self.seed, dtype=self._dtype)
        twin._policy = self._policy
        return twin

    def reset(self, images: np.ndarray) -> None:
        super().reset(images)
        lo = self.images.min()
        hi = self.images.max()
        span = hi - lo if hi > lo else 1.0
        self._probabilities = np.clip(self.gain * (self.images - lo) / span, 0.0, 1.0)

    def compact(self, keep: np.ndarray) -> None:
        super().compact(keep)
        self._probabilities = self._probabilities[keep]

    def step(self, t: int) -> np.ndarray:
        return (self._rng.random(self._probabilities.shape) < self._probabilities).astype(self.dtype)
