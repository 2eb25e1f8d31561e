"""Compute policies: the numeric execution profile of every array in the stack.

The reproduction historically hardcoded ``np.float64`` at ~50 sites across the
package — every tensor constructor, every spiking layer, every serving seam
re-coerced its operands to double precision.  That is the right default for
*training* (the TCL λ gradients are tiny and the golden parity suites pin the
bit-exact f64 behaviour), but the converted SNN is a pure inference artifact:
its arithmetic can run in single precision at half the memory bandwidth with
no retraining, which is the whole energy-efficiency pitch of the paper.

A :class:`ComputePolicy` bundles the three knobs that decide how the numeric
stack executes:

* ``dtype`` — the floating dtype of every array the stack produces;
* ``in_place`` — whether hot-path kernels may reuse preallocated scratch
  buffers (:class:`~repro.runtime.buffers.BufferPool`) instead of allocating
  fresh arrays every timestep;
* ``name`` — the profile name recorded in serving-artifact metadata so a
  loaded network runs the way it was exported.

Two named profiles ship:

* ``"train64"`` — float64, allocation-per-step kernels.  Bit-identical to the
  historical behaviour and the process-wide default.
* ``"infer32"`` — float32, in-place kernels with scratch reuse.  The
  inference profile: identical predictions on the benchmark fixtures at
  ≥1.5× the per-timestep throughput of float64 dense simulation.
* ``"infer8"`` — int8 weights on per-layer λ-derived scales with integer
  membrane accumulation (see :mod:`repro.runtime.quantize`).  The first
  *lossy* profile: ~4× smaller artifacts, faster on the memory-bound event
  conv path, accuracy pinned within 0.5% of ``infer32`` by the parity suite.

The *active* policy is a process-wide default consulted wherever no explicit
policy has been threaded (tensor constructors, freshly built pools/layers).
It can be pinned for a whole process with the ``REPRO_COMPUTE_PROFILE``
environment variable (the CI smoke job runs the snn/serve suites under
``infer32`` this way) or scoped with :func:`using_policy`.  Explicit
selection goes through ``Converter.precision(...)``,
``SpikingNetwork.set_policy`` and ``AdaptiveConfig.precision``.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Optional, Union

import numpy as np

from .buffers import BufferPool

__all__ = [
    "PROFILE_NAMES",
    "PROFILES",
    "ComputePolicy",
    "active_policy",
    "set_active_policy",
    "using_policy",
    "resolve_policy",
    "validate_policy_spec",
    "as_float_array",
]

#: Environment variable pinning the process-wide default profile at import.
PROFILE_ENV_VAR = "REPRO_COMPUTE_PROFILE"


class ComputePolicy:
    """One numeric execution profile: dtype, scratch reuse, and a name.

    Policies are immutable value objects; the named profiles are shared
    singletons and custom instances can be passed anywhere a profile name is
    accepted.  Mutable scratch state never lives on the policy — consumers
    create their own :class:`~repro.runtime.buffers.BufferPool` via
    :meth:`buffer_pool` (spiking layers keep theirs in ``backend_cache``).
    """

    __slots__ = ("name", "dtype", "in_place", "quantized", "spike_dtype")

    def __init__(
        self,
        name: str,
        dtype,
        in_place: bool = False,
        quantized: bool = False,
        spike_dtype=None,
    ) -> None:
        object.__setattr__(self, "name", str(name))
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise ValueError(f"compute policies need a floating dtype, got {dtype}")
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "in_place", bool(in_place))
        # quantized: layer weights live on per-layer integer grids (snapped so
        # threshold/scale is a whole number of levels); set_policy quantizes
        # live parameters on entry and dequantizes on exit.  dtype stays a
        # float — it is the *accumulator* lane the integer semantics ride in.
        object.__setattr__(self, "quantized", bool(quantized))
        spike_dtype = dtype if spike_dtype is None else np.dtype(spike_dtype)
        object.__setattr__(self, "spike_dtype", spike_dtype)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ComputePolicy is immutable")

    def __repr__(self) -> str:
        detail = f"name={self.name!r}, dtype={self.dtype.name}, in_place={self.in_place}"
        if self.quantized:
            detail += f", quantized=True, spike_dtype={self.spike_dtype.name}"
        return f"ComputePolicy({detail})"

    # -- array helpers ---------------------------------------------------------

    def asarray(self, value) -> np.ndarray:
        """Coerce ``value`` to this policy's dtype (no copy when it matches)."""

        return np.asarray(value, dtype=self.dtype)

    def cast(self, array: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Cast an array (or ``None``) to the policy dtype, copy-free if it matches."""

        if array is None:
            return None
        return np.asarray(array).astype(self.dtype, copy=False)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def empty(self, shape) -> np.ndarray:
        return np.empty(shape, dtype=self.dtype)

    def buffer_pool(self) -> BufferPool:
        """A fresh scratch-buffer pool for one consumer (layer cache, pool)."""

        return BufferPool()


#: The named profiles every precision-accepting surface understands.
PROFILES = {
    "train64": ComputePolicy("train64", np.float64, in_place=False),
    "infer32": ComputePolicy("infer32", np.float32, in_place=True),
    # infer8 accumulates in float32 lanes whose values are exact integers
    # (< 2**24), so BLAS still does the heavy lifting; spikes travel as int8
    # (a quarter of the float32 memory traffic) and the in-place machinery
    # reuses the same scratch pools as infer32, plus reused cast buffers for
    # the int8 → accumulator hops.
    "infer8": ComputePolicy(
        "infer8", np.float32, in_place=True, quantized=True, spike_dtype=np.int8
    ),
}

#: Profile names, in preference order (config, CLI choices, docs).
PROFILE_NAMES = tuple(PROFILES)


def validate_policy_spec(spec: object, allow_none: bool = False) -> None:
    """Raise ``ValueError`` unless ``spec`` is a usable compute-policy spec.

    Accepts a :class:`ComputePolicy` instance, one of :data:`PROFILE_NAMES`, or — with
    ``allow_none`` — ``None`` (meaning "inherit the active policy").
    """

    if spec is None and allow_none:
        return
    if isinstance(spec, ComputePolicy):
        return
    if isinstance(spec, str) and spec.lower() in PROFILES:
        return
    raise ValueError(
        f"unknown compute-policy profile {spec!r}; "
        f"valid specs: {', '.join(PROFILE_NAMES)} or a ComputePolicy instance"
    )


def resolve_policy(spec: Union[None, str, ComputePolicy] = None) -> ComputePolicy:
    """Turn a policy spec into a :class:`ComputePolicy` (``None`` → active)."""

    if spec is None:
        return active_policy()
    if isinstance(spec, ComputePolicy):
        return spec
    validate_policy_spec(spec)
    return PROFILES[spec.lower()]


# ---------------------------------------------------------------------------
# Process-wide active policy
# ---------------------------------------------------------------------------


def _profile_from_env(value: Optional[str]) -> ComputePolicy:
    """The initial active policy for an environment-variable value."""

    if not value:
        return PROFILES["train64"]
    if value.lower() in PROFILES:
        return PROFILES[value.lower()]
    warnings.warn(
        f"{PROFILE_ENV_VAR}={value!r} names no known compute profile "
        f"(valid: {', '.join(PROFILE_NAMES)}); defaulting to 'train64'",
        UserWarning,
        stacklevel=2,
    )
    return PROFILES["train64"]


class _ActivePolicy:
    """Process-wide default policy (guarded for concurrent servers)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._policy = _profile_from_env(os.environ.get(PROFILE_ENV_VAR))

    def get(self) -> ComputePolicy:
        # reprolint: allow[lock] -- single reference read; swaps in set() are atomic, a lock here is hot-path cost for nothing
        return self._policy

    def set(self, policy: ComputePolicy) -> ComputePolicy:
        with self._lock:
            previous = self._policy
            self._policy = policy
        return previous


_ACTIVE = _ActivePolicy()


def active_policy() -> ComputePolicy:
    """The process-wide default :class:`ComputePolicy` (``train64`` unless
    overridden by :func:`set_active_policy`, :func:`using_policy`, or the
    ``REPRO_COMPUTE_PROFILE`` environment variable)."""

    return _ACTIVE.get()


def set_active_policy(spec: Union[str, ComputePolicy]) -> ComputePolicy:
    """Replace the process-wide default policy; returns the previous one."""

    return _ACTIVE.set(resolve_policy(spec))


class using_policy:
    """Context manager scoping the active policy to a ``with`` block.

    Networks and pools resolve the active policy when they are *built* (and
    explicit ``set_policy`` calls always win), so the manager is primarily a
    construction-time scope::

        with using_policy("infer32"):
            result = Converter(model).calibrate(images).convert()
    """

    def __init__(self, spec: Union[str, ComputePolicy]) -> None:
        self._policy = resolve_policy(spec)
        self._previous: Optional[ComputePolicy] = None

    def __enter__(self) -> ComputePolicy:
        self._previous = _ACTIVE.set(self._policy)
        return self._policy

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        assert self._previous is not None
        _ACTIVE.set(self._previous)


def resolve_dtype(dtype=None) -> np.dtype:
    """An explicit dtype, or the active policy's when ``None``.

    The one precedence rule every dtype-accepting seam shares (parameter
    initialisers, data transforms, tensor constructors): a caller-supplied
    dtype wins, the process-wide active policy fills the default.
    """

    return np.dtype(dtype) if dtype is not None else active_policy().dtype


def as_float_array(value, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a floating array *preserving* an existing float dtype.

    The seam helper for deserialization and layer constructors: an array that
    already carries a floating dtype (e.g. float32 weights loaded from an
    ``infer32`` artifact) passes through untouched — re-coercing it to a fixed
    dtype is exactly the silent upcast this module exists to eliminate.
    Non-float input (lists, integer arrays) is cast to ``dtype`` (default:
    the active policy's dtype).
    """

    array = np.asarray(value)
    if array.dtype.kind == "f":
        return array
    return array.astype(dtype if dtype is not None else active_policy().dtype)
