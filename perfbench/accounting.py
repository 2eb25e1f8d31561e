"""The benchmark's own arithmetic: percentiles, span self time, synaptic ops.

Everything here is pure (plain numbers in, plain numbers out) so the unit
tests in ``test_accounting.py`` can pin it without running a workload.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a timing tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is supported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(count: int, percentile: float) -> float:
    """How many of ``count`` samples lie above the ``percentile``-th one."""

    return count * (100.0 - percentile) / 100.0


def tail_percentile(count: int, requested: float = 99.0) -> Optional[float]:
    """The highest ladder percentile at or below ``requested`` that ``count``
    samples support (at least :data:`MIN_BEYOND` samples beyond it), or
    ``None`` when even the median is unsupported."""

    for percentile in TAIL_LADDER:
        if percentile <= requested and samples_beyond(count, percentile) >= MIN_BEYOND - 1e-9:
            return percentile
    return None


def tail(values: Sequence[float], requested: float = 99.0) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest supported tail percentile.

    Falls back to the maximum (percentile 100) when fewer than twenty
    samples exist, so a tiny run still reports its worst case.
    """

    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no samples to take a tail percentile of")
    percentile = tail_percentile(values.size, requested)
    if percentile is None:
        return float(values.max()), 100.0
    return float(np.percentile(values, percentile)), percentile


def self_times(spans: Iterable) -> Dict[int, float]:
    """Self time (seconds) of every span: its duration minus the part of it
    its direct children cover.

    ``spans`` are finished :class:`repro.obs.Span` objects or anything with
    ``span_id``, ``parent_id`` and ``duration_s``.  Children are summed, not
    unioned: spans of one thread nest without overlap, and a child running
    on another thread (none of the aggregated spans do) would be charged to
    its parent anyway.
    """

    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.duration_s or 0.0
    return {span.span_id: (span.duration_s or 0.0) - covered[span.span_id] for span in spans}


def descendants_of(spans: Iterable, root_names: Sequence[str]) -> List:
    """The spans lying (at any depth) under a span named in ``root_names``,
    the roots themselves included."""

    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    roots = set(root_names)
    memo: Dict[int, bool] = {}

    def under(span) -> bool:
        chain = []
        found = False
        while span is not None:
            if span.span_id in memo:
                found = memo[span.span_id]
                break
            chain.append(span.span_id)
            if span.name in roots:
                found = True
                break
            span = by_id.get(span.parent_id) if span.parent_id is not None else None
        for span_id in chain:
            memo[span_id] = found
        return found

    return [span for span in spans if under(span)]


def self_time_by(spans: Iterable, key) -> Dict[object, float]:
    """Total self time (seconds) grouped by ``key(span)``; ``None`` keys are skipped."""

    spans = list(spans)
    selfs = self_times(spans)
    totals: Dict[object, float] = defaultdict(float)
    for span in spans:
        group = key(span)
        if group is not None:
            totals[group] += selfs[span.span_id]
    return dict(totals)


def layer_index(span) -> Optional[int]:
    """The layer index of a ``layer-step`` span (its ``layer`` attribute
    reads ``"<index>:<layer name>"``); ``None`` for any other span."""

    if span.name != "layer-step" or not span.attributes:
        return None
    return int(str(span.attributes["layer"]).split(":", 1)[0])


# ---------------------------------------------------------------------------
# Synaptic operations
# ---------------------------------------------------------------------------


def _pair(value, default: int = 1) -> Tuple[int, int]:
    if value is None:
        return default, default
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def fan_out(layer) -> float:
    """Synapses one presynaptic spike drives, from the layer's weight shape.

    A convolution's ``(C_out, C_in, kh, kw)`` kernel sends each input spike
    to ``C_out·kh·kw`` outputs, divided by the stride area (border positions
    with padding are not discounted); a linear ``(out, in)`` layer to
    ``out``; an average pool to ``kh·kw`` divided by its stride area.
    Layers without synapses (flatten) have fan-out 0.
    """

    weight = getattr(layer, "weight", None)
    if weight is not None:
        shape = np.shape(weight)
        if len(shape) == 4:
            sh, sw = _pair(getattr(layer, "stride", 1))
            return shape[0] * shape[2] * shape[3] / float(sh * sw)
        return float(shape[0])
    kernel = getattr(layer, "kernel_size", None)
    if kernel is not None:
        kh, kw = _pair(kernel)
        sh, sw = _pair(getattr(layer, "stride", None) or kernel)
        return kh * kw / float(sh * sw)
    return 0.0


def fan_in(layer) -> float:
    """Synapses feeding one output neuron (dense MACs per output per step)."""

    shape = np.shape(layer.weight)
    return float(np.prod(shape[1:]))


def synops(
    layers: Sequence, spikes: Sequence[Optional[float]], first_layer_neurons: int, sample_steps: float
) -> List[float]:
    """Synaptic operations per layer over one run.

    ``spikes[i]`` is the spike total of layer ``i``'s neurons (``None`` for
    a layer with no neurons, such as flatten, whose input passes through).
    Layer ``i > 0`` costs its presynaptic spikes — those of the nearest
    earlier layer with neurons — times its :func:`fan_out`.  Layer 0
    receives the analog real-coded input, so it counts dense MACs: each of
    its ``first_layer_neurons`` output neurons (per sample) integrates
    :func:`fan_in` products on every timestep of every sample, and
    ``sample_steps`` is those timesteps summed over the samples run.
    """

    result: List[float] = []
    presynaptic = 0.0
    for index, layer in enumerate(layers):
        if index == 0:
            result.append(first_layer_neurons * fan_in(layer) * sample_steps)
        else:
            result.append(presynaptic * fan_out(layer))
        if spikes[index] is not None:
            presynaptic = float(spikes[index])
    return result
