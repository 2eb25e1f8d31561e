"""The benchmark's fixture and its three workloads.

The fixture is a ConvNet-4 trained in-repo on the seeded synthetic CIFAR
substitute (the configuration of ``benchmarks/test_low_latency.py``), so
firing rates are realistic and adaptive serving actually exits early.  The
workload seed picks the held-out samples and the arrival schedule; the
program only ever sees the generated inputs, through its public calls.

* ``eval-batch`` — closed loop, the paper's convert→evaluate loop: TCL
  low-latency conversion (``infer32``, T=8, every pass including the
  ErrorCompensation replay) followed by ``simulate_batched`` over the
  held-out set in batches of 64.  ``repro.serve`` is bypassed.
* ``serve-pool`` — closed bursts of single-sample requests to a
  low-latency ``infer8`` artifact on ``ProcessPoolServer`` (two workers
  over shared memory, T=8, no early exit), so dispatch and IPC carry a
  large share of the latency.
* ``serve-threaded`` — closed bursts of single-sample requests to a
  standard TCL ``infer32`` artifact on ``InferenceServer`` (one worker,
  adaptive early exit within T≤32), so the batcher, the engine's early-exit
  retirement and batch compaction do the work.

Both serving workloads are timed in closed bursts, not open loops, because
no open-loop rate gave steady figures on a 2-core virtual machine.  A lone
request costs the threaded server ~20 ms at T≤32, so any rate that forms
batches keeps it busy enough that queueing amplifies the machine's speed
swings (latency p50 spread 0.61 of its median over ten seeds at 50 req/s,
0.29 over five at 10 req/s), and at 10 req/s batches average 1.03
requests, so early-exit compaction never runs.  On the pool at 50 req/s
each request crosses half a dozen thread and process wake-ups, and its
median latency doubled in runs with 12–19 % hypervisor CPU steal (spread
0.45 over ten seeds) while burst throughput in the same runs fell by 20 %.

``exit_t_mean`` varies only on ``serve-threaded``: ``eval-batch`` simulates
a fixed T=8, and ``AdaptiveConfig.for_artifact`` gives the low-latency
artifact of ``serve-pool`` min = window = max = 8 timesteps.  Both still
report the timesteps the program says it ran.

Each workload returns a :class:`Outcome`: the end-to-end metrics (untraced
run) or the per-layer metrics (traced run), the request counts, the checks
that failed, and the run's validity record.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import Converter, ExperimentConfig
from repro.core.pipeline import prepare_data, train_ann
from repro.obs import Tracer, active_tracer, using_tracer
from repro.serve import (
    AdaptiveConfig,
    AdaptiveEngine,
    InferenceServer,
    ModelRegistry,
    ProcessPoolServer,
)
from repro.training import TrainingConfig

import accounting

#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Simulation budget of ``eval-batch`` and of the low-latency artifact.
LOW_T = 8
#: Adaptive budget of the standard artifact on ``serve-threaded``.
SERVE_T = 32
EVAL_BATCH_SIZE = 64
#: On the serving workloads, the share of the closed burst phase spent on
#: conversions between bursts, which ``convert_ms`` times.  Spread over the
#: phase, they sample the machine's speed swings as the bursts do; a block
#: of 15 in one place left ``convert_ms`` swinging by 25 % from run to run.
CONVERT_SHARE = 0.25
#: The servers' default ``MicroBatcher`` releases batches of this many.
MAX_BATCH = 32
POOL_WORKERS = 2
MODEL = "fixture"
#: ``ok_frac`` latency limits, set above the worst p99 the parent commit
#: showed on a 2-core machine under hypervisor CPU steal (eval-batch times
#: whole convert→evaluate repetitions; serving requests wait in their
#: burst: p99 ~350 ms of 96 on the threaded server, ~100 ms of 64 on the
#: pool).
LATENCY_LIMIT_MS = {"eval-batch": 600.0, "serve-threaded": 1000.0, "serve-pool": 300.0}
#: The share of the simulated wall that layer and timestep self times leave
#: uncovered must stay within the measured tracing overhead; that overhead
#: is a ratio of two noisy medians, so below this floor it is not resolved.
MIN_UNCOVERED_TOLERANCE = 0.03
#: Finished spans a traced run may hold before the oldest are dropped.
TRACE_CAPACITY = 1 << 19


def fixture_config() -> ExperimentConfig:
    """``_sweep_config`` of ``benchmarks/test_low_latency.py``: ConvNet-4
    (8, 8, 16, 16), 4 classes, 12 px, 6 epochs, 128 held-out samples."""

    return ExperimentConfig(
        model="convnet4",
        dataset="cifar",
        model_kwargs={"channels": (8, 8, 16, 16), "hidden_features": 32},
        training=TrainingConfig(epochs=6, learning_rate=0.05, milestones=(4,), weight_decay=1e-4),
        timesteps=SERVE_T,
        checkpoints=(4, 8, 16, 32),
        train_per_class=32,
        test_per_class=32,
        num_classes=4,
        image_size=12,
        seed=7,
    )


@dataclass
class Fixture:
    model: object
    calibration: np.ndarray
    held_out: np.ndarray
    labels: np.ndarray


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    validity: Dict[str, object] = field(default_factory=dict)


def train_fixture() -> Fixture:
    config = fixture_config()
    train_images, train_labels, test_images, test_labels = prepare_data(config)
    model, _, _ = train_ann(config, train_images, train_labels, test_images, test_labels, clip_enabled=True)
    # Held-out samples travel as float32, the serving profile's dtype.
    return Fixture(model, train_images, test_images.astype(np.float32), test_labels)


def convert(fixture: Fixture, precision: str, low_latency: bool):
    builder = Converter(fixture.model).strategy("tcl").precision(precision)
    if low_latency:
        builder.latency("low", timesteps=LOW_T)
    with active_tracer().span("bench:convert", category="bench"):
        return builder.calibrate(fixture.calibration).convert()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the private resident memory
    of its live worker processes; call it while the workers still run.

    A forked worker's own peak would count the copy-on-write pages it
    shares with this process a second time, so only the pages it holds
    privately (the ``Private_*`` lines of ``/proc/<pid>/smaps_rollup``) are
    added.  Pages of the shared-memory artifact count once, in this process,
    which created the segment.
    """

    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(_private_kb(child.pid) for child in multiprocessing.active_children())) / 1024.0


def _private_kb(pid: int) -> int:
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        return sum(int(line.split()[1]) for line in handle if line.startswith("Private_"))


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _median_ms(values) -> float:
    return _ms(statistics.median(values))


# ---------------------------------------------------------------------------
# Per-layer table
# ---------------------------------------------------------------------------


def _compile_metrics(spans, conversions: int) -> Dict[str, float]:
    """``core.pass.<name>.ms`` (inclusive: the ErrorCompensation replay is the
    pass's own work) and ``core.calibration_ms``, per conversion."""

    totals: Dict[str, float] = {}
    pipeline = 0.0
    convert_wall = 0.0
    for span in spans:
        if span.name.startswith("pass:"):
            key = f"core.pass.{span.name[5:]}.ms"
            totals[key] = totals.get(key, 0.0) + span.duration_s
        elif span.name == "pipeline:run":
            pipeline += span.duration_s
        elif span.name == "bench:convert":
            convert_wall += span.duration_s
    metrics = {key: _ms(total / conversions) for key, total in totals.items()}
    metrics["core.calibration_ms"] = _ms((convert_wall - pipeline) / conversions)
    return metrics


def _simulation_shares(spans, root: str, num_layers: int) -> Dict[str, float]:
    """Self time of each layer's steps, and of the timestep loop itself
    (encoder and early-exit hook), as shares of the ``root`` spans' wall."""

    spans = accounting.descendants_of(spans, [root])
    wall = sum(span.duration_s for span in spans if span.name == root)
    by_layer = accounting.self_time_by(spans, accounting.layer_index)
    step = accounting.self_time_by(spans, lambda s: s.name if s.name == "timestep" else None)
    metrics = {f"snn.layer.{i}.wall_share": by_layer.get(i, 0.0) / wall for i in range(num_layers)}
    metrics["snn.step_overhead_share"] = step.get("timestep", 0.0) / wall
    return metrics


def _spike_metrics(network, spike_stats, sample_steps: float, samples: int) -> Dict[str, float]:
    """``firing_rate`` and ``synops_per_sample`` of every layer with neurons."""

    spikes: List[Optional[float]] = [None] * len(network.layers)
    pools: Dict[str, int] = {}
    for stat in spike_stats:
        index = int(stat.layer_name.split(":", 1)[0])
        spikes[index] = (spikes[index] or 0.0) + stat.total_spikes
        pools[stat.layer_name] = stat.num_neurons
    neurons: Dict[int, int] = {}
    for name, count in pools.items():
        index = int(name.split(":", 1)[0])
        neurons[index] = neurons.get(index, 0) + count
    ops = accounting.synops(network.layers, spikes, neurons[0], sample_steps)
    metrics = {}
    for index, total in enumerate(spikes):
        if total is None:
            continue
        metrics[f"snn.layer.{index}.firing_rate"] = total / (neurons[index] * sample_steps)
        metrics[f"snn.layer.{index}.synops_per_sample"] = ops[index] / samples
    return metrics


# ---------------------------------------------------------------------------
# eval-batch
# ---------------------------------------------------------------------------


def eval_batch(seed: int, seconds: float, trace: bool) -> Outcome:
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        fixture = train_fixture()
        setup_walls.append(time.perf_counter() - started)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(fixture.held_out))
    images, labels = fixture.held_out[order], fixture.labels[order]
    reference_net = convert(fixture, "infer32", low_latency=True).snn
    reference = reference_net.simulate(images, LOW_T, collect_statistics=False).predictions()
    limit_ms = LATENCY_LIMIT_MS["eval-batch"]

    tracer = Tracer(capacity=TRACE_CAPACITY) if trace else None
    walls, traced_walls, convert_s, simulate_s = [], [], [], []
    mismatches = correct = ok = steps = 0
    spikes = 0.0
    stats = None
    deadline = time.perf_counter() + seconds
    # A traced run alternates untraced and traced repetitions; their ratio
    # is the tracing overhead.
    for repetition in itertools.count():
        if time.perf_counter() >= deadline and repetition >= 4:
            break
        traced = trace and repetition % 2 == 1
        with using_tracer(tracer if traced else None):
            started = time.perf_counter()
            conversion = convert(fixture, "infer32", low_latency=True)
            converted = time.perf_counter()
            with active_tracer().span("bench:simulate", category="bench"):
                result = conversion.snn.simulate_batched(images, LOW_T, batch_size=EVAL_BATCH_SIZE)
            finished = time.perf_counter()
        predictions = result.predictions()
        wrong = int((predictions != reference).sum())
        mismatches += wrong
        correct += int((predictions == labels).sum())
        spikes += result.total_spikes
        steps += result.timesteps * len(images)
        (traced_walls if traced else walls).append(finished - started)
        convert_s.append(converted - started)
        simulate_s.append(finished - converted)
        ok += int(wrong == 0 and _ms(finished - started) <= limit_ms)
        if traced:
            stats = result.spike_stats
    repetitions = len(walls) + len(traced_walls)
    samples = repetitions * len(images)
    problems = []
    if mismatches:
        problems.append(f"{mismatches} of {samples} batched predictions differ from the reference simulate")

    if not trace:
        tail_ms, percentile = accounting.tail([_ms(w) for w in walls])
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "samples_per_s": statistics.median(len(images) / s for s in simulate_s),
            "convert_ms": _median_ms(convert_s),
            "top1": correct / samples,
            "spikes_per_sample": spikes / samples,
            "exit_t_mean": steps / samples,
            "latency_p50_ms": _median_ms(walls),
            "ok_frac": ok / repetitions,
            "peak_rss_mb": peak_rss_mb(),
        }
        validity = {
            "latency_unit": "convert+evaluate repetition",
            "latency_tail_ms": tail_ms,
            "latency_tail_percentile": percentile,
            "latency_samples": len(walls),
        }
        return Outcome(metrics, samples, mismatches, problems, validity)

    spans = tracer.finished()
    metrics = _compile_metrics(spans, sum(1 for s in spans if s.name == "bench:convert"))
    metrics.update(_simulation_shares(spans, "bench:simulate", len(reference_net.layers)))
    metrics.update(_spike_metrics(reference_net, stats, LOW_T * len(images), len(images)))
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    metrics.update(_unused_serving_layers())
    metrics.update({"setup.train_s": statistics.median(setup_walls), "obs.trace_overhead": overhead})
    # The per-layer table must account for the simulated wall: what the
    # layer and timestep self times leave uncovered is the run-span and
    # batching glue plus the tracer's own cost.
    covered = sum(v for k, v in metrics.items() if k.endswith(".wall_share")) + metrics["snn.step_overhead_share"]
    uncovered = 1.0 - covered
    validity = {"uncovered_wall_share": uncovered, "dropped_spans": tracer.dropped}
    if not 0.0 <= uncovered <= max(overhead, MIN_UNCOVERED_TOLERANCE):
        problems.append(
            f"layer shares cover {covered:.4f} of the simulated wall; the remainder {uncovered:.4f} "
            f"exceeds the tracing overhead {overhead:.4f}"
        )
    if tracer.dropped:
        problems.append(f"the tracer dropped {tracer.dropped} spans")
    return Outcome(metrics, samples, mismatches, problems, validity)


def _unused_serving_layers() -> Dict[str, float]:
    """The serving-layer metrics of a workload that bypasses ``repro.serve``."""

    names = ["serve.batch_size_mean", "serve.queue_ms_p50", "serve.compute_ms_p50", "pool.ipc_ms_p50",
             "serve.publish_ms", "serve.start_ms", "serve.artifact_kb"]
    names += [f"pool.worker.{worker}.utilization" for worker in range(POOL_WORKERS)]
    return {name: 0.0 for name in names}


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    name: str
    precision: str
    low_latency: bool
    pool: bool
    #: Requests in flight per closed burst (the next burst waits for the
    #: last).  Replies of a batch resolve together, so a burst's latencies
    #: fall into one mode per batch.  The threaded server runs its three
    #: batches one after another and the median lands mid-way through the
    #: second mode; an even number of batches would put it in the gap
    #: between two modes, where it jumps by a whole batch wall.  The pool
    #: runs its two batches side by side, one mode.
    burst: int


SERVE_THREADED = ServeSpec("serve-threaded", "infer32", low_latency=False, pool=False, burst=3 * MAX_BATCH)
SERVE_POOL = ServeSpec("serve-pool", "infer8", low_latency=True, pool=True, burst=2 * MAX_BATCH)


@dataclass
class Deployment:
    fixture: Fixture
    registry: ModelRegistry
    server: object
    artifact_kb: float
    wall_s: float
    train_s: float
    publish_s: float
    start_s: float


def _directory_kb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1024.0


def deploy(spec: ServeSpec, root: Path) -> Deployment:
    """Train, convert, publish, start and warm up one server."""

    started = time.perf_counter()
    fixture = train_fixture()
    trained = time.perf_counter()
    conversion = convert(fixture, spec.precision, spec.low_latency)
    converted = time.perf_counter()
    registry = ModelRegistry(root)
    with active_tracer().span("bench:publish", category="bench"):
        path = registry.publish(MODEL, conversion.snn, metadata=conversion.export_metadata())
    published = time.perf_counter()
    with active_tracer().span("bench:start", category="bench"):
        if spec.pool:
            registry.set_replicas(MODEL, POOL_WORKERS)
            server = ProcessPoolServer(
                registry, engine_config=AdaptiveConfig.for_artifact(conversion), num_workers=POOL_WORKERS
            )
        else:
            server = InferenceServer(registry, engine_config=AdaptiveConfig(max_timesteps=SERVE_T), num_workers=1)
        server.start()
    begun = time.perf_counter()
    # Warm-up: the first batch loads (or shares and attaches) the artifact.
    for future in [server.submit(image, MODEL) for image in fixture.held_out[:spec.burst]]:
        future.result(timeout=60)
    return Deployment(
        fixture, registry, server, _directory_kb(path),
        wall_s=time.perf_counter() - started,
        train_s=trained - started,
        publish_s=published - converted,
        start_s=begun - published,
    )


@dataclass
class Phase:
    """Requests of one serving phase, in send order."""

    indices: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    replies: List[object]
    errors: List[str]
    records: List[object]
    wall_s: float
    #: Completions per second of each burst.
    rates: np.ndarray


def _collect(server, indices, sent, done, order, futures, records_before, started, rates) -> Phase:
    """Wait for every request, then key the metrics records by request."""

    replies, errors = [], []
    for future in futures:
        try:
            replies.append(future.result(timeout=120))
        except Exception as error:  # a failed request is counted, not fatal
            replies.append(None)
            errors.append(repr(error))
    wall = time.perf_counter() - started
    # A future wakes its waiters before it runs its done callbacks, so the
    # last completion stamps may still be on their way.
    deadline = time.perf_counter() + 10.0
    while len(order) < len(futures) and time.perf_counter() < deadline:
        time.sleep(0.001)
    records = _in_completion_order(server.metrics.records()[records_before:], order)
    return Phase(indices, sent, np.asarray(done), replies, errors, records, wall, rates)


def _completion_clock(done, order: List[int], position: int):
    def stamp(_future) -> None:
        done[position] = time.perf_counter()
        order.append(position)

    return stamp


def request_order(rng: np.random.Generator, pool: int, count: int) -> np.ndarray:
    """Held-out sample of each request: seeded shuffles of the whole pool,
    back to back, so every run sees each sample about equally often and
    accuracy and spike counts do not drift with the seed's sampling luck."""

    cycles = -(-count // pool)
    return np.concatenate([rng.permutation(pool) for _ in range(cycles)])[:count]


def _in_completion_order(records, order: List[int]) -> List[object]:
    """Re-key the metrics records by request: the server records each
    request immediately before resolving its future, on one thread, so the
    k-th record belongs to the k-th request to complete.  A callback added
    to an already resolved future would run late and break that order;
    :func:`serve` checks every pair and fails the run on a mismatch."""

    by_request: List[object] = [None] * len(order)
    for record, position in zip(records, order):
        by_request[position] = record
    return by_request


def closed_bursts(
    server,
    images: np.ndarray,
    rng: np.random.Generator,
    seconds: float,
    burst: int,
    between: Optional[Callable[[float], None]] = None,
) -> Phase:
    """Bursts of ``burst`` requests, each sent when the last completed.

    A request's latency runs from its burst's send time to its reply;
    ``phase.rates`` holds each burst's completions per second.  ``between``,
    if given, runs after each burst with the seconds elapsed in the phase,
    while the server is idle."""

    indices, futures, sent, done, rates = [], [], [], [], []
    order: List[int] = []
    before = len(server.metrics.records())
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not futures:
        chosen = request_order(rng, len(images), burst)
        burst_sent = time.perf_counter()
        for index in chosen:
            position = len(done)
            done.append(0.0)
            sent.append(burst_sent)
            future = server.submit(images[index], MODEL)
            future.add_done_callback(_completion_clock(done, order, position))
            futures.append(future)
        for future in futures[-burst:]:
            future.exception(timeout=120)
        rates.append(burst / (time.perf_counter() - burst_sent))
        indices.extend(chosen)
        if between is not None:
            between(time.perf_counter() - started)
    return _collect(
        server, np.asarray(indices), np.asarray(sent), done, order, futures, before, started, np.asarray(rates)
    )


def _oracle(deployment: Deployment, phases: List[Phase]):
    """Compare every reply with an in-process engine run on the same artifact.

    Returns the artifact's network and, per phase, whether each request
    was answered with the oracle's prediction and exit timestep."""

    artifact = deployment.registry.get(MODEL)
    engine = AdaptiveEngine(artifact.network, deployment.server.engine_config)
    expected = engine.infer(deployment.fixture.held_out)
    matches = [
        np.array([
            reply is not None
            and reply.prediction == expected.predictions[index]
            and reply.timesteps == expected.exit_timesteps[index]
            for index, reply in zip(phase.indices, phase.replies)
        ])
        for phase in phases
    ]
    return artifact.network, matches


def _latencies_ms(phase: Phase) -> np.ndarray:
    ok = np.array([reply is not None for reply in phase.replies])
    return _ms(phase.done[ok] - phase.sent[ok])


def serve(spec: ServeSpec, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    setup_tracer = Tracer(capacity=TRACE_CAPACITY) if trace else None
    deployments: List[Deployment] = []
    try:
        with using_tracer(setup_tracer):
            for repetition in range(SETUP_REPEATS):
                if deployments:
                    deployments[-1].server.stop()
                deployments.append(deploy(spec, workdir / f"setup-{repetition}"))
        deployment = deployments[-1]
        server = deployment.server
        images = deployment.fixture.held_out
        rng = np.random.default_rng(seed)
        if trace:
            # Half the timed phase untraced, half traced: the latency ratio
            # of the halves is the tracing overhead.
            untraced = closed_bursts(server, images, rng, seconds / 2, spec.burst)
            tracer = Tracer(capacity=TRACE_CAPACITY)
            with using_tracer(tracer):
                measured = closed_bursts(server, images, rng, seconds / 2, spec.burst)
            phases = [untraced, measured]
        else:
            # Read after the warm-up and before the timed phase, whose
            # request bookkeeping grows with the requests served and so
            # would make a slower run read as leaner.
            rss_mb = peak_rss_mb()
            conversions: List[float] = []

            def convert_between(elapsed_s: float) -> None:
                if sum(conversions) < CONVERT_SHARE * elapsed_s:
                    started = time.perf_counter()
                    convert(deployment.fixture, spec.precision, spec.low_latency)
                    conversions.append(time.perf_counter() - started)

            measured = closed_bursts(server, images, rng, seconds, spec.burst, convert_between)
            phases = [measured]
    finally:
        for each in deployments:
            each.server.stop()
        if spec.pool:
            # The pool started the shared-memory resource tracker; every
            # segment is unlinked by now, so stop it and reap the process.
            resource_tracker._resource_tracker._stop()

    network, matches = _oracle(deployment, phases)
    attempted = sum(len(phase.replies) for phase in phases)
    errors = [error for phase in phases for error in phase.errors]
    failed = sum(int((~match).sum()) for match in matches)
    problems = []
    if errors:
        problems.append(f"{len(errors)} requests failed, first: {errors[0]}")
    if failed > len(errors):
        problems.append(f"{failed - len(errors)} replies differ from the in-process AdaptiveEngine oracle")
    # A record pairs with its reply when both name the same exit timestep
    # and the same batch: the record's wall minus its queue wait is the
    # batch's compute wall, which the reply carries and which differs
    # between batches.
    unmatched = sum(
        record is None
        or record.timesteps != reply.timesteps
        or not math.isclose(record.wall_ms - record.queue_ms, reply.wall_ms, rel_tol=1e-9, abs_tol=1e-6)
        for record, reply in zip(measured.records, measured.replies)
        if reply is not None
    )
    if unmatched:
        problems.append(f"{unmatched} metrics records could not be matched to their requests")

    latency = _latencies_ms(measured)
    p50 = float(np.median(latency))
    validity: Dict[str, object] = {"burst": spec.burst}
    layer_count = len(network.layers)

    if not trace:
        replies = [reply for reply in measured.replies if reply is not None]
        answered = np.array([reply is not None for reply in measured.replies])
        predictions = np.array([reply.prediction for reply in replies])
        records = [record for record in measured.records if record is not None]
        within = matches[0] & (_ms(measured.done - measured.sent) <= LATENCY_LIMIT_MS[spec.name])
        tail_ms, percentile = accounting.tail(latency)
        validity.update(
            {"latency_tail_ms": tail_ms, "latency_tail_percentile": percentile, "latency_samples": int(latency.size)}
        )
        metrics = {
            "setup_s": statistics.median(d.wall_s for d in deployments),
            "samples_per_s": float(np.median(measured.rates)),
            "convert_ms": _median_ms(conversions),
            "top1": float((predictions == deployment.fixture.labels[measured.indices[answered]]).mean()),
            "spikes_per_sample": float(np.mean([record.spikes for record in records])),
            "exit_t_mean": float(np.mean([reply.timesteps for reply in replies])),
            "latency_p50_ms": p50,
            "ok_frac": float(within.mean()),
            "peak_rss_mb": rss_mb,
        }
        if metrics["exit_t_mean"] >= SERVE_T and not spec.low_latency:
            problems.append(f"early exit never triggered (mean exit timestep {metrics['exit_t_mean']:.2f})")
        return Outcome(metrics, attempted, failed, problems, validity)

    setup_spans = setup_tracer.finished()
    spans = tracer.finished()
    metrics = _compile_metrics(setup_spans, len(deployments))
    metrics.update(_simulation_shares(spans, "engine:infer", layer_count))
    metrics.update(_replayed_spike_metrics(network, measured, images))
    records = measured.records
    metrics.update({
        "serve.batch_size_mean": len(records) / sum(1.0 / r.batch_size for r in records),
        "serve.queue_ms_p50": float(np.median([r.queue_ms for r in records])),
        "serve.compute_ms_p50": float(np.median([r.wall_ms - r.queue_ms for r in records])),
        "pool.ipc_ms_p50": (
            float(np.median([
                _ms(done - sent) - record.wall_ms
                for record, done, sent in zip(records, measured.done, measured.sent)
            ]))
            if spec.pool else 0.0
        ),
        "serve.publish_ms": _median_ms(d.publish_s for d in deployments),
        "serve.start_ms": _median_ms(d.start_s for d in deployments),
        "serve.artifact_kb": deployment.artifact_kb,
        "setup.train_s": statistics.median(d.train_s for d in deployments),
        "obs.trace_overhead": p50 / float(np.median(_latencies_ms(untraced))) - 1.0,
    })
    busy = accounting.self_time_by(
        [s for s in spans if s.name == "serve:worker-batch"],
        lambda s: int(s.attributes["worker"]),
    ) if spec.pool else {}
    for worker in range(POOL_WORKERS):
        # Worker-batch spans have no traced children of their own kind, so
        # the self-time grouping is the batch's full duration.
        metrics[f"pool.worker.{worker}.utilization"] = busy.get(worker, 0.0) / measured.wall_s if spec.pool else 0.0
    replayed = metrics.pop("_spikes_per_sample")
    served = float(np.mean([r.spikes for r in records]))
    if abs(replayed - served) > 1e-6 * served:
        problems.append(f"replayed spikes per sample {replayed:.3f} differ from the served {served:.3f}")
    validity["dropped_spans"] = tracer.dropped + setup_tracer.dropped
    if validity["dropped_spans"]:
        problems.append(f"the tracer dropped {validity['dropped_spans']} spans")
    return Outcome(metrics, attempted, failed, problems, validity)


def _replayed_spike_metrics(network, phase: Phase, images: np.ndarray) -> Dict[str, float]:
    """Per-layer spikes of the served requests, replayed exactly.

    Under real coding a sample's spikes do not depend on its batch, so
    simulating each exit-timestep group for exactly that many timesteps
    reproduces the spikes the server spent on it.
    """

    exits = np.array([reply.timesteps for reply in phase.replies])
    stats = []
    for exit_t in np.unique(exits):
        group = images[phase.indices[exits == exit_t]]
        stats.extend(network.simulate(group, int(exit_t)).spike_stats)
    metrics = _spike_metrics(network, stats, float(exits.sum()), len(exits))
    metrics["_spikes_per_sample"] = sum(stat.total_spikes for stat in stats) / len(exits)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, scratch_root: Path) -> Outcome:
    if workload == "eval-batch":
        return eval_batch(seed, seconds, trace)
    spec = {"serve-threaded": SERVE_THREADED, "serve-pool": SERVE_POOL}[workload]
    scratch_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    try:
        return serve(spec, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
