"""``repro-serve`` — command-line entry point of the serving subsystem.

Subcommands
-----------
``demo``
    The zero-to-serving path on synthetic data: train a tiny TCL ConvNet,
    convert it, publish the artifact into a registry directory, start the
    micro-batching server, push the evaluation set through it one request at
    a time, and print the serving telemetry next to the fixed-T baseline.
``inspect``
    Print the manifest summary of an artifact bundle (layers, encoder,
    exporter metadata) without loading the weights.
``list``
    List the models/versions published under a registry root.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve converted TCL spiking networks with adaptive latency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="train→convert→publish→serve on synthetic data")
    demo.add_argument("--root", default="serve-artifacts", help="registry directory (default: ./serve-artifacts)")
    demo.add_argument("--model-name", default="convnet4-cifar", help="registry name for the published artifact")
    demo.add_argument("--epochs", type=int, default=4, help="ANN training epochs")
    demo.add_argument("--timesteps", type=int, default=120, help="maximum (fixed-T) latency")
    demo.add_argument("--stability-window", type=int, default=40, help="early-exit stability window")
    demo.add_argument("--min-timesteps", type=int, default=10, help="earliest allowed exit")
    demo.add_argument("--max-batch-size", type=int, default=16, help="micro-batch size cap")
    demo.add_argument("--max-wait-ms", type=float, default=10.0, help="micro-batch wait budget")
    demo.add_argument("--workers", type=int, default=1, help="server worker threads (or processes with --serving-mode process)")
    demo.add_argument(
        "--serving-mode",
        choices=("thread", "process"),
        default="thread",
        help=(
            "'thread' runs the in-process InferenceServer; 'process' runs the "
            "ProcessPoolServer — forked workers over one shared-memory copy of "
            "the artifact, escaping the GIL entirely"
        ),
    )
    demo.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="pool workers that hold the model resident (process mode; clamped to --workers)",
    )
    demo.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help=(
            "admission-control budget: requests admitted but not yet completed; "
            "beyond it submit sheds with the typed Overloaded error (default: unbounded)"
        ),
    )
    demo.add_argument(
        "--precision",
        choices=("train64", "infer32", "infer8"),
        default="train64",
        help="compute-policy profile of the converted network (recorded in the artifact)",
    )
    demo.add_argument(
        "--latency",
        choices=["standard", "low"],
        default="standard",
        help=(
            "conversion latency mode: 'low' activates the ultra-low-latency "
            "passes (threshold shift, λ/2 membrane init, error compensation) "
            "and caps the serving timestep budget at the calibrated T"
        ),
    )
    demo.add_argument("--seed", type=int, default=7, help="experiment seed")
    demo.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record a trace of the demo and write it to PATH — Chrome "
            "trace-event JSON (open in Perfetto / chrome://tracing), or "
            "span-per-line JSONL when PATH ends in .jsonl"
        ),
    )

    inspect = sub.add_parser("inspect", help="print the manifest of an artifact bundle")
    inspect.add_argument("path", help="artifact bundle directory")

    listing = sub.add_parser("list", help="list published models under a registry root")
    listing.add_argument("root", help="registry directory")

    return parser


def _run_demo(args: argparse.Namespace) -> int:
    # Imported lazily so `repro-serve inspect` stays fast and dependency-light.
    from ..obs import Tracer, using_tracer, write_chrome_trace, write_jsonl

    if args.trace is None:
        return _demo_body(args)
    tracer = Tracer()
    with using_tracer(tracer):
        status = _demo_body(args)
    if str(args.trace).endswith(".jsonl"):
        count = write_jsonl(tracer, args.trace)
        print(f"· trace: {count} spans → {args.trace}")
    else:
        write_chrome_trace(tracer, args.trace, process_name="repro-serve demo")
        print(f"· trace: {len(tracer)} spans → {args.trace} (open in Perfetto or chrome://tracing)")
    return status


def _demo_body(args: argparse.Namespace) -> int:
    # Imported lazily so `repro-serve inspect` stays fast and dependency-light.
    from ..core import Converter, ExperimentConfig
    from ..core.pipeline import prepare_data, train_ann
    from ..training import TrainingConfig
    from .batcher import MicroBatcher
    from .engine import AdaptiveConfig, AdaptiveEngine
    from .pool import ProcessPoolServer
    from .registry import ModelRegistry
    from .server import InferenceServer

    # Validate the serving configuration before spending time on training.
    engine_config = AdaptiveConfig(
        max_timesteps=args.timesteps,
        min_timesteps=args.min_timesteps,
        stability_window=args.stability_window,
        precision=args.precision,
    )

    config = ExperimentConfig(
        model="convnet4",
        dataset="cifar",
        model_kwargs={"channels": (8, 8, 16, 16), "hidden_features": 32},
        training=TrainingConfig(epochs=args.epochs, learning_rate=0.05, milestones=(max(args.epochs - 1, 1),)),
        timesteps=args.timesteps,
        train_per_class=16,
        test_per_class=8,
        num_classes=4,
        image_size=12,
        seed=args.seed,
    )

    print("· preparing synthetic CIFAR-like data …")
    train_images, train_labels, test_images, test_labels = prepare_data(config)
    print(f"· training TCL ANN ({args.epochs} epochs) …")
    model, ann_accuracy, _ = train_ann(config, train_images, train_labels, test_images, test_labels, clip_enabled=True)
    print(f"  ANN accuracy: {ann_accuracy:.3f}")

    print(f"· converting to SNN (TCL norm-factors, {args.precision} precision, {args.latency} latency) …")
    conversion = (
        Converter(model)
        .strategy("tcl")
        .precision(args.precision)
        .latency(args.latency)
        .calibrate(train_images)
        .convert()
    )

    registry = ModelRegistry(args.root)
    path = registry.publish(args.model_name, conversion.snn, metadata=conversion.export_metadata())
    print(f"· published artifact: {path}")

    artifact = registry.get(args.model_name)
    fixed_timesteps = args.timesteps
    if args.latency == "low":
        # A low-latency bundle records the T it was calibrated for; size
        # every serving budget to that instead of the generic defaults.
        engine_config = AdaptiveConfig.for_artifact(artifact, precision=args.precision)
        fixed_timesteps = engine_config.max_timesteps
        print(f"· low-latency artifact: serving budget capped at T={fixed_timesteps}")

    fixed = AdaptiveEngine(
        artifact.network,
        AdaptiveConfig(
            max_timesteps=fixed_timesteps,
            # A small fixed budget (the low-latency cap, or --timesteps below
            # the default floor) must not trip the min<=max validation.
            min_timesteps=min(AdaptiveConfig.min_timesteps, fixed_timesteps),
            stability_window=min(AdaptiveConfig.stability_window, fixed_timesteps),
            adaptive=False,
        ),
    ).infer(test_images)
    print(f"· fixed-T baseline: accuracy {fixed.accuracy(test_labels):.3f} at T={fixed_timesteps}")

    if args.serving_mode == "process":
        registry.set_replicas(args.model_name, args.replicas)
        server = ProcessPoolServer(
            registry,
            engine_config=engine_config,
            batcher=MicroBatcher(max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms),
            num_workers=args.workers,
            max_inflight=args.max_inflight,
        )
        print(
            f"· process pool: {args.workers} forked workers × {args.replicas} replica(s) "
            f"over one shared-memory artifact copy"
        )
    else:
        server = InferenceServer(
            registry,
            engine_config=engine_config,
            batcher=MicroBatcher(max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms),
            num_workers=args.workers,
            max_inflight=args.max_inflight,
        )
    print(f"· serving {len(test_images)} single-sample requests …")
    with server:
        futures = [server.submit(image, args.model_name) for image in test_images]
        replies = [future.result(timeout=300) for future in futures]

    predictions = np.array([reply.prediction for reply in replies])
    accuracy = float((predictions == test_labels).mean())
    snapshot = server.metrics.snapshot()
    print(f"· served accuracy: {accuracy:.3f} (fixed-T {fixed.accuracy(test_labels):.3f})")
    print(snapshot.report())
    return 0


def _run_inspect(args: argparse.Namespace) -> int:
    from .serialize import read_manifest

    manifest = read_manifest(args.path)
    summary = {
        "name": manifest.get("name"),
        "format_version": manifest.get("format_version"),
        "encoder": manifest.get("encoder"),
        "num_layers": len(manifest.get("layers", [])),
        "layers": [entry.get("kind") for entry in manifest.get("layers", [])],
        "metadata": manifest.get("metadata", {}),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _run_list(args: argparse.Namespace) -> int:
    from .registry import ModelRegistry

    registry = ModelRegistry(args.root)
    models = registry.list_models()
    if not models:
        print(f"(no artifacts under {args.root})")
        return 0
    for name in sorted(models):
        print(f"{name}: {', '.join(sorted(models[name]))}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from .serialize import ArtifactError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return _run_demo(args)
        if args.command == "inspect":
            return _run_inspect(args)
        if args.command == "list":
            return _run_list(args)
    except (ArtifactError, ValueError) as error:
        print(f"repro-serve: error: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
