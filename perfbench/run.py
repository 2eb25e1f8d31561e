#!/usr/bin/env python3
"""Repository benchmark: trained-fixture offline evaluation and closed-burst serving.

Run from the repository root::

    python3 perfbench/run.py --workload eval-batch --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate traced run that yields the per-layer table.  The workloads
and metrics are declared in ``BENCHMARK.json`` at the repository root, which
this script reads for names and units and checks its output against.

Standard output is a table of every metric with its unit, one JSON line
with the machine and validity record, and, last, the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.  A
failed correctness check prints the result with ``correct: false`` and
exits with code 1.

Two figures are printed but not declared as metrics: ``error_frac`` (wrong
or failed operations over attempted; it is 0 on a correct run, and the
result line carries it as ``failed``/``attempted``) and the latency tail
(p99 when at least 1,000 requests were timed, else the highest percentile
with ten samples beyond it).  On a 2-core virtual machine the serving p99
follows the hypervisor's CPU steal, so no bound could hold it; ``ok_frac``
carries the tail against a fixed latency limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("eval-batch", "serve-threaded", "serve-pool")
#: BLAS thread pools, pinned to one thread before numpy loads.  The GEMMs
#: here are small; on a 2-core machine a second BLAS thread per server
#: thread or pool worker only competes with the client, dispatcher and
#: collector threads, which made serving both slower and far noisier.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_times() -> list:
    """Aggregate CPU tick counters from ``/proc/stat`` (user … steal)."""

    with open("/proc/stat") as handle:
        return [int(value) for value in handle.readline().split()[1:9]]


def steal_share(start: list, end: list) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""

    deltas = [b - a for a, b in zip(start, end)]
    return deltas[7] / max(sum(deltas), 1)


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    record = machine_record()
    ticks = cpu_times()
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench")
    record["loadavg_end"] = os.getloadavg()
    record["cpu_steal_share"] = steal_share(ticks, cpu_times())

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    problems = list(outcome.problems)
    if set(outcome.metrics) != set(units):
        problems.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(outcome.metrics))}, "
            f"undeclared {sorted(set(outcome.metrics) - set(units))}"
        )
    error_frac = outcome.failed / outcome.attempted
    print(f"workload {args.workload} · seed {args.seed} · {args.seconds:g} s · trace {args.trace}")
    for name, unit in units.items():
        if name in outcome.metrics:
            print(f"  {name:<40} {outcome.metrics[name]:>14.6g} {unit}")
    print(f"  {'error_frac':<40} {error_frac:>14.6g} share ({outcome.failed} of {outcome.attempted})")
    if "latency_tail_ms" in outcome.validity:
        tail = f"latency_p{outcome.validity['latency_tail_percentile']:g}_ms"
        samples = outcome.validity["latency_samples"]
        print(f"  {tail:<40} {outcome.validity['latency_tail_ms']:>14.6g} ms (of {samples}; undeclared)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"machine": record, "validity": outcome.validity, "error_frac": error_frac, "problems": problems}))
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in outcome.metrics
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
