"""One fresh process: set up a workload, run its units, print one JSON line.

Spawned by :mod:`perfbench.runner` — never imported by it, so the parent
process stays free of ``repro`` and ``numpy`` and every measurement starts
from a clean interpreter.  Set-up time runs from the moment the parent
spawned this process (``--spawned-at``, the system-wide monotonic clock) to
the moment the first unit's inputs are ready.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional


def measure_unit(workload, fixture, tracer=None) -> dict:
    """Time and check one prepared unit; never raises for a program error."""
    from .workloads import failed_outcome

    if tracer is not None:
        tracer.take()  # drop the spans of the set-up
    gc.collect()
    start = time.perf_counter()
    try:
        output = workload.run(fixture)
        error = None
    except Exception as caught:  # the program failed: count it, keep measuring
        error = caught
    wall = time.perf_counter() - start
    recorded = tracer.take() if tracer is not None else None
    if error is None:
        try:
            outcome = workload.check(fixture, output)
        except Exception as caught:  # outputs too broken to inspect
            outcome = failed_outcome(workload.ops, caught)
    else:
        outcome = failed_outcome(workload.ops, error)
    return {
        "wall_s": wall,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "modelled": outcome.modelled,
        "recorded": recorded,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from . import tracing, workloads

    workload = workloads.build(args.workload, args.smoke)
    plain, traced = [], []
    missing: list = []
    ready_at = None
    with tempfile.TemporaryDirectory(prefix="unit-", dir=args.workdir) as tmp:
        workdir = Path(tmp)
        loop_start = time.monotonic()
        index = 0
        while True:
            if args.trace:
                # Wrappers go in before the unit's objects are built, and the
                # traced unit runs first, so its counts are those of a fresh
                # program.  The untraced repeat of the same inputs gives the
                # overhead and proves the wrappers bit-neutral.
                with tracing.tracing() as tracer:
                    fixture = workload.prepare(args.seed, index, workdir)
                    traced.append(measure_unit(workload, fixture, tracer))
                    missing = tracer.missing
            fixture = workload.prepare(args.seed, index, workdir)
            if ready_at is None:
                ready_at = time.monotonic()
            if args.setup_only:
                break
            plain.append(measure_unit(workload, fixture))
            index += 1
            if time.monotonic() - loop_start >= args.seconds:
                break

    result = {
        "workload": args.workload,
        "op": workload.op,
        "setup_s": ready_at - args.spawned_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not args.setup_only:
        result["units"] = [
            {key: unit[key] for key in ("wall_s", "attempted", "failed", "digest", "modelled")}
            for unit in (traced if args.trace else plain)
        ]
    if args.trace:
        result["neutral"] = all(
            a["digest"] == b["digest"] and a["modelled"] == b["modelled"]
            for a, b in zip(traced, plain)
        )
        edges = [unit["recorded"][0] for unit in traced]
        result["layers"] = tracing.layer_metrics(
            edges,
            [unit["wall_s"] for unit in traced],
            [unit["wall_s"] for unit in plain],
            [unit["attempted"] for unit in traced],
        )
        result["first_unit_edges"] = sorted(
            [span, parent, calls, total / 1e9, (total - child) / 1e9]
            for (span, parent), (calls, total, child, _work) in edges[0].items()
        )
        result["composites"] = {
            span: tracing.duration_summary(
                [ns for unit in traced for ns in unit["recorded"][1][span]]
            )
            for span in tracing.COMPOSITES
        }
        result["missing_targets"] = missing
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
