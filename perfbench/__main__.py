"""``python -m perfbench`` — see ``perfbench/README.md``.

Three ways in:

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one run; the last
  line of standard output is one JSON object (``correct``, ``attempted``,
  ``failed``, ``metrics``);
* no ``--workload`` — a series over all (or ``--workloads a,b``) workloads,
  printed by metric name with units and written to ``--out``;
* ``--compare BASE.json CHANGE.json`` and ``--list``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import runner, series


def _list(manifest: dict) -> int:
    print(f"workloads (one run measures for {manifest['run_seconds']} s):")
    for workload in manifest["workloads"]:
        print(f"  {workload['name']:<16} {workload['why']}")
    print("end-to-end metrics (untraced run):")
    for metric in manifest["end_to_end"]:
        print(f"  {metric['name']:<16} {metric['unit']:<8} {metric['better']} is better, "
              f"may worsen by {metric['bound']:.0%}")
    print("per-layer metrics (traced run):")
    for metric in manifest["per_layer"]:
        print(f"  {metric['name']:<40} {metric['unit']:<6} {metric['better']} is better")
    return 0


def _one_run(args, manifest: dict) -> int:
    result = runner.run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke)
    units = {m["name"]: m["unit"]
             for m in manifest["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0  # a printed result speaks for itself, "correct": false included


def _series(args, workloads: List[str]) -> int:
    result = series.run_series(workloads, args.seed, args.seconds, args.repeats,
                               bool(args.trace), args.smoke, progress=series.print_entry)
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        out.with_suffix(".md").write_text(series.render_markdown(result))
    return 0 if all(entry["correct"] for entry in result["workloads"].values()) else 1


def _compare(paths: List[str]) -> int:
    base, change = (json.loads(Path(path).read_text()) for path in paths)
    rows, reasons = series.compare(base, change)
    print("\n".join(rows))
    for reason in reasons:
        print(f"REJECT: {reason}")
    return 1 if reasons else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", allow_abbrev=False,
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload once (driver contract)")
    parser.add_argument("--workloads", help="comma-separated subset for a series")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="install the span wrappers and report per-layer metrics")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload in a series, on seeds seed, seed+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes; such a series is refused by --compare")
    parser.add_argument("--out", help="write the series to this JSON file (and a .md beside it)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)

    try:
        manifest = runner.manifest()
        if args.list:
            return _list(manifest)
        if args.compare:
            return _compare(args.compare)
        known = [workload["name"] for workload in manifest["workloads"]]
        chosen = [args.workload] if args.workload else (
            args.workloads.split(",") if args.workloads else known)
        unknown = [name for name in chosen if name not in known]
        if unknown:
            parser.error(f"unknown workload {', '.join(unknown)}; known: {', '.join(known)}")
        if args.seconds is None:
            args.seconds = float(manifest["run_seconds"])
        if args.workload:
            return _one_run(args, manifest)
        return _series(args, chosen)
    except (runner.BenchmarkError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
