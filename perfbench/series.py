"""Result files: a series of runs, its rendered table, and ``--compare``.

A result file keeps three things apart: ``metrics`` (measured on the host
clock), ``modelled`` (simulated statistics and oracle prices) and
``output_digests``.  Only ``metrics`` are compared against a bound; the other
two are compared for exact equality, because a change that only makes the
host faster must leave every simulated number identical.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import runner

SCHEMA = 1


def fingerprint(seed: int, seconds: float, repeats: int, smoke: bool) -> dict:
    """Where and how a series was measured."""
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=runner.ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "thread_pins": {pin: "1" for pin in runner.THREAD_PINS},
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "smoke": smoke,
    }


def run_series(workloads: Sequence[str], seed: int, seconds: float, repeats: int,
               trace: bool, smoke: bool, progress=None) -> dict:
    """Run every workload ``repeats`` times (seeds ``seed``, ``seed + 1``, ...).

    With ``trace`` one more, separate, traced run per workload (seed
    ``seed``) gives the per-layer metrics; its outputs must equal those of
    the untraced run of the same seed.
    """
    result = {
        "schema": SCHEMA,
        "fingerprint": fingerprint(seed, seconds, repeats, smoke),
        "workloads": {},
    }
    for name in workloads:
        runs = [runner.run_once(name, seed + r, seconds, False, smoke) for r in range(repeats)]
        entry = {
            "op": runs[0]["report"]["op"],
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {
                metric: [run["metrics"][metric] for run in runs]
                for metric in runs[0]["metrics"]
            },
            "unit_wall_s": [[u["wall_s"] for u in run["report"]["units"]] for run in runs],
            "modelled": [[u["modelled"] for u in run["report"]["units"]] for run in runs],
            "output_digests": [[u["digest"] for u in run["report"]["units"]] for run in runs],
        }
        if trace:
            traced = runner.run_once(name, seed, seconds, True, smoke)
            report = traced["report"]
            shared = list(zip(report["units"], runs[0]["report"]["units"]))
            entry["correct"] = entry["correct"] and traced["correct"] and all(
                a["digest"] == b["digest"] and a["modelled"] == b["modelled"]
                for a, b in shared
            )
            entry["per_layer"] = traced["metrics"]
            entry["trace"] = {
                key: report[key]
                for key in ("first_unit_edges", "composites", "missing_targets")
            }
        result["workloads"][name] = entry
        if progress is not None:
            progress(name, entry)
    return result


def render_markdown(result: dict) -> str:
    """The series as a table: one row per (workload, end-to-end metric)."""
    manifest = runner.manifest()
    units = {metric["name"]: metric["unit"] for metric in manifest["end_to_end"]}
    mark = result["fingerprint"]
    lines = [
        f"# perfbench series — commit {mark['git_commit'] or 'unknown'}",
        "",
        f"{mark['cores']} cores, Python {mark['python']}, NumPy {mark['numpy']}, "
        f"seed {mark['seed']}, {mark['repeats']} run(s) of {mark['seconds']:g} s per "
        f"workload{', SMOKE SIZES' if mark['smoke'] else ''}.  Measured host "
        "wall-clock only; modelled values are in the JSON, never here.",
        "",
        "| workload | metric | unit | median | min | max | runs |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, entry in result["workloads"].items():
        for metric, values in entry["metrics"].items():
            lines.append(
                f"| {name} | {metric} | {units.get(metric, '')} | "
                f"{statistics.median(values):.6g} | {min(values):.6g} | "
                f"{max(values):.6g} | {len(values)} |"
            )
        lines.append(
            f"| {name} | failed / attempted | {entry['op']} | "
            f"{entry['failed']} / {entry['attempted']} | | | |"
        )
    traced = {n: e["per_layer"] for n, e in result["workloads"].items() if "per_layer" in e}
    if traced:
        names = list(traced)
        lines += ["", "## Per-layer (one traced run per workload; counts are per unit)", "",
                  "| metric | " + " | ".join(names) + " |",
                  "|---|" + "---|" * len(names)]
        for metric in next(iter(traced.values())):
            row = [traced[name][metric] for name in names]
            if any(row):
                lines.append(f"| {metric} | " + " | ".join(f"{v:.6g}" for v in row) + " |")
    return "\n".join(lines) + "\n"


def _spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(base: dict, change: dict) -> Tuple[List[str], List[str]]:
    """Rows of the comparison and the reasons, if any, to reject ``change``."""
    manifest = runner.manifest()
    rows = ["workload metric unit base change worse_by bound spread verdict"]
    reasons: List[str] = []
    marks = base["fingerprint"], change["fingerprint"]
    for label, mark in zip(("base", "change"), marks):
        if mark["smoke"]:
            reasons.append(f"{label} is a --smoke series: its sizes measure nothing")
    for name, old in base["workloads"].items():
        new = change["workloads"].get(name)
        if new is None:
            reasons.append(f"{name}: missing from change")
            continue
        for side, entry in (("base", old), ("change", new)):
            if not entry["correct"]:
                reasons.append(f"{name}: {side} failed its correctness checks")
        for metric in manifest["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = old["metrics"][key], new["metrics"][key]
            before, after = statistics.median(a), statistics.median(b)
            worse = (after - before) / before
            if metric["better"] == "higher":
                worse = -worse
            spread = max(_spread(a), _spread(b))
            if worse > bound:
                verdict = "REGRESSED"
                reasons.append(f"{name} {key}: worse by {worse:.1%} > {bound:.0%}")
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unresolved" if spread > bound else "unchanged"
            rows.append(
                f"{name} {key} {metric['unit']} {before:.6g} {after:.6g} "
                f"{worse:+.1%} {bound:.0%} {spread:.1%} {verdict}"
            )
    same_inputs = all(marks[0][k] == marks[1][k] for k in ("python", "numpy", "seed"))
    if same_inputs:
        reasons.extend(_exact_differences(base, change, manifest))
    else:
        rows.append("(python, numpy or seed differ: outputs not compared)")
    return rows, reasons


def _exact_differences(base: dict, change: dict, manifest: dict) -> List[str]:
    """What must be identical under equal inputs, and is not."""
    counts = [m["name"] for m in manifest["per_layer"] if m["unit"] == "count"]
    found = []
    for name, old in base["workloads"].items():
        new = change["workloads"].get(name)
        if new is None:
            continue
        for key in ("output_digests", "modelled"):
            for run, (a, b) in enumerate(zip(old[key], new[key])):
                shared = min(len(a), len(b))
                if a[:shared] != b[:shared]:
                    found.append(f"{name}: {key} of run {run} differ")
        if "per_layer" in old and "per_layer" in new:
            for metric in counts:
                if old["per_layer"][metric] != new["per_layer"][metric]:
                    found.append(
                        f"{name}: {metric} {old['per_layer'][metric]:g} -> "
                        f"{new['per_layer'][metric]:g}"
                    )
    return found


def print_entry(name: str, entry: Dict, stream=sys.stdout) -> None:
    """One workload's measured metrics, by name, with units."""
    units = {m["name"]: m["unit"] for m in runner.manifest()["end_to_end"]}
    stream.write(f"{name}: {'ok' if entry['correct'] else 'INCORRECT'}, "
                 f"{entry['failed']} of {entry['attempted']} {entry['op']} failed\n")
    for metric, values in entry["metrics"].items():
        stream.write(f"  {metric:<12} {statistics.median(values):>14.6g} {units[metric]}"
                     f"   (spread {_spread(values):.1%} over {len(values)} runs)\n")
    for metric, value in entry.get("per_layer", {}).items():
        if value:
            stream.write(f"  {metric:<40} {value:>14.6g}\n")
    stream.flush()
