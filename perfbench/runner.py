"""Spawn the child processes of one run and reduce them to metrics.

One *run* of a workload is: ``SETUP_SAMPLES - 1`` children that only set up
and exit, then one child that sets up and measures for ``seconds``.  Each
child is a fresh single-threaded interpreter.  ``setup_s`` is the median of
the set-ups, ``ops_per_s`` the median over the measured units, and
``peak_rss_mb`` the measuring child's ``ru_maxrss``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Everything a run writes (checkpoints, temp files) stays under here.
SCRATCH = ROOT / ".bench_build"
MANIFEST = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 3
#: A child that is still running after this many seconds is killed.
CHILD_TIMEOUT = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def manifest() -> dict:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    return json.loads(MANIFEST.read_text())


def child_environment(workdir: Path) -> Dict[str, str]:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SOURCE / 'repro'} is missing")
    env = dict(os.environ)
    env.update({pin: "1" for pin in THREAD_PINS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def _spawn(arguments: List[str], workdir: Path) -> dict:
    command = [
        sys.executable, "-m", "perfbench.child", *arguments,
        "--workdir", str(workdir), "--spawned-at", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_environment(workdir), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"child ran past {CHILD_TIMEOUT:.0f} s: {arguments}") from error
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(
            f"child exited with code {done.returncode}: {arguments}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool = False) -> dict:
    """One run of one workload: the raw child report plus its metrics.

    Untraced, ``metrics`` holds every end-to-end metric; traced, every
    per-layer metric.  ``correct`` is false when an operation failed or the
    traced and untraced outputs of the same inputs differ.
    """
    arguments = ["--workload", workload, "--seed", str(seed),
                 "--seconds", repr(float(seconds)), "--trace", str(int(trace))]
    if smoke:
        arguments.append("--smoke")
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=SCRATCH) as tmp:
        workdir = Path(tmp)
        setups = []
        if not trace:
            setups = [
                _spawn([*arguments, "--setup-only"], workdir)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
        report = _spawn(arguments, workdir)
    units = report["units"]
    attempted = sum(unit["attempted"] for unit in units)
    failed = sum(unit["failed"] for unit in units)
    if trace:
        metrics = report["layers"]
        correct = failed == 0 and report["neutral"]
    else:
        setups.append(report["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(
                unit["attempted"] / unit["wall_s"] for unit in units
            ),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        correct = failed == 0
    return {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }
