"""The seven workloads: what is prepared, what is timed, what is checked.

A workload runs as repeated *units* of fixed size.  For unit ``index`` of a
run with workload seed ``seed``:

* ``prepare`` builds the inputs from ``(seed, index)`` alone — untimed;
* ``run`` is the timed region — the program's public entry points only;
* ``check`` validates the outputs and returns an :class:`Outcome` — untimed.

Every unit of a run has its own inputs (no unit repeats another's), so a
cache inside the program cannot turn a later unit into a replay of an
earlier one.  The program never sees the workload seed, only what was
generated from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

import repro.cli
from repro.envs import VectorEnv
from repro.nn import make_numerics
from repro.platform import AcceleratorPool, FixarPlatform, WorkloadSpec
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    GaussianNoise,
    ReplayBuffer,
    RolloutEngine,
    save_agent,
)
from repro.serving import PolicyServer, ServingConfig, SyntheticLoadGenerator

HIDDEN = (64, 48)
STATE_DIM, ACTION_DIM = 17, 6  # HalfCheetah


@dataclass(frozen=True)
class Outcome:
    """What one unit did: operations attempted and failed, and its outputs."""

    attempted: int
    failed: int
    #: sha256 over the unit's full-precision outputs.
    digest: str
    #: Simulated statistics and oracle prices: equal, or the program changed.
    modelled: Dict[str, object]


def unit_seed(seed: int, index: int) -> int:
    """The seed handed to the program for unit ``index`` (never repeats)."""
    return abs(seed) * 1000 + index


def sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).tobytes()
        elif not isinstance(part, bytes):
            part = json.dumps(part, sort_keys=True).encode("utf-8")
        digest.update(part)
    return digest.hexdigest()


def failed_outcome(ops: int, error: BaseException) -> Outcome:
    """A unit whose timed region raised: every operation counts as failed."""
    text = f"{type(error).__name__}: {error}"
    return Outcome(ops, ops, sha256(text), {"error": text})


class TrainWorkload:
    """``repro.cli.main(["train", ...])`` — stdout captured, checkpoint kept.

    An operation is one training environment step.  A unit fails as a whole
    (non-zero exit, a missing or non-finite curve point, a missing or
    non-finite checkpoint): a training run has no partial result.
    """

    op = "env steps"

    def __init__(self, name: str, argv: Sequence[str], timesteps: int,
                 benchmarks: Sequence[str], dynamic: bool):
        self.name = name
        self.argv = [*argv, "--timesteps", str(timesteps)]
        self.ops = timesteps
        self.benchmarks = tuple(benchmarks)
        self.fleet = "--fleet" in argv
        self.dynamic = dynamic

    def prepare(self, seed: int, index: int, workdir: Path):
        checkpoint = workdir / f"{self.name}-{index}.npz"
        argv = ["train", *self.argv, "--seed", str(unit_seed(seed, index)),
                "--checkpoint", str(checkpoint)]
        return argv, checkpoint

    def run(self, fixture):
        argv, _checkpoint = fixture
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = repro.cli.main(argv)
            except SystemExit as exit_:  # argparse rejects a bad flag this way
                code = exit_.code
        return code, stdout.getvalue()

    def _checkpoints(self, checkpoint: Path) -> List[Path]:
        if not self.fleet:
            return [checkpoint]
        return [
            checkpoint.with_name(f"{checkpoint.stem}.{benchmark.lower()}.npz")
            for benchmark in self.benchmarks
        ]

    def check(self, fixture, output) -> Outcome:
        _argv, checkpoint = fixture
        code, text = output
        lines = text.replace(str(checkpoint.parent), "<tmp>").splitlines()
        problems = [] if code == 0 else [f"exit code {code}"]
        for benchmark in self.benchmarks:
            label = f"{benchmark} reward curve:" if self.fleet else "reward curve:"
            curve = [line for line in lines if line.startswith(label)]
            points = curve[0][len(label):].split() if curve else []
            returns = [float(point.partition(":")[2]) for point in points]
            if len(points) != 4 or not all(map(math.isfinite, returns)):
                problems.append(f"{label} {len(points)} finite points, expected 4")
        if self.dynamic and not any(line.startswith("precision switch") for line in lines):
            problems.append("no precision switch")
        arrays = []
        for path in self._checkpoints(checkpoint):
            if not path.is_file():
                problems.append(f"no checkpoint {path.name}")
                continue
            with np.load(path, allow_pickle=False) as archive:
                for key in sorted(archive.files):
                    array = archive[key]
                    arrays.append(array)
                    if array.dtype.kind == "f" and not np.isfinite(array).all():
                        problems.append(f"non-finite {key} in {path.name}")
            path.unlink()
        modelled: Dict[str, object] = {"stdout": lines}
        if problems:
            modelled["problems"] = problems
        return Outcome(self.ops, self.ops if problems else 0,
                       sha256(lines, *arrays), modelled)


class CollectWorkload:
    """``RolloutEngine.collect`` — ``bench_hotpath``'s recipe, public API.

    An operation is one environment step.  The buffer is sized so that a
    unit wraps it about three times (the two-slice trusted write).
    """

    op = "env steps"
    name = "collect_rollout"
    num_envs = 8
    warmup_steps = 1024

    def __init__(self, steps: int, capacity: int):
        self.ops = steps
        self.capacity = capacity

    def prepare(self, seed: int, index: int, workdir: Path) -> RolloutEngine:
        seed = unit_seed(seed, index)
        agent = DDPGAgent(
            STATE_DIM, ACTION_DIM, DDPGConfig(hidden_sizes=HIDDEN),
            numerics=make_numerics("float32"), rng=np.random.default_rng(seed),
        )
        engine = RolloutEngine(
            VectorEnv.make("HalfCheetah", self.num_envs, seed=seed),
            agent,
            buffer=ReplayBuffer(self.capacity, STATE_DIM, ACTION_DIM, seed=seed),
            noise=GaussianNoise(ACTION_DIM, 0.1, seed=seed),
            rng=seed + 1,
            platform=FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah", HIDDEN)),
        )
        engine.collect(self.warmup_steps)
        return engine

    def run(self, engine: RolloutEngine):
        return engine.collect(self.ops)

    def check(self, engine: RolloutEngine, stats) -> Outcome:
        buffer = engine.buffer
        returns = np.asarray(engine.episode_returns, dtype=np.float64)
        consistent = (
            stats.total_steps == self.ops
            and engine.total_env_steps == self.ops + self.warmup_steps
            and len(buffer) == min(self.capacity, engine.total_env_steps)
            and np.isfinite(returns).all()
        )
        # Public API only: seeded samples, four times the capacity in all,
        # read nearly every stored row; small batches keep the check out of
        # the child's peak RSS.
        digests, bad_rows = [], 0
        for _ in range(16):
            batch = buffer.sample(self.capacity // 4)
            arrays = (batch.states, batch.actions, batch.rewards,
                      batch.next_states, batch.dones)
            digests.append(sha256(*arrays))
            bad_rows += int(sum((~np.isfinite(a)).any(axis=1).sum() for a in arrays))
        failed = self.ops if not consistent else min(self.ops, bad_rows)
        modelled = {
            "episodes": stats.episodes,
            "modelled_platform_seconds": stats.modelled_platform_seconds,
            "return_sum": float(returns.sum()),
        }
        return Outcome(self.ops, failed, sha256(digests, returns), modelled)


class ServeWorkload:
    """A checkpointed fixar-dynamic actor behind the dynamic batcher.

    Open loop: a seeded Poisson-like arrival trace at ``qps`` is replayed on
    the *modelled* clock, so the measured figure is how fast the host
    replays it.  An operation is one request; it fails without a finite
    action inside ``[-1, 1]``.
    """

    op = "requests"

    def __init__(self, name: str, requests: int, qps: float, batch_cap: int):
        self.name = name
        self.ops = requests
        self.qps = qps
        self.batch_cap = batch_cap

    def prepare(self, seed: int, index: int, workdir: Path):
        seed = unit_seed(seed, index)
        agent = DDPGAgent(
            STATE_DIM, ACTION_DIM, DDPGConfig(hidden_sizes=HIDDEN),
            numerics=make_numerics("fixar-dynamic"), rng=np.random.default_rng(seed),
        )
        return save_agent(agent, workdir / f"{self.name}-{index}.npz"), seed

    def run(self, fixture):
        checkpoint, seed = fixture
        server = PolicyServer.from_checkpoint(
            checkpoint,
            FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah", HIDDEN)),
            ServingConfig(num_requests=self.ops, qps=self.qps, slo_seconds=0.02,
                          batch_cap=self.batch_cap, seed=seed),
        )
        return server.serve_load(SyntheticLoadGenerator(STATE_DIM, self.qps, seed=seed))

    def check(self, fixture, result) -> Outcome:
        fixture[0].unlink()
        actions, report = result.actions, result.report
        if actions.shape != (self.ops, ACTION_DIM):
            return failed_outcome(self.ops, ValueError(f"actions shape {actions.shape}"))
        answered = np.isfinite(actions).all(axis=1) & (np.abs(actions) <= 1.0).all(axis=1)
        served = sum(flush.batch_size for flush in report.flushes)
        failed = int((~answered).sum()) if served == self.ops else self.ops
        modelled = dict(report.summary())
        modelled.update(flushes=report.num_flushes, pcie_bytes=report.pcie_bytes,
                        energy_joules=report.energy_joules)
        if not all(math.isfinite(value) for value in modelled.values()):
            failed = self.ops
        return Outcome(self.ops, failed, sha256(actions, modelled), modelled)


class PriceSweepWorkload:
    """Distinct oracle calls on the generalized pricing surface only.

    36 cells — benchmark x hidden sizes x devices x precision — each priced
    with ``infer_batch``/``serving_round_seconds`` over a batch range and the
    ``fleet_*`` oracles over fleet specs x widths x update batches.  Unit
    ``index`` shifts every batch and width, so no call repeats within a run;
    the seed orders the cells and sizes the fleets.  An operation is one
    price; it fails when it is not finite and positive.
    """

    op = "price calls"
    name = "price_sweep"
    benchmarks = ("HalfCheetah", "Hopper", "Swimmer")
    hiddens = ((64, 48), (400, 300))
    devices = (1, 2, 4)
    half_state = {"default": 16, "layers": {}}

    def __init__(self, batches: int, widths: Sequence[int], update_batches: Sequence[int]):
        self.batches = batches
        self.widths = tuple(widths)
        self.update_batches = tuple(update_batches)
        cells = len(self.benchmarks) * len(self.hiddens) * len(self.devices) * 2
        fleet_calls = 4 * len(self.widths) * (2 + 3 * len(self.update_batches))
        self.ops = cells * (2 * batches + fleet_calls)

    def prepare(self, seed: int, index: int, workdir: Path):
        rng = np.random.default_rng(unit_seed(seed, index))
        cells = list(itertools.product(self.benchmarks, self.hiddens, self.devices,
                                       (False, True)))
        rng.shuffle(cells)
        a, b, c = (int(count) for count in rng.integers(1, 5, size=3))
        fleets = (
            ((("HalfCheetah", a),), None),
            ((("HalfCheetah", a), ("Hopper", b)), None),
            ((("Hopper", a), ("Swimmer", b), ("HalfCheetah", c)), (1, 2, 1)),
            ((("HalfCheetah", a, 8 + index), ("Swimmer", c)), None),
        )
        return {
            "cells": cells,
            "fleets": fleets,
            "batches": range(1 + self.batches * index, 1 + self.batches * (index + 1)),
            "widths": [width + index for width in self.widths],
            "update_batches": [batch + index for batch in self.update_batches],
        }

    def run(self, plan) -> List[float]:
        prices: List[float] = []
        price = prices.append
        for benchmark, hidden, devices, half in plan["cells"]:
            platform = FixarPlatform(WorkloadSpec.from_benchmark(benchmark, hidden))
            if devices > 1:
                platform = AcceleratorPool(platform, devices)
            if half:
                platform = platform.with_precision_state(self.half_state)
            for batch in plan["batches"]:
                price(platform.infer_batch(batch).total_seconds)
                price(platform.serving_round_seconds(batch))
            for fleet, weights in plan["fleets"]:
                for width in plan["widths"]:
                    price(platform.infer_fleet(fleet, width, weights).total_seconds)
                    price(platform.fleet_collection_round_seconds(fleet, width, weights))
                    for batch in plan["update_batches"]:
                        price(platform.fleet_sequential_round_seconds(
                            fleet, width, batch, weights))
                        price(platform.fleet_pipelined_round_seconds(
                            fleet, width, batch, weights))
                        price(platform.fleet_training_steps_per_second(
                            fleet, width, batch, weights=weights))
        return prices

    def check(self, plan, prices: List[float]) -> Outcome:
        values = np.asarray(prices, dtype=np.float64)
        if values.shape != (self.ops,):
            return failed_outcome(self.ops, ValueError(f"{values.size} prices"))
        bad = int((~(np.isfinite(values) & (values > 0.0))).sum())
        modelled = {"prices": int(values.size), "sum": float(values.sum()),
                    "min": float(values.min()), "max": float(values.max())}
        return Outcome(self.ops, bad, sha256(values), modelled)


_TRAIN = ("--benchmark", "HalfCheetah", "--num-envs", "8")
_FLEET = ("--num-envs", "4", "--schedule", "weighted", "--pipeline-depth", "1",
          "--devices", "2", "--sync-interval", "4")


def build(name: str, smoke: bool = False):
    """The workload called ``name``, at benchmark or at self-test size."""
    if name == "train_qat":
        return TrainWorkload(name, (*_TRAIN, "--regime", "fixar-dynamic"),
                             128 if smoke else 4000, ("HalfCheetah",), True)
    if name == "train_float":
        return TrainWorkload(name, (*_TRAIN, "--regime", "float32"),
                             128 if smoke else 4000, ("HalfCheetah",), False)
    if name == "fleet_mixed":
        if smoke:  # evaluation costs 12,000 scalar steps per benchmark: keep one
            return TrainWorkload(name, ("--fleet", "Hopper:2", *_FLEET), 128, ("Hopper",), True)
        return TrainWorkload(name, ("--fleet", "HalfCheetah:2,Hopper:2", *_FLEET),
                             2000, ("HalfCheetah", "Hopper"), True)
    if name == "collect_rollout":
        return CollectWorkload(2048, 640) if smoke else CollectWorkload(32_000, 10_000)
    if name == "serve_cap1":
        return ServeWorkload(name, 200 if smoke else 3000, 300.0, 1)
    if name == "serve_cap128":
        return ServeWorkload(name, 2000 if smoke else 75_000, 20_000.0, 128)
    if name == "price_sweep":
        if smoke:
            return PriceSweepWorkload(2, (1,), (32,))
        return PriceSweepWorkload(32, (1, 4, 16), (32, 64, 256))
    raise KeyError(name)


NAMES: Tuple[str, ...] = (
    "train_qat", "train_float", "fleet_mixed", "collect_rollout",
    "serve_cap1", "serve_cap128", "price_sweep",
)
