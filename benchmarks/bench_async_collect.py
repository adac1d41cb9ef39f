"""Multi-worker collection — modelled steps/sec vs the single-worker engine.

``num_workers`` :class:`CollectorWorker` replicas each step their own
``VectorEnv`` of ``num_envs`` environments and feed one shared replay buffer
through the :class:`AsyncCollector` coordinator's deterministic in-process
rounds.

For worker counts {1, 2, 4} at 8 envs each the report prices the fleet on
the FIXAR deployment model
(:meth:`FixarPlatform.collection_steps_per_second`): workers' host phases
overlap on the Xeon host's cores while the single accelerator serves the
fleet's batched inferences back to back.  This carries the subsystem's
contract: **4 workers x 8 envs must collect at least 2x the steps/sec of
1 worker x 8 envs**.  Each fleet also really collects the budget, so the
``steps drained`` column pins the round arithmetic.

The single-worker in-process :class:`RolloutEngine` row anchors the report
to the PR-1 baseline's measured wall-clock rate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import format_table
from repro.envs import HalfCheetahEnv, VectorEnv
from repro.nn import make_numerics
from repro.platform import FixarPlatform, WorkloadSpec
from repro.rl import (
    AsyncCollector,
    CollectorWorker,
    DDPGAgent,
    DDPGConfig,
    GaussianNoise,
    ReplayBuffer,
    RolloutEngine,
)

NUM_ENVS = 8
WORKER_SWEEP = (1, 2, 4)
COLLECT_STEPS = 4096
MODELLED_SPEEDUP_FLOOR = 2.0

STATE_DIM, ACTION_DIM = 17, 6


def _make_agent() -> DDPGAgent:
    return DDPGAgent(
        STATE_DIM,
        ACTION_DIM,
        DDPGConfig(hidden_sizes=(64, 48)),
        numerics=make_numerics("float32"),
        rng=np.random.default_rng(1),
    )


def _make_collector(num_workers: int, agent, platform) -> AsyncCollector:
    buffer = ReplayBuffer(200_000, STATE_DIM, ACTION_DIM, seed=0)
    workers = [
        CollectorWorker.from_agent(
            worker_id,
            agent,
            HalfCheetahEnv(),
            NUM_ENVS,
            seed=0,
            sigma=0.1,
            platform=platform,
        )
        for worker_id in range(num_workers)
    ]
    return AsyncCollector(workers, buffer, source_agent=agent, sync_interval=512)


@pytest.fixture(scope="module")
def sweep_rows():
    agent = _make_agent()
    platform = FixarPlatform(
        WorkloadSpec(benchmark="HalfCheetah", state_dim=STATE_DIM, action_dim=ACTION_DIM)
    )
    rows = []
    for num_workers in WORKER_SWEEP:
        collector = _make_collector(num_workers, agent, platform)
        stats = collector.collect(COLLECT_STEPS)
        rows.append(
            {
                "workers x envs": f"{num_workers} x {NUM_ENVS}",
                "num_workers": num_workers,
                "steps/sec (modelled platform)": round(
                    platform.collection_steps_per_second(NUM_ENVS, num_workers), 1
                ),
                "steps drained": stats.total_steps,
                "fleet round (ms)": round(
                    platform.collection_round_seconds(NUM_ENVS, num_workers) * 1e3, 3
                ),
            }
        )
    return rows


def test_async_collect_throughput(benchmark, sweep_rows, save_report):
    agent = _make_agent()
    platform = FixarPlatform(
        WorkloadSpec(benchmark="HalfCheetah", state_dim=STATE_DIM, action_dim=ACTION_DIM)
    )

    # Time the coordinator's round path (the drain machinery itself).
    collector = _make_collector(2, agent, platform)
    collector.collect(256)
    benchmark(collector.collect, 512)

    # The PR-1 anchor: the same budget through one in-process engine.
    env = VectorEnv.make("HalfCheetah", NUM_ENVS, seed=0)
    engine = RolloutEngine(
        env,
        agent,
        buffer=ReplayBuffer(200_000, STATE_DIM, ACTION_DIM, seed=0),
        noise=GaussianNoise(ACTION_DIM, 0.1, seed=0),
        rng=2,
        platform=platform,
    )
    engine.collect(512)
    engine_stats = engine.collect(COLLECT_STEPS)

    baseline = next(row for row in sweep_rows if row["num_workers"] == 1)
    summary = [
        {
            "workers x envs": row["workers x envs"],
            "modelled speedup vs 1 worker": round(
                row["steps/sec (modelled platform)"]
                / baseline["steps/sec (modelled platform)"],
                2,
            ),
        }
        for row in sweep_rows
    ]
    report = "\n\n".join(
        [
            format_table(
                sweep_rows, title="Async multi-worker collection (HalfCheetah, 8 envs/worker)"
            ),
            format_table(summary, title="Speedups over the single-worker collector"),
            (
                f"in-process RolloutEngine anchor (1 x {NUM_ENVS}): "
                f"{engine_stats.steps_per_second:,.1f} steps/sec measured\n"
                f"contract: modelled platform steps/sec at 4 x {NUM_ENVS} must be >= "
                f"{MODELLED_SPEEDUP_FLOOR}x the 1 x {NUM_ENVS} collector."
            ),
        ]
    )
    save_report("async_collect", report)

    # The contract: the modelled platform collects >= 2x faster with the
    # 4-worker fleet, and modelled throughput rises monotonically.
    modelled = {row["num_workers"]: row["steps/sec (modelled platform)"] for row in sweep_rows}
    assert modelled[4] >= MODELLED_SPEEDUP_FLOOR * modelled[1]
    assert [modelled[w] for w in WORKER_SWEEP] == sorted(modelled[w] for w in WORKER_SWEEP)
    # Every fleet actually drained at least the requested budget.
    assert all(row["steps drained"] >= COLLECT_STEPS for row in sweep_rows)


def test_async_collector_matches_engine_replay_contents():
    """One shared-agent worker drains exactly what the PR-1 engine inserts, bit for bit."""
    agent = _make_agent()

    engine_buffer = ReplayBuffer(10_000, STATE_DIM, ACTION_DIM, seed=0)
    engine = RolloutEngine(
        VectorEnv.make("HalfCheetah", NUM_ENVS, seed=0),
        agent,
        buffer=engine_buffer,
        noise=GaussianNoise(ACTION_DIM, 0.1, seed=0),
        rng=2,
    )
    engine.collect(1024)

    collector_buffer = ReplayBuffer(10_000, STATE_DIM, ACTION_DIM, seed=0)
    worker_engine = RolloutEngine(
        VectorEnv.make("HalfCheetah", NUM_ENVS, seed=0),
        agent,
        buffer=None,
        noise=GaussianNoise(ACTION_DIM, 0.1, seed=0),
        rng=2,
    )
    collector = AsyncCollector(
        [CollectorWorker(0, worker_engine, shared_agent=True)], collector_buffer
    )
    collector.collect(1024)

    assert len(engine_buffer) == len(collector_buffer)
    for attr in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
        np.testing.assert_array_equal(
            getattr(engine_buffer, attr), getattr(collector_buffer, attr)
        )
