"""Multi-accelerator device pools — modelled scaling from 1 to N FPGAs.

Every pricing path before the pool serialized the whole fleet onto one
accelerator; an :class:`~repro.platform.AcceleratorPool` gives each fleet
benchmark a device affinity (collection devices serve their groups'
batches serially but run in parallel) and a placement for the learners'
update streams (``colocated`` with collection, or ``disaggregated`` onto a
dedicated device).

The contract fleet is the heterogeneous-benchmark mix ``HalfCheetah:2 +
Hopper:2`` (4 workers x 8 envs, batch 64) from ``bench_hetero_fleet``.
Three modelled throughput views are tabled for 1-, 2-, and 3-device
colocated pools plus the 3-device disaggregated pool: collection-only,
sequential training, and pipelined training.  Two contracts are asserted:

* **1-device anchor** — the 1-device colocated pool prices every view
  **exactly** like the single platform (the extended oracle chain);
* **scaling** — going from 1 to 2 accelerators, the modelled sequential
  *and* pipelined training steps/sec must scale by
  >= ``SCALING_CONTRACT``x (1.8).  The mixed fleet is chain-bound on
  collection but update-bound end to end, so the win comes from the
  per-benchmark device affinity running the two learners' update streams
  in parallel.

A reduced-scale ``train_fleet`` run on the 2-device pool is also timed and
checked against the single-platform run's training numerics (devices
change only the modelled pricing — never the collected trajectories).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import format_table
from repro.envs import benchmark_dimensions
from repro.nn import make_numerics
from repro.platform import AcceleratorPool, FixarPlatform, WorkloadSpec
from repro.rl import DDPGAgent, DDPGConfig, TrainingConfig, train_fleet

NUM_ENVS = 8
MIXED_FLEET = (("HalfCheetah", 2), ("Hopper", 2))
TOTAL_WORKERS = sum(count for _, count in MIXED_FLEET)
BATCH_SIZE = 64
HIDDEN_SIZES = (24, 16)
SCALING_CONTRACT = 1.8  # 1 -> 2 devices, sequential and pipelined views


def _make_agent(benchmark: str, numerics, seed: int) -> DDPGAgent:
    dims = benchmark_dimensions(benchmark)
    return DDPGAgent(
        dims["state_dim"],
        dims["action_dim"],
        DDPGConfig(hidden_sizes=HIDDEN_SIZES),
        numerics=numerics,
        rng=np.random.default_rng(seed),
    )


def _train_mixed(platform=None, devices=1, placement="colocated", total_timesteps=256):
    """One small mixed-fleet run priced on ``platform``; returns (result, wall)."""
    numerics = make_numerics("float32")
    agents = {
        benchmark: _make_agent(benchmark, numerics, seed=1 + i)
        for i, (benchmark, _count) in enumerate(MIXED_FLEET)
    }
    config = TrainingConfig(
        total_timesteps=total_timesteps,
        warmup_timesteps=128,
        batch_size=32,
        buffer_capacity=10_000,
        evaluation_interval=total_timesteps,
        evaluation_episodes=1,
        seed=0,
        num_envs=NUM_ENVS,
        sync_interval=NUM_ENVS * TOTAL_WORKERS,
        fleet=list(MIXED_FLEET),
        devices=devices,
        placement=placement,
    )
    start = time.perf_counter()
    result = train_fleet(agents, config, platform=platform)
    return result, time.perf_counter() - start


def test_device_pool_scaling_contract(benchmark, save_report):
    # The modelled platform prices the paper's full-size networks; the
    # measured runs below use the reduced CI-scale agents.
    template = FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))
    fleet = list(MIXED_FLEET)
    fleet_label = ",".join(f"{name}:{count}" for name, count in MIXED_FLEET)

    pools = [
        ("1 device (single platform)", AcceleratorPool(template, 1)),
        ("2 devices, colocated", AcceleratorPool(template, 2)),
        ("3 devices, colocated", AcceleratorPool(template, 3)),
        (
            "3 devices, disaggregated",
            AcceleratorPool(template, 3, placement="disaggregated"),
        ),
    ]

    rows = []
    by_label = {}
    for label, pool in pools:
        views = {
            "collection": pool.fleet_collection_steps_per_second(fleet, NUM_ENVS),
            "sequential": pool.fleet_training_steps_per_second(
                fleet, NUM_ENVS, BATCH_SIZE, pipelined=False
            ),
            "pipelined": pool.fleet_training_steps_per_second(
                fleet, NUM_ENVS, BATCH_SIZE, pipelined=True
            ),
        }
        by_label[label] = views
        rows.append(
            {
                "pool": label,
                "collect round (ms)": round(
                    pool.fleet_collection_round_seconds(fleet, NUM_ENVS) * 1e3, 3
                ),
                "steps/sec (collect)": round(views["collection"], 1),
                "steps/sec (seq train)": round(views["sequential"], 1),
                "steps/sec (pipelined)": round(views["pipelined"], 1),
            }
        )

    # ----- The 1-device anchor: exact single-platform equality ------------- #
    single_views = {
        "collection": template.fleet_collection_steps_per_second(fleet, NUM_ENVS),
        "sequential": template.fleet_training_steps_per_second(
            fleet, NUM_ENVS, BATCH_SIZE, pipelined=False
        ),
        "pipelined": template.fleet_training_steps_per_second(
            fleet, NUM_ENVS, BATCH_SIZE, pipelined=True
        ),
    }
    anchor = by_label["1 device (single platform)"]
    anchor_lines = [
        f"  {view:10s}: pool {anchor[view]:10.3f} == platform "
        f"{single_views[view]:10.3f} steps/sec"
        for view in ("collection", "sequential", "pipelined")
    ]

    # ----- The scaling contract: 1 -> 2 devices --------------------------- #
    one = by_label["1 device (single platform)"]
    two = by_label["2 devices, colocated"]
    scaling = {view: two[view] / one[view] for view in ("sequential", "pipelined")}
    affinity = AcceleratorPool(template, 2).resolve_assignment(
        [name for name, _count in MIXED_FLEET]
    )
    scaling_section = "\n".join(
        [
            f"Scaling 1 -> 2 accelerators on {fleet_label} "
            "(per-benchmark device affinity: "
            + ", ".join(
                f"{name}->dev{device}"
                for (name, _count), device in zip(MIXED_FLEET, affinity)
            )
            + "):",
            *(
                f"  {view:10s}: {one[view]:8.1f} -> {two[view]:8.1f} steps/sec "
                f"({scaling[view]:.3f}x)"
                for view in ("sequential", "pipelined")
            ),
            f"  contract: sequential and pipelined scaling >= {SCALING_CONTRACT}x",
        ]
    )

    # ----- Sharded wide-batch inference (the homogeneous train() path) ---- #
    shard_lines = ["Sharded batch-64 inference (homogeneous wide group):"]
    for devices in (1, 2, 3):
        pool = AcceleratorPool(template, devices)
        report = pool.infer_batch(BATCH_SIZE)
        shard_lines.append(
            f"  {devices} device(s): {report.num_states} states in "
            f"{report.total_seconds * 1e6:7.1f} us across "
            f"{len(report.rows)} shard(s) "
            f"({report.states_per_second:,.0f} states/sec)"
        )
    shard_section = "\n".join(shard_lines)

    # ----- Measured: the pool changes pricing, not trajectories ----------- #
    pool2 = AcceleratorPool(template, 2)
    benchmark(_train_mixed, pool2, 2)
    single_result, single_wall = _train_mixed(template)
    pooled_result, pooled_wall = _train_mixed(pool2, devices=2)
    for name in single_result.benchmarks:
        np.testing.assert_array_equal(
            single_result.per_benchmark[name].curve.returns,
            pooled_result.per_benchmark[name].curve.returns,
        )
        assert (
            single_result.per_benchmark[name].episode_returns
            == pooled_result.per_benchmark[name].episode_returns
        )
    measured = format_table(
        [
            {
                "run": f"{fleet_label} (1 platform)",
                "steps": single_result.total_timesteps,
                "wall (s)": round(single_wall, 3),
            },
            {
                "run": f"{fleet_label} (2-device pool)",
                "steps": pooled_result.total_timesteps,
                "wall (s)": round(pooled_wall, 3),
            },
        ],
        title=(
            "Measured wall-clock (single-threaded; identical trajectories — "
            "the pool changes modelled pricing only)"
        ),
    )

    report = "\n\n".join(
        [
            format_table(
                rows,
                title=(
                    f"Device-pool scaling on {fleet_label} "
                    f"({TOTAL_WORKERS} workers x {NUM_ENVS} envs, "
                    f"batch {BATCH_SIZE}, modelled platform)"
                ),
            ),
            "1-device anchor (extended oracle chain — exact equality):\n"
            + "\n".join(anchor_lines),
            scaling_section,
            shard_section,
            measured,
            f"observed affinity: {pooled_result.assignment}",
        ]
    )
    save_report("device_pool", report)

    # The extended oracle chain: a 1-device pool is the single platform.
    for view in ("collection", "sequential", "pipelined"):
        assert anchor[view] == single_views[view], view
    # The scaling contract.
    for view in ("sequential", "pipelined"):
        assert scaling[view] >= SCALING_CONTRACT, (view, scaling[view])
    # More devices never price worse, in any view or placement.
    for view in ("collection", "sequential", "pipelined"):
        assert by_label["3 devices, colocated"][view] >= by_label[
            "2 devices, colocated"
        ][view] - 1e-12, view
