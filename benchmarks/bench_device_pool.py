"""Multi-accelerator device pools — modelled scaling from 1 to N FPGAs.

Every pricing path before the pool serialized the whole fleet onto one
accelerator; an :class:`~repro.platform.AcceleratorPool` gives each fleet
benchmark a device affinity: devices serve their groups' batches (and
update streams) serially but run in parallel.

The contract fleet is the heterogeneous-benchmark mix ``HalfCheetah:2 +
Hopper:2`` (4 workers x 8 envs, batch 64) from ``bench_hetero_fleet``.
Three modelled throughput views are tabled for 1-, 2-, and 3-device
pools: collection-only, sequential training, and pipelined training.
Four contracts are asserted:

* **1-device anchor** — the 1-device pool prices every view
  **exactly** like the single platform (the extended oracle chain);
* **scaling** — going from 1 to 2 accelerators, the modelled sequential
  *and* pipelined training steps/sec must scale by
  >= ``SCALING_CONTRACT``x (1.8).  The mixed fleet is chain-bound on
  collection but update-bound end to end, so the win comes from the
  per-benchmark device affinity running the two learners' update streams
  in parallel;
* **sharding** — a batch wide enough to amortize the per-invocation
  overhead earns its shards: on the paper's (400, 300) network, 2 devices
  serve a batch of 256 >= ``SHARDING_CONTRACT``x (1.10) faster than one
  (batch 64 is invocation-bound: 1.03x);
* **balanced assignment** — on the skewed fleet ``HalfCheetah:4 + Hopper:1
  + Swimmer:4`` round-robin deals both 4-worker groups onto device 0;
  ``--assignment balanced`` must reach >= ``BALANCED_CONTRACT``x (1.5) the
  round-robin sequential *and* pipelined training steps/sec on 2 devices.

A reduced-scale ``train_fleet`` run on the 2-device pool is also timed and
checked against the single-platform run's training numerics (devices
change only the modelled pricing — never the collected trajectories).
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from repro.core import format_table
from repro.envs import benchmark_dimensions
from repro.nn import make_numerics
from repro.platform import AcceleratorPool, FixarPlatform, WorkloadSpec
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    LoadBalancedAssignment,
    RoundRobinAssignment,
    TrainingConfig,
    train_fleet,
)

NUM_ENVS = 8
MIXED_FLEET = (("HalfCheetah", 2), ("Hopper", 2))
TOTAL_WORKERS = sum(count for _, count in MIXED_FLEET)
BATCH_SIZE = 64
HIDDEN_SIZES = (24, 16)
SCALING_CONTRACT = 1.8  # 1 -> 2 devices, sequential and pipelined views
SHARD_BATCHES = (64, 256, 1024)
SHARD_DEVICES = (1, 2, 4)
SHARDING_CONTRACT = 1.10  # 1 -> 2 devices at batch 256
SKEWED_FLEET = (("HalfCheetah", 4), ("Hopper", 1), ("Swimmer", 4))
BALANCED_CONTRACT = 1.5  # balanced over round-robin, 2 devices, both views


def _make_agent(benchmark: str, numerics, seed: int) -> DDPGAgent:
    dims = benchmark_dimensions(benchmark)
    return DDPGAgent(
        dims["state_dim"],
        dims["action_dim"],
        DDPGConfig(hidden_sizes=HIDDEN_SIZES),
        numerics=numerics,
        rng=np.random.default_rng(seed),
    )


def _train_mixed(platform=None, devices=1, total_timesteps=256):
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
    shard_seconds = {
        (batch, devices): AcceleratorPool(template, devices)
        .infer_batch(batch)
        .total_seconds
        for batch in SHARD_BATCHES
        for devices in SHARD_DEVICES
    }
    shard_section = "\n".join(
        [
            "Sharded wide-batch inference on the paper network "
            "(latency of one batch, speedup over 1 device):",
            *(
                f"  batch {batch:4d}: "
                + ", ".join(
                    f"{devices} dev {shard_seconds[batch, devices] * 1e6:7.1f} us "
                    f"({shard_seconds[batch, 1] / shard_seconds[batch, devices]:.3f}x)"
                    for devices in SHARD_DEVICES
                )
                for batch in SHARD_BATCHES
            ),
            f"  contract: 2 devices >= {SHARDING_CONTRACT:.2f}x one device at batch 256",
        ]
    )
    sharding = shard_seconds[256, 1] / shard_seconds[256, 2]

    # ----- Balanced vs round-robin assignment on a skewed fleet ----------- #
    skewed = list(SKEWED_FLEET)
    skewed_label = ",".join(f"{name}:{count}" for name, count in SKEWED_FLEET)
    # The key / num_workers / num_envs shape an assignment policy prices.
    skewed_plans = [
        SimpleNamespace(key=name.lower(), num_workers=count, num_envs=NUM_ENVS)
        for name, count in SKEWED_FLEET
    ]
    skewed_pool = AcceleratorPool(template, 2)
    assignment_views = {}
    assignment_lines = [
        f"Device assignment on {skewed_label} x {NUM_ENVS} envs "
        f"(batch {BATCH_SIZE}, 2 devices, modelled steps/sec):"
    ]
    for policy in (RoundRobinAssignment(), LoadBalancedAssignment()):
        devices = policy.assign(skewed_plans, skewed_pool)
        pinned = {plan.key: device for plan, device in zip(skewed_plans, devices)}
        assignment_views[policy.name] = {
            view: skewed_pool.fleet_training_steps_per_second(
                skewed, NUM_ENVS, BATCH_SIZE, pipelined=pipelined, assignment=pinned
            )
            for view, pipelined in (("sequential", False), ("pipelined", True))
        }
        assignment_lines.append(
            f"  {policy.name:11s}: affinity {devices}, "
            f"sequential {assignment_views[policy.name]['sequential']:7.1f}, "
            f"pipelined {assignment_views[policy.name]['pipelined']:7.1f}"
        )
    balanced_gain = {
        view: assignment_views["balanced"][view] / assignment_views["round-robin"][view]
        for view in ("sequential", "pipelined")
    }
    assignment_lines.append(
        f"  balanced / round-robin: sequential {balanced_gain['sequential']:.2f}x, "
        f"pipelined {balanced_gain['pipelined']:.2f}x "
        f"(contract: both >= {BALANCED_CONTRACT}x)"
    )
    assignment_section = "\n".join(assignment_lines)

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
            assignment_section,
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
    # A wide batch earns its shards; a skewed fleet earns its balancing.
    assert sharding >= SHARDING_CONTRACT, sharding
    for view in ("sequential", "pipelined"):
        assert balanced_gain[view] >= BALANCED_CONTRACT, (view, balanced_gain[view])
    # More devices never price worse, in any view.
    for view in ("collection", "sequential", "pipelined"):
        assert by_label["3 devices, colocated"][view] >= by_label[
            "2 devices, colocated"
        ][view] - 1e-12, view
