"""Heterogeneous collector fleets — mixed-benchmark throughput vs homogeneous.

FIXAR's adaptive parallelism serves workloads whose layer dimensions differ;
a heterogeneous fleet (``TrainingConfig.fleet``, e.g. ``HalfCheetah:2 +
Hopper:2``) is the software scenario that actually exercises it: the single
accelerator turns between back-to-back batched inferences (and streamed
training passes) with *different* layer dimensions, priced by the
``FixarPlatform.fleet_*`` methods.

Three modelled throughput views are reported for the mixed fleet and its
two homogeneous equivalents (4 workers x 8 envs each, batch 64, one update
per collected env step): collection-only, the sequential training schedule,
and the pipelined training schedule.  The mixing overhead in the model is
real but small — the slowest benchmark's host+inference chain bounds
collection, and the pipelined update side pays one stream-invocation
overhead *per benchmark* — so the subsystem's contract is an envelope:

**each modelled mixed-fleet throughput view must stay within
``HOMOGENEOUS_ENVELOPE_FACTOR`` of the equivalent homogeneous fleets**
(>= 0.9x the slowest homogeneous fleet and <= 1.1x the fastest).

The round-scheduler subsystem adds a second contract: the
**throughput-weighted schedule** (``ThroughputWeightedPolicy``) allocates
extra collection lock-steps per round to the benchmark with the cheaper
modelled host+inference chain, so on the mixed fleet its **modelled
collection steps/sec must be >= the spec-order round-robin schedule** —
the weighted rounds fill the slack the slowest benchmark's chain leaves
under every other worker.

A real (deterministically scheduled, single-threaded) ``train_fleet`` run
of the mixed fleet is also timed against the homogeneous ``train`` runs —
recorded to document the loop's overhead, not asserted, since the emulation
adds no threads.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import format_table
from repro.envs import benchmark_dimensions
from repro.nn import make_numerics
from repro.platform import FixarPlatform, WorkloadSpec
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    ThroughputWeightedPolicy,
    TrainingConfig,
    train,
    train_fleet,
)

NUM_ENVS = 8
MIXED_FLEET = (("HalfCheetah", 2), ("Hopper", 2))
HOMOGENEOUS = ("HalfCheetah", "Hopper")
TOTAL_WORKERS = sum(count for _, count in MIXED_FLEET)
BATCH_SIZE = 64
HOMOGENEOUS_ENVELOPE_FACTOR = 1.1  # mixed within [min/1.1 ... max*1.1]
HIDDEN_SIZES = (24, 16)


def _make_agent(benchmark: str, numerics, seed: int) -> DDPGAgent:
    dims = benchmark_dimensions(benchmark)
    return DDPGAgent(
        dims["state_dim"],
        dims["action_dim"],
        DDPGConfig(hidden_sizes=HIDDEN_SIZES),
        numerics=numerics,
        rng=np.random.default_rng(seed),
    )


def _training_config(total_timesteps: int = 384, **overrides) -> TrainingConfig:
    base = dict(
        total_timesteps=total_timesteps,
        warmup_timesteps=128,
        batch_size=32,
        buffer_capacity=10_000,
        evaluation_interval=total_timesteps,
        evaluation_episodes=1,
        seed=0,
        num_envs=NUM_ENVS,
        sync_interval=NUM_ENVS * TOTAL_WORKERS,
    )
    base.update(overrides)
    return TrainingConfig(**base)


def _train_mixed(total_timesteps: int = 384):
    """One small mixed-fleet run; returns (result, wall_seconds)."""
    numerics = make_numerics("float32")
    agents = {
        benchmark: _make_agent(benchmark, numerics, seed=1 + i)
        for i, (benchmark, _count) in enumerate(MIXED_FLEET)
    }
    config = _training_config(total_timesteps, fleet=list(MIXED_FLEET))
    start = time.perf_counter()
    result = train_fleet(agents, config)
    return result, time.perf_counter() - start


def _train_homogeneous(benchmark: str, total_timesteps: int = 384):
    """The equivalent homogeneous run through train(num_workers=4)."""
    from repro.envs import make as make_env

    numerics = make_numerics("float32")
    agent = _make_agent(benchmark, numerics, seed=1)
    config = _training_config(total_timesteps, num_workers=TOTAL_WORKERS)
    env = make_env(benchmark, seed=0, max_episode_steps=200)
    eval_env = make_env(benchmark, seed=1, max_episode_steps=200)
    start = time.perf_counter()
    result = train(env, agent, config, eval_env=eval_env)
    return result, time.perf_counter() - start


def test_hetero_fleet_modelled_contract(benchmark, save_report):
    # The modelled platform prices the paper's full-size networks (default
    # hidden sizes); the measured runs below use the reduced CI-scale agents.
    platform = FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))

    specs = [(f"{name}:{TOTAL_WORKERS}", [(name, TOTAL_WORKERS)]) for name in HOMOGENEOUS]
    specs.append(
        (",".join(f"{name}:{count}" for name, count in MIXED_FLEET), list(MIXED_FLEET))
    )

    rows = []
    by_label = {}
    for label, fleet in specs:
        collection = platform.fleet_collection_steps_per_second(fleet, NUM_ENVS)
        sequential = platform.fleet_training_steps_per_second(
            fleet, NUM_ENVS, BATCH_SIZE, pipelined=False
        )
        pipelined = platform.fleet_training_steps_per_second(
            fleet, NUM_ENVS, BATCH_SIZE, pipelined=True
        )
        by_label[label] = {
            "collection": collection,
            "sequential": sequential,
            "pipelined": pipelined,
        }
        rows.append(
            {
                "fleet": label,
                "collect round (ms)": round(
                    platform.fleet_collection_round_seconds(fleet, NUM_ENVS) * 1e3, 3
                ),
                "steps/sec (collect)": round(collection, 1),
                "steps/sec (seq train)": round(sequential, 1),
                "steps/sec (pipelined)": round(pipelined, 1),
                "pipelined speedup": round(
                    platform.fleet_pipelined_speedup(fleet, NUM_ENVS, BATCH_SIZE), 2
                ),
            }
        )

    mixed_label = specs[-1][0]
    homogeneous_labels = [label for label, _ in specs[:-1]]
    envelope_lines = []
    for view in ("collection", "sequential", "pipelined"):
        mixed_value = by_label[mixed_label][view]
        values = [by_label[label][view] for label in homogeneous_labels]
        floor = min(values) / HOMOGENEOUS_ENVELOPE_FACTOR
        ceiling = max(values) * HOMOGENEOUS_ENVELOPE_FACTOR
        envelope_lines.append(
            f"{view:11s}: mixed {mixed_value:8.1f} steps/sec in "
            f"[{floor:8.1f}, {ceiling:8.1f}] "
            f"(homogeneous {', '.join(f'{v:.1f}' for v in values)})"
        )

    # ----- Throughput-weighted rounds vs spec-order round-robin ----------- #
    # The scheduler's ThroughputWeightedPolicy prices each benchmark's
    # host+inference chain through the platform oracle and allocates extra
    # lock-steps per round to the cheaper chain; the contract is that its
    # modelled collection throughput never falls below round-robin.
    class _Group:
        def __init__(self, key, workers, width):
            self.key, self.num_workers, self.num_envs = key, workers, width

    weighted_policy = ThroughputWeightedPolicy(platform=platform)
    weights = weighted_policy.lock_steps(
        [_Group(name.lower(), count, NUM_ENVS) for name, count in MIXED_FLEET]
    )
    round_robin_steps = platform.fleet_collection_steps_per_second(
        list(MIXED_FLEET), NUM_ENVS
    )
    weighted_steps = platform.fleet_collection_steps_per_second(
        list(MIXED_FLEET), NUM_ENVS, weights=weights
    )
    chain_lines = []
    for name, _count in MIXED_FLEET:
        chain = platform.fleet_collection_round_seconds([(name, 1)], NUM_ENVS)
        chain_lines.append(f"  {name:12s} host+inference chain {chain * 1e3:7.3f} ms")
    weighted_section = "\n".join(
        [
            "Throughput-weighted schedule vs spec-order round-robin "
            "(modelled collection):",
            *chain_lines,
            "  lock-step allocation per round: "
            + ", ".join(
                f"{name}x{weight}"
                for (name, _count), weight in zip(MIXED_FLEET, weights)
            ),
            f"  round-robin : {round_robin_steps:8.1f} steps/sec",
            f"  weighted    : {weighted_steps:8.1f} steps/sec "
            f"({weighted_steps / round_robin_steps:.3f}x)",
            "  contract: weighted collection steps/sec >= round-robin",
        ]
    )

    # The fleet's mixed-dimension inference round on the single accelerator.
    inference = platform.infer_fleet(list(MIXED_FLEET), NUM_ENVS)
    inference_line = (
        f"mixed inference round: {inference.num_states} states in "
        f"{inference.total_seconds * 1e3:.3f} ms "
        f"({inference.states_per_second:,.0f} states/sec; "
        f"{inference.pcie_bytes} PCIe bytes)"
    )

    # Time the mixed fleet's deterministic round machinery, and record the
    # single-threaded wall clock of mixed vs homogeneous runs (documents
    # overhead of the per-group scheduling, not a speedup).
    benchmark(_train_mixed, 256)
    mixed_result, mixed_wall = _train_mixed()
    measured = [
        {
            "run": mixed_label + " (train_fleet)",
            "steps": mixed_result.total_timesteps,
            "updates": mixed_result.total_updates,
            "wall (s)": round(mixed_wall, 3),
            "steps/sec (measured)": round(mixed_result.total_timesteps / mixed_wall, 1),
        }
    ]
    for name in HOMOGENEOUS:
        homogeneous_result, homogeneous_wall = _train_homogeneous(name)
        measured.append(
            {
                "run": f"{name}:{TOTAL_WORKERS} (train)",
                "steps": homogeneous_result.total_timesteps,
                "updates": homogeneous_result.total_updates,
                "wall (s)": round(homogeneous_wall, 3),
                "steps/sec (measured)": round(
                    homogeneous_result.total_timesteps / homogeneous_wall, 1
                ),
            }
        )
        assert mixed_result.total_timesteps == homogeneous_result.total_timesteps

    report = "\n\n".join(
        [
            format_table(
                rows,
                title=(
                    "Heterogeneous vs homogeneous collector fleets "
                    f"({TOTAL_WORKERS} workers x {NUM_ENVS} envs, batch {BATCH_SIZE}, "
                    "modelled platform)"
                ),
            ),
            weighted_section,
            inference_line,
            format_table(
                measured,
                title=(
                    "Measured wall-clock (single-threaded deterministic schedule — "
                    "records per-group scheduling overhead, not speedup)"
                ),
            ),
            (
                f"contract: every modelled mixed-fleet throughput view must stay "
                f"within a {HOMOGENEOUS_ENVELOPE_FACTOR}x envelope of the equivalent "
                f"homogeneous fleets\n(>= min/"
                f"{HOMOGENEOUS_ENVELOPE_FACTOR}, <= max*{HOMOGENEOUS_ENVELOPE_FACTOR}).\n"
                + "\n".join(f"observed {line}" for line in envelope_lines)
            ),
        ]
    )
    save_report("hetero_fleet", report)

    # The contract: mixed-fleet throughput stays within the stated factor of
    # the homogeneous fleets' envelope, in every modelled view.
    for view in ("collection", "sequential", "pipelined"):
        mixed_value = by_label[mixed_label][view]
        values = [by_label[label][view] for label in homogeneous_labels]
        assert mixed_value >= min(values) / HOMOGENEOUS_ENVELOPE_FACTOR, view
        assert mixed_value <= max(values) * HOMOGENEOUS_ENVELOPE_FACTOR, view
    # Overlap still pays on a mixed fleet.
    assert by_label[mixed_label]["pipelined"] >= by_label[mixed_label]["sequential"]
    # The throughput-weighted schedule never loses to spec-order round-robin
    # (and on this fleet the chains differ, so it strictly wins).
    assert weighted_steps >= round_robin_steps


def test_hetero_fleet_homogeneous_spec_matches_worker_path():
    """A Hopper:4 fleet spec reproduces train(num_workers=4) bit for bit."""
    numerics = make_numerics("float32")
    fleet_agent = _make_agent("Hopper", numerics, seed=1)
    config = _training_config(256, fleet=[("Hopper", TOTAL_WORKERS)])
    from repro.envs import make as make_env

    fleet_result = train_fleet(
        {"Hopper": fleet_agent},
        config,
        env_templates={"Hopper": make_env("Hopper", seed=0, max_episode_steps=200)},
        eval_envs={"Hopper": make_env("Hopper", seed=1, max_episode_steps=200)},
    )
    worker_result, _ = _train_homogeneous("Hopper", 256)
    benchmark_result = fleet_result.per_benchmark["Hopper"]
    np.testing.assert_array_equal(
        benchmark_result.curve.returns, worker_result.curve.returns
    )
    assert benchmark_result.episode_returns == worker_result.episode_returns
