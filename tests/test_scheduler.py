"""Tests for the unified round-scheduler subsystem (``repro.rl.scheduler``).

The load-bearing guarantees:

* **Policy equivalence** — every schedule policy preserves the work
  invariants of the sequential oracle: total environment steps, one agent
  update per collected post-warmup step (per benchmark), and one evaluation
  point per crossed ``evaluation_interval`` boundary;
* **Sequential bit-exactness** — ``schedule="sequential"`` is bit-exact
  with the historical depth-0 loop (``schedule=None``), whose own oracle
  chain reaches ``train_scalar_reference`` (pinned in
  ``tests/test_pipelined_training.py``);
* **Mixed-width fleets** — the three-field ``Benchmark:count:num_envs``
  grammar trains deterministically end-to-end, and the cumulative
  environment-offset seeding (worker ``w``'s env ``i`` is seeded
  ``seed + env_offset(w) + i``, offsets summing prior workers' widths) is
  pinned;
* **Throughput-weighted rounds** — the policy's oracle-derived lock-step
  allocation never prices below spec-order round-robin, degenerates to
  uniform weights without an oracle, and honors explicit weights.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.envs import HalfCheetahEnv, HopperEnv, benchmark_dimensions
from repro.nn import make_numerics
from repro.platform import FixarPlatform, WorkloadSpec
from repro.rl import (
    AffinityAssignment,
    DDPGAgent,
    DDPGConfig,
    LoadBalancedAssignment,
    PipelinedPolicy,
    QATController,
    QATSchedule,
    RoundRobinAssignment,
    SequentialPolicy,
    ThroughputWeightedPolicy,
    TrainingConfig,
    resolve_assignment,
    resolve_policy,
    train,
    train_fleet,
)
from repro.rl.training import _build_groups, _fleet_plans, _run_groups


def _agent(benchmark: str, numerics=None, seed=42) -> DDPGAgent:
    dims = benchmark_dimensions(benchmark)
    return DDPGAgent(
        dims["state_dim"],
        dims["action_dim"],
        DDPGConfig(hidden_sizes=(24, 16)),
        numerics=numerics or make_numerics("float32"),
        rng=np.random.default_rng(seed),
    )


def _config(**overrides) -> TrainingConfig:
    base = TrainingConfig(
        total_timesteps=240,
        warmup_timesteps=60,
        batch_size=16,
        buffer_capacity=5_000,
        evaluation_interval=120,
        evaluation_episodes=2,
        exploration_noise=0.2,
        seed=3,
        num_envs=2,
    )
    return replace(base, **overrides)


def _fleet_agents(seed_offset=0):
    numerics = make_numerics("float32")
    return {
        "HalfCheetah": _agent("HalfCheetah", numerics, seed=1 + seed_offset),
        "Hopper": _agent("Hopper", numerics, seed=2 + seed_offset),
    }


class TestConfigSchedule:
    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule must be one of"):
            _config(schedule="bogus")

    def test_sequential_conflicts_with_pipeline_depth(self):
        with pytest.raises(ValueError, match="conflicts with pipeline_depth"):
            _config(schedule="sequential", pipeline_depth=2)

    def test_schedule_none_resolves_from_depth(self):
        assert isinstance(resolve_policy(_config()), SequentialPolicy)
        pipelined = resolve_policy(_config(pipeline_depth=3))
        assert isinstance(pipelined, PipelinedPolicy)
        assert pipelined.depth == 3

    def test_weighted_carries_depth(self):
        policy = resolve_policy(_config(schedule="weighted", pipeline_depth=1))
        assert isinstance(policy, ThroughputWeightedPolicy)
        assert policy.depth == 1

    def test_negative_knobs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="pipeline_depth"):
            _config(pipeline_depth=-1)
        with pytest.raises(ValueError, match="sync_interval"):
            _config(sync_interval=0)
        with pytest.raises(ValueError, match="num_envs"):
            _config(num_envs=0)
        with pytest.raises(ValueError, match="num_workers"):
            _config(fleet="Hopper:2", num_workers=2)


class TestSequentialPolicyBitExactness:
    """``schedule="sequential"`` must be the historical depth-0 loop."""

    @pytest.mark.smoke
    def test_explicit_sequential_matches_default_homogeneous(self):
        def run(schedule):
            env = HopperEnv(seed=5, max_episode_steps=40)
            agent = _agent("Hopper")
            result = train(
                env,
                agent,
                _config(num_workers=2, schedule=schedule),
                eval_env=HopperEnv(seed=9, max_episode_steps=40),
            )
            return result, agent

        default, default_agent = run(None)
        explicit, explicit_agent = run("sequential")
        np.testing.assert_array_equal(default.curve.returns, explicit.curve.returns)
        assert default.episode_returns == explicit.episode_returns
        assert default.total_updates == explicit.total_updates
        for attr in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
            np.testing.assert_array_equal(
                getattr(default.replay_buffer, attr),
                getattr(explicit.replay_buffer, attr),
            )
        for name, value in default_agent.actor.parameters().items():
            np.testing.assert_array_equal(value, explicit_agent.actor.parameters()[name])

    def test_explicit_sequential_matches_default_fleet(self):
        def run(schedule):
            config = _config(fleet="HalfCheetah:1,Hopper:2", schedule=schedule)
            return train_fleet(_fleet_agents(), config)

        default = run(None)
        explicit = run("sequential")
        assert explicit.schedule == "sequential"
        for benchmark in default.benchmarks:
            a = default.per_benchmark[benchmark]
            b = explicit.per_benchmark[benchmark]
            np.testing.assert_array_equal(a.curve.returns, b.curve.returns)
            assert a.episode_returns == b.episode_returns
            assert a.total_updates == b.total_updates


class TestPolicyEquivalence:
    """Every policy preserves the sequential oracle's work invariants."""

    FLEET = "HalfCheetah:1,Hopper:1"
    # 240 steps divide evenly by the sequential round (4 steps: 2 workers x
    # 2 envs) and by the weighted round below (6 steps), so totals align
    # across policies and the eval cadence is directly comparable.
    TOTAL = 240

    def _run(self, schedule=None, pipeline_depth=0, platform=None, weights=None):
        config = _config(
            total_timesteps=self.TOTAL,
            fleet=self.FLEET,
            schedule=schedule,
            pipeline_depth=pipeline_depth,
        )
        agents = _fleet_agents()
        policy = (
            ThroughputWeightedPolicy(weights=weights) if weights is not None else None
        )
        return train_fleet(agents, config, platform=platform, policy=policy)

    @pytest.mark.parametrize(
        "schedule, pipeline_depth",
        [(None, 0), ("pipelined", 1), ("pipelined", 3), ("weighted", 0)],
    )
    def test_invariants_for_every_policy(self, schedule, pipeline_depth):
        oracle = self._run()
        result = self._run(schedule=schedule, pipeline_depth=pipeline_depth)

        # Total environment steps: the whole budget, in whole rounds.
        assert result.total_timesteps == oracle.total_timesteps == self.TOTAL
        assert result.total_timesteps == sum(
            r.total_timesteps for r in result.per_benchmark.values()
        )
        # One update per collected post-warmup step, fleet-wide and per
        # benchmark (the update-to-data ratio of the scalar loop).
        assert result.total_updates == self.TOTAL - 60
        for benchmark_result in result.per_benchmark.values():
            assert benchmark_result.total_updates <= benchmark_result.total_timesteps
        # Evaluation cadence: one point per crossed interval boundary.
        for benchmark in oracle.benchmarks:
            assert list(result.per_benchmark[benchmark].curve.timesteps) == list(
                oracle.per_benchmark[benchmark].curve.timesteps
            )

    def test_weighted_explicit_allocation_preserves_invariants(self):
        result = self._run(weights={"hopper": 2})
        assert result.weights == [1, 2]
        # Rounds are 2 + 4 = 6 steps; 240 divides evenly.
        assert result.total_timesteps == self.TOTAL
        assert result.total_updates == self.TOTAL - 60
        cheetah = result.per_benchmark["HalfCheetah"]
        hopper = result.per_benchmark["Hopper"]
        # Hopper collected twice the lock-steps per round.
        assert hopper.total_timesteps == 2 * cheetah.total_timesteps
        assert cheetah.total_timesteps + hopper.total_timesteps == self.TOTAL
        # Eval cadence unchanged.
        oracle = self._run()
        assert list(hopper.curve.timesteps) == list(
            oracle.per_benchmark["Hopper"].curve.timesteps
        )

    def test_weighted_runs_are_deterministic(self):
        first = self._run(weights={"hopper": 2})
        second = self._run(weights={"hopper": 2})
        for benchmark in first.benchmarks:
            np.testing.assert_array_equal(
                first.per_benchmark[benchmark].curve.returns,
                second.per_benchmark[benchmark].curve.returns,
            )
            assert (
                first.per_benchmark[benchmark].episode_returns
                == second.per_benchmark[benchmark].episode_returns
            )

    @pytest.mark.pipelined
    def test_pipelined_policy_matches_legacy_depth_knob(self):
        """schedule='pipelined' and the bare pipeline_depth knob agree."""
        legacy = self._run(schedule=None, pipeline_depth=2)
        explicit = self._run(schedule="pipelined", pipeline_depth=2)
        for benchmark in legacy.benchmarks:
            a = legacy.per_benchmark[benchmark]
            b = explicit.per_benchmark[benchmark]
            np.testing.assert_array_equal(a.curve.returns, b.curve.returns)
            assert a.episode_returns == b.episode_returns


class TestWeightsAreFixedForTheRun:
    """Lock-step weights are resolved once, at scheduler construction: a
    precision switch mid-run moves neither them nor the round size."""

    def test_weights_survive_a_mid_run_precision_switch(self):
        numerics = make_numerics("fixar-dynamic")
        agents = {
            "HalfCheetah": _agent("HalfCheetah", numerics, seed=1),
            "Hopper": _agent("Hopper", numerics, seed=2),
        }
        config = _config(
            fleet="HalfCheetah:1,Hopper:1", schedule="weighted", num_envs=4
        )
        platform = FixarPlatform(
            WorkloadSpec.from_benchmark("HalfCheetah", hidden_sizes=(24, 16))
        )
        groups = _build_groups(_fleet_plans(agents, config), config)
        policy = resolve_policy(config, platform)
        resolved = policy.lock_steps(groups, platform)
        assert resolved == [14, 15]  # the oracle really weights this fleet

        outcome, _results = _run_groups(
            groups,
            config,
            policy,
            qat_controller=QATController(numerics, QATSchedule(16, 150)),
            platform=platform,
            on_evaluation=None,
            profiler=None,
        )
        # Rounds are (14 + 15) * 4 = 116 steps; the switch lands in round 2 of 3.
        assert outcome.qat_event.timestep == 150
        assert outcome.iterations == 3
        assert outcome.weights == resolved
        assert outcome.steps_per_round == 116
        assert outcome.total_timesteps == outcome.iterations * outcome.steps_per_round
        assert outcome.steps_by_key == {"halfcheetah": 3 * 56, "hopper": 3 * 60}


class TestThroughputWeightedPolicy:
    def _groups(self, spec="halfcheetah:2,hopper:2", width=8):
        class Group:
            def __init__(self, key, workers, num_envs):
                self.key = key
                self.num_workers = workers
                self.num_envs = num_envs

        groups = []
        for entry in spec.split(","):
            key, count = entry.split(":")
            groups.append(Group(key, int(count), width))
        return groups

    def test_uniform_without_oracle(self):
        policy = ThroughputWeightedPolicy()
        assert policy.lock_steps(self._groups()) == [1, 1]

    def test_uniform_for_single_group(self):
        platform = FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))
        policy = ThroughputWeightedPolicy(platform=platform)
        assert policy.lock_steps(self._groups("hopper:4")) == [1]

    def test_oracle_weights_never_price_below_round_robin(self):
        platform = FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))
        policy = ThroughputWeightedPolicy(platform=platform)
        groups = self._groups()
        weights = policy.lock_steps(groups)
        fleet = [(g.key, g.num_workers, g.num_envs) for g in groups]
        uniform = platform.fleet_collection_steps_per_second(fleet, 8)
        weighted = platform.fleet_collection_steps_per_second(
            fleet, 8, weights=weights
        )
        assert weighted >= uniform
        # The contract fleet's chains differ, so the allocation is not
        # degenerate: the cheaper benchmark (Hopper) gets the extra steps.
        assert weights[1] > weights[0]

    def test_unpriceable_benchmark_degrades_to_uniform(self):
        platform = FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))
        policy = ThroughputWeightedPolicy(platform=platform)
        groups = self._groups("halfcheetah:1,hopper:1")
        groups[0].key = "not-a-benchmark"
        assert policy.lock_steps(groups) == [1, 1]

    def test_explicit_weights_validated(self):
        policy = ThroughputWeightedPolicy(weights={"hopper": 0})
        with pytest.raises(ValueError, match="explicit weights"):
            policy.lock_steps(self._groups("hopper:1,swimmer:1"))

    def test_explicit_weights_reject_unknown_benchmarks(self):
        """A typo'd key must raise, not silently weight that group as 1."""
        policy = ThroughputWeightedPolicy(weights={"hoper": 3, "halfcheetah": 2})
        with pytest.raises(ValueError, match=r"match no scheduled group.*hoper"):
            policy.lock_steps(self._groups("halfcheetah:1,hopper:1"))

    def test_explicit_weights_known_keys_still_apply(self):
        policy = ThroughputWeightedPolicy(weights={"hopper": 3})
        assert policy.lock_steps(self._groups("halfcheetah:1,hopper:1")) == [1, 3]

    def test_max_weight_validated(self):
        with pytest.raises(ValueError, match="max_weight"):
            ThroughputWeightedPolicy(max_weight=0)

    def test_extreme_chain_ratios_are_clamped_not_discarded(self):
        """A chain ratio beyond max_weight clamps to the cap (the oracle
        check still guards the clamped allocation), instead of silently
        forfeiting the whole weighted schedule."""
        policy = ThroughputWeightedPolicy(max_weight=16)
        assert policy._ratio_weights([1.0, 25.0]) == [16, 1]
        # Within the cap, proportions are preserved.
        assert policy._ratio_weights([1.0, 2.0]) == [2, 1]


def _build_fleet(spec, agents, *, num_envs, buffer_capacity, seed=0):
    """The fleet's groups, built by the one run builder ``train_fleet`` uses."""
    config = TrainingConfig(
        fleet=spec, num_envs=num_envs, buffer_capacity=buffer_capacity, seed=seed
    )
    return _build_groups(_fleet_plans(agents, config), config)


class TestMixedWidthFleets:
    """The three-field grammar: per-benchmark lock-step widths."""

    def test_worker_env_offsets_are_cumulative(self):
        """The mixed-width seeding pin: seed + env_offset(w) + i."""
        numerics = make_numerics("float32")
        seed = 10
        groups = _build_fleet(
            "HalfCheetah:2:4,Hopper:2:2",
            {
                "HalfCheetah": _agent("HalfCheetah", numerics),
                "Hopper": _agent("Hopper", numerics),
            },
            num_envs=3,  # default width: overridden by both entries
            buffer_capacity=1_000,
            seed=seed,
        )
        assert [group.num_envs for group in groups] == [4, 2]
        assert [
            (group.key, group.num_workers, group.num_envs) for group in groups
        ] == [("halfcheetah", 2, 4), ("hopper", 2, 2)]
        assert sum(group.steps_per_lock_round for group in groups) == 2 * 4 + 2 * 2

        # Worker offsets: HalfCheetah workers own envs [0..4) and [4..8);
        # Hopper workers own [8..10) and [10..12).
        expected_offsets = [0, 4, 8, 10]
        env_classes = [HalfCheetahEnv, HalfCheetahEnv, HopperEnv, HopperEnv]
        workers = [
            worker for group in groups for worker in group.collector.workers
        ]
        for worker, offset, env_class in zip(workers, expected_offsets, env_classes):
            observations = worker.engine.reset()
            for i in range(worker.num_envs):
                expected = env_class(seed=seed + offset + i).reset()
                np.testing.assert_array_equal(observations[i], expected)

    def test_uniform_width_spec_keeps_historical_seeding(self):
        """A homogeneous-width spec must seed exactly as worker_id * width."""
        numerics = make_numerics("float32")
        groups = _build_fleet(
            "Hopper:2:2",
            {"Hopper": _agent("Hopper", numerics)},
            num_envs=5,  # ignored: the spec pins the width
            buffer_capacity=1_000,
            seed=7,
        )
        worker = groups[0].collector.workers[1]
        observations = worker.engine.reset()
        for i in range(2):
            expected = HopperEnv(seed=7 + 1 * 2 + i).reset()
            np.testing.assert_array_equal(observations[i], expected)

    def test_mixed_width_fleet_trains_end_to_end_deterministically(self):
        def run():
            config = _config(
                total_timesteps=180,
                fleet="HalfCheetah:1:4,Hopper:1:2",
                num_envs=2,
            )
            return train_fleet(_fleet_agents(), config)

        first = run()
        second = run()
        assert first.fleet == [("halfcheetah", 1, 4), ("hopper", 1, 2)]
        # Rounds are 4 + 2 = 6 steps; 180 steps divide evenly.
        assert first.total_timesteps == 180
        cheetah = first.per_benchmark["HalfCheetah"]
        hopper = first.per_benchmark["Hopper"]
        assert cheetah.num_envs == 4 and hopper.num_envs == 2
        assert cheetah.total_timesteps == 2 * hopper.total_timesteps
        assert cheetah.total_timesteps + hopper.total_timesteps == 180
        # Per-benchmark curves exist and the whole run reproduces bit for bit.
        for benchmark in first.benchmarks:
            a = first.per_benchmark[benchmark]
            b = second.per_benchmark[benchmark]
            assert len(a.curve.points) >= 1
            np.testing.assert_array_equal(a.curve.returns, b.curve.returns)
            assert a.episode_returns == b.episode_returns

    def test_mixed_width_platform_pricing(self):
        platform = FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))
        mixed = [("HalfCheetah", 2, 16), ("Hopper", 2, 8)]
        round_seconds = platform.fleet_collection_round_seconds(mixed, 8)
        report = platform.infer_fleet(mixed, 8)
        assert report.num_states == 2 * 16 + 2 * 8
        # The wide group's chain is priced at its own width.
        wide_chain = platform.for_benchmark("HalfCheetah").collection_round_seconds(16, 1)
        assert round_seconds >= wide_chain
        # Steps/sec accounts for the true per-group step counts.
        steps = platform.fleet_collection_steps_per_second(mixed, 8)
        assert steps == pytest.approx((2 * 16 + 2 * 8) / round_seconds)

    def test_width_defaults_to_num_envs(self):
        config = _config(fleet="Hopper:2", num_envs=3)
        result = train_fleet(
            {"Hopper": _agent("Hopper")}, replace(config, total_timesteps=60)
        )
        assert result.fleet == [("hopper", 2, 3)]


class TestDeviceAssignmentPolicies:
    """The device-assignment seam: fleet groups onto a pool's accelerators."""

    def _groups(self, spec="halfcheetah:2,hopper:2,swimmer:1", width=8):
        class Group:
            def __init__(self, key, workers, num_envs):
                self.key = key
                self.num_workers = workers
                self.num_envs = num_envs

        groups = []
        for entry in spec.split(","):
            key, count = entry.split(":")
            groups.append(Group(key, int(count), width))
        return groups

    def _pool(self, devices=2):
        from repro.platform import AcceleratorPool

        platform = FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))
        return AcceleratorPool(platform, devices)

    def test_round_robin_deals_in_spec_order(self):
        policy = RoundRobinAssignment()
        assert policy.assign(self._groups(), self._pool(2)) == [0, 1, 0]
        assert policy.assign(self._groups(), self._pool(3)) == [0, 1, 2]

    def test_single_device_pool_serializes_everything(self):
        policy = RoundRobinAssignment()
        assert policy.assign(self._groups(), self._pool(1)) == [0, 0, 0]

    def test_affinity_pins_and_round_robins_the_rest(self):
        policy = AffinityAssignment({"Hopper": 1})
        assert policy.assign(self._groups(), self._pool(2)) == [0, 1, 1]

    def test_affinity_rejects_unknown_benchmarks(self):
        """Same unknown-key contract as the weighted policy's weights."""
        policy = AffinityAssignment({"hoper": 1})
        with pytest.raises(ValueError, match=r"match no fleet entry.*hoper"):
            policy.assign(self._groups(), self._pool(2))

    def test_affinity_rejects_non_collection_devices(self):
        policy = AffinityAssignment({"hopper": 2})  # a 2-device pool has 0 and 1
        with pytest.raises(ValueError, match=r"collection devices are \(0, 1\)"):
            policy.assign(self._groups(), self._pool(2))

    def test_affinity_rejects_float_devices(self):
        with pytest.raises(ValueError, match="must be integers"):
            AffinityAssignment({"hopper": 1.5})

    def test_affinity_needs_a_mapping(self):
        with pytest.raises(ValueError, match="non-empty"):
            AffinityAssignment({})

    def test_balanced_spreads_load_deterministically(self):
        policy = LoadBalancedAssignment()
        pool = self._pool(2)
        devices = policy.assign(self._groups("halfcheetah:2,hopper:2"), pool)
        # Two groups, two devices: each gets its own accelerator, and the
        # result reproduces run to run.
        assert sorted(devices) == [0, 1]
        assert devices == policy.assign(
            self._groups("halfcheetah:2,hopper:2"), pool
        )

    def test_balanced_single_device_degenerates(self):
        policy = LoadBalancedAssignment()
        assert policy.assign(self._groups(), self._pool(1)) == [0, 0, 0]

    def test_balanced_unpriceable_falls_back_to_round_robin(self):
        policy = LoadBalancedAssignment()
        groups = self._groups()
        groups[0].key = "not-a-benchmark"
        assert policy.assign(groups, self._pool(2)) == [0, 1, 0]

    def test_balanced_never_prices_worse_than_round_robin(self):
        """The modelled pool round under the balanced assignment is at
        least as fast as spec-order dealing for the contract fleet."""
        pool = self._pool(2)
        groups = self._groups("halfcheetah:2,hopper:2")
        fleet = [(g.key, g.num_workers, g.num_envs) for g in groups]
        balanced = LoadBalancedAssignment().assign(groups, pool)
        dealt = RoundRobinAssignment().assign(groups, pool)
        by_key = lambda devices: dict(zip((g.key for g in groups), devices))
        balanced_round = pool.fleet_collection_round_seconds(
            fleet, 8, assignment=by_key(balanced)
        )
        dealt_round = pool.fleet_collection_round_seconds(
            fleet, 8, assignment=by_key(dealt)
        )
        assert balanced_round <= dealt_round

    def test_resolve_assignment_defaults_to_round_robin(self):
        assert isinstance(
            resolve_assignment(_config()), RoundRobinAssignment
        )
        assert isinstance(
            resolve_assignment(_config(assignment="round-robin")),
            RoundRobinAssignment,
        )

    def test_resolve_assignment_named_policies(self):
        assert isinstance(
            resolve_assignment(_config(assignment="balanced")),
            LoadBalancedAssignment,
        )

    def test_resolve_assignment_mapping_builds_affinity(self):
        policy = resolve_assignment(_config(assignment={"Hopper": 1}))
        assert isinstance(policy, AffinityAssignment)
        assert policy.mapping == {"hopper": 1}

    def test_resolve_assignment_rejects_unknown_names(self):
        # TrainingConfig validates the knob itself, so sneak the bad name
        # through a duck config to pin the resolver's own error.
        class Config:
            assignment = "fastest"

        with pytest.raises(ValueError, match="unknown assignment"):
            resolve_assignment(Config())

    def test_config_validates_assignment_names(self):
        with pytest.raises(ValueError, match="assignment"):
            _config(assignment="fastest")

    def test_describe(self):
        assert RoundRobinAssignment().describe() == "round-robin"
        assert "hopper" in AffinityAssignment({"hopper": 1}).describe()
        assert LoadBalancedAssignment().describe() == "balanced"
