"""Tests for the multi-worker collection subsystem.

The load-bearing guarantees:

* the worker fleet's environments follow the ``seed + worker_id * num_envs
  + i`` seeding scheme, so the fleet observes exactly the trajectories the
  equivalent independent scalar environments would have produced;
* the synchronous collector with one shared-agent worker is *bit-exact*
  with driving the PR-1 :class:`RolloutEngine` directly, which extends the
  scalar-equivalence oracle to ``train(num_workers=1)``;
* replicas share the learner's numerics object, so a precision switch
  reaches every worker of ``train`` / ``train_fleet`` by sharing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.envs import HopperEnv, VectorEnv
from repro.nn import make_numerics
from repro.platform import FixarPlatform, WorkloadSpec
from repro.rl import (
    ActorPolicy,
    AsyncCollector,
    CollectorWorker,
    DDPGAgent,
    DDPGConfig,
    GaussianNoise,
    ReplayBuffer,
    RolloutEngine,
    TrainingConfig,
    train,
    worker_env_seed,
)
from dataclasses import replace


def _agent(env, seed=42):
    return DDPGAgent(
        env.state_dim,
        env.action_dim,
        DDPGConfig(hidden_sizes=(24, 16)),
        numerics=make_numerics("float32"),
        rng=np.random.default_rng(seed),
    )


def _worker(worker_id, agent, num_envs=2, seed=10, **kwargs):
    return CollectorWorker.from_agent(
        worker_id,
        agent,
        HopperEnv(seed=0, max_episode_steps=30),
        num_envs,
        seed=seed,
        sigma=0.1,
        **kwargs,
    )


def _config(**overrides):
    base = TrainingConfig(
        total_timesteps=300,
        warmup_timesteps=60,
        batch_size=16,
        buffer_capacity=5_000,
        evaluation_interval=100,
        evaluation_episodes=2,
        exploration_noise=0.2,
        seed=3,
    )
    return replace(base, **overrides)


class TestSeedingScheme:
    def test_worker_env_seed_rule(self):
        assert worker_env_seed(7, 0, 4) == 7
        assert worker_env_seed(7, 2, 4) == 15
        assert worker_env_seed(None, 2, 4) is None

    @pytest.mark.parametrize("worker_id", [0, 1, 3])
    def test_worker_envs_match_independent_scalar_envs(self, worker_id):
        """Worker w's env i resets exactly like HopperEnv(seed + w*N + i)."""
        agent = _agent(HopperEnv())
        num_envs, seed = 2, 10
        worker = _worker(worker_id, agent, num_envs=num_envs, seed=seed)
        observations = worker.engine.reset()
        for i in range(num_envs):
            expected = HopperEnv(
                seed=seed + worker_id * num_envs + i, max_episode_steps=30
            ).reset()
            np.testing.assert_array_equal(observations[i], expected)

    def test_workers_have_independent_noise_streams(self):
        agent = _agent(HopperEnv())
        first, second = _worker(0, agent), _worker(1, agent)
        assert not np.array_equal(
            first.engine.noise.sample_batch(2), second.engine.noise.sample_batch(2)
        )


class TestActorPolicy:
    def test_replica_acts_like_source_until_source_learns(self):
        env = HopperEnv(seed=0, max_episode_steps=30)
        agent = _agent(env)
        policy = ActorPolicy.from_agent(agent)
        states = np.random.default_rng(0).normal(size=(5, env.state_dim))
        np.testing.assert_array_equal(policy.act_batch(states), agent.act_batch(states))

        # Mutate the source: the detached replica must not follow ...
        for value in agent.actor.parameters().values():
            value += 0.25
        assert not np.array_equal(policy.act_batch(states), agent.act_batch(states))
        # ... until the refreshed weights are loaded.
        policy.load_parameters(agent.actor.parameters())
        np.testing.assert_array_equal(policy.act_batch(states), agent.act_batch(states))


class TestCollectorWorker:
    def test_rejects_engine_with_buffer(self):
        env = VectorEnv.make("Hopper", 2, seed=0, max_episode_steps=30)
        agent = _agent(env.envs[0])
        engine = RolloutEngine(
            env, agent, buffer=ReplayBuffer(100, env.state_dim, env.action_dim)
        )
        with pytest.raises(ValueError, match="shared"):
            CollectorWorker(0, engine)

    def test_stats_snapshot_counts(self):
        agent = _agent(HopperEnv())
        platform = FixarPlatform(WorkloadSpec.from_environment(HopperEnv()))
        worker = _worker(0, agent, num_envs=2, platform=platform)
        worker.engine.reset()
        for _ in range(4):
            worker.step()
        stats = worker.stats_snapshot()
        assert stats.total_steps == 8
        assert stats.iterations == 4
        assert stats.modelled_platform_seconds > 0.0


class TestSyncCollector:
    def test_single_shared_worker_matches_engine_bitwise(self):
        """The collector drain == the engine's internal add_batch, exactly."""
        env_a = VectorEnv.make("Hopper", 4, seed=0, max_episode_steps=30)
        env_b = VectorEnv.make("Hopper", 4, seed=0, max_episode_steps=30)
        agent = _agent(env_a.envs[0])

        engine_buffer = ReplayBuffer(5_000, env_a.state_dim, env_a.action_dim, seed=0)
        engine = RolloutEngine(
            env_a, agent, buffer=engine_buffer,
            noise=GaussianNoise(env_a.action_dim, 0.1, seed=0), rng=1,
        )
        engine.collect(200)

        collector_buffer = ReplayBuffer(5_000, env_b.state_dim, env_b.action_dim, seed=0)
        worker_engine = RolloutEngine(
            env_b, agent, buffer=None,
            noise=GaussianNoise(env_b.action_dim, 0.1, seed=0), rng=1,
        )
        collector = AsyncCollector(
            [CollectorWorker(0, worker_engine, shared_agent=True)], collector_buffer
        )
        stats = collector.collect(200)

        assert stats.total_steps == engine.total_env_steps
        assert len(engine_buffer) == len(collector_buffer)
        for attr in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
            np.testing.assert_array_equal(
                getattr(engine_buffer, attr), getattr(collector_buffer, attr)
            )
        assert collector.episode_returns == engine.episode_returns

    def test_round_robin_is_deterministic(self):
        def run():
            agent = _agent(HopperEnv(), seed=7)
            buffer = ReplayBuffer(5_000, 11, 6, seed=0)
            workers = [_worker(w, agent, num_envs=2, seed=5) for w in range(3)]
            collector = AsyncCollector(workers, buffer, source_agent=agent)
            collector.collect(120)
            return buffer

        first, second = run(), run()
        for attr in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
            np.testing.assert_array_equal(getattr(first, attr), getattr(second, attr))

    def test_weight_broadcast_refreshes_replicas_at_interval(self):
        agent = _agent(HopperEnv())
        buffer = ReplayBuffer(5_000, 11, 6, seed=0)
        workers = [_worker(w, agent, num_envs=2) for w in range(2)]
        collector = AsyncCollector(
            workers, buffer, source_agent=agent, sync_interval=8
        )
        for worker in workers:
            worker.engine.reset()

        collector.step_sync()  # 4 steps; below the interval
        for value in agent.actor.parameters().values():
            value += 0.5
        collector.step_sync()  # 8 steps accumulated; still pre-broadcast round
        stale = workers[0].engine.agent.actor.parameters()
        assert not np.array_equal(
            stale["0.actor_fc0.weight"], agent.actor.parameters()["0.actor_fc0.weight"]
        )
        collector.step_sync()  # counter >= interval: broadcast fires first
        for worker in workers:
            np.testing.assert_array_equal(
                worker.engine.agent.actor.parameters()["0.actor_fc0.weight"],
                agent.actor.parameters()["0.actor_fc0.weight"],
            )

    def test_rejects_mismatched_fleets(self):
        agent = _agent(HopperEnv())
        buffer = ReplayBuffer(100, 11, 6)
        with pytest.raises(ValueError, match="at least one worker"):
            AsyncCollector([], buffer)
        workers = [_worker(0, agent, num_envs=2), _worker(1, agent, num_envs=3)]
        with pytest.raises(ValueError, match="lock-step width"):
            AsyncCollector(workers, buffer)
        duplicated = [_worker(0, agent, num_envs=2), _worker(0, agent, num_envs=2)]
        with pytest.raises(ValueError, match="unique"):
            AsyncCollector(duplicated, buffer)
        with pytest.raises(ValueError, match="sync_interval"):
            AsyncCollector([_worker(0, agent, num_envs=2)], buffer, sync_interval=0)

    def test_rejects_nonpositive_budget(self):
        agent = _agent(HopperEnv())
        collector = AsyncCollector(
            [_worker(0, agent, num_envs=2)], ReplayBuffer(100, 11, 6)
        )
        with pytest.raises(ValueError, match="num_steps"):
            collector.collect(0)


class TestReplicasShareLearnerNumerics:
    """A precision switch reaches collection replicas by sharing, not broadcast.

    Every replica is built on the learner's own numerics object, so the
    mid-run QAT switch puts the whole fleet on one quantization grid.
    """

    @pytest.fixture
    def built_groups(self, monkeypatch):
        from repro.rl import training

        groups = []
        build = training._build_groups

        def recording_build(*args, **kwargs):
            built = build(*args, **kwargs)
            groups.extend(built)
            return built

        monkeypatch.setattr(training, "_build_groups", recording_build)
        return groups

    def _dynamic_agent(self, env):
        return DDPGAgent(
            env.state_dim,
            env.action_dim,
            DDPGConfig(hidden_sizes=(24, 16)),
            numerics=make_numerics("fixar-dynamic", num_bits=16),
            rng=np.random.default_rng(42),
        )

    def _assert_replicas_switched_with(self, groups, agent):
        workers = [worker for group in groups for worker in group.collector.workers]
        assert len(workers) == 2
        assert agent.numerics.half_mode
        for worker in workers:
            replica_numerics = worker.engine.agent.actor.numerics
            assert replica_numerics is agent.numerics
            assert replica_numerics.half_mode
            assert replica_numerics.quantizer is agent.numerics.quantizer

    def test_train_replicas_pick_up_the_mid_run_switch(self, built_groups):
        from repro.rl import QATController, QATSchedule

        env = HopperEnv(seed=5, max_episode_steps=40)
        agent = self._dynamic_agent(env)
        controller = QATController(agent.numerics, QATSchedule(16, 100))
        result = train(
            env, agent, _config(total_timesteps=200, num_envs=2, num_workers=2),
            eval_env=HopperEnv(seed=9, max_episode_steps=40),
            qat_controller=controller,
        )
        assert result.qat_event is not None and controller.switched
        self._assert_replicas_switched_with(built_groups, agent)

    def test_fleet_replicas_pick_up_the_mid_run_switch(self, built_groups):
        from repro.rl import QATController, QATSchedule, train_fleet

        agent = self._dynamic_agent(HopperEnv())
        controller = QATController(agent.numerics, QATSchedule(16, 100))
        result = train_fleet(
            {"Hopper": agent},
            _config(total_timesteps=200, num_envs=2, fleet="Hopper:2"),
            qat_controller=controller,
        )
        assert result.qat_event is not None and controller.switched
        self._assert_replicas_switched_with(built_groups, agent)


class TestTrainWithWorkers:
    @pytest.mark.smoke
    def test_num_workers_1_is_bit_exact_with_engine_path(self):
        """The collector wrap must not perturb the PR-1 oracle chain."""
        from repro.rl import train_scalar_reference

        config = _config(total_timesteps=200)
        reference_agent = _agent(HopperEnv(seed=5))
        collector_agent = _agent(HopperEnv(seed=5))
        reference = train_scalar_reference(
            HopperEnv(seed=5, max_episode_steps=40), reference_agent, config,
            eval_env=HopperEnv(seed=9, max_episode_steps=40),
        )
        vectorized = train(
            HopperEnv(seed=5, max_episode_steps=40), collector_agent,
            replace(config, num_workers=1),
            eval_env=HopperEnv(seed=9, max_episode_steps=40),
        )
        np.testing.assert_array_equal(reference.curve.returns, vectorized.curve.returns)
        assert reference.episode_returns == vectorized.episode_returns
        for attr in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
            np.testing.assert_array_equal(
                getattr(reference.replay_buffer, attr),
                getattr(vectorized.replay_buffer, attr),
            )
        for name, value in reference_agent.actor.parameters().items():
            np.testing.assert_array_equal(
                value, collector_agent.actor.parameters()[name]
            )

    @pytest.mark.parametrize("num_workers", [2, 3])
    def test_multi_worker_training_accounting(self, num_workers):
        config = _config(
            total_timesteps=360,
            warmup_timesteps=60,
            num_envs=2,
            num_workers=num_workers,
            evaluation_interval=180,
        )
        env = HopperEnv(seed=5, max_episode_steps=40)
        result = train(
            env, _agent(env), config, eval_env=HopperEnv(seed=9, max_episode_steps=40)
        )
        assert result.num_workers == num_workers
        steps_per_round = num_workers * 2
        expected_steps = -(-360 // steps_per_round) * steps_per_round
        assert result.total_timesteps == expected_steps
        # One update per collected post-warmup step keeps the scalar loop's
        # update-to-data ratio at any fleet topology.
        assert result.total_updates == expected_steps - 60
        assert len(result.replay_buffer) == expected_steps
        assert result.episode_returns  # 40-step horizon forces episode ends

    def test_multi_worker_training_is_reproducible(self):
        def run():
            config = _config(
                total_timesteps=200, warmup_timesteps=40, num_envs=2, num_workers=2
            )
            env = HopperEnv(seed=5, max_episode_steps=40)
            agent = _agent(env)
            result = train(
                env, agent, config, eval_env=HopperEnv(seed=9, max_episode_steps=40)
            )
            return result, agent

        first_result, first_agent = run()
        second_result, second_agent = run()
        np.testing.assert_array_equal(
            first_result.curve.returns, second_result.curve.returns
        )
        assert first_result.episode_returns == second_result.episode_returns
        for name, value in first_agent.actor.parameters().items():
            np.testing.assert_array_equal(value, second_agent.actor.parameters()[name])

    def test_rejects_vector_env_with_multiple_workers(self):
        vec = VectorEnv.make("Hopper", 2, seed=0, max_episode_steps=30)
        agent = _agent(vec.envs[0])
        with pytest.raises(ValueError, match="scalar environment"):
            train(vec, agent, _config(num_workers=2, num_envs=2))

    def test_rejects_shared_noise_with_multiple_workers(self):
        env = HopperEnv(seed=0, max_episode_steps=30)
        agent = _agent(env)
        with pytest.raises(ValueError, match="noise"):
            train(
                env,
                agent,
                _config(num_workers=2, num_envs=2),
                noise=GaussianNoise(env.action_dim, 0.1, seed=0),
            )

    def test_config_validates_worker_fields(self):
        with pytest.raises(ValueError, match="num_workers"):
            _config(num_workers=0)
        with pytest.raises(ValueError, match="sync_interval"):
            _config(sync_interval=0)

    def test_non_default_constructible_env_does_not_trigger_restarts(self):
        """With workers, evaluation never steps the template env, so a
        template that cannot be default-constructed must not put the loop in
        shared-evaluation mode (which would truncate every worker's in-flight
        episodes after each evaluation)."""

        class PickyHopper(HopperEnv):
            def __init__(self, seed, max_episode_steps=40):
                super().__init__(seed=seed, max_episode_steps=max_episode_steps)

        env = PickyHopper(seed=5)
        config = _config(
            total_timesteps=200, warmup_timesteps=40, num_envs=2, num_workers=2,
            evaluation_interval=100,
        )
        result = train(env, _agent(env), config)  # eval_env resolution falls back
        assert result.total_timesteps == 200
        # Interrupted-episode restarts would flood episode_returns with one
        # truncated return per worker env per evaluation; genuine Hopper
        # episodes on a 40-step horizon are far fewer.
        assert len(result.episode_returns) <= 200 // 40 * 4


class TestPlatformAccounting:
    def test_collection_report_aggregates_per_worker_inferences(self):
        platform = FixarPlatform(WorkloadSpec("HalfCheetah", 17, 6))
        single = platform.infer_batch(8)
        fleet = platform.infer_collection(8, num_workers=4)
        assert fleet.num_states == 32
        assert fleet.total_seconds == pytest.approx(4 * single.total_seconds)
        assert fleet.pcie_bytes == 4 * single.pcie_bytes
        assert fleet.energy_joules == pytest.approx(4 * single.energy_joules)

    def test_modelled_fleet_throughput_scales_then_saturates(self):
        platform = FixarPlatform(WorkloadSpec("HalfCheetah", 17, 6))
        rates = [platform.collection_steps_per_second(8, w) for w in (1, 2, 4, 8, 16)]
        assert rates == sorted(rates)
        assert rates[2] >= 2.0 * rates[0]
        # No worker can cycle faster than its own host+inference chain, so
        # small fleets scale linearly with the worker count.
        assert rates[1] == pytest.approx(2.0 * rates[0])
        # Once the accelerator serves batches continuously, extra workers
        # stop paying off: throughput pins at num_envs / inference_seconds.
        saturated = 8 / platform.infer_batch(8).total_seconds
        assert rates[3] == pytest.approx(saturated)
        assert rates[4] == pytest.approx(saturated)

    def test_sync_collector_stats_match_platform_pricing(self):
        agent = _agent(HopperEnv())
        platform = FixarPlatform(WorkloadSpec.from_environment(HopperEnv()))
        buffer = ReplayBuffer(5_000, 11, 6, seed=0)
        workers = [_worker(w, agent, num_envs=2, platform=platform) for w in range(2)]
        collector = AsyncCollector(workers, buffer, source_agent=agent)
        stats = collector.collect(40)
        lock_steps_per_worker = stats.per_worker[0].iterations
        expected = (
            2 * lock_steps_per_worker * platform.infer_batch(2).total_seconds
        )
        assert stats.modelled_platform_seconds == pytest.approx(expected)
