"""Regression tests for the vectorized rollout engine and rewired train loop.

The load-bearing guarantee: ``train`` (which now drives every rollout
through :class:`~repro.rl.RolloutEngine`) with ``num_envs == 1`` reproduces
the pre-refactor scalar loop — preserved as
:func:`~repro.rl.train_scalar_reference` — *bit for bit* under a fixed
seed: same learning curve, same episode returns, same replay-buffer
contents, same final network weights.  That makes the refactor provably
behavior-preserving rather than merely statistically similar.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.envs import HalfCheetahEnv, HopperEnv, VectorEnv, available_benchmarks, make
from repro.nn import make_numerics
from repro.platform import FixarPlatform, WorkloadSpec
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    GaussianNoise,
    QATController,
    QATSchedule,
    ReplayBuffer,
    RolloutEngine,
    TrainingConfig,
    train,
    train_scalar_reference,
)
from dataclasses import replace


def _agent(env, regime="float32", seed=42):
    return DDPGAgent(
        env.state_dim,
        env.action_dim,
        DDPGConfig(hidden_sizes=(24, 16)),
        numerics=make_numerics(regime),
        rng=np.random.default_rng(seed),
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


def _assert_buffers_equal(first: ReplayBuffer, second: ReplayBuffer):
    assert len(first) == len(second)
    for attr in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
        np.testing.assert_array_equal(getattr(first, attr), getattr(second, attr))


def _assert_agents_equal(first, second):
    for net in ("actor", "critic", "target_actor", "target_critic"):
        left, right = getattr(first, net).parameters(), getattr(second, net).parameters()
        for name, value in left.items():
            np.testing.assert_array_equal(value, right[name], err_msg=f"{net}.{name}")


class TestScalarEquivalence:
    """train(num_envs=1) == train_scalar_reference, bit for bit."""

    def _run_pair(self, env_seed=5, **config_overrides):
        config = _config(**config_overrides)
        env = HopperEnv(seed=env_seed, max_episode_steps=40)
        reference_agent = _agent(env)
        reference = train_scalar_reference(
            HopperEnv(seed=env_seed, max_episode_steps=40),
            reference_agent,
            config,
            eval_env=HopperEnv(seed=9, max_episode_steps=40),
        )
        engine_agent = _agent(env)
        vectorized = train(
            HopperEnv(seed=env_seed, max_episode_steps=40),
            engine_agent,
            config,
            eval_env=HopperEnv(seed=9, max_episode_steps=40),
        )
        return reference, vectorized, reference_agent, engine_agent

    def test_returns_and_curve_identical(self):
        reference, vectorized, _, _ = self._run_pair()
        np.testing.assert_array_equal(reference.curve.timesteps, vectorized.curve.timesteps)
        np.testing.assert_array_equal(reference.curve.returns, vectorized.curve.returns)
        assert reference.episode_returns == vectorized.episode_returns
        assert reference.total_updates == vectorized.total_updates
        assert reference.total_timesteps == vectorized.total_timesteps

    def test_replay_buffer_contents_identical(self):
        reference, vectorized, _, _ = self._run_pair()
        _assert_buffers_equal(reference.replay_buffer, vectorized.replay_buffer)

    def test_final_weights_identical(self):
        _, _, reference_agent, engine_agent = self._run_pair()
        _assert_agents_equal(reference_agent, engine_agent)

    def test_equivalence_with_default_eval_env(self):
        """The fresh-instance evaluation-env path stays bit-identical too."""
        config = _config(total_timesteps=200)
        reference_agent = _agent(HopperEnv(seed=5))
        engine_agent = _agent(HopperEnv(seed=5))
        reference = train_scalar_reference(
            HopperEnv(seed=5, max_episode_steps=40), reference_agent, config
        )
        vectorized = train(HopperEnv(seed=5, max_episode_steps=40), engine_agent, config)
        np.testing.assert_array_equal(reference.curve.returns, vectorized.curve.returns)
        assert reference.episode_returns == vectorized.episode_returns
        _assert_buffers_equal(reference.replay_buffer, vectorized.replay_buffer)

    def test_equivalence_with_qat_controller(self):
        config = _config(total_timesteps=240)
        env = HalfCheetahEnv(seed=2, max_episode_steps=40)
        reference_agent = _agent(env, regime="fixar-dynamic")
        engine_agent = _agent(env, regime="fixar-dynamic")
        reference = train_scalar_reference(
            HalfCheetahEnv(seed=2, max_episode_steps=40),
            reference_agent,
            config,
            eval_env=HalfCheetahEnv(seed=8, max_episode_steps=40),
            qat_controller=QATController(
                reference_agent.numerics, QATSchedule(16, quantization_delay=120)
            ),
        )
        vectorized = train(
            HalfCheetahEnv(seed=2, max_episode_steps=40),
            engine_agent,
            config,
            eval_env=HalfCheetahEnv(seed=8, max_episode_steps=40),
            qat_controller=QATController(
                engine_agent.numerics, QATSchedule(16, quantization_delay=120)
            ),
        )
        assert reference.qat_event is not None and vectorized.qat_event is not None
        assert reference.qat_event.timestep == vectorized.qat_event.timestep
        np.testing.assert_array_equal(reference.curve.returns, vectorized.curve.returns)
        _assert_buffers_equal(reference.replay_buffer, vectorized.replay_buffer)
        _assert_agents_equal(reference_agent, engine_agent)

    @pytest.mark.parametrize("name", [make(key).name for key in available_benchmarks()])
    def test_equivalence_for_every_registered_benchmark(self, name):
        """One cell per registered benchmark: a benchmark registered later is
        covered without being named here."""
        config = _config(total_timesteps=160, warmup_timesteps=40, evaluation_interval=80)
        reference_agent = _agent(make(name))
        engine_agent = _agent(make(name))
        reference = train_scalar_reference(
            make(name, seed=5, max_episode_steps=40), reference_agent, config,
            eval_env=make(name, seed=9, max_episode_steps=40),
        )
        vectorized = train(
            make(name, seed=5, max_episode_steps=40), engine_agent, config,
            eval_env=make(name, seed=9, max_episode_steps=40),
        )
        np.testing.assert_array_equal(reference.curve.returns, vectorized.curve.returns)
        assert reference.episode_returns == vectorized.episode_returns
        _assert_buffers_equal(reference.replay_buffer, vectorized.replay_buffer)
        _assert_agents_equal(reference_agent, engine_agent)


class TestVectorizedTraining:
    @pytest.mark.parametrize("num_envs", [2, 4, 8])
    def test_multi_env_run_accounting(self, num_envs):
        config = _config(
            total_timesteps=320, warmup_timesteps=64, num_envs=num_envs,
            evaluation_interval=160,
        )
        env = HopperEnv(seed=5, max_episode_steps=40)
        result = train(env, _agent(env), config, eval_env=HopperEnv(seed=9, max_episode_steps=40))
        assert result.num_envs == num_envs
        assert result.total_timesteps == 320
        # One update per collected post-warmup step keeps the scalar loop's
        # update-to-data ratio at any lock-step width.
        assert result.total_updates == 320 - 64
        assert len(result.replay_buffer) == 320
        assert len(result.curve.points) == 2
        assert result.episode_returns  # 40-step horizon forces episode ends

    def test_accepts_prebuilt_vector_env(self):
        vec = VectorEnv.make("Hopper", 4, seed=11, max_episode_steps=40)
        agent = _agent(vec.envs[0])
        config = _config(total_timesteps=160, warmup_timesteps=32, num_envs=4)
        result = train(vec, agent, config, eval_env=HopperEnv(seed=9, max_episode_steps=40))
        assert result.num_envs == 4
        assert result.total_timesteps == 160

    def test_vectorized_learning_improves(self):
        """A short vectorized run actually learns, not just bookkeeps."""
        from repro.rl import evaluate_policy

        env = HalfCheetahEnv(seed=0, max_episode_steps=100)
        eval_env = HalfCheetahEnv(seed=1, max_episode_steps=100)
        agent = DDPGAgent(
            env.state_dim,
            env.action_dim,
            DDPGConfig(hidden_sizes=(24, 16), actor_learning_rate=2e-3, critic_learning_rate=2e-3),
            numerics=make_numerics("float32"),
            rng=np.random.default_rng(42),
        )
        untrained = evaluate_policy(eval_env, agent, episodes=3)
        config = TrainingConfig(
            total_timesteps=1_600,
            warmup_timesteps=200,
            batch_size=32,
            buffer_capacity=10_000,
            evaluation_interval=1_600,
            evaluation_episodes=3,
            exploration_noise=0.3,
            seed=0,
            num_envs=8,
        )
        result = train(env, agent, config, eval_env=eval_env)
        assert result.curve.final_return > untrained + 10.0


class TestRolloutEngine:
    def _engine(self, num_envs, **kwargs):
        vec = VectorEnv.make("Hopper", num_envs, seed=0, max_episode_steps=30)
        agent = _agent(vec.envs[0])
        return RolloutEngine(
            vec,
            agent,
            buffer=ReplayBuffer(10_000, vec.state_dim, vec.action_dim, seed=0),
            noise=GaussianNoise(vec.action_dim, 0.1, seed=0),
            rng=1,
            **kwargs,
        )

    def test_step_fills_buffer_in_bulk(self):
        engine = self._engine(4)
        transitions = engine.step()
        assert len(transitions) == 4
        assert len(engine.buffer) == 4
        assert engine.total_env_steps == 4

    def test_terminal_transitions_store_final_observation(self):
        engine = self._engine(3)
        saw_terminal = False
        for _ in range(40):
            transitions = engine.step()
            done_rows = np.flatnonzero(transitions.dones)
            for i in done_rows:
                saw_terminal = True
                final = transitions.infos[i]["final_observation"]
                np.testing.assert_array_equal(transitions.next_states[i], final)
                # The policy continues from the reset state, not the terminal.
                assert not np.array_equal(transitions.observations[i], final)
        assert saw_terminal
        assert engine.episode_returns

    def test_collect_counts_and_rounds_up(self):
        engine = self._engine(4)
        stats = engine.collect(10)  # 3 lock-steps of 4
        assert stats.total_steps == 12
        assert stats.iterations == 3
        assert stats.steps_per_second > 0

    def test_warmup_uses_uniform_actions(self):
        engine = self._engine(2, warmup_timesteps=10)
        transitions = engine.step()
        assert np.all(np.abs(transitions.actions) <= 1.0)

    def test_platform_hook_accumulates_modelled_time(self):
        vec = VectorEnv.make("Hopper", 4, seed=0, max_episode_steps=30)
        platform = FixarPlatform(WorkloadSpec.from_environment(vec))
        engine = self._engine(4, platform=platform)
        # Warmup steps are random actions: no inference is priced.
        engine.warmup_timesteps = 8
        engine.step()
        engine.step()
        assert engine.modelled_platform_seconds == 0.0
        engine.step()
        expected = platform.infer_batch(4).total_seconds
        assert engine.modelled_platform_seconds == pytest.approx(expected)

    def test_rejects_scalar_environment(self):
        env = HopperEnv(seed=0)
        with pytest.raises(TypeError, match="VectorEnv"):
            RolloutEngine(env, _agent(env))

    def test_noise_reset_once_per_lock_step(self):
        """K episodes ending in one lock-step reset the shared process once.

        The noise process is shared across the lock-stepped environments, so
        a lock-step where several episodes finish together must reset it a
        single time — resetting K times would, e.g., fast-forward an
        annealing wrapper K times per boundary.
        """

        class CountingNoise(GaussianNoise):
            resets = 0

            def reset(self):
                type(self).resets += 1
                super().reset()

        vec = VectorEnv.make("Swimmer", 4, seed=0, max_episode_steps=5)
        agent = _agent(vec.envs[0])
        engine = RolloutEngine(
            vec, agent, noise=CountingNoise(vec.action_dim, 0.1, seed=0), rng=1
        )
        engine.reset()
        # Swimmer never falls, so all 4 environments truncate together at
        # step 5 — one lock-step with 4 simultaneous episode ends.
        for _ in range(5):
            transitions = engine.step()
        assert int(transitions.dones.sum()) == 4
        assert CountingNoise.resets == 1


class TestGuards:
    def test_stateful_noise_rejected_for_multi_env(self):
        from repro.rl import DecayedNoise, GaussianNoise, OrnsteinUhlenbeckNoise

        vec = VectorEnv.make("Hopper", 4, seed=0, max_episode_steps=30)
        agent = _agent(vec.envs[0])
        # Stateful noise without a per-environment batch override (DecayedNoise
        # inherits the sequential-stacking default) stays rejected.
        with pytest.raises(ValueError, match="sample_batch"):
            RolloutEngine(
                vec, agent, noise=DecayedNoise(GaussianNoise(vec.action_dim, 0.1))
            )
        # OU now keeps one OU state per environment in batch mode, so the
        # guard accepts it at num_envs > 1.
        RolloutEngine(vec, agent, noise=OrnsteinUhlenbeckNoise(vec.action_dim))
        # Single-env keeps working with any stateful noise (scalar semantics).
        single = VectorEnv.make("Hopper", 1, seed=0, max_episode_steps=30)
        RolloutEngine(single, _agent(single.envs[0]), noise=OrnsteinUhlenbeckNoise(single.action_dim))

    def test_from_template_refuses_to_strip_wrappers(self):
        class Wrapped:
            """Built around an env, so only the registry can replicate it."""

            def __init__(self, env):
                self.env = env

            def __getattr__(self, attribute):  # .name, .max_episode_steps
                return getattr(self.env, attribute)

        wrapped = Wrapped(HopperEnv(seed=0, max_episode_steps=30))
        with pytest.raises(ValueError, match="VectorEnv"):
            VectorEnv.from_template(wrapped, 4, seed=0)
