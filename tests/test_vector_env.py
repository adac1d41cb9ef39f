"""Property tests for the vectorized environment.

The contract under test: for any benchmark, any number of environments N,
and any action sequence, ``VectorEnv`` produces *bitwise identical*
trajectories to N independently seeded scalar environments (the ``seed + i``
rule), including across auto-reset boundaries — the property that makes the
vectorized rollout engine a drop-in replacement for the scalar loop.

The tests are seeded-random property loops: each case draws fresh action
sequences (deliberately exceeding the action bounds so the clipping path is
exercised) and walks both executions step by step, comparing observations,
rewards, done flags, and terminal observations exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.envs import (
    HalfCheetahEnv,
    HopperEnv,
    VectorEnv,
    available_benchmarks,
    make,
)

#: Every registered benchmark, by its environment's name: one registered
#: later is covered without being listed here.
REGISTERED_BENCHMARKS = [make(key).name for key in available_benchmarks()]


def _assert_lockstep_matches_scalars(name, num_envs, steps, seed, max_episode_steps, vectorized):
    """Walk a VectorEnv and N scalar envs in parallel, comparing bitwise."""
    vec = VectorEnv.make(
        name, num_envs, seed=seed, max_episode_steps=max_episode_steps,
        vectorized=vectorized,
    )
    scalars = [
        make(name, seed=s, max_episode_steps=max_episode_steps)
        for s in VectorEnv.spawn_seeds(seed, num_envs)
    ]
    action_rng = np.random.default_rng(seed * 7919 + num_envs)

    vec_obs = vec.reset()
    scalar_obs = np.stack([env.reset() for env in scalars])
    np.testing.assert_array_equal(vec_obs, scalar_obs)

    resets = 0
    for _ in range(steps):
        actions = action_rng.uniform(-1.5, 1.5, size=(num_envs, vec.action_dim))
        result = vec.step(actions)
        for i, env in enumerate(scalars):
            scalar_result = env.step(actions[i])
            assert scalar_result.reward == result.rewards[i]
            assert bool(scalar_result.done) == bool(result.dones[i])
            if scalar_result.done:
                resets += 1
                np.testing.assert_array_equal(
                    result.infos[i]["final_observation"], scalar_result.observation
                )
                np.testing.assert_array_equal(result.observations[i], env.reset())
            else:
                np.testing.assert_array_equal(
                    result.observations[i], scalar_result.observation
                )
    return resets


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("name", REGISTERED_BENCHMARKS)
    @pytest.mark.parametrize("num_envs", [1, 2, 5])
    def test_matches_independently_seeded_scalar_envs(self, name, num_envs):
        resets = _assert_lockstep_matches_scalars(
            name, num_envs, steps=90, seed=13, max_episode_steps=40, vectorized=None
        )
        # The 40-step horizon guarantees auto-resets were crossed.
        assert resets >= num_envs

    def test_randomized_configurations(self):
        """Seeded-random property loop over N, seed, horizon, and benchmark."""
        case_rng = np.random.default_rng(2024)
        for _ in range(6):
            name = REGISTERED_BENCHMARKS[case_rng.integers(len(REGISTERED_BENCHMARKS))]
            num_envs = int(case_rng.integers(1, 9))
            seed = int(case_rng.integers(0, 10_000))
            horizon = int(case_rng.integers(7, 60))
            _assert_lockstep_matches_scalars(
                name, num_envs, steps=75, seed=seed,
                max_episode_steps=horizon, vectorized=None,
            )

    @pytest.mark.parametrize("num_envs", [1, 3])
    def test_loop_fallback_path_matches_too(self, num_envs):
        """The generic (non-vectorized) path obeys the same contract."""
        resets = _assert_lockstep_matches_scalars(
            "Hopper", num_envs, steps=70, seed=5, max_episode_steps=30,
            vectorized=False,
        )
        assert resets >= num_envs

    def test_fast_and_loop_paths_agree(self):
        """Both execution paths produce the same streams from the same seeds."""
        fast = VectorEnv.make("Swimmer", 4, seed=3, max_episode_steps=25)
        loop = VectorEnv.make("Swimmer", 4, seed=3, max_episode_steps=25, vectorized=False)
        assert fast.is_vectorized and not loop.is_vectorized
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(fast.reset(), loop.reset())
        for _ in range(60):
            actions = rng.uniform(-1.0, 1.0, size=(4, fast.action_dim))
            fast_result = fast.step(actions)
            loop_result = loop.step(actions)
            np.testing.assert_array_equal(fast_result.observations, loop_result.observations)
            np.testing.assert_array_equal(fast_result.rewards, loop_result.rewards)
            np.testing.assert_array_equal(fast_result.dones, loop_result.dones)


class TestVectorEnvApi:
    def test_fast_path_detection(self):
        homogeneous = VectorEnv.make("HalfCheetah", 3, seed=0)
        assert homogeneous.is_vectorized
        mixed = VectorEnv([HalfCheetahEnv(seed=0), HalfCheetahEnv(seed=1, max_episode_steps=10)])
        assert not mixed.is_vectorized  # different configs -> loop path

    def test_forcing_vectorized_on_heterogeneous_envs_fails(self):
        with pytest.raises(ValueError, match="homogeneous"):
            VectorEnv(
                [HalfCheetahEnv(seed=0), HalfCheetahEnv(seed=1, max_episode_steps=10)],
                vectorized=True,
            )

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(ValueError, match="spaces"):
            VectorEnv([HalfCheetahEnv(seed=0), HopperEnv(seed=0)])

    def test_step_before_reset_raises(self):
        vec = VectorEnv.make("Hopper", 2, seed=0)
        with pytest.raises(RuntimeError, match="reset"):
            vec.step(np.zeros((2, vec.action_dim)))

    def test_action_shape_validated(self):
        vec = VectorEnv.make("Hopper", 2, seed=0)
        vec.reset()
        with pytest.raises(ValueError, match="shape"):
            vec.step(np.zeros((3, vec.action_dim)))

    def test_spawn_seeds(self):
        assert VectorEnv.spawn_seeds(10, 3) == [10, 11, 12]
        assert VectorEnv.spawn_seeds(None, 2) == [None, None]

    def test_from_template_replicates_custom_horizon(self):
        template = HopperEnv(seed=4, max_episode_steps=17)
        vec = VectorEnv.from_template(template, 3, seed=4)
        assert vec.num_envs == 3
        assert all(env.max_episode_steps == 17 for env in vec.envs)
        assert vec.is_vectorized

    def test_reseed_restarts_streams(self):
        vec = VectorEnv.make("Swimmer", 2, seed=9, max_episode_steps=20)
        first = vec.reset().copy()
        vec.step(np.zeros((2, vec.action_dim)))
        vec.seed(9)
        np.testing.assert_array_equal(vec.reset(), first)

    def test_make_requires_positive_count(self):
        with pytest.raises(ValueError, match="num_envs"):
            VectorEnv.make("Hopper", 0)

    def test_step_result_unpacks(self):
        vec = VectorEnv.make("Hopper", 2, seed=0, max_episode_steps=10)
        vec.reset()
        obs, rewards, dones, infos = vec.step(np.zeros((2, vec.action_dim)))
        assert obs.shape == (2, vec.state_dim)
        assert rewards.shape == (2,)
        assert dones.shape == (2,)
        assert len(infos) == 2
