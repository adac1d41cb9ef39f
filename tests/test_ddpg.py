"""Unit tests for the DDPG agent."""

import numpy as np
import pytest

from repro.nn import make_numerics
from repro.rl import DDPGAgent, DDPGConfig, ReplayBuffer


def _make_agent(rng, state_dim=5, action_dim=2, **kwargs):
    config = DDPGConfig(hidden_sizes=(16, 12), **kwargs)
    return DDPGAgent(state_dim, action_dim, config=config, rng=rng)


def _filled_buffer(agent, rng, count=200):
    buffer = ReplayBuffer(1000, agent.state_dim, agent.action_dim, seed=0)
    state = rng.normal(size=agent.state_dim)
    for _ in range(count):
        action = rng.uniform(-1, 1, agent.action_dim)
        next_state = rng.normal(size=agent.state_dim)
        reward = float(action.sum() + rng.normal(scale=0.1))
        buffer.add(state, action, reward, next_state, done=rng.random() < 0.05)
        state = next_state
    return buffer


class TestConfig:
    def test_defaults_match_paper(self):
        config = DDPGConfig()
        assert config.hidden_sizes == (400, 300)
        assert config.actor_learning_rate == pytest.approx(1e-4)
        assert config.critic_learning_rate == pytest.approx(1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            DDPGConfig(gamma=0.0)
        with pytest.raises(ValueError):
            DDPGConfig(tau=2.0)
        with pytest.raises(ValueError):
            DDPGConfig(actor_learning_rate=-1.0)
        with pytest.raises(ValueError):
            DDPGConfig(hidden_sizes=())


class TestActing:
    def test_action_shape_and_bounds(self, rng):
        agent = _make_agent(rng)
        action = agent.act(rng.normal(size=5))
        assert action.shape == (2,)
        assert np.all(np.abs(action) <= 1.0)

    def test_noise_is_added_and_clipped(self, rng):
        agent = _make_agent(rng)
        state = rng.normal(size=5)
        clean = agent.act(state)
        noisy = agent.act(state, noise=np.full(2, 10.0))
        assert np.all(noisy == 1.0)
        assert not np.allclose(clean, noisy)

    def test_act_batch(self, rng):
        agent = _make_agent(rng)
        actions = agent.act_batch(rng.normal(size=(7, 5)))
        assert actions.shape == (7, 2)

    def test_q_value_shape(self, rng):
        agent = _make_agent(rng)
        q = agent.q_value(rng.normal(size=(4, 5)), rng.uniform(-1, 1, size=(4, 2)))
        assert q.shape == (4, 1)

    def test_deterministic_policy(self, rng):
        agent = _make_agent(rng)
        state = rng.normal(size=5)
        np.testing.assert_allclose(agent.act(state), agent.act(state))


class TestUpdate:
    def test_update_returns_metrics(self, rng):
        agent = _make_agent(rng)
        buffer = _filled_buffer(agent, rng)
        metrics = agent.update(buffer.sample(32))
        assert np.isfinite(metrics.critic_loss)
        assert np.isfinite(metrics.actor_loss)
        assert agent.update_count == 1

    def test_update_changes_parameters(self, rng):
        agent = _make_agent(rng, actor_learning_rate=1e-2, critic_learning_rate=1e-2)
        buffer = _filled_buffer(agent, rng)
        before_actor = {k: v.copy() for k, v in agent.actor.parameters().items()}
        before_critic = {k: v.copy() for k, v in agent.critic.parameters().items()}
        agent.update(buffer.sample(32))
        actor_changed = any(
            not np.allclose(before_actor[k], v) for k, v in agent.actor.parameters().items()
        )
        critic_changed = any(
            not np.allclose(before_critic[k], v) for k, v in agent.critic.parameters().items()
        )
        assert actor_changed and critic_changed

    def test_target_networks_move_slowly(self, rng):
        agent = _make_agent(rng, tau=0.01, actor_learning_rate=1e-2, critic_learning_rate=1e-2)
        buffer = _filled_buffer(agent, rng)
        target_before = {k: v.copy() for k, v in agent.target_actor.parameters().items()}
        agent.update(buffer.sample(32))
        for name, value in agent.target_actor.parameters().items():
            online = agent.actor.parameters()[name]
            target_delta = np.abs(value - target_before[name]).max()
            online_delta = np.abs(online - target_before[name]).max()
            assert target_delta <= online_delta + 1e-12

    def test_critic_loss_decreases_on_fixed_batch(self, rng):
        agent = _make_agent(rng, critic_learning_rate=1e-2, actor_learning_rate=1e-5)
        buffer = _filled_buffer(agent, rng)
        batch = buffer.sample(64)
        first = agent.update(batch).critic_loss
        for _ in range(50):
            last = agent.update(batch).critic_loss
        assert last < first

    def test_reward_correlated_q_after_training(self, rng):
        """The critic learns that larger action sums yield larger rewards."""
        agent = _make_agent(rng, critic_learning_rate=5e-3)
        buffer = _filled_buffer(agent, rng, count=500)
        for _ in range(200):
            agent.update(buffer.sample(64))
        states = rng.normal(size=(50, 5))
        q_high = agent.q_value(states, np.ones((50, 2)))
        q_low = agent.q_value(states, -np.ones((50, 2)))
        assert q_high.mean() > q_low.mean()


class TestNumericRegimes:
    @pytest.mark.parametrize("regime", ["float32", "fixed32", "fixed16", "fixar-dynamic"])
    def test_update_works_under_all_regimes(self, rng, regime):
        numerics = make_numerics(regime)
        agent = DDPGAgent(5, 2, DDPGConfig(hidden_sizes=(16, 12)), numerics=numerics, rng=rng)
        buffer = _filled_buffer(agent, rng)
        metrics = agent.update(buffer.sample(32))
        assert np.isfinite(metrics.critic_loss)

    def test_update_under_dynamic_numerics_tracks_ranges(self, rng):
        numerics = make_numerics("fixar-dynamic")
        agent = DDPGAgent(5, 2, DDPGConfig(hidden_sizes=(16, 12)), numerics=numerics, rng=rng)
        buffer = _filled_buffer(agent, rng)
        assert not numerics.range_tracker.initialized
        agent.update(buffer.sample(32))
        assert numerics.range_tracker.initialized
        assert {"actor_fc0", "critic_fc0"} <= set(numerics.layer_trackers)

    def test_fixed_point_weights_stay_on_grid(self, rng):
        numerics = make_numerics("fixed32")
        agent = DDPGAgent(5, 2, DDPGConfig(hidden_sizes=(16, 12)), numerics=numerics, rng=rng)
        buffer = _filled_buffer(agent, rng)
        agent.update(buffer.sample(32))
        weight = next(iter(agent.actor.parameters().values()))
        np.testing.assert_allclose(weight, numerics.weight_format.quantize(weight))


class TestAccounting:
    def test_network_shapes(self, rng):
        agent = _make_agent(rng)
        shapes = agent.network_shapes()
        assert shapes["actor"] == [(5, 16), (16, 12), (12, 2)]
        assert shapes["critic"] == [(7, 16), (16, 12), (12, 1)]

    def test_parameter_count_and_size(self, rng):
        agent = _make_agent(rng)
        count = agent.parameter_count()
        assert count == agent.actor.parameter_count + agent.critic.parameter_count
        assert agent.model_size_bytes(32) == count * 4

    def test_half_precision_model_is_half_the_size(self, rng):
        agent = _make_agent(rng)
        assert agent.model_size_bytes(16) == agent.parameter_count() * 2
        assert agent.model_size_bytes(16) * 2 == agent.model_size_bytes(32)

    def test_paper_model_fits_weight_memory(self, rng):
        """The full 400x300 actor+critic fit in 1.05 MB at 32-bit weights."""
        agent = DDPGAgent(17, 6, DDPGConfig(), rng=rng)
        assert agent.model_size_bytes(32) <= int(1.05 * 1024 * 1024)

    def test_invalid_dimensions_rejected(self, rng):
        with pytest.raises(ValueError):
            DDPGAgent(0, 2, rng=rng)
