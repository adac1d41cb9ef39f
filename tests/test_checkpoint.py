"""Unit tests for agent checkpointing."""

import json
import re

import numpy as np
import pytest

from repro.nn import make_numerics
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    checkpoint_metadata,
    load_agent_into,
    read_checkpoint,
    save_agent,
)


def _ddpg(rng, regime="float32"):
    return DDPGAgent(
        6, 2, DDPGConfig(hidden_sizes=(12, 8)), numerics=make_numerics(regime), rng=rng
    )


def _rewrite_metadata(path, **changes):
    """Re-save the checkpoint at ``path`` with ``changes`` merged into its metadata."""
    with np.load(path) as archive:
        arrays = dict(archive)
    metadata = json.loads(arrays["__metadata__"].tobytes().decode("utf-8"))
    encoded = json.dumps({**metadata, **changes}).encode("utf-8")
    arrays["__metadata__"] = np.frombuffer(encoded, dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return path


class TestSaveLoadDDPG:
    def test_roundtrip_restores_policy(self, rng, tmp_path):
        agent = _ddpg(rng)
        path = save_agent(agent, tmp_path / "agent.npz")
        assert path.exists()

        restored = _ddpg(np.random.default_rng(999))
        state = rng.normal(size=6)
        assert not np.allclose(agent.act(state), restored.act(state))
        metadata = load_agent_into(restored, path)
        np.testing.assert_allclose(agent.act(state), restored.act(state))
        assert metadata["agent_class"] == "DDPGAgent"

    def test_target_networks_restored(self, rng, tmp_path):
        agent = _ddpg(rng)
        path = save_agent(agent, tmp_path / "agent.npz")
        restored = _ddpg(np.random.default_rng(5))
        load_agent_into(restored, path)
        for name, value in agent.target_critic.parameters().items():
            np.testing.assert_allclose(restored.target_critic.parameters()[name], value)

    def test_update_count_restored(self, rng, tmp_path):
        agent = _ddpg(rng)
        agent.update_count = 42
        path = save_agent(agent, tmp_path / "agent.npz")
        restored = _ddpg(np.random.default_rng(5))
        load_agent_into(restored, path)
        assert restored.update_count == 42

    def test_missing_npz_suffix_normalised(self, rng, tmp_path):
        agent = _ddpg(rng)
        path = save_agent(agent, tmp_path / "agent")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_metadata_contents(self, rng):
        agent = _ddpg(rng, regime="fixar-dynamic")
        metadata = checkpoint_metadata(agent)
        assert metadata["state_dim"] == 6
        assert metadata["numerics"]["name"] == "fixar-dynamic"
        assert metadata["qat"]["half_mode"] is False

    def test_a_subclass_saves_as_the_ddpg_learner(self, rng, tmp_path):
        """The format names the learner, not the Python type that held it."""

        class InstrumentedAgent(DDPGAgent):
            pass

        agent = InstrumentedAgent(
            6, 2, DDPGConfig(hidden_sizes=(12, 8)), numerics=make_numerics("float32"), rng=rng
        )
        path = save_agent(agent, tmp_path / "agent.npz")
        metadata, _ = read_checkpoint(path)
        assert metadata["agent_class"] == "DDPGAgent"
        restored = _ddpg(np.random.default_rng(5))
        load_agent_into(restored, path)
        state = rng.normal(size=6)
        np.testing.assert_array_equal(agent.act(state), restored.act(state))


class TestQatState:
    def test_half_mode_and_range_restored(self, rng, tmp_path):
        agent = _ddpg(rng, regime="fixar-dynamic")
        agent.numerics.observe_activation(np.array([-2.0, 3.0]))
        agent.numerics.switch_to_half()
        path = save_agent(agent, tmp_path / "qat.npz")

        restored = _ddpg(np.random.default_rng(1), regime="fixar-dynamic")
        load_agent_into(restored, path)
        assert restored.numerics.half_mode
        assert restored.numerics.range_tracker.min_value == pytest.approx(-2.0)
        assert restored.numerics.range_tracker.max_value == pytest.approx(3.0)

    def test_postponed_switch_roundtrip(self, rng, tmp_path):
        """Checkpoint taken *between* the quantization delay and a postponed
        switch: half_mode is still False but the range tracker is partially
        filled — both must survive the round trip, and a controller resumed
        on the restored agent must switch using the captured range."""
        from repro.rl import QATController, QATSchedule

        agent = _ddpg(rng, regime="fixar-dynamic")
        controller = QATController(
            agent.numerics, QATSchedule(num_bits=16, quantization_delay=10)
        )
        # Past the delay with no observed range: the switch is postponed.
        assert controller.on_timestep(10) is None
        agent.numerics.observe_activation(np.array([-1.5, 0.25, 2.5]))
        metadata = checkpoint_metadata(agent)
        assert metadata["qat"]["half_mode"] is False
        assert metadata["qat"]["range_min"] == pytest.approx(-1.5)
        path = save_agent(agent, tmp_path / "postponed.npz")

        restored = _ddpg(np.random.default_rng(1), regime="fixar-dynamic")
        load_agent_into(restored, path)
        assert not restored.numerics.half_mode  # the switch has NOT happened
        assert restored.numerics.range_tracker.initialized
        assert restored.numerics.range_tracker.min_value == pytest.approx(-1.5)
        assert restored.numerics.range_tracker.max_value == pytest.approx(2.5)
        assert (
            restored.numerics.range_tracker.count
            == agent.numerics.range_tracker.count
        )

        # Resuming the schedule on the restored agent completes the switch
        # with the checkpointed range, as the interrupted run would have.
        resumed = QATController(
            restored.numerics, QATSchedule(num_bits=16, quantization_delay=10)
        )
        event = resumed.on_timestep(11)
        assert event is not None
        assert restored.numerics.half_mode
        assert event.activation_min == pytest.approx(-1.5)
        assert event.activation_max == pytest.approx(2.5)


class TestPerLayerPlanState:
    def _partially_switched(self, rng):
        """A fixar-dynamic agent mid-way through a per-layer schedule:
        actor layers switched to 16 bits, critic layers still tracking."""
        from repro.rl import PerLayerSchedulePolicy

        agent = _ddpg(rng, regime="fixar-dynamic")
        numerics = agent.numerics
        for layer, bounds in (
            ("actor_fc0", (-1.5, 2.5)),
            ("actor_out", (-1.0, 1.0)),
            ("critic_fc0", (-4.0, 6.0)),
        ):
            numerics.observe_activation(np.array(bounds), layer=layer)
        policy = PerLayerSchedulePolicy(numerics, [("actor", 16, 0)])
        event = policy.on_timestep(10)
        assert event is not None and set(event.layers) == {"actor_fc0", "actor_out"}
        return agent, policy

    def test_partially_switched_plan_roundtrip_is_bit_exact(self, rng, tmp_path):
        agent, policy = self._partially_switched(rng)
        metadata = checkpoint_metadata(agent)
        layers = metadata["qat"]["layers"]
        assert layers["actor_fc0"]["switched"]
        assert layers["actor_fc0"]["bits"] == 16
        assert not layers["critic_fc0"]["switched"]
        path = save_agent(agent, tmp_path / "plan.npz")

        restored = _ddpg(np.random.default_rng(1), regime="fixar-dynamic")
        load_agent_into(restored, path)
        numerics = restored.numerics
        assert not numerics.half_mode  # no global switch happened
        assert set(numerics.layer_quantizers) == {"actor_fc0", "actor_out"}
        assert numerics.layer_activation_bits("actor_fc0") == 16
        assert numerics.layer_activation_bits("critic_fc0") == 32
        for layer in ("actor_fc0", "actor_out"):
            original = agent.numerics.layer_quantizers[layer]
            roundtripped = numerics.layer_quantizers[layer]
            assert roundtripped.num_bits == original.num_bits
            assert roundtripped.delta == original.delta
            assert roundtripped.zero_point == original.zero_point
        # The unswitched critic tracker survives with its live statistics.
        tracker = numerics.layer_trackers["critic_fc0"]
        assert tracker.min_value == pytest.approx(-4.0)
        assert tracker.max_value == pytest.approx(6.0)
        assert tracker.count == agent.numerics.layer_trackers["critic_fc0"].count

    def test_restored_plan_quantizes_activations_identically(self, rng, tmp_path):
        agent, _policy = self._partially_switched(rng)
        path = save_agent(agent, tmp_path / "plan.npz")
        restored = _ddpg(np.random.default_rng(2), regime="fixar-dynamic")
        load_agent_into(restored, path)
        samples = np.linspace(-1.5, 2.5, 64)
        np.testing.assert_array_equal(
            restored.numerics.project_activation(samples, layer="actor_fc0"),
            agent.numerics.project_activation(samples, layer="actor_fc0"),
        )

    def test_resumed_policy_continues_from_the_restored_plan(self, rng, tmp_path):
        """Continuation: a policy resumed on the restored agent switches the
        remaining critic layers with the checkpointed range statistics —
        bit-exact with what the uninterrupted run would have frozen."""
        from repro.rl import PerLayerSchedulePolicy

        agent, _policy = self._partially_switched(rng)
        path = save_agent(agent, tmp_path / "plan.npz")
        restored = _ddpg(np.random.default_rng(3), regime="fixar-dynamic")
        load_agent_into(restored, path)

        resumed = PerLayerSchedulePolicy(
            restored.numerics, [("actor", 16, 0), ("critic", 16, 20)]
        )
        event = resumed.on_timestep(20)
        assert event is not None and event.layers == ("critic_fc0",)
        switch = event.switches[0]
        assert switch.activation_min == pytest.approx(-4.0)
        assert switch.activation_max == pytest.approx(6.0)
        # Already-switched actor layers are left alone (no double switch).
        reference = PerLayerSchedulePolicy(
            agent.numerics, [("actor", 16, 0), ("critic", 16, 20)]
        )
        expected = reference.on_timestep(20)
        assert expected is not None
        assert switch == expected.switches[0]


class TestPipelinedTrainingRoundtrip:
    @pytest.mark.pipelined
    def test_pipelined_agent_save_restore_smoke(self, rng, tmp_path):
        """An agent trained under the pipelined schedule checkpoints and
        restores like any other: same policy, same update count."""
        from repro.envs import HopperEnv
        from repro.nn import make_numerics
        from repro.rl import TrainingConfig, train

        env = HopperEnv(seed=5, max_episode_steps=40)
        agent = DDPGAgent(
            env.state_dim,
            env.action_dim,
            DDPGConfig(hidden_sizes=(12, 8)),
            numerics=make_numerics("float32"),
            rng=rng,
        )
        config = TrainingConfig(
            total_timesteps=120,
            warmup_timesteps=24,
            batch_size=16,
            buffer_capacity=2_000,
            evaluation_interval=120,
            evaluation_episodes=1,
            seed=3,
            num_envs=2,
            num_workers=2,
            pipeline_depth=1,
        )
        result = train(
            env, agent, config, eval_env=HopperEnv(seed=9, max_episode_steps=40)
        )
        assert result.pipeline_depth == 1
        path = save_agent(agent, tmp_path / "pipelined.npz")

        restored = DDPGAgent(
            env.state_dim,
            env.action_dim,
            DDPGConfig(hidden_sizes=(12, 8)),
            numerics=make_numerics("float32"),
            rng=np.random.default_rng(99),
        )
        metadata = load_agent_into(restored, path)
        assert metadata["update_count"] == agent.update_count
        state = np.random.default_rng(0).normal(size=env.state_dim)
        np.testing.assert_array_equal(agent.act(state), restored.act(state))


class TestValidation:
    def test_class_mismatch_rejected(self, checkpoints):
        agent = DDPGAgent(
            17, 6, DDPGConfig(hidden_sizes=(16, 12)),
            numerics=make_numerics("fixar-dynamic"), rng=np.random.default_rng(5),
        )
        before = agent.actor._flat.copy()
        with pytest.raises(ValueError, match="holds a 'TD3Agent', not a DDPGAgent"):
            load_agent_into(agent, checkpoints["foreign-agent-class"])
        np.testing.assert_array_equal(agent.actor._flat, before)

    def test_dimension_mismatch_rejected(self, rng, tmp_path):
        agent = _ddpg(rng)
        path = save_agent(agent, tmp_path / "agent.npz")
        other = DDPGAgent(7, 2, DDPGConfig(hidden_sizes=(12, 8)), rng=rng)
        with pytest.raises(ValueError):
            load_agent_into(other, path)

    def test_shape_mismatch_rejected(self, rng, tmp_path):
        agent = _ddpg(rng)
        path = save_agent(agent, tmp_path / "agent.npz")
        other = DDPGAgent(6, 2, DDPGConfig(hidden_sizes=(10, 8)), rng=rng)
        with pytest.raises(ValueError):
            load_agent_into(other, path)


class TestReadCheckpoint:
    """The one reader: anything it cannot fully read and validate is a
    ``ValueError`` (never ``BadZipFile`` / ``EOFError`` / ``KeyError``)."""

    def test_good_checkpoint_round_trips_bit_exactly(self, checkpoints, rng):
        metadata, arrays = read_checkpoint(checkpoints["good"])
        restored = DDPGAgent(
            17, 6, DDPGConfig(hidden_sizes=(16, 12)),
            numerics=make_numerics("fixar-dynamic"), rng=np.random.default_rng(5),
        )
        assert load_agent_into(restored, checkpoints["good"]) == metadata
        assert metadata == checkpoint_metadata(restored)
        assert "__metadata__" not in arrays
        for prefix in ("actor", "critic", "target_actor", "target_critic"):
            for name, value in getattr(restored, prefix).parameters().items():
                np.testing.assert_array_equal(value, arrays[f"{prefix}::{name}"])

    @pytest.mark.parametrize(
        "name, message",
        [
            ("garbage", "not a readable checkpoint archive"),
            ("empty", "not a readable checkpoint archive"),
            ("truncated-64", "not a readable checkpoint archive"),
            ("truncated-half", "not a readable checkpoint archive"),
            ("truncated-tail", "not a readable checkpoint archive"),
            ("corrupt-member", "not a readable checkpoint archive"),
            ("bare-npy", "not an .npz archive"),
            ("no-metadata", "no __metadata__ entry"),
            ("metadata-not-json", "__metadata__ does not decode"),
            ("missing-key", r"__metadata__ is missing \['numerics'\]"),
            ("format-version-2", "format_version 2 is not the supported version 1"),
            ("foreign-agent-class", "holds a 'TD3Agent', not a DDPGAgent"),
        ],
    )
    def test_unusable_checkpoints_raise_value_error(self, checkpoints, name, message):
        with pytest.raises(ValueError, match=message):
            read_checkpoint(checkpoints[name])
        with pytest.raises(ValueError, match=message):
            load_agent_into(_ddpg(np.random.default_rng(0)), checkpoints[name])

    @pytest.mark.parametrize("agent_class", ["ddpgagent", "DDPGAgent ", "ActorPolicy", None])
    def test_agent_class_must_be_exactly_ddpg_agent(self, rng, tmp_path, agent_class):
        """No case folding, no stripping, no other class, no missing value."""
        path = _rewrite_metadata(
            save_agent(_ddpg(rng), tmp_path / "agent.npz"), agent_class=agent_class
        )
        message = re.escape(f"holds a {agent_class!r}, not a DDPGAgent")
        with pytest.raises(ValueError, match=message):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("missing-parameter", r"missing \['actor::0\.actor_fc0\.weight'\]"),
            ("unknown-parameter", r"unknown \['actor::9\.bogus\.weight'\]"),
            ("qat-layers-not-dict", "qat metadata is malformed: .*layers is a list"),
            ("qat-missing-half-mode", "qat metadata is malformed: KeyError\\('half_mode'\\)"),
        ],
    )
    def test_a_checkpoint_that_does_not_fit_restores_nothing(self, checkpoints, name, message):
        read_checkpoint(checkpoints[name])  # a readable archive that does not fit
        agent = DDPGAgent(
            17, 6, DDPGConfig(hidden_sizes=(16, 12)),
            numerics=make_numerics("fixar-dynamic"), rng=np.random.default_rng(5),
        )
        agent.act(np.zeros(17))  # observe a range, so the numerics hold state
        prefixes = ("actor", "critic", "target_actor", "target_critic")
        before = {prefix: getattr(agent, prefix)._flat.copy() for prefix in prefixes}
        numerics_before = checkpoint_metadata(agent)
        with pytest.raises(ValueError, match=message):
            load_agent_into(agent, checkpoints[name])
        for prefix in prefixes:
            np.testing.assert_array_equal(getattr(agent, prefix)._flat, before[prefix])
        assert checkpoint_metadata(agent) == numerics_before

    def test_missing_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_checkpoint(tmp_path / "absent.npz")
