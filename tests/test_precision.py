"""Unit and equivalence tests for the pluggable precision-policy subsystem.

The load-bearing pin is :class:`TestGlobalSwitchEquivalence`: training under
``TrainingConfig(precision="global-switch")`` must be ``==``-exact with the
pre-refactor path that passes a bare :class:`~repro.rl.qat.QATController` —
the policy seam is a refactor, not a behavior change.  The pricing tests pin
the other end of the pipe: a per-layer precision state flows through
``FixarPlatform.with_precision_state`` and an
:class:`~repro.platform.AcceleratorPool` and changes the modelled
``fleet_training_steps_per_second``.
"""

from unittest import mock

import numpy as np
import pytest

from repro.envs import HalfCheetahEnv
from repro.nn import DynamicFixedPointNumerics, make_numerics
from repro.platform import AcceleratorPool, FixarPlatform, WorkloadSpec
from repro.rl import (
    PRECISION_POLICIES,
    DDPGAgent,
    DDPGConfig,
    GlobalSwitchPolicy,
    PerLayerSchedulePolicy,
    PrecisionPolicy,
    QATController,
    QATSchedule,
    RangeDrivenPolicy,
    TrainingConfig,
    register_precision_policy,
    resolve_precision,
    train,
)


def _numerics(num_bits=16):
    return DynamicFixedPointNumerics(num_bits=num_bits)


def _observe(numerics, layer, low=-2.0, high=3.0):
    numerics.observe_activation(np.array([low, high]), layer=layer)


def _small_agent(rng, env, regime="fixar-dynamic"):
    return DDPGAgent(
        env.state_dim,
        env.action_dim,
        DDPGConfig(hidden_sizes=(24, 16)),
        numerics=make_numerics(regime),
        rng=rng,
    )


def _config(steps=300, **overrides):
    base = dict(
        total_timesteps=steps,
        warmup_timesteps=50,
        batch_size=16,
        buffer_capacity=5000,
        evaluation_interval=steps // 2,
        evaluation_episodes=2,
        exploration_noise=0.2,
        seed=0,
    )
    base.update(overrides)
    return TrainingConfig(**base)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
SHIPPED_POLICIES = ["global-switch", "per-layer", "range-driven"]


class TestRegistry:
    def test_shipped_policies_are_registered(self):
        assert sorted(PRECISION_POLICIES) == SHIPPED_POLICIES
        assert PRECISION_POLICIES["global-switch"] is GlobalSwitchPolicy
        assert PRECISION_POLICIES["per-layer"] is PerLayerSchedulePolicy
        assert PRECISION_POLICIES["range-driven"] is RangeDrivenPolicy

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="global-switch"):
            resolve_precision("no-such-policy", _numerics())

    def test_subclassing_registers_without_a_decorator(self):
        with mock.patch.dict(PRECISION_POLICIES):

            class KeepFullPolicy(PrecisionPolicy):
                name = "keep-full"

                def on_timestep(self, timestep):
                    return None

            policy = resolve_precision("keep-full", _numerics())
            assert type(policy) is KeepFullPolicy
        assert sorted(PRECISION_POLICIES) == SHIPPED_POLICIES

    def test_register_rejects_duplicates_and_default_names(self):
        with pytest.raises(ValueError, match="duplicate"):

            class Duplicate(PrecisionPolicy):
                name = "global-switch"

        with pytest.raises(ValueError, match="distinct"):

            class Anonymous(PrecisionPolicy):
                pass  # inherits the base name

        with pytest.raises(ValueError, match="duplicate"):
            register_precision_policy(QATController)
        assert PRECISION_POLICIES["global-switch"] is GlobalSwitchPolicy
        assert sorted(PRECISION_POLICIES) == SHIPPED_POLICIES

    def test_a_subclass_of_a_shipped_policy_registers_under_its_own_name(self):
        with mock.patch.dict(PRECISION_POLICIES):

            class PatientRangePolicy(RangeDrivenPolicy):
                name = "patient-range"

            assert PRECISION_POLICIES["patient-range"] is PatientRangePolicy
            assert PRECISION_POLICIES["range-driven"] is RangeDrivenPolicy
        assert sorted(PRECISION_POLICIES) == SHIPPED_POLICIES

    def test_a_subclass_keeping_its_parents_name_is_a_duplicate(self):
        with pytest.raises(ValueError, match="duplicate precision policy name 'per-layer'"):

            class TweakedPerLayer(PerLayerSchedulePolicy):
                pass  # inherits "per-layer"

        assert PRECISION_POLICIES["per-layer"] is PerLayerSchedulePolicy
        assert sorted(PRECISION_POLICIES) == SHIPPED_POLICIES

    def test_an_empty_name_is_rejected(self):
        with pytest.raises(ValueError, match="EmptyName must set a distinct policy name"):

            class EmptyName(PrecisionPolicy):
                name = ""

        assert sorted(PRECISION_POLICIES) == SHIPPED_POLICIES

    def test_training_config_accepts_a_name_registered_by_subclassing(self):
        with mock.patch.dict(PRECISION_POLICIES):

            class KeepFullPolicy(PrecisionPolicy):
                name = "keep-full"

            assert _config(precision="keep-full").precision == "keep-full"
        with pytest.raises(ValueError, match="precision must be one of"):
            _config(precision="keep-full")

    def test_train_drives_a_policy_registered_by_subclassing(self, rng):
        seen = []
        with mock.patch.dict(PRECISION_POLICIES):

            class RecordingPolicy(PrecisionPolicy):
                name = "recording"

                def on_timestep(self, timestep):
                    seen.append(timestep)
                    return None

            env = HalfCheetahEnv(seed=0, max_episode_steps=30)
            result = train(env, _small_agent(rng, env), _config(120, precision="recording"))
        assert seen == list(range(120))
        assert result.qat_event is None

    def test_policies_require_dynamic_numerics(self):
        with pytest.raises(TypeError, match="DynamicFixedPointNumerics"):
            GlobalSwitchPolicy(make_numerics("float32"))


# --------------------------------------------------------------------- #
# Policy 1: the global switch delegates to the controller
# --------------------------------------------------------------------- #
class TestGlobalSwitchPolicy:
    def test_matches_bare_controller_step_by_step(self, rng):
        """Same decisions, same event, same quantizer as QATController."""
        samples = rng.uniform(-3, 5, size=100)
        a = _numerics()
        controller = QATController(a, QATSchedule(16, quantization_delay=10))
        b = _numerics()
        policy = GlobalSwitchPolicy(b, QATSchedule(16, quantization_delay=10))
        a.observe_activation(samples)
        b.observe_activation(samples)
        for step in range(10):
            assert controller.on_timestep(step) is None
            assert policy.on_timestep(step) is None
        expected = controller.on_timestep(10)
        event = policy.on_timestep(10)
        assert event == expected
        assert policy.switched and controller.switched
        assert b.half_mode
        assert b.quantizer.delta == a.quantizer.delta
        assert b.quantizer.zero_point == a.quantizer.zero_point

    def test_from_spec_grammar(self):
        policy = GlobalSwitchPolicy.from_spec(_numerics(), "16@1000")
        assert policy.schedule.num_bits == 16
        assert policy.schedule.quantization_delay == 1000
        delay_only = GlobalSwitchPolicy.from_spec(_numerics(), "@500")
        assert delay_only.schedule.quantization_delay == 500
        default = GlobalSwitchPolicy.from_spec(_numerics(), None)
        assert default.schedule.quantization_delay == QATSchedule().quantization_delay

    def test_precision_state_is_normalized(self, rng):
        numerics = _numerics()
        numerics.observe_activation(rng.uniform(-1, 1, size=50))
        policy = GlobalSwitchPolicy(numerics, QATSchedule(16, quantization_delay=0))
        assert policy.precision_state() == {"default": 32, "layers": {}}
        policy.on_timestep(0)
        assert policy.precision_state()["default"] == 16


class TestGlobalSwitchEquivalence:
    """The refactor pin: config.precision == explicit QATController, exactly."""

    def _run(self, steps=300, delay=150, via_config=False):
        env = HalfCheetahEnv(seed=0, max_episode_steps=50)
        eval_env = HalfCheetahEnv(seed=1, max_episode_steps=50)
        agent = _small_agent(np.random.default_rng(7), env)
        if via_config:
            config = _config(
                steps, precision="global-switch", precision_spec=f"16@{delay}"
            )
            result = train(env, agent, config, eval_env=eval_env)
        else:
            controller = QATController(
                agent.numerics, QATSchedule(16, quantization_delay=delay)
            )
            result = train(
                env, agent, _config(steps), eval_env=eval_env,
                qat_controller=controller,
            )
        return agent, result

    def test_config_precision_is_bit_exact_with_explicit_controller(self):
        legacy_agent, legacy = self._run(via_config=False)
        policy_agent, policy = self._run(via_config=True)
        assert legacy.qat_event is not None and policy.qat_event is not None
        assert policy.qat_event.timestep == legacy.qat_event.timestep
        assert policy.episode_returns == legacy.episode_returns
        np.testing.assert_array_equal(
            policy.curve.returns, legacy.curve.returns
        )
        for name, value in legacy_agent.actor.parameters().items():
            np.testing.assert_array_equal(
                policy_agent.actor.parameters()[name], value
            )
        assert policy_agent.numerics.half_mode

    def test_explicit_controller_and_config_precision_conflict(self, rng):
        env = HalfCheetahEnv(seed=0, max_episode_steps=30)
        agent = _small_agent(rng, env)
        controller = QATController(agent.numerics, QATSchedule(16, 10))
        with pytest.raises(ValueError, match="alternative precision drivers"):
            train(
                env,
                agent,
                _config(120, precision="global-switch"),
                qat_controller=controller,
            )

    def test_config_precision_requires_dynamic_numerics(self, rng):
        env = HalfCheetahEnv(seed=0, max_episode_steps=30)
        agent = _small_agent(rng, env, regime="float32")
        with pytest.raises(ValueError, match="DynamicFixedPointNumerics"):
            train(env, agent, _config(120, precision="global-switch"))


# --------------------------------------------------------------------- #
# Policy 2: static per-layer table
# --------------------------------------------------------------------- #
class TestPerLayerSchedulePolicy:
    def test_from_spec_grammar(self):
        policy = PerLayerSchedulePolicy.from_spec(
            _numerics(), "actor=16@1000,critic=32"
        )
        assert policy.table == (("actor", 16, 1000), ("critic", 32, 0))
        with pytest.raises(ValueError, match="pattern=bits"):
            PerLayerSchedulePolicy.from_spec(_numerics(), "actor16")
        with pytest.raises(ValueError, match="spec"):
            PerLayerSchedulePolicy.from_spec(_numerics(), None)

    def test_table_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            PerLayerSchedulePolicy(_numerics(), [("", 16, 0)])
        with pytest.raises(ValueError, match=">= 2"):
            PerLayerSchedulePolicy(_numerics(), [("actor", 1, 0)])
        with pytest.raises(ValueError, match="at least one"):
            PerLayerSchedulePolicy(_numerics(), [])

    def test_prefix_match_switches_only_covered_layers(self):
        numerics = _numerics()
        for layer in ("actor_fc0", "actor_out", "critic_fc0", "critic_out"):
            _observe(numerics, layer)
        policy = PerLayerSchedulePolicy(
            numerics, [("actor", 16, 5), ("critic", 32, 0)]
        )
        assert policy.on_timestep(4) is None  # before the actor delay
        event = policy.on_timestep(5)
        assert event is not None
        assert event.layers == ("actor_fc0", "actor_out")
        assert event.num_bits == 16
        assert numerics.layer_activation_bits("actor_fc0") == 16
        assert numerics.layer_activation_bits("critic_fc0") == 32
        assert "critic_fc0" not in numerics.layer_quantizers
        # Terminal once every reduced-precision layer has switched.
        assert policy.switched
        assert policy.on_timestep(6) is None

    def test_switch_postponed_until_layer_range_observed(self):
        numerics = _numerics()
        _observe(numerics, "actor_fc0")
        policy = PerLayerSchedulePolicy(numerics, [("actor", 16, 0)])
        event = policy.on_timestep(0)
        assert event is not None and event.layers == ("actor_fc0",)
        # A layer first observed later switches on a later timestep; the
        # policy is not terminal while covered layers are still pending.
        assert not policy.switched or "actor_fc1" not in numerics.layer_trackers
        _observe(numerics, "actor_fc1")
        if not policy.switched:
            follow_up = policy.on_timestep(1)
            assert follow_up is not None

    def test_layer_switch_records_frozen_quantizer_parameters(self):
        numerics = _numerics()
        _observe(numerics, "actor_fc0", low=-2.0, high=3.0)
        policy = PerLayerSchedulePolicy(numerics, [("actor_fc0", 16, 0)])
        event = policy.on_timestep(0)
        switch = event.switches[0]
        quantizer = numerics.layer_quantizers["actor_fc0"]
        assert switch.activation_min == pytest.approx(-2.0)
        assert switch.activation_max == pytest.approx(3.0)
        assert switch.delta == quantizer.delta
        assert switch.zero_point == quantizer.zero_point

    def test_precision_state_reports_partial_plan(self):
        numerics = _numerics()
        _observe(numerics, "actor_fc0")
        _observe(numerics, "critic_fc0")
        policy = PerLayerSchedulePolicy(numerics, [("actor", 16, 0)])
        policy.on_timestep(0)
        assert policy.precision_state() == {
            "default": 32,
            "layers": {"actor_fc0": 16},
        }

    def test_train_with_per_layer_policy_switches_actor_layers(self, rng):
        env = HalfCheetahEnv(seed=0, max_episode_steps=50)
        agent = _small_agent(rng, env)
        config = _config(
            200, precision="per-layer", precision_spec="actor=16@60,critic=32"
        )
        result = train(env, agent, config)
        assert result.qat_event is not None
        assert result.qat_event.timestep >= 60
        bits = agent.numerics.layer_bits
        assert bits and all(name.startswith("actor") for name in bits)
        assert set(bits.values()) == {16}
        assert not agent.numerics.half_mode  # critic stays full precision


# --------------------------------------------------------------------- #
# Policy 3: range-statistic-driven switches
# --------------------------------------------------------------------- #
class TestRangeDrivenPolicy:
    def test_switches_after_stable_span_checks(self):
        numerics = _numerics()
        _observe(numerics, "actor_fc0")
        policy = RangeDrivenPolicy(
            numerics, check_interval=10, patience=2, tolerance=0.05
        )
        # Check 1 records the span, checks 2 and 3 see it stable.
        assert policy.on_timestep(10) is None
        assert policy.on_timestep(20) is None
        event = policy.on_timestep(30)
        assert event is not None and event.layers == ("actor_fc0",)
        assert numerics.layer_activation_bits("actor_fc0") == 16
        assert policy.switched

    def test_growing_span_resets_patience(self):
        numerics = _numerics()
        _observe(numerics, "actor_fc0", low=-1.0, high=1.0)
        policy = RangeDrivenPolicy(
            numerics, check_interval=10, patience=2, tolerance=0.05
        )
        assert policy.on_timestep(10) is None
        _observe(numerics, "actor_fc0", low=-4.0, high=4.0)  # span doubles
        assert policy.on_timestep(20) is None  # growth resets the counter
        assert policy.on_timestep(30) is None  # stable check #1
        assert policy.on_timestep(40) is not None  # stable check #2: switch

    def test_off_interval_timesteps_are_ignored(self):
        numerics = _numerics()
        _observe(numerics, "actor_fc0")
        policy = RangeDrivenPolicy(numerics, check_interval=10, patience=1)
        for step in (1, 5, 9, 11, 15):
            assert policy.on_timestep(step) is None
        assert not policy._spans  # no check ever ran

    def test_determinism_same_observations_same_switch_timestep(self):
        def run():
            numerics = _numerics()
            _observe(numerics, "actor_fc0")
            _observe(numerics, "critic_fc0")
            policy = RangeDrivenPolicy(numerics, check_interval=10, patience=2)
            events = []
            for step in range(0, 60, 10):
                event = policy.on_timestep(step)
                if event is not None:
                    events.append((event.timestep, event.layers))
            return events

        assert run() == run()

    def test_spec_and_validation(self):
        policy = RangeDrivenPolicy.from_spec(
            _numerics(), "bits=8,interval=500,patience=3,tolerance=0.1"
        )
        assert policy.num_bits == 8
        assert policy.check_interval == 500
        assert policy.patience == 3
        assert policy.tolerance == pytest.approx(0.1)
        with pytest.raises(ValueError, match="known keys"):
            RangeDrivenPolicy.from_spec(_numerics(), "delay=100")
        with pytest.raises(ValueError, match="check_interval"):
            RangeDrivenPolicy(_numerics(), check_interval=0)
        with pytest.raises(ValueError, match="patience"):
            RangeDrivenPolicy(_numerics(), patience=0)


# --------------------------------------------------------------------- #
# Pricing: precision state through the platform and the pool
# --------------------------------------------------------------------- #
class TestPlatformPricing:
    def _platform(self):
        return FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))

    def _mixed_state(self, platform):
        """Every actor layer at 16 bits, critic untouched (mixed plan)."""
        layers = {}
        shapes = platform.workload.actor_shapes
        for i in range(len(shapes) - 1):
            layers[f"actor_fc{i}"] = 16
        layers["actor_out"] = 16
        return {"default": 32, "layers": layers}

    def test_none_and_all_full_states_are_identity(self):
        platform = self._platform()
        assert platform.with_precision_state(None) is platform
        assert (
            platform.with_precision_state({"default": 32, "layers": {}})
            is platform
        )

    def test_uniform_half_state_collapses_onto_legacy_mode(self):
        platform = self._platform()
        legacy = FixarPlatform(platform.workload, half_precision=True)
        uniform = platform.with_precision_state({"default": 16, "layers": {}})
        assert uniform.half_precision is True
        assert uniform.precision_state is None
        assert uniform.training_steps_per_second(64) == (
            legacy.training_steps_per_second(64)
        )
        assert uniform.transfer_bytes_per_value == 2

    def test_mixed_state_prices_between_the_uniform_extremes(self):
        platform = self._platform()
        half = platform.with_precision_state({"default": 16, "layers": {}})
        mixed = platform.with_precision_state(self._mixed_state(platform))
        full_sps = platform.training_steps_per_second(64)
        mixed_sps = mixed.training_steps_per_second(64)
        half_sps = half.training_steps_per_second(64)
        assert full_sps < mixed_sps < half_sps
        assert 2 < mixed.transfer_bytes_per_value < 4

    def test_invalid_bitwidths_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            self._platform().with_precision_state(
                {"default": 32, "layers": {"actor_fc0": 0}}
            )

    def test_mixed_state_changes_fleet_throughput_on_the_platform(self):
        platform = self._platform()
        mixed = platform.with_precision_state(self._mixed_state(platform))
        fleet = [("halfcheetah", 1, 4), ("hopper", 1, 4)]
        before = platform.fleet_training_steps_per_second(fleet, 4)
        after = mixed.fleet_training_steps_per_second(fleet, 4)
        assert after > before

    def test_mixed_state_changes_fleet_throughput_through_a_pool(self):
        platform = self._platform()
        pool = AcceleratorPool(platform, num_devices=2)
        repriced = pool.with_precision_state(self._mixed_state(platform))
        assert isinstance(repriced, AcceleratorPool)
        assert repriced.num_devices == 2
        fleet = [("halfcheetah", 1, 4), ("hopper", 1, 4)]
        before = pool.fleet_training_steps_per_second(fleet, 4)
        after = repriced.fleet_training_steps_per_second(fleet, 4)
        assert after > before

    def test_single_device_pool_stays_exact_with_platform(self):
        platform = self._platform()
        state = self._mixed_state(platform)
        pool_sps = AcceleratorPool(
            platform, num_devices=1
        ).with_precision_state(state).fleet_training_steps_per_second(
            [("halfcheetah", 1, 4)], 4
        )
        platform_sps = platform.with_precision_state(
            state
        ).fleet_training_steps_per_second([("halfcheetah", 1, 4)], 4)
        assert pool_sps == platform_sps

    def test_pool_identity_when_state_is_identity(self):
        platform = self._platform()
        pool = AcceleratorPool(platform, num_devices=2)
        assert pool.with_precision_state(None) is pool
        assert (
            pool.with_precision_state({"default": 32, "layers": {}}) is pool
        )
