"""End-to-end integration tests across substrates.

These exercise the paths the benchmark harness relies on: the Fig. 7 regime
comparison at reduced scale, the agreement between the trained software
networks and the accelerator's integer datapath kernel, and the consistency
of the platform-level reports across every registered benchmark.
"""

import numpy as np
import pytest

from repro.accelerator import network_forward
from repro.core import FixarSystem, smoke_test_config
from repro.envs import available_benchmarks, make
from repro.fixedpoint import ACTIVATION_FULL_FORMAT
from repro.nn import make_numerics
from repro.platform import FixarPlatform, WorkloadSpec
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    QATController,
    QATSchedule,
    TrainingConfig,
    train,
)


def _quick_train(regime, steps=1500, seed=0, hidden=(24, 16)):
    env = make("HalfCheetah", seed=seed, max_episode_steps=100)
    eval_env = make("HalfCheetah", seed=seed + 1, max_episode_steps=100)
    numerics = make_numerics(regime)
    # The learning rate is deliberately below the 16-bit fixed-point weight
    # resolution (2^-8 = 0.0039): full-precision regimes learn fine, while the
    # fixed16-from-scratch regime loses its updates to rounding — the same
    # mechanism behind the paper's Fig. 7 failure case, at reduced scale.
    agent = DDPGAgent(
        env.state_dim,
        env.action_dim,
        DDPGConfig(hidden_sizes=hidden, actor_learning_rate=1e-3, critic_learning_rate=1e-3),
        numerics=numerics,
        rng=np.random.default_rng(seed),
    )
    controller = None
    if regime == "fixar-dynamic":
        controller = QATController(numerics, QATSchedule(16, quantization_delay=steps // 2))
    config = TrainingConfig(
        total_timesteps=steps,
        warmup_timesteps=150,
        batch_size=32,
        buffer_capacity=10_000,
        evaluation_interval=steps,
        evaluation_episodes=3,
        exploration_noise=0.3,
        seed=seed,
    )
    result = train(env, agent, config, eval_env=eval_env, qat_controller=controller, label=regime)
    return agent, result


class TestRegimeStudy:
    """A reduced-scale version of Fig. 7's accuracy comparison."""

    @pytest.fixture(scope="class")
    def regime_results(self):
        return {
            regime: _quick_train(regime)
            for regime in ("float32", "fixed32", "fixar-dynamic", "fixed16")
        }

    def test_full_precision_regimes_learn(self, regime_results):
        for regime in ("float32", "fixed32", "fixar-dynamic"):
            _, result = regime_results[regime]
            assert result.curve.final_return > 50.0, regime

    def test_fixed16_from_scratch_fails_to_learn(self, regime_results):
        """The paper's key negative result: 16-bit from scratch does not train."""
        _, fixed16 = regime_results["fixed16"]
        _, dynamic = regime_results["fixar-dynamic"]
        assert fixed16.curve.final_return < 0.25 * dynamic.curve.final_return

    def test_dynamic_matches_full_precision(self, regime_results):
        _, float32 = regime_results["float32"]
        _, dynamic = regime_results["fixar-dynamic"]
        assert dynamic.curve.final_return > 0.5 * float32.curve.final_return

    def test_dynamic_switched_precision(self, regime_results):
        agent, result = regime_results["fixar-dynamic"]
        assert result.qat_event is not None
        assert agent.numerics.half_mode


class TestAcceleratorAgreement:
    """The trained networks on the accelerator's integer datapath kernel."""

    def test_trained_agent_runs_identically_on_accelerator(self):
        agent, _ = _quick_train("fixed32", steps=600)
        rng = np.random.default_rng(3)
        states = ACTIVATION_FULL_FORMAT.quantize(rng.normal(size=(16, agent.state_dim)))
        reference = agent.act_batch(states)
        accelerated = np.clip(network_forward(agent.actor, states), -1.0, 1.0)
        lsb = ACTIVATION_FULL_FORMAT.resolution
        np.testing.assert_allclose(accelerated, reference, rtol=0, atol=lsb)

    def test_critic_agreement_after_training(self):
        agent, _ = _quick_train("fixed32", steps=600)
        rng = np.random.default_rng(4)
        states = rng.normal(size=(8, agent.state_dim))
        actions = rng.uniform(-1, 1, size=(8, agent.action_dim))
        inputs = ACTIVATION_FULL_FORMAT.quantize(np.concatenate([states, actions], axis=1))
        reference = agent.critic.forward(inputs).ravel()
        accelerated = network_forward(agent.critic, inputs).ravel()
        lsb = ACTIVATION_FULL_FORMAT.resolution
        np.testing.assert_allclose(accelerated, reference, rtol=0, atol=lsb)


class TestPlatformAcrossBenchmarks:
    @pytest.mark.parametrize(
        "benchmark_name", [make(key).name for key in available_benchmarks()]
    )
    def test_platform_report_consistent_for_all_benchmarks(self, benchmark_name):
        env = make(benchmark_name)
        platform = FixarPlatform(WorkloadSpec.from_environment(env))
        sweep = platform.sweep_platform_ips((64, 512))
        assert sweep[512] > sweep[64] > 0
        breakdown = platform.timestep_breakdown(256)
        assert breakdown["fpga"] > 0

    def test_system_summary_for_hopper(self):
        config = smoke_test_config("Hopper", total_timesteps=500, hidden_sizes=(24, 16))
        system = FixarSystem(config)
        summary = system.headline_summary(batch_sizes=(64, 256))
        assert summary["platform_speedup_vs_cpu_gpu"] > 1.0
