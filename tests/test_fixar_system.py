"""Integration tests for the assembled FIXAR system."""

import numpy as np
import pytest

from repro.accelerator import network_forward
from repro.core import FixarSystem, smoke_test_config
from repro.platform import PAPER_BATCH_SIZES, FixarPlatform


@pytest.fixture(scope="module")
def trained_system():
    """A small system trained once and shared by the read-only tests below."""
    config = smoke_test_config(total_timesteps=600, batch_size=16, hidden_sizes=(24, 16))
    config = config.with_training(
        warmup_timesteps=100, evaluation_interval=300, evaluation_episodes=2
    )
    system = FixarSystem(config)
    result = system.train()
    return system, result


class TestConstruction:
    def test_components_wired_together(self):
        system = FixarSystem(smoke_test_config(total_timesteps=500))
        assert system.env.name == "HalfCheetah"
        assert system.agent.state_dim == 17
        assert isinstance(system.platform, FixarPlatform)
        assert system.platform.accelerator_config is system.config.accelerator
        assert not system.platform.half_precision
        assert system.qat_controller is not None
        assert system.workload.actor_shapes[0][0] == 17

    def test_float_regime_has_no_qat_controller(self):
        config = smoke_test_config(total_timesteps=500).with_regime("float32")
        system = FixarSystem(config)
        assert system.qat_controller is None

    def test_benchmark_selection(self):
        system = FixarSystem(smoke_test_config("Swimmer", total_timesteps=500))
        assert system.env.name == "Swimmer"
        assert system.agent.action_dim == 2


class TestTraining(object):
    def test_training_runs_and_switches_precision(self, trained_system):
        system, result = trained_system
        assert result.total_timesteps == 600
        assert result.qat_event is not None
        assert system.platform.half_precision
        assert len(result.curve.points) >= 1
        assert np.isfinite(result.curve.final_return)

    def test_trained_actor_runs_on_the_datapath_kernel(self, trained_system):
        system, _ = trained_system
        state = np.zeros(17)
        reference = system.agent.act(state)
        accelerated = network_forward(system.agent.actor, state)[0]
        np.testing.assert_allclose(np.clip(accelerated, -1, 1), reference, atol=0.05)

    def test_per_layer_run_prices_its_own_state(self):
        """The platform after a per-layer run prices the driver's mixed
        state; the platform the run started with is left as it was."""
        config = smoke_test_config(total_timesteps=300, batch_size=16, hidden_sizes=(24, 16))
        config = config.with_training(
            warmup_timesteps=60, evaluation_interval=300, evaluation_episodes=1,
            precision="per-layer", precision_spec="actor=16@150,critic=32",
        )
        system = FixarSystem(config)
        before = system.platform
        system.train()
        state = system.qat_controller.precision_state()
        assert set(state["layers"]) == {"actor_fc0", "actor_fc1", "actor_out"}
        assert system.platform.precision_state == state
        assert system.platform is not before
        assert before.half_precision is False and before.precision_state is None
        assert system.platform.accelerator_ips(256) != before.accelerator_ips(256)
        assert system.platform.accelerator_ips(256) != before.with_precision_state(
            {"default": 16, "layers": {}}
        ).accelerator_ips(256)


class TestReports:
    def test_throughput_report(self, trained_system):
        system, _ = trained_system
        report = system.throughput_report()
        assert report.batch_sizes == list(PAPER_BATCH_SIZES)
        for batch in PAPER_BATCH_SIZES:
            assert report.platform_ips[batch] > report.baseline_platform_ips[batch]
            assert report.accelerator_ips[batch] > report.gpu_accelerator_ips[batch]
            assert set(report.time_breakdowns[batch]) == {"cpu_environment", "runtime", "fpga"}
        summary = report.summary()
        assert summary["platform_speedup_vs_cpu_gpu"] > 1.5
        assert summary["efficiency_gain_vs_gpu"] > 5.0

    def test_resource_table(self, trained_system):
        system, _ = trained_system
        rows = system.resource_table()
        assert rows[-2]["Component"] == "Total"
        assert rows[-2]["DSP"] == 2302

    def test_comparison_table_uses_model_numbers(self, trained_system):
        system, _ = trained_system
        rows = system.comparison_table()
        fixar_row = rows[-1]
        assert fixar_row["Design"] == "FIXAR"
        assert fixar_row["Peak Perf. (IPS)"] > 10_000

    def test_headline_summary_keys(self, trained_system):
        system, _ = trained_system
        summary = system.headline_summary(batch_sizes=(64, 256))
        assert set(summary) >= {
            "platform_ips",
            "accelerator_ips",
            "accelerator_ips_per_watt",
            "platform_speedup_vs_cpu_gpu",
            "accelerator_speedup_vs_gpu",
            "efficiency_gain_vs_gpu",
        }
