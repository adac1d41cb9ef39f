"""The paper's on-chip memories: their capacities and what fits in them."""

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, memory_footprint_report
from repro.envs import available_benchmarks, benchmark_dimensions
from repro.rl import DDPGAgent, DDPGConfig

#: Paper network shapes (input, output) per dense layer.
ACTOR_SHAPES = [(17, 400), (400, 300), (300, 6)]
CRITIC_SHAPES = [(23, 400), (400, 300), (300, 1)]


class TestPaperMemories:
    def test_weight_memory_default_capacity(self):
        assert AcceleratorConfig().weight_memory_bytes == int(1.05 * 1024 * 1024)

    def test_gradient_memory_matches_weight_memory(self):
        """One 32-bit gradient per 32-bit weight: the gradient memory holds
        exactly what the weight memory holds."""
        report = memory_footprint_report(ACTOR_SHAPES, CRITIC_SHAPES)
        assert report["gradient_bytes"] == report["weight_bytes"]
        assert report["gradient_bytes"] <= AcceleratorConfig().weight_memory_bytes

    def test_activation_memory_default_capacity(self):
        assert AcceleratorConfig().activation_memory_bytes == int(2.94 * 1024)

    def test_paper_model_fits_weight_memory(self):
        """Actor (17-400-300-6) + critic (23-400-300-1) fit at 32-bit weights."""
        actor_params = 17 * 400 + 400 + 400 * 300 + 300 + 300 * 6 + 6
        critic_params = 23 * 400 + 400 + 400 * 300 + 300 + 300 * 1 + 1
        report = memory_footprint_report(ACTOR_SHAPES, CRITIC_SHAPES)
        assert report["weight_bytes"] == (actor_params + critic_params) * 4
        assert report["weight_bytes"] <= AcceleratorConfig().weight_memory_bytes
        assert report["fits_weight_memory"]

    def test_activation_memory_holds_all_three_layers(self):
        """400 + 300 + action activations fit in 2.94 KB at 32-bit."""
        activations = 400 + 300 + 6
        report = memory_footprint_report(ACTOR_SHAPES, CRITIC_SHAPES)
        assert report["activation_bytes"] == activations * 4
        assert activations * 4 <= AcceleratorConfig().activation_memory_bytes
        assert report["fits_activation_memory"]

    def test_paper_model_fills_most_of_the_weight_memory(self):
        report = memory_footprint_report(ACTOR_SHAPES, CRITIC_SHAPES)
        assert 0.9 < report["weight_memory_utilization"] <= 1.0
        assert report["weight_bytes"] > 1_000_000

    def test_oversized_model_does_not_fit(self):
        tiny = AcceleratorConfig(weight_memory_bytes=1024, activation_memory_bytes=1024)
        report = memory_footprint_report(ACTOR_SHAPES, CRITIC_SHAPES, tiny)
        assert not report["fits_weight_memory"]
        assert not report["fits_activation_memory"]
        assert report["weight_memory_utilization"] > 1.0

    def test_sixteen_bit_weights_halve_the_footprint(self):
        full = memory_footprint_report(ACTOR_SHAPES, CRITIC_SHAPES)
        half = memory_footprint_report(ACTOR_SHAPES, CRITIC_SHAPES, bits_per_weight=16)
        assert 2 * half["weight_bytes"] == full["weight_bytes"]


@pytest.mark.parametrize("env_name", available_benchmarks())
def test_registered_benchmark_networks_fit(env_name):
    """Each registered benchmark's paper-size actor and critic fit both
    memories at 32-bit weights."""
    dims = benchmark_dimensions(env_name)
    agent = DDPGAgent(dims["state_dim"], dims["action_dim"], DDPGConfig(),
                      rng=np.random.default_rng(0))
    shapes = agent.network_shapes()
    report = memory_footprint_report(shapes["actor"], shapes["critic"])
    assert report["weight_bytes"] == agent.model_size_bytes(32)
    assert report["fits_weight_memory"] and report["fits_activation_memory"]
