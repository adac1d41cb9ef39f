"""Unit tests for the accelerator timing, resource, and power models."""

from dataclasses import fields

import numpy as np
import pytest

from repro.accelerator import (
    ALVEO_U50,
    AcceleratorConfig,
    ArrayGeometry,
    PowerModel,
    ResourceModel,
    ResourceUsage,
    TimingModel,
    training_schedule,
)
from repro.envs import available_benchmarks, benchmark_dimensions
from repro.rl import DDPGAgent, DDPGConfig

#: Paper network shapes (input, output) per dense layer.
ACTOR_SHAPES = [(17, 400), (400, 300), (300, 6)]
CRITIC_SHAPES = [(23, 400), (400, 300), (300, 1)]


class TestAcceleratorConfig:
    def test_paper_defaults(self):
        config = AcceleratorConfig()
        assert config.num_cores == 2
        assert config.geometry.rows == 16 and config.geometry.cols == 16
        assert config.pe_count == 512
        assert config.clock_hz == pytest.approx(164e6)

    def test_peak_macs(self):
        config = AcceleratorConfig()
        assert config.peak_macs_per_second() == pytest.approx(512 * 164e6)
        assert config.peak_macs_per_second(half_precision=True) == pytest.approx(1024 * 164e6)

    def test_tile_weight_load_cycles(self):
        assert AcceleratorConfig().tile_weight_load_cycles() == 16

    def test_with_cores_and_geometry(self):
        config = AcceleratorConfig().with_cores(4).with_geometry(8, 8)
        assert config.num_cores == 4
        assert config.pe_count == 4 * 64

    @pytest.mark.parametrize(
        "derive, changed",
        [(lambda config: config.with_cores(5), {"num_cores": 5}),
         (lambda config: config.with_geometry(2, 3), {"geometry": ArrayGeometry(2, 3)})],
        ids=["with_cores", "with_geometry"],
    )
    def test_derived_configs_carry_every_other_field(self, derive, changed):
        """Each helper changes its own field; every other one — the memory
        capacities included — carries over, whatever the dataclass holds."""
        config = AcceleratorConfig(
            num_cores=3, geometry=ArrayGeometry(8, 4), clock_hz=100e6, weights_per_cycle=8,
            layer_overhead_cycles=32, adam_lanes=8, weight_memory_bytes=2048,
            activation_memory_bytes=512,
        )
        derived = derive(config)
        for field in fields(AcceleratorConfig):
            expected = changed.get(field.name, getattr(config, field.name))
            assert getattr(derived, field.name) == expected, field.name

    def test_derived_configs_are_validated(self):
        with pytest.raises(ValueError):
            AcceleratorConfig().with_cores(0)
        with pytest.raises(ValueError):
            AcceleratorConfig().with_geometry(0, 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(num_cores=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(clock_hz=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(adam_lanes=0)


class TestTimingModel:
    def test_schedule_cycles_double_buffering(self):
        model = TimingModel()
        small_batch = training_schedule(300, 400, 16, ArrayGeometry(), 2)
        large_batch = training_schedule(300, 400, 512, ArrayGeometry(), 2)
        # With 8 vectors per core the weight load dominates (16 cycles/tile);
        # with 256 vectors per core the MAC streaming dominates.
        assert model.schedule_cycles(small_batch) < model.schedule_cycles(large_batch)
        assert model.schedule_utilization(large_batch) > model.schedule_utilization(small_batch)

    def test_forward_cycles_scale_with_batch(self):
        model = TimingModel()
        small = model.forward_cycles(ACTOR_SHAPES, 64, half_precision=False)
        large = model.forward_cycles(ACTOR_SHAPES, 512, half_precision=False)
        assert large > small
        assert large < 8 * small + 8 * model.config.layer_overhead_cycles * len(ACTOR_SHAPES)

    def test_half_precision_speeds_up_forward(self):
        model = TimingModel()
        full = model.forward_cycles(ACTOR_SHAPES, 512, half_precision=False)
        half = model.forward_cycles(ACTOR_SHAPES, 512, half_precision=True)
        assert half < full

    def test_half_precision_raises_modelled_ips(self):
        """The QAT switch's dual 16-bit MACs raise the paper workload's IPS."""
        model = TimingModel()
        full = model.accelerator_ips(ACTOR_SHAPES, CRITIC_SHAPES, 256, half_precision=False)
        half = model.accelerator_ips(ACTOR_SHAPES, CRITIC_SHAPES, 256, half_precision=True)
        assert half > full

    def test_backward_more_expensive_than_forward(self):
        model = TimingModel()
        forward = model.forward_cycles(CRITIC_SHAPES, 256, False)
        backward = model.backward_cycles(CRITIC_SHAPES, 256, False)
        assert backward > forward

    def test_backward_without_weight_gradient_cheaper(self):
        model = TimingModel()
        full = model.backward_cycles(CRITIC_SHAPES, 256, False, include_weight_gradient=True)
        dx_only = model.backward_cycles(CRITIC_SHAPES, 256, False, include_weight_gradient=False)
        assert dx_only < full

    def test_weight_update_cycles(self):
        model = TimingModel()
        assert model.weight_update_cycles(16) == 1
        assert model.weight_update_cycles(17) == 2

    def test_timestep_breakdown_contains_all_phases(self):
        model = TimingModel()
        breakdown = model.timestep_breakdown(ACTOR_SHAPES, CRITIC_SHAPES, 128)
        expected_phases = {
            "critic_target_forward",
            "critic_forward",
            "critic_backward",
            "critic_weight_update",
            "actor_forward",
            "policy_q_forward",
            "policy_q_backward",
            "actor_backward",
            "actor_weight_update",
            "actor_inference",
        }
        assert set(breakdown.phases) == expected_phases
        assert breakdown.total_cycles > 0

    def test_breakdown_merge(self):
        model = TimingModel()
        a = model.timestep_breakdown(ACTOR_SHAPES, CRITIC_SHAPES, 64)
        b = model.timestep_breakdown(ACTOR_SHAPES, CRITIC_SHAPES, 64)
        merged = a.merged(b)
        assert merged.total_cycles == 2 * a.total_cycles

    def test_accelerator_ips_roughly_flat_over_batch(self):
        """Fig. 10a: throughput stays high across batch sizes."""
        model = TimingModel()
        ips = [
            model.accelerator_ips(ACTOR_SHAPES, CRITIC_SHAPES, batch)
            for batch in (64, 128, 256, 512)
        ]
        assert min(ips) > 0.8 * max(ips)

    def test_accelerator_ips_near_paper_value(self):
        """The default configuration lands in the paper's 53.8 kIPS ballpark."""
        model = TimingModel()
        ips = model.accelerator_ips(ACTOR_SHAPES, CRITIC_SHAPES, 256)
        assert 40_000 < ips < 75_000

    def test_utilization_high_at_large_batch(self):
        """The paper reports 92.4% utilization."""
        model = TimingModel()
        utilization = model.hardware_utilization(ACTOR_SHAPES, CRITIC_SHAPES, 512)
        assert 0.85 <= utilization <= 1.0

    def test_more_cores_reduce_latency(self):
        two = TimingModel(AcceleratorConfig(num_cores=2))
        four = TimingModel(AcceleratorConfig(num_cores=4))
        assert four.timestep_seconds(ACTOR_SHAPES, CRITIC_SHAPES, 512) < two.timestep_seconds(
            ACTOR_SHAPES, CRITIC_SHAPES, 512
        )

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            TimingModel().timestep_breakdown(ACTOR_SHAPES, CRITIC_SHAPES, 0)

    def test_timestep_seconds_is_cycles_over_clock(self):
        model = TimingModel()
        breakdown = model.timestep_breakdown(ACTOR_SHAPES, CRITIC_SHAPES, 256)
        assert model.timestep_seconds(ACTOR_SHAPES, CRITIC_SHAPES, 256) == pytest.approx(
            breakdown.total_cycles / model.config.clock_hz
        )

    @pytest.mark.parametrize("env_name", available_benchmarks())
    def test_registered_benchmark_ips(self, env_name):
        """Each registered benchmark's paper-size networks land in the paper's
        throughput range, and the QAT switch raises it."""
        dims = benchmark_dimensions(env_name)
        shapes = DDPGAgent(dims["state_dim"], dims["action_dim"], DDPGConfig(),
                           rng=np.random.default_rng(0)).network_shapes()
        model = TimingModel()
        full = model.accelerator_ips(shapes["actor"], shapes["critic"], 256, half_precision=False)
        half = model.accelerator_ips(shapes["actor"], shapes["critic"], 256, half_precision=True)
        assert 40_000 < full < 75_000
        assert half > full


class TestResourceModel:
    def test_table_matches_paper_totals(self):
        model = ResourceModel()
        total = model.total()
        assert total.lut == pytest.approx(508_100, rel=0.01)
        assert total.ff == pytest.approx(408_800, rel=0.01)
        assert total.bram == 774
        assert total.uram == 128
        assert total.dsp == 2302

    def test_utilization_matches_paper(self):
        utilization = ResourceModel().utilization()
        assert utilization["LUT"] == pytest.approx(0.584, abs=0.01)
        assert utilization["BRAM"] == pytest.approx(0.576, abs=0.01)
        assert utilization["DSP"] == pytest.approx(0.388, abs=0.01)
        assert utilization["URAM"] == pytest.approx(0.20, abs=0.01)

    def test_design_fits_u50(self):
        assert ResourceModel().fits_device()

    def test_pe_resources_scale_with_array(self):
        small = ResourceModel(AcceleratorConfig(num_cores=1))
        large = ResourceModel(AcceleratorConfig(num_cores=4))
        assert large.processing_elements().dsp == pytest.approx(
            4 * small.processing_elements().dsp, rel=0.01
        )

    def test_oversized_design_does_not_fit(self):
        huge = ResourceModel(AcceleratorConfig(num_cores=16))
        assert not huge.fits_device()

    def test_table_structure(self):
        rows = ResourceModel().table()
        assert rows[0]["Component"] == "PEs"
        assert rows[-2]["Component"] == "Total"
        assert rows[-1]["Component"] == "Utilization (%)"
        assert len(rows) == 9

    def test_resource_usage_addition(self):
        a = ResourceUsage(lut=1, ff=2, bram=3, uram=4, dsp=5)
        b = ResourceUsage(lut=10, ff=20, bram=30, uram=40, dsp=50)
        total = a + b
        assert total.as_dict() == {"LUT": 11, "FF": 22, "BRAM": 33, "URAM": 44, "DSP": 55}

    def test_device_capacity_helpers(self):
        usage = ResourceUsage(lut=ALVEO_U50.lut // 2)
        assert ALVEO_U50.fits(usage)
        assert ALVEO_U50.utilization(usage)["LUT"] == pytest.approx(0.5)


class TestPowerModel:
    def test_average_power_near_paper(self):
        watts = PowerModel().average_watts(utilization=0.924)
        assert watts == pytest.approx(20.4, abs=1.0)

    def test_power_grows_with_utilization(self):
        model = PowerModel()
        assert model.average_watts(1.0) > model.average_watts(0.1)

    def test_power_scales_with_core_count(self):
        small = PowerModel(AcceleratorConfig(num_cores=1))
        large = PowerModel(AcceleratorConfig(num_cores=4))
        assert large.average_watts() > small.average_watts()

    def test_breakdown_sums_to_total(self):
        breakdown = PowerModel().breakdown()
        assert breakdown.total_watts == pytest.approx(
            breakdown.static_watts
            + breakdown.pe_watts
            + breakdown.memory_watts
            + breakdown.misc_watts
        )
        assert set(breakdown.as_dict()) == {
            "static_w",
            "pe_dynamic_w",
            "memory_dynamic_w",
            "misc_dynamic_w",
            "total_w",
        }

    def test_energy_and_efficiency_helpers(self):
        model = PowerModel()
        energy = model.energy_per_timestep_joules(1e-3)
        assert energy == pytest.approx(model.average_watts() * 1e-3)
        assert model.ips_per_watt(53826.8) == pytest.approx(
            53826.8 / model.average_watts(), rel=1e-6
        )

    def test_validation(self):
        model = PowerModel()
        with pytest.raises(ValueError):
            model.average_watts(utilization=1.5)
        with pytest.raises(ValueError):
            model.energy_per_timestep_joules(-1.0)
        with pytest.raises(ValueError):
            model.ips_per_watt(-5.0)
