"""Unit tests for the end-to-end FIXAR platform timing model."""

import pytest

from repro.accelerator import AcceleratorConfig
from repro.envs import HalfCheetahEnv
from repro.platform import (
    PAPER_BATCH_SIZES,
    CpuGpuPlatform,
    FixarPlatform,
    WorkloadSpec,
)


@pytest.fixture
def platform():
    return FixarPlatform(WorkloadSpec("HalfCheetah", 17, 6))


class TestWorkloadSpec:
    def test_shapes_match_paper(self):
        spec = WorkloadSpec("HalfCheetah", 17, 6)
        assert spec.actor_shapes == [(17, 400), (400, 300), (300, 6)]
        assert spec.critic_shapes == [(23, 400), (400, 300), (300, 1)]

    def test_from_environment(self):
        spec = WorkloadSpec.from_environment(HalfCheetahEnv())
        assert spec.benchmark == "HalfCheetah"
        assert spec.state_dim == 17
        assert spec.action_dim == 6

    def test_custom_hidden_sizes(self):
        spec = WorkloadSpec("Hopper", 11, 6, hidden_sizes=(64, 48))
        assert spec.actor_shapes == [(11, 64), (64, 48), (48, 6)]


class TestBreakdown:
    def test_components_present(self, platform):
        breakdown = platform.timestep_breakdown(64)
        assert set(breakdown) == {"cpu_environment", "runtime", "fpga"}
        assert all(value > 0 for value in breakdown.values())

    def test_cpu_time_constant_fpga_time_linear(self, platform):
        """Fig. 9a: CPU ~constant, FPGA roughly linear in the batch size."""
        b64 = platform.timestep_breakdown(64)
        b512 = platform.timestep_breakdown(512)
        assert b512["cpu_environment"] < 1.5 * b64["cpu_environment"]
        assert b512["runtime"] < 2.0 * b64["runtime"]
        assert 4.0 < b512["fpga"] / b64["fpga"] < 10.0

    def test_bottleneck_shifts_to_fpga(self, platform):
        """Fig. 9b: CPU dominates at small batch, FPGA at large batch."""
        small = platform.timestep_ratio(64)
        large = platform.timestep_ratio(512)
        assert small["cpu_environment"] > small["fpga"] * 0.9
        assert large["fpga"] > large["cpu_environment"]
        assert sum(small.values()) == pytest.approx(1.0)
        assert sum(large.values()) == pytest.approx(1.0)

    def test_total_is_component_sum(self, platform):
        assert platform.timestep_seconds(128) == pytest.approx(
            sum(platform.timestep_breakdown(128).values())
        )


class TestThroughput:
    def test_platform_ips_grows_with_batch(self, platform):
        sweep = platform.sweep_platform_ips()
        values = [sweep[batch] for batch in PAPER_BATCH_SIZES]
        assert values == sorted(values)

    def test_headline_platform_ips_ballpark(self, platform):
        """Mean platform IPS over the paper's batch sweep ≈ 25.3 kIPS."""
        sweep = platform.sweep_platform_ips()
        mean_ips = sum(sweep.values()) / len(sweep)
        assert 18_000 < mean_ips < 33_000

    def test_accelerator_ips_flat_and_near_paper(self, platform):
        sweep = platform.sweep_accelerator_ips()
        assert min(sweep.values()) > 0.8 * max(sweep.values())
        assert 45_000 < max(sweep.values()) < 75_000

    def test_platform_beats_cpu_gpu_baseline(self, platform):
        """Fig. 8: FIXAR is 1.8–4.8× faster than the CPU-GPU platform."""
        baseline = CpuGpuPlatform()
        ratios = [
            platform.platform_ips(batch) / baseline.ips("HalfCheetah", batch)
            for batch in PAPER_BATCH_SIZES
        ]
        assert all(ratio > 1.5 for ratio in ratios)
        assert max(ratios) < 6.0
        # The advantage shrinks as the batch grows (GPU utilization improves).
        assert ratios[0] > ratios[-1]

    def test_energy_efficiency_near_paper(self, platform):
        """Fig. 10b: ≈2638 IPS/W, an order of magnitude above the GPU."""
        efficiency = platform.accelerator_ips_per_watt(256)
        assert 2_000 < efficiency < 3_600
        gpu = CpuGpuPlatform().gpu
        assert efficiency > 5 * gpu.ips_per_watt(256)

    def test_accelerator_watts_close_to_paper(self, platform):
        assert platform.accelerator_watts(512) == pytest.approx(20.4, abs=1.5)

    def test_half_precision_platform_faster(self):
        spec = WorkloadSpec("HalfCheetah", 17, 6)
        full = FixarPlatform(spec, half_precision=False)
        half = FixarPlatform(spec, half_precision=True)
        assert half.platform_ips(256) > full.platform_ips(256)

    def test_half_precision_prices_transfers_at_two_bytes(self):
        """The precision mode reaches the PCIe payload pricing, not just the
        datapath: half-precision values cross the link at 2 bytes each."""
        spec = WorkloadSpec("HalfCheetah", 17, 6)
        full = FixarPlatform(spec, half_precision=False)
        half = FixarPlatform(spec, half_precision=True)
        assert full.transfer_bytes_per_value == 4
        assert half.transfer_bytes_per_value == 2
        assert half.runtime_seconds(256) < full.runtime_seconds(256)
        assert half.infer_batch(8).pcie_bytes * 2 == full.infer_batch(8).pcie_bytes
        # An explicit override still wins over the platform's mode.
        assert half.runtime_seconds(256, bytes_per_value=4) == pytest.approx(
            full.runtime_seconds(256)
        )

    def test_more_cores_increase_throughput(self):
        spec = WorkloadSpec("HalfCheetah", 17, 6)
        two = FixarPlatform(spec, AcceleratorConfig(num_cores=2))
        four = FixarPlatform(spec, AcceleratorConfig(num_cores=4))
        assert four.accelerator_ips(512) > two.accelerator_ips(512)

    def test_utilization_high(self, platform):
        assert platform.accelerator_utilization(512) > 0.85


class TestBatchInference:
    """Batched rollout inference: the FixarPlatform.infer_batch hook."""

    def test_batched_latency_strictly_beats_serial(self, platform):
        single = platform.infer_batch(1)
        for num_states in (2, 8, 32, 128):
            batched = platform.infer_batch(num_states)
            # Weight loads and the PCIe round trip are amortised over the
            # batch, so batch-of-N must be strictly cheaper than N serial
            # single-state inferences — on the FPGA, on the runtime, and
            # end to end.
            assert batched.fpga_seconds < num_states * single.fpga_seconds
            assert batched.runtime_seconds < num_states * single.runtime_seconds
            assert batched.total_seconds < num_states * single.total_seconds

    def test_pcie_bytes_equal_batched_payload(self, platform):
        state_dim, action_dim = platform.workload.state_dim, platform.workload.action_dim
        for num_states in (1, 8, 32):
            report = platform.infer_batch(num_states)
            assert report.pcie_bytes == num_states * (state_dim + action_dim) * 4
            assert report.pcie_bytes == platform.pcie.inference_bytes(
                num_states, state_dim, action_dim
            )

    def test_energy_accounting(self, platform):
        single = platform.infer_batch(1)
        batched = platform.infer_batch(32)
        assert single.energy_joules > 0
        # Energy follows FPGA time: board power x batched pass latency, so
        # serving 32 states costs strictly less energy than 32 serial passes.
        assert batched.energy_joules < 32 * single.energy_joules
        assert batched.energy_joules == pytest.approx(
            platform.power.average_watts() * batched.fpga_seconds
        )

    def test_throughput_grows_with_batch(self, platform):
        rates = [platform.infer_batch(n).states_per_second for n in (1, 8, 32)]
        assert rates == sorted(rates)

    def test_invalid_batch_rejected(self, platform):
        with pytest.raises(ValueError):
            platform.infer_batch(0)

    def test_timestep_num_envs_amortises_rollout(self, platform):
        # A training timestep serving N envs is far cheaper than N scalar
        # timesteps, and num_envs=1 reproduces the original accounting.
        assert platform.timestep_seconds(64, num_envs=1) == platform.timestep_seconds(64)
        assert (
            platform.timestep_seconds(64, num_envs=32)
            < 32 * platform.timestep_seconds(64)
        )
        assert platform.env_steps_per_second(64, 32) > 4 * platform.env_steps_per_second(64, 1)

    def test_breakdown_num_envs_only_grows_components(self, platform):
        scalar = platform.timestep_breakdown(64)
        vector = platform.timestep_breakdown(64, num_envs=16)
        for component in scalar:
            assert vector[component] >= scalar[component]


class TestPipelinedSchedule:
    """Pricing of the pipelined training schedule (max instead of sum)."""

    def test_update_step_is_component_sum(self, platform):
        state_dim = platform.workload.state_dim
        action_dim = platform.workload.action_dim
        expected = (
            platform.host.update_phase_seconds(64)
            + platform.pcie.update_seconds(64, state_dim, action_dim)
            + platform.train_pass_seconds(64)
        )
        assert platform.update_step_seconds(64) == pytest.approx(expected)

    def test_train_pass_excludes_rollout_inference(self, platform):
        # The training-only FPGA pass plus the single-state inference must
        # reassemble the full timestep's FPGA time.
        inference = platform.timing.inference_seconds(
            platform.workload.actor_shapes, 1, half_precision=platform.half_precision
        )
        assert platform.train_pass_seconds(64) + inference == pytest.approx(
            platform.fpga_seconds(64)
        )

    def test_streamed_updates_amortise_invocation_overhead(self, platform):
        blocking = platform.update_round_seconds(64, 32, pipelined=False)
        streamed = platform.update_round_seconds(64, 32, pipelined=True)
        # One invocation overhead per round instead of one per update.
        assert streamed < blocking
        assert streamed >= 32 * platform.train_pass_seconds(64)
        assert platform.update_round_seconds(64, 0, pipelined=True) == 0.0
        with pytest.raises(ValueError):
            platform.update_round_seconds(64, -1)

    def test_pipelined_round_is_max_of_phases(self, platform):
        collection = platform.collection_round_seconds(8, 4)
        update = platform.update_round_seconds(64, 32, pipelined=True)
        inference_fpga = 4 * platform.infer_batch(8).fpga_seconds
        assert platform.pipelined_round_seconds(8, 4, 64) == pytest.approx(
            max(collection, update + inference_fpga)
        )
        # The sequential schedule pays the sum (with blocking invocations).
        assert platform.sequential_round_seconds(8, 4, 64) == pytest.approx(
            collection + platform.update_round_seconds(64, 32, pipelined=False)
        )

    def test_pipelined_never_slower_and_meets_contract(self, platform):
        for num_workers in (1, 2, 4):
            assert platform.pipelined_speedup(8, num_workers, 64) >= 1.0
        # The bench contract: >= 1.5x modelled steps/sec at 4 workers x 8 envs.
        assert platform.pipelined_speedup(8, 4, 64) >= 1.5

    def test_default_update_quota_is_one_per_env_step(self, platform):
        explicit = platform.pipelined_round_seconds(8, 4, 64, updates_per_round=32)
        assert platform.pipelined_round_seconds(8, 4, 64) == pytest.approx(explicit)

    def test_host_update_phase_accounting(self, platform):
        host = platform.host
        per_update = host.config.replay_sample_seconds_per_transition * 64
        assert host.update_phase_seconds(64) == pytest.approx(per_update)
        assert host.update_phase_seconds(64, updates=32) == pytest.approx(32 * per_update)
        with pytest.raises(ValueError):
            host.update_phase_seconds(0)
        with pytest.raises(ValueError):
            host.update_phase_seconds(64, updates=-1)

    def test_pcie_update_invocation_components(self, platform):
        pcie = platform.pcie
        assert pcie.update_bytes(64, 17, 6) == 64 * (2 * 17 + 6 + 2) * 4
        assert pcie.update_seconds(64, 17, 6) == pytest.approx(
            pcie.invocation_overhead_seconds + pcie.update_marginal_seconds(64, 17, 6)
        )
        with pytest.raises(ValueError):
            pcie.update_bytes(0, 17, 6)


class TestHomogeneousIsTheOneGroupFleet:
    """Every homogeneous oracle ``==`` its one-group fleet form, exactly.

    Both are adapters over one kernel (``repro.platform.rounds``): the
    homogeneous methods price the one-entry fleet of the platform itself,
    the ``fleet_*`` methods resolve a sibling platform per group.  The two
    report files that show the same 4,219.1 steps/sec (``async_collect.txt``
    and ``hetero_fleet.txt``) agree because of this, not by coincidence.
    """

    STATES = {
        "full": None,
        "uniform-half": {"default": 16, "layers": {}},
        "mixed": {"default": 32, "layers": {"actor_fc0": 16, "critic_out": 16}},
    }
    REPORT_ACCESSORS = (
        "num_workers",
        "num_states",
        "fpga_seconds",
        "runtime_seconds",
        "total_seconds",
        "pcie_bytes",
        "energy_joules",
        "states_per_second",
    )

    @pytest.mark.parametrize("state", sorted(STATES))
    @pytest.mark.parametrize("num_workers", [1, 3, 8])
    @pytest.mark.parametrize("num_envs", [1, 8])
    def test_every_oracle_and_report_accessor(self, platform, state, num_workers, num_envs):
        platform = platform.with_precision_state(self.STATES[state])
        workload = platform.workload.benchmark
        for fleet in ([(workload, num_workers)], [(platform.workload, num_workers)]):
            assert platform.fleet_collection_round_seconds(
                fleet, num_envs
            ) == platform.collection_round_seconds(num_envs, num_workers)
            assert platform.fleet_collection_steps_per_second(
                fleet, num_envs
            ) == platform.collection_steps_per_second(num_envs, num_workers)
            for batch in (32, 64):
                assert platform.fleet_sequential_round_seconds(
                    fleet, num_envs, batch
                ) == platform.sequential_round_seconds(num_envs, num_workers, batch)
                assert platform.fleet_pipelined_round_seconds(
                    fleet, num_envs, batch
                ) == platform.pipelined_round_seconds(num_envs, num_workers, batch)
                for pipelined in (False, True):
                    assert platform.fleet_training_steps_per_second(
                        fleet, num_envs, batch, pipelined=pipelined
                    ) == platform.training_steps_per_second(
                        num_envs, num_workers, batch, pipelined=pipelined
                    )
                assert platform.fleet_pipelined_speedup(
                    fleet, num_envs, batch
                ) == platform.pipelined_speedup(num_envs, num_workers, batch)
            homogeneous = platform.infer_collection(num_envs, num_workers)
            one_group = platform.infer_fleet(fleet, num_envs)
            assert one_group == homogeneous
            for accessor in self.REPORT_ACCESSORS:
                assert getattr(one_group, accessor) == getattr(homogeneous, accessor)

    def test_single_row_report_reduces_to_the_batch_report(self, platform):
        batch = platform.infer_batch(8)
        (row,) = platform.infer_collection(8, 1).rows
        assert row.per_worker == batch
        for accessor in self.REPORT_ACCESSORS[1:-1]:
            assert getattr(row, accessor) == getattr(batch, accessor)
