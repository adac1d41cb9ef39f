"""Tests for multi-accelerator device pools (``repro.platform.pool``).

The load-bearing guarantees:

* **1-device bit-exactness** — a 1-device pool is the extended
  oracle chain's anchor: every ``fleet_*`` price, ``infer_batch`` report
  value, and a training run that uses the pool as its platform hook must
  be **exactly** equal (``==``, not approx) to the single-platform path;
* **Step-count conservation** — sharding one batch over the pool never
  creates or drops states, for any batch size and device count;
* **Determinism** — devices change only the modelled pricing; training
  numerics (curves, episode returns, buffers) are identical across device
  counts;
* **Scaling** — the contract fleet ``HalfCheetah:2,Hopper:2`` must reach
  >= 1.8x modelled training steps/sec going from 1 to 2 accelerators;
* **Validation** — constructor and affinity errors fail loud.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.envs import benchmark_dimensions
from repro.nn import make_numerics
from repro.platform import (
    AcceleratorPool,
    FixarPlatform,
    InferenceReport,
    WorkloadSpec,
)
from repro.rl import DDPGAgent, DDPGConfig, TrainingConfig, train, train_fleet

NUM_ENVS = 8
BATCH = 64
MIXED = [("HalfCheetah", 2), ("Hopper", 2)]
SCALING_CONTRACT = 1.8


@pytest.fixture
def platform() -> FixarPlatform:
    return FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))


def _agent(benchmark: str, numerics=None, seed=42) -> DDPGAgent:
    dims = benchmark_dimensions(benchmark)
    return DDPGAgent(
        dims["state_dim"],
        dims["action_dim"],
        DDPGConfig(hidden_sizes=(24, 16)),
        numerics=numerics or make_numerics("float32"),
        rng=np.random.default_rng(seed),
    )


def _fleet_agents():
    numerics = make_numerics("float32")
    return {
        "HalfCheetah": _agent("HalfCheetah", numerics, seed=1),
        "Hopper": _agent("Hopper", numerics, seed=2),
    }


def _config(**overrides) -> TrainingConfig:
    base = TrainingConfig(
        total_timesteps=240,
        warmup_timesteps=60,
        batch_size=16,
        buffer_capacity=5_000,
        evaluation_interval=120,
        evaluation_episodes=2,
        exploration_noise=0.2,
        seed=3,
        num_envs=2,
    )
    return replace(base, **overrides)


class TestConstruction:
    def test_devices_share_the_template_hardware(self, platform):
        pool = AcceleratorPool(platform, 3)
        assert pool.num_devices == 3
        assert pool.device(0) is platform
        for index in (1, 2):
            sibling = pool.device(index)
            assert sibling is not platform
            assert sibling.accelerator_config is platform.accelerator_config
            assert sibling.host is platform.host
            assert sibling.pcie is platform.pcie
            # Identical hardware models => identical per-batch pricing.
            assert (
                sibling.infer_batch(BATCH).total_seconds
                == platform.infer_batch(BATCH).total_seconds
            )

    @pytest.mark.parametrize("num_devices", [1, 2, 3, 4])
    def test_every_device_is_a_collection_device(self, platform, num_devices):
        pool = AcceleratorPool(platform, num_devices)
        assert pool.collection_devices == tuple(range(num_devices))

    def test_rejects_bad_device_counts(self, platform):
        with pytest.raises(ValueError, match="must be >= 1"):
            AcceleratorPool(platform, 0)
        with pytest.raises(ValueError, match="must be an integer"):
            AcceleratorPool(platform, 2.5)

    def test_device_index_bounds(self, platform):
        pool = AcceleratorPool(platform, 2)
        with pytest.raises(ValueError, match="out of range"):
            pool.device(2)

    def test_bound_assignment_validated_at_construction(self, platform):
        with pytest.raises(ValueError, match="collection devices"):
            AcceleratorPool(platform, 2, assignment={"hopper": 5})
        with pytest.raises(ValueError, match="integer device indices"):
            AcceleratorPool(platform, 2, assignment={"hopper": 0.5})

    def test_with_assignment_shares_devices(self, platform):
        pool = AcceleratorPool(platform, 2)
        pinned = pool.with_assignment({"Hopper": 1})
        assert pinned.devices is pool.devices
        assert pinned.assignment == {"hopper": 1}
        assert pool.assignment is None
        # The sibling is the pool with only the assignment rebound: every
        # other attribute (including any a later __init__ adds) is shared.
        assert vars(pinned).keys() == vars(pool).keys()
        for name in vars(pool).keys() - {"assignment"}:
            assert vars(pinned)[name] is vars(pool)[name]
        with pytest.raises(ValueError, match="collection devices"):
            pool.with_assignment({"hopper": 2})


class TestSingleDeviceBitExactness:
    """The extended oracle chain: pool(1) == the single platform, exactly."""

    def test_infer_batch(self, platform):
        pool = AcceleratorPool(platform, 1)
        for batch in (1, 8, 64, 256):
            single = platform.infer_batch(batch)
            sharded = pool.infer_batch(batch)
            assert isinstance(sharded, InferenceReport)
            assert len(sharded.rows) == 1
            assert sharded.num_states == single.num_states
            assert sharded.fpga_seconds == single.fpga_seconds
            assert sharded.runtime_seconds == single.runtime_seconds
            assert sharded.total_seconds == single.total_seconds
            assert sharded.pcie_bytes == single.pcie_bytes
            assert sharded.energy_joules == single.energy_joules

    def test_fleet_pricing_oracles(self, platform):
        pool = AcceleratorPool(platform, 1)
        assert pool.fleet_collection_round_seconds(
            MIXED, NUM_ENVS
        ) == platform.fleet_collection_round_seconds(MIXED, NUM_ENVS)
        assert pool.fleet_collection_steps_per_second(
            MIXED, NUM_ENVS
        ) == platform.fleet_collection_steps_per_second(MIXED, NUM_ENVS)
        assert pool.fleet_sequential_round_seconds(
            MIXED, NUM_ENVS, BATCH
        ) == platform.fleet_sequential_round_seconds(MIXED, NUM_ENVS, BATCH)
        assert pool.fleet_pipelined_round_seconds(
            MIXED, NUM_ENVS, BATCH
        ) == platform.fleet_pipelined_round_seconds(MIXED, NUM_ENVS, BATCH)
        for pipelined in (False, True):
            assert pool.fleet_training_steps_per_second(
                MIXED, NUM_ENVS, BATCH, pipelined=pipelined
            ) == platform.fleet_training_steps_per_second(
                MIXED, NUM_ENVS, BATCH, pipelined=pipelined
            )

    def test_fleet_pricing_with_weights(self, platform):
        pool = AcceleratorPool(platform, 1)
        weights = [1, 2]
        assert pool.fleet_collection_round_seconds(
            MIXED, NUM_ENVS, weights=weights
        ) == platform.fleet_collection_round_seconds(
            MIXED, NUM_ENVS, weights=weights
        )
        assert pool.fleet_sequential_round_seconds(
            MIXED, NUM_ENVS, BATCH, weights=weights
        ) == platform.fleet_sequential_round_seconds(
            MIXED, NUM_ENVS, BATCH, weights=weights
        )

    def test_infer_fleet(self, platform):
        pool = AcceleratorPool(platform, 1)
        single = platform.infer_fleet(MIXED, NUM_ENVS)
        pooled = pool.infer_fleet(MIXED, NUM_ENVS)
        assert isinstance(pooled, InferenceReport)
        assert {row.device for row in pooled.rows} == {0}
        assert pooled.num_states == single.num_states
        assert pooled.num_workers == single.num_workers
        assert pooled.total_seconds == single.total_seconds
        assert pooled.pcie_bytes == single.pcie_bytes
        assert pooled.energy_joules == single.energy_joules

    def test_homogeneous_training_path(self):
        """train() with a 1-device pool hook == train() with the platform."""
        from repro.envs import HopperEnv

        def run(platform_hook):
            env = HopperEnv(seed=5, max_episode_steps=40)
            agent = _agent("Hopper")
            result = train(
                env,
                agent,
                _config(),
                eval_env=HopperEnv(seed=9, max_episode_steps=40),
                platform=platform_hook,
            )
            return result, agent

        single_platform = FixarPlatform(WorkloadSpec.from_benchmark("Hopper"))
        pool = AcceleratorPool(
            FixarPlatform(WorkloadSpec.from_benchmark("Hopper")), 1
        )
        single, single_agent = run(single_platform)
        pooled, pooled_agent = run(pool)
        np.testing.assert_array_equal(single.curve.returns, pooled.curve.returns)
        assert single.episode_returns == pooled.episode_returns
        for name, value in single_agent.actor.parameters().items():
            np.testing.assert_array_equal(
                value, pooled_agent.actor.parameters()[name]
            )


class TestSharding:
    @pytest.mark.parametrize("devices", [1, 2, 3, 5])
    @pytest.mark.parametrize("batch", [1, 2, 7, 64, 255])
    def test_shard_widths_conserve_states(self, platform, devices, batch):
        pool = AcceleratorPool(platform, devices)
        shards = pool.shard_widths(batch)
        assert sum(width for _device, width in shards) == batch
        assert all(width > 0 for _device, width in shards)
        # Near-equal: widths differ by at most one state.
        widths = [width for _device, width in shards]
        assert max(widths) - min(widths) <= 1

    def test_sharded_report_conserves_states(self, platform):
        pool = AcceleratorPool(platform, 3)
        report = pool.infer_batch(64)
        assert report.num_states == 64
        assert len(report.rows) == 3

    def test_narrow_batch_skips_empty_shards(self, platform):
        pool = AcceleratorPool(platform, 4)
        report = pool.infer_batch(2)
        assert report.num_states == 2
        assert len(report.rows) == 2

    def test_sharded_latency_is_the_slowest_shard(self, platform):
        pool = AcceleratorPool(platform, 2)
        sharded = pool.infer_batch(64)
        half = platform.infer_batch(32)
        assert sharded.total_seconds == half.total_seconds
        assert sharded.total_seconds < platform.infer_batch(64).total_seconds

    def test_rejects_non_positive_batches(self, platform):
        pool = AcceleratorPool(platform, 2)
        with pytest.raises(ValueError, match="must be positive"):
            pool.shard_widths(0)


class TestPoolPricing:
    def test_two_device_collection_beats_one(self, platform):
        one = AcceleratorPool(platform, 1)
        two = AcceleratorPool(platform, 2)
        assert two.fleet_collection_round_seconds(
            MIXED, NUM_ENVS
        ) <= one.fleet_collection_round_seconds(MIXED, NUM_ENVS)

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_contract_fleet_scales_1_8x_from_one_to_two_devices(
        self, platform, pipelined
    ):
        """The PR's modelled scaling contract on HalfCheetah:2,Hopper:2."""
        one = AcceleratorPool(platform, 1)
        two = AcceleratorPool(platform, 2)
        base = one.fleet_training_steps_per_second(
            MIXED, NUM_ENVS, BATCH, pipelined=pipelined
        )
        scaled = two.fleet_training_steps_per_second(
            MIXED, NUM_ENVS, BATCH, pipelined=pipelined
        )
        assert scaled / base >= SCALING_CONTRACT

    def test_affinity_changes_the_price(self, platform):
        pool = AcceleratorPool(platform, 2)
        spread = pool.fleet_collection_round_seconds(
            MIXED, NUM_ENVS, assignment={"halfcheetah": 0, "hopper": 1}
        )
        piled = pool.fleet_collection_round_seconds(
            MIXED, NUM_ENVS, assignment={"halfcheetah": 0, "hopper": 0}
        )
        assert spread <= piled

    def test_unknown_affinity_key_raises(self, platform):
        pool = AcceleratorPool(platform, 2)
        with pytest.raises(ValueError, match=r"match no fleet entry.*hoper"):
            pool.fleet_collection_round_seconds(
                MIXED, NUM_ENVS, assignment={"hoper": 1}
            )

    def test_float_round_weights_rejected(self, platform):
        pool = AcceleratorPool(platform, 2)
        with pytest.raises(ValueError, match="must be integers"):
            pool.fleet_collection_round_seconds(MIXED, NUM_ENVS, weights=[1.5, 1])

    def test_fractional_worker_counts_and_widths_rejected(self, platform):
        pool = AcceleratorPool(platform, 2)
        for oracle in (pool.infer_fleet, pool.fleet_collection_steps_per_second):
            with pytest.raises(
                ValueError, match=r"worker counts must be integers.*'Hopper', 2\.5"
            ):
                oracle([("HalfCheetah", 2), ("Hopper", 2.5)], NUM_ENVS)
            with pytest.raises(
                ValueError, match=r"lock-step widths must be integers.*'Hopper', 2, 4\.5"
            ):
                oracle([("Hopper", 2, 4.5)], NUM_ENVS)

    def test_infer_fleet_groups_by_device(self, platform):
        pool = AcceleratorPool(platform, 2)
        report = pool.infer_fleet(MIXED, NUM_ENVS)
        assert [(row.device, row.benchmark) for row in report.rows] == [
            (0, "HalfCheetah"),
            (1, "Hopper"),
        ]
        single = platform.infer_fleet(MIXED, NUM_ENVS)
        assert report.num_states == single.num_states
        assert report.pcie_bytes == single.pcie_bytes


class TestPoolTraining:
    """Devices change modelled pricing only — training numerics are pinned."""

    FLEET = "HalfCheetah:2,Hopper:1"

    def _run(self, platform_hook=None, **overrides):
        config = _config(fleet=self.FLEET, schedule="weighted", **overrides)
        return train_fleet(_fleet_agents(), config, platform=platform_hook)

    def test_training_identical_across_devices(self, platform):
        single = self._run(platform)
        two = self._run(AcceleratorPool(platform, 2), devices=2)
        three = self._run(AcceleratorPool(platform, 3), devices=3)
        for benchmark in single.benchmarks:
            a = single.per_benchmark[benchmark]
            b = two.per_benchmark[benchmark]
            c = three.per_benchmark[benchmark]
            np.testing.assert_array_equal(a.curve.returns, b.curve.returns)
            np.testing.assert_array_equal(a.curve.returns, c.curve.returns)
            assert a.episode_returns == b.episode_returns == c.episode_returns

    def test_affinity_recorded_on_the_result(self, platform):
        result = self._run(AcceleratorPool(platform, 2), devices=2)
        assert result.devices == 2
        assert result.assignment == {"halfcheetah": 0, "hopper": 1}
        summary = result.summary()
        assert summary["devices"] == 2
        assert summary["assignment"] == {"halfcheetah": 0, "hopper": 1}

    def test_explicit_affinity_assignment(self, platform):
        result = self._run(
            AcceleratorPool(platform, 2),
            devices=2,
            assignment={"Hopper": 0},
        )
        assert result.assignment["hopper"] == 0

    def test_balanced_assignment(self, platform):
        result = self._run(
            AcceleratorPool(platform, 2), devices=2, assignment="balanced"
        )
        assert sorted(result.assignment.values()) == [0, 1]

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ({"typo": 1}, r"match no fleet entry: \['typo'\]"),
            ({"Hopper": 7}, "assigned to device 7"),
        ],
    )
    def test_train_validates_assignment_like_the_fleet_path(
        self, assignment, message
    ):
        """``train`` on a pool runs its one group through the same
        ``resolve_assignment(...).assign`` call as ``train_fleet``."""
        from repro.envs import HopperEnv

        pool = AcceleratorPool(FixarPlatform(WorkloadSpec.from_benchmark("Hopper")), 2)
        for num_workers in (1, 2):
            with pytest.raises(ValueError, match=message):
                train(
                    HopperEnv(seed=5, max_episode_steps=40),
                    _agent("Hopper"),
                    _config(num_workers=num_workers, devices=2, assignment=assignment),
                    platform=pool,
                )
        with pytest.raises(ValueError, match=message):
            train_fleet(
                {"Hopper": _agent("Hopper")},
                _config(fleet="Hopper:2", devices=2, assignment=assignment),
                platform=pool,
            )

    def test_config_pool_mismatches_rejected(self, platform):
        with pytest.raises(ValueError, match="multi-accelerator pool"):
            self._run(platform, devices=2)
        with pytest.raises(ValueError, match="does not match"):
            self._run(AcceleratorPool(platform, 3), devices=2)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="devices must be >= 1"):
            _config(devices=0)


class TestHomogeneousOracleSurface:
    """A homogeneous run on a pool is a one-benchmark fleet.

    The pool has no homogeneous methods of its own: ``num_workers`` workers
    of one benchmark are priced as fleet groups of that benchmark, which
    ``resolve_assignment`` deals round-robin over the collection devices.
    A 1-device colocated pool reproduces every homogeneous single-platform
    price exactly through that route.
    """

    HOMOGENEOUS = "HalfCheetah"

    def test_one_device_prices_match_the_platform_exactly(self, platform):
        pool = AcceleratorPool(platform, 1)
        for workers in (1, 2, 4):
            fleet = [(self.HOMOGENEOUS, workers)]
            assert pool.fleet_collection_round_seconds(
                fleet, NUM_ENVS
            ) == platform.collection_round_seconds(NUM_ENVS, workers)
            assert pool.fleet_collection_steps_per_second(
                fleet, NUM_ENVS
            ) == platform.collection_steps_per_second(NUM_ENVS, workers)
            assert pool.fleet_sequential_round_seconds(
                fleet, NUM_ENVS, BATCH
            ) == platform.sequential_round_seconds(NUM_ENVS, workers, BATCH)
            assert pool.fleet_pipelined_round_seconds(
                fleet, NUM_ENVS, BATCH
            ) == platform.pipelined_round_seconds(NUM_ENVS, workers, BATCH)
            for pipelined in (False, True):
                assert pool.fleet_training_steps_per_second(
                    fleet, NUM_ENVS, BATCH, pipelined=pipelined
                ) == platform.training_steps_per_second(
                    NUM_ENVS, workers, BATCH, pipelined=pipelined
                )
            assert pool.fleet_pipelined_speedup(
                fleet, NUM_ENVS, BATCH
            ) == platform.pipelined_speedup(NUM_ENVS, workers, BATCH)
        assert pool.fleet_pipelined_speedup(
            MIXED, NUM_ENVS, BATCH
        ) == platform.fleet_pipelined_speedup(MIXED, NUM_ENVS, BATCH)

    def test_one_device_infer_collection_totals_match(self, platform):
        pool = AcceleratorPool(platform, 1)
        single = platform.infer_collection(NUM_ENVS, 4)
        pooled = pool.infer_fleet([(self.HOMOGENEOUS, 4)], NUM_ENVS)
        assert isinstance(pooled, InferenceReport)
        assert len(pooled.rows) == 1
        assert pooled.num_workers == single.num_workers
        assert pooled.num_states == single.num_states
        assert pooled.total_seconds == single.total_seconds
        assert pooled.pcie_bytes == single.pcie_bytes
        assert pooled.energy_joules == single.energy_joules

    def test_worker_deal_is_round_robin_and_conserving(self, platform):
        pool = AcceleratorPool(platform, 2)
        workers = [(self.HOMOGENEOUS, 1)] * 5
        assert pool.resolve_assignment([self.HOMOGENEOUS] * 5) == [0, 1, 0, 1, 0]
        assert pool.resolve_assignment([self.HOMOGENEOUS]) == [0]
        report = pool.infer_fleet(workers, NUM_ENVS)
        assert [row.device for row in report.rows] == [0, 1, 0, 1, 0]
        assert report.num_workers == 5
        assert report.num_states == 5 * NUM_ENVS
        with pytest.raises(ValueError, match="worker counts"):
            pool.fleet_collection_round_seconds([(self.HOMOGENEOUS, 0)], NUM_ENVS)

    def test_two_devices_speed_up_a_saturated_collection_round(self, platform):
        # 8 workers saturate one accelerator (round = 8 serial inferences
        # beats the host + inference chain); dealt 4 + 4 over two devices
        # the serial bound halves, so the pool round is strictly cheaper.
        single = platform.collection_round_seconds(NUM_ENVS, 8)
        pooled = AcceleratorPool(platform, 2).fleet_collection_round_seconds(
            [(self.HOMOGENEOUS, 4), (self.HOMOGENEOUS, 4)], NUM_ENVS
        )
        assert pooled < single
        assert pooled >= single / 2

    def test_update_phases_on_different_devices_overlap(self, platform):
        # The two groups' blocking update phases run on their own devices
        # and overlap: the slowest bounds the round.
        updates = [
            platform.for_benchmark(benchmark).update_round_seconds(
                BATCH, count * NUM_ENVS
            )
            for benchmark, count in MIXED
        ]
        pool = AcceleratorPool(platform, 2)
        assert pool.fleet_sequential_round_seconds(
            MIXED, NUM_ENVS, BATCH
        ) == pool.fleet_collection_round_seconds(MIXED, NUM_ENVS) + max(updates)

    def test_sequential_round_is_collection_plus_update(self, platform):
        pool = AcceleratorPool(platform, 2)
        fleet = [(self.HOMOGENEOUS, 4)]
        assert pool.fleet_sequential_round_seconds(
            fleet, NUM_ENVS, BATCH
        ) == pool.fleet_collection_round_seconds(
            fleet, NUM_ENVS
        ) + platform.update_round_seconds(BATCH, 4 * NUM_ENVS)
