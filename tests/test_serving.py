"""Property tests for the policy-serving front end (``repro.serving``).

The serving subsystem is built determinism-first, so these tests pin exact
equivalences, not just smoke: request conservation through the queue and
batcher, the batch cap and SLO bounds, ``batch_cap=1`` bit-exactness with
a sequential ``infer_batch(1)`` loop, pool-sharded state-count
conservation, seeded load-generator determinism, and the checkpoint→server
round trip for a partially precision-switched actor.

Part of the CI smoke set; select alone with ``pytest -m serving``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import make_numerics
from repro.platform import AcceleratorPool, FixarPlatform, WorkloadSpec
from repro.rl import ActorPolicy, DDPGAgent, DDPGConfig, save_agent
from repro.serving import (
    DynamicBatcher,
    InferenceRequest,
    PolicyServer,
    RequestQueue,
    ServingConfig,
    ServingReport,
    SyntheticLoadGenerator,
    restore_serving_agent,
)

pytestmark = [pytest.mark.smoke, pytest.mark.serving]

STATE_DIM = 17
ACTION_DIM = 6
HIDDEN = (32, 24)


def _platform(hidden=HIDDEN) -> FixarPlatform:
    return FixarPlatform(
        WorkloadSpec.from_benchmark("HalfCheetah", hidden_sizes=hidden)
    )


def _agent(rng, regime="float32", hidden=HIDDEN) -> DDPGAgent:
    return DDPGAgent(
        STATE_DIM,
        ACTION_DIM,
        DDPGConfig(hidden_sizes=hidden),
        numerics=make_numerics(regime),
        rng=rng,
    )


def _requests(arrivals, state_dim=STATE_DIM):
    """Hand-built requests at explicit modelled arrival times."""
    rng = np.random.default_rng(7)
    return [
        InferenceRequest(
            request_id=index,
            state=rng.standard_normal(state_dim),
            arrival_seconds=float(arrival),
        )
        for index, arrival in enumerate(arrivals)
    ]


# --------------------------------------------------------------------- #
# RequestQueue
# --------------------------------------------------------------------- #
class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue()
        requests = _requests([0.0, 0.1, 0.2])
        for request in requests:
            queue.enqueue(request)
        popped = queue.pop_batch(3)
        assert [r.request_id for r in popped] == [0, 1, 2]

    def test_len_tracks_enqueue_and_pop(self):
        queue = RequestQueue()
        queue.enqueue_many(_requests([0.0, 0.1, 0.2, 0.3]))
        assert len(queue) == 4
        queue.pop_batch(3)
        assert len(queue) == 1

    def test_pop_batch_bounded_by_max_size(self):
        queue = RequestQueue()
        queue.enqueue_many(_requests(np.linspace(0, 1, 10)))
        assert len(queue.pop_batch(4)) == 4

    def test_pop_batch_on_empty_queue_returns_empty(self):
        assert RequestQueue().pop_batch(5) == []

    def test_pop_batch_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RequestQueue().pop_batch(0)

    def test_peek_does_not_remove(self):
        queue = RequestQueue()
        queue.enqueue_many(_requests([0.0, 0.1]))
        assert queue.peek().request_id == 0
        assert len(queue) == 2

    def test_peek_empty_returns_none(self):
        assert RequestQueue().peek() is None

    def test_conservation_counters(self):
        queue = RequestQueue()
        assert queue.enqueue_many(_requests(np.linspace(0, 1, 6))) == 6
        queue.pop_batch(4)
        queue.pop_batch(4)
        assert queue.enqueued_total == 6
        assert queue.popped_total == 6
        assert len(queue) == 0

    def test_concurrent_enqueue_while_flushing(self):
        """Threaded producers vs a popping consumer: every request popped
        exactly once, none lost, none duplicated — the ReplayBuffer-style
        lock-discipline guarantee for the serving queue."""
        queue = RequestQueue()
        per_producer = 500
        num_producers = 3
        errors = []
        seen = []
        stop = threading.Event()

        def producer(base):
            try:
                for index in range(per_producer):
                    queue.enqueue(
                        InferenceRequest(
                            request_id=base + index,
                            state=np.zeros(1),
                            arrival_seconds=0.0,
                        )
                    )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def consumer():
            try:
                while not stop.is_set() or len(queue):
                    for request in queue.pop_batch(16) or []:
                        seen.append(request.request_id)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        producers = [
            threading.Thread(target=producer, args=(rank * per_producer,))
            for rank in range(num_producers)
        ]
        drain = threading.Thread(target=consumer)
        drain.start()
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join(timeout=60)
        stop.set()
        drain.join(timeout=60)
        assert not errors
        assert not drain.is_alive()
        expected = num_producers * per_producer
        assert queue.enqueued_total == expected
        assert queue.popped_total == expected
        assert sorted(seen) == list(range(expected))  # exactly once each


# --------------------------------------------------------------------- #
# SyntheticLoadGenerator
# --------------------------------------------------------------------- #
class TestSyntheticLoad:
    def test_same_seed_identical_trace(self):
        a = SyntheticLoadGenerator(STATE_DIM, qps=1000.0, seed=5).generate(64)
        b = SyntheticLoadGenerator(STATE_DIM, qps=1000.0, seed=5).generate(64)
        assert [r.arrival_seconds for r in a] == [r.arrival_seconds for r in b]
        np.testing.assert_array_equal(
            np.stack([r.state for r in a]), np.stack([r.state for r in b])
        )

    def test_different_seeds_distinct_traces(self):
        a = SyntheticLoadGenerator(STATE_DIM, qps=1000.0, seed=5).generate(64)
        b = SyntheticLoadGenerator(STATE_DIM, qps=1000.0, seed=6).generate(64)
        assert [r.arrival_seconds for r in a] != [r.arrival_seconds for r in b]

    def test_arrivals_sorted_and_positive(self):
        trace = SyntheticLoadGenerator(STATE_DIM, qps=500.0, seed=0).generate(128)
        arrivals = [r.arrival_seconds for r in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_request_ids_are_arrival_ranks(self):
        trace = SyntheticLoadGenerator(STATE_DIM, qps=500.0, seed=0).generate(32)
        assert [r.request_id for r in trace] == list(range(32))

    def test_mean_rate_tracks_qps(self):
        qps = 2000.0
        trace = SyntheticLoadGenerator(STATE_DIM, qps=qps, seed=1).generate(4096)
        empirical = len(trace) / trace[-1].arrival_seconds
        assert empirical == pytest.approx(qps, rel=0.1)

    def test_state_shape_matches_state_dim(self):
        trace = SyntheticLoadGenerator(11, qps=100.0, seed=0).generate(4)
        assert all(r.state.shape == (11,) for r in trace)

    def test_fill_enqueues_the_trace(self):
        queue = RequestQueue()
        load = SyntheticLoadGenerator(STATE_DIM, qps=100.0, seed=0)
        requests = load.fill(queue, 12)
        assert len(queue) == 12 == len(requests)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SyntheticLoadGenerator(0, qps=1.0)
        with pytest.raises(ValueError):
            SyntheticLoadGenerator(STATE_DIM, qps=0.0)
        with pytest.raises(ValueError):
            SyntheticLoadGenerator(STATE_DIM, qps=1.0).generate(0)


# --------------------------------------------------------------------- #
# DynamicBatcher invariants
# --------------------------------------------------------------------- #
class TestDynamicBatcher:
    def _plan(self, arrivals, batch_cap=4, slo=0.05, timeout=None, platform=None):
        platform = platform or _platform()
        queue = RequestQueue()
        queue.enqueue_many(_requests(arrivals))
        batcher = DynamicBatcher(
            platform, batch_cap=batch_cap, slo_seconds=slo, timeout_seconds=timeout
        )
        return batcher.plan(queue), batcher

    def test_every_request_served_exactly_once(self):
        arrivals = np.cumsum(np.full(37, 1e-3))
        plan, _ = self._plan(arrivals, batch_cap=5)
        served = [rid for flush in plan for rid in flush.request_ids]
        assert sorted(served) == list(range(37))

    def test_fifo_within_and_across_flushes(self):
        arrivals = np.cumsum(np.full(24, 5e-4))
        plan, _ = self._plan(arrivals, batch_cap=6)
        served = [rid for flush in plan for rid in flush.request_ids]
        assert served == sorted(served)  # queue order is arrival order

    def test_batch_cap_never_exceeded(self):
        arrivals = np.cumsum(np.full(100, 1e-5))  # dense burst
        plan, _ = self._plan(arrivals, batch_cap=8)
        assert max(flush.batch_size for flush in plan) <= 8

    def test_slo_respected_by_every_request(self):
        """Offered load well under the cap's capacity: every modelled
        latency sits inside the SLO (the derived-timeout guarantee)."""
        load = SyntheticLoadGenerator(STATE_DIM, qps=1500.0, seed=9)
        queue = RequestQueue()
        queue.enqueue_many(load.generate(512))
        batcher = DynamicBatcher(_platform(), batch_cap=8, slo_seconds=0.02)
        plan = batcher.plan(queue)
        worst = max(latency for flush in plan for latency in flush.latencies)
        assert worst <= 0.02

    def test_derived_timeout_is_slo_minus_cap_service(self):
        platform = _platform()
        batcher = DynamicBatcher(platform, batch_cap=8, slo_seconds=0.02)
        expected = 0.02 - platform.serving_round_seconds(8)
        assert batcher.timeout_seconds == expected

    def test_burst_of_cap_flushes_immediately(self):
        """cap simultaneous arrivals: one full flush at the arrival time,
        latency exactly the flush's service time."""
        platform = _platform()
        plan, _ = self._plan([1e-3] * 4, batch_cap=4, platform=platform)
        assert len(plan) == 1
        flush = plan[0]
        assert flush.flush_seconds == pytest.approx(1e-3)
        service = platform.serving_round_seconds(4)
        assert all(latency == pytest.approx(service) for latency in flush.latencies)

    def test_sparse_arrivals_flush_singletons_at_timeout(self):
        """Gaps longer than the timeout: every flush is a timeout flush of
        one request, at arrival + timeout."""
        plan, batcher = self._plan([0.0, 1.0, 2.0], batch_cap=4, slo=0.05)
        assert [flush.batch_size for flush in plan] == [1, 1, 1]
        for flush in plan:
            assert flush.flush_seconds == pytest.approx(
                flush.arrival_seconds[0] + batcher.timeout_seconds
            )

    def test_zero_timeout_flushes_waiting_requests_only(self):
        """timeout 0: a flush takes exactly the requests already waiting."""
        arrivals = [1e-3, 1e-3, 1e-3, 5.0]
        plan, _ = self._plan(arrivals, batch_cap=8, timeout=0.0)
        assert [flush.batch_size for flush in plan] == [3, 1]

    def test_backlog_drains_in_cap_sized_flushes(self):
        """A burst far beyond the cap drains as consecutive full flushes,
        each starting when the previous completes."""
        plan, _ = self._plan([1e-3] * 12, batch_cap=4)
        assert [flush.batch_size for flush in plan] == [4, 4, 4]
        for previous, flush in zip(plan, plan[1:]):
            assert flush.flush_seconds == pytest.approx(
                previous.completion_seconds
            )

    def test_cap_one_bit_exact_with_sequential_infer_batch_loop(self):
        """batch_cap=1 reduces to a sequential infer_batch(1) loop:
        identical flush times, completions, and latencies, bitwise."""
        platform = _platform()
        load = SyntheticLoadGenerator(STATE_DIM, qps=400.0, seed=3)
        requests = load.generate(64)
        queue = RequestQueue()
        queue.enqueue_many(requests)
        plan = DynamicBatcher(platform, batch_cap=1, slo_seconds=0.05).plan(queue)

        service = platform.infer_batch(1).total_seconds
        free_at = 0.0
        for request, flush in zip(requests, plan):
            start = max(free_at, request.arrival_seconds)
            completion = start + service
            assert flush.request_ids == (request.request_id,)
            assert flush.flush_seconds == start  # bit-exact, not approx
            assert flush.service_seconds == service
            assert flush.completion_seconds == completion
            free_at = completion

    def test_flush_pricing_matches_infer_batch(self):
        platform = _platform()
        plan, _ = self._plan([1e-3] * 6, batch_cap=6, platform=platform)
        report = platform.infer_batch(6)
        assert plan[0].pcie_bytes == report.pcie_bytes
        assert plan[0].energy_joules == report.energy_joules
        assert plan[0].service_seconds == report.total_seconds

    def test_invalid_parameters_rejected(self):
        platform = _platform()
        with pytest.raises(ValueError):
            DynamicBatcher(platform, batch_cap=0, slo_seconds=0.02)
        with pytest.raises(ValueError):
            DynamicBatcher(platform, batch_cap=1, slo_seconds=0.0)
        with pytest.raises(ValueError):
            DynamicBatcher(
                platform, batch_cap=1, slo_seconds=0.02, timeout_seconds=-1.0
            )


# --------------------------------------------------------------------- #
# Platform serving oracle
# --------------------------------------------------------------------- #
class TestServingOracle:
    def test_platform_serving_round_is_infer_batch_latency(self):
        platform = _platform()
        for batch in (1, 4, 32):
            assert (
                platform.serving_round_seconds(batch)
                == platform.infer_batch(batch).total_seconds
            )

    def test_pool_serving_round_is_sharded_latency(self):
        pool = AcceleratorPool(_platform(), 3)
        assert (
            pool.serving_round_seconds(10)
            == pool.infer_batch(10).total_seconds
        )

    def test_one_device_pool_prices_like_the_platform(self):
        platform = _platform()
        pool = AcceleratorPool(platform, 1)
        for batch in (1, 8, 64):
            assert pool.serving_round_seconds(batch) == platform.serving_round_seconds(batch)

    def test_half_precision_state_halves_serving_payload(self):
        full = _platform()
        half = full.with_precision_state({"default": 16, "layers": {}})
        for batch in (1, 8):
            assert (
                half.infer_batch(batch).pcie_bytes
                == full.infer_batch(batch).pcie_bytes / 2
            )


# --------------------------------------------------------------------- #
# PolicyServer
# --------------------------------------------------------------------- #
class TestPolicyServer:
    CONFIG = ServingConfig(
        num_requests=96, qps=1500.0, slo_seconds=0.02, batch_cap=8, seed=3
    )

    def _server(self, rng, platform=None, config=None):
        agent = _agent(rng)
        return (
            PolicyServer.from_agent(
                agent, platform or _platform(), config or self.CONFIG
            ),
            agent,
        )

    def test_served_actions_match_direct_actor_policy(self, rng):
        server, agent = self._server(rng)
        requests = SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3).generate(96)
        result = server.serve(requests)
        states = np.stack([r.state for r in requests])
        expected = ActorPolicy.from_agent(agent).act_batch(states)
        np.testing.assert_array_equal(result.actions, expected)

    def test_report_conserves_requests(self, rng):
        server, _ = self._server(rng)
        result = server.serve_load(SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3))
        report = result.report
        assert report.num_requests == 96
        assert sum(f.batch_size for f in report.flushes) == 96
        assert len(report.latencies) == 96

    def test_report_headline_numbers(self, rng):
        server, _ = self._server(rng)
        report = server.serve_load(
            SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3)
        ).report
        assert report.qps > 0
        assert report.p50_seconds <= report.p99_seconds <= report.max_latency_seconds
        assert report.p99_seconds <= report.slo_seconds
        assert report.slo_attainment == 1.0
        per_request = report.pcie_bytes / report.num_requests
        assert report.pcie_bytes_per_request == per_request

    def test_same_seed_identical_serving_report(self, rng):
        server, _ = self._server(rng)
        first = server.serve_load(SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3))
        second = server.serve_load(SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3))
        assert first.report == second.report  # exact dataclass equality
        np.testing.assert_array_equal(first.actions, second.actions)

    def test_different_seed_different_report(self, rng):
        server, _ = self._server(rng)
        first = server.serve_load(SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3))
        second = server.serve_load(SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=4))
        assert first.report != second.report

    def test_cap_one_server_matches_sequential_loop_reference(self, rng):
        """End-to-end batch_cap=1 equivalence at the server level: the
        report's latencies equal the sequential infer_batch(1) recurrence."""
        config = ServingConfig(
            num_requests=48, qps=400.0, slo_seconds=0.05, batch_cap=1, seed=5
        )
        server, _ = self._server(rng, config=config)
        requests = SyntheticLoadGenerator(STATE_DIM, 400.0, seed=5).generate(48)
        report = server.serve(requests).report

        platform = _platform()
        service = platform.infer_batch(1).total_seconds
        free_at = 0.0
        expected = []
        for request in requests:
            completion = max(free_at, request.arrival_seconds) + service
            expected.append(completion - request.arrival_seconds)
            free_at = completion
        assert list(report.latencies) == expected

    def test_empty_request_list_rejected(self, rng):
        server, _ = self._server(rng)
        with pytest.raises(ValueError):
            server.serve([])

    def test_serving_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(num_requests=0)
        with pytest.raises(ValueError):
            ServingConfig(qps=-1.0)
        with pytest.raises(ValueError):
            ServingConfig(slo_seconds=0.0)
        with pytest.raises(ValueError):
            ServingConfig(batch_cap=0)
        with pytest.raises(ValueError):
            ServingConfig(timeout_seconds=-0.1)


# --------------------------------------------------------------------- #
# Pool-sharded serving
# --------------------------------------------------------------------- #
class TestPoolServing:
    def test_sharded_flush_conserves_state_counts(self):
        pool = AcceleratorPool(_platform(), 3)
        for batch in (1, 5, 8, 17):
            report = pool.infer_batch(batch)
            assert report.num_states == batch
            assert sum(shard.num_states for shard in report.rows) == batch

    def test_pool_server_actions_match_single_platform(self, rng):
        agent = _agent(rng)
        config = ServingConfig(
            num_requests=64, qps=1500.0, slo_seconds=0.02, batch_cap=8, seed=3
        )
        load = SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3)
        single = PolicyServer.from_agent(agent, _platform(), config)
        pooled = PolicyServer.from_agent(
            agent, AcceleratorPool(_platform(), 2), config
        )
        np.testing.assert_array_equal(
            single.serve_load(load).actions, pooled.serve_load(load).actions
        )

    def test_one_device_pool_report_is_bit_exact_with_platform(self, rng):
        agent = _agent(rng)
        config = ServingConfig(
            num_requests=64, qps=1500.0, slo_seconds=0.02, batch_cap=8, seed=3
        )
        load = SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3)
        single = PolicyServer.from_agent(agent, _platform(), config)
        pooled = PolicyServer.from_agent(
            agent, AcceleratorPool(_platform(), 1), config
        )
        assert single.serve_load(load).report == pooled.serve_load(load).report

    def test_pool_serving_conserves_requests(self, rng):
        agent = _agent(rng)
        config = ServingConfig(
            num_requests=80, qps=1500.0, slo_seconds=0.02, batch_cap=8, seed=3
        )
        server = PolicyServer.from_agent(
            agent, AcceleratorPool(_platform(), 3), config
        )
        report = server.serve_load(
            SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3)
        ).report
        served = sorted(
            rid for flush in report.flushes for rid in flush.request_ids
        )
        assert served == list(range(80))


# --------------------------------------------------------------------- #
# Checkpoint → server round trip
# --------------------------------------------------------------------- #
class TestCheckpointRoundTrip:
    def _partially_switched_agent(self, rng):
        """A fixar-dynamic agent mid-way through a per-layer precision
        schedule: actor layers frozen at 16 bits, critic still tracking."""
        from repro.rl import PerLayerSchedulePolicy

        agent = _agent(rng, regime="fixar-dynamic")
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
        return agent

    def test_restore_rebuilds_a_compatible_agent(self, rng, tmp_path):
        agent = _agent(rng, hidden=(12, 8))
        path = save_agent(agent, tmp_path / "actor.npz")
        restored, metadata = restore_serving_agent(path)
        assert metadata["agent_class"] == "DDPGAgent"
        assert tuple(restored.config.hidden_sizes) == (12, 8)
        state = rng.normal(size=STATE_DIM)
        np.testing.assert_array_equal(agent.act(state), restored.act(state))

    @pytest.mark.parametrize("regime", ["float32", "fixed32", "fixed16", "fixar-dynamic"])
    def test_restore_rebuilds_the_saved_regime(self, rng, tmp_path, regime):
        """One construction path serves a checkpoint of every regime."""
        agent = _agent(rng, regime=regime)
        path = save_agent(agent, tmp_path / f"{regime}.npz")
        restored, _ = restore_serving_agent(path)
        assert type(restored) is DDPGAgent
        assert restored.numerics.describe() == agent.numerics.describe()
        states = rng.normal(size=(4, STATE_DIM))
        np.testing.assert_array_equal(agent.act_batch(states), restored.act_batch(states))

    def test_restore_refuses_a_checkpoint_of_another_learner(self, checkpoints):
        with pytest.raises(ValueError, match="not a DDPGAgent"):
            restore_serving_agent(checkpoints["foreign-agent-class"])

    def test_mid_switch_checkpoint_serves_bit_exact_actions(self, rng, tmp_path):
        agent = self._partially_switched_agent(rng)
        path = save_agent(agent, tmp_path / "mid_switch.npz")
        config = ServingConfig(
            num_requests=48, qps=1500.0, slo_seconds=0.02, batch_cap=8, seed=3
        )
        server = PolicyServer.from_checkpoint(path, _platform(), config)
        requests = SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3).generate(48)
        result = server.serve(requests)
        states = np.stack([r.state for r in requests])
        expected = ActorPolicy.from_agent(agent).act_batch(states)
        np.testing.assert_array_equal(result.actions, expected)  # ==-exact

    def test_restored_precision_state_prices_the_server(self, rng, tmp_path):
        """The server's platform is re-priced through the restored
        partially-switched plan: mixed per-layer payload width, strictly
        between the uniform full- and half-precision extremes."""
        agent = self._partially_switched_agent(rng)
        path = save_agent(agent, tmp_path / "mid_switch.npz")
        config = ServingConfig(num_requests=8, batch_cap=8, seed=0)
        server = PolicyServer.from_checkpoint(path, _platform(), config)
        restored_profile = server.policy.actor.numerics.precision_profile()
        assert restored_profile == agent.numerics.precision_profile()
        width = server.platform.transfer_bytes_per_value
        assert 2 < width < 4
        expected = _platform().with_precision_state(
            agent.numerics.precision_profile()
        )
        assert width == expected.transfer_bytes_per_value

    def test_mid_switch_restore_is_quantizer_exact(self, rng, tmp_path):
        agent = self._partially_switched_agent(rng)
        path = save_agent(agent, tmp_path / "mid_switch.npz")
        restored, _ = restore_serving_agent(path)
        for layer in ("actor_fc0", "actor_out"):
            original = agent.numerics.layer_quantizers[layer]
            roundtripped = restored.numerics.layer_quantizers[layer]
            assert roundtripped.delta == original.delta
            assert roundtripped.zero_point == original.zero_point
        samples = np.linspace(-1.5, 2.5, 64)
        np.testing.assert_array_equal(
            restored.numerics.project_activation(samples, layer="actor_fc0"),
            agent.numerics.project_activation(samples, layer="actor_fc0"),
        )

    def test_fixed16_checkpoint_serves_at_half_payload(self, rng, tmp_path):
        full_agent = _agent(rng, regime="float32")
        half_agent = _agent(np.random.default_rng(2), regime="fixed16")
        config = ServingConfig(num_requests=8, batch_cap=8, seed=0)
        full_path = save_agent(full_agent, tmp_path / "full.npz")
        half_path = save_agent(half_agent, tmp_path / "half.npz")
        full = PolicyServer.from_checkpoint(full_path, _platform(), config)
        half = PolicyServer.from_checkpoint(half_path, _platform(), config)
        load = SyntheticLoadGenerator(STATE_DIM, 1500.0, seed=3)
        ratio = (
            half.serve_load(load).report.pcie_bytes_per_request
            / full.serve_load(load).report.pcie_bytes_per_request
        )
        assert ratio == 0.5
