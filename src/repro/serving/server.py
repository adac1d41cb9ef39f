"""The policy server: a checkpointed actor behind the dynamic batcher.

``PolicyServer`` is the serving front end's top object: it wraps a
detached :class:`~repro.rl.workers.ActorPolicy` (never the learner's
mutable networks), prices every flush on a platform oracle re-priced
through :meth:`~repro.platform.FixarPlatform.with_precision_state` for the
actor's restored precision plan, and folds a drained flush plan into a
:class:`ServingReport` — modelled QPS, p50/p99 latency, per-request PCIe
payload, SLO attainment.  The restore path rebuilds a compatible agent
from a checkpoint alone (hidden sizes inferred from the saved actor
parameter shapes, numerics from the metadata), so a run checkpointed
mid-way through a per-layer precision schedule serves — and is priced —
with its partially-switched quantizers intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import DynamicFixedPointNumerics, make_numerics
from ..rl import (
    ActorPolicy,
    DDPGAgent,
    DDPGConfig,
    read_checkpoint,
    restore_agent,
)
from .batcher import BatchFlush, DynamicBatcher
from .load import SyntheticLoadGenerator
from .request_queue import InferenceRequest, RequestQueue

__all__ = [
    "ServingConfig",
    "ServingReport",
    "ServingResult",
    "PolicyServer",
    "restore_serving_agent",
]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving run.

    Mirrors ``TrainingConfig``'s CLI contract: every field either has a
    ``repro serve`` flag or a documented exclusion in ``cli.py``'s
    ``SERVING_FIELDS_WITHOUT_FLAGS``, statically checked by the
    ``config-cli-parity`` lint rule.
    """

    num_requests: int = 512
    qps: float = 2000.0
    slo_seconds: float = 0.02
    batch_cap: int = 8
    seed: int = 0
    devices: int = 1
    #: Flush timeout; ``None`` derives SLO minus the cap-sized service time.
    timeout_seconds: Optional[float] = None

    def __post_init__(self):
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.qps <= 0:
            raise ValueError(f"qps must be positive, got {self.qps}")
        if self.slo_seconds <= 0:
            raise ValueError(f"slo_seconds must be positive, got {self.slo_seconds}")
        if self.batch_cap < 1:
            raise ValueError(f"batch_cap must be >= 1, got {self.batch_cap}")
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise ValueError(
                f"timeout_seconds must be non-negative, got {self.timeout_seconds}"
            )


def _nearest_rank(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank quantile — deterministic, interpolation-free."""
    index = max(0, math.ceil(quantile * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


@dataclass(frozen=True)
class ServingReport:
    """Modelled outcome of one serving run, built from the flush plan.

    Pure tuples and floats, so two runs with identical inputs produce
    reports that compare equal with ``==`` — the determinism pin of the
    property suite.  Latency aggregates are derived properties of the
    flushes, never stored, so the report cannot disagree with its plan.
    """

    num_requests: int
    batch_cap: int
    slo_seconds: float
    timeout_seconds: float
    flushes: Tuple[BatchFlush, ...]

    @property
    def num_flushes(self) -> int:
        return len(self.flushes)

    @property
    def mean_batch_size(self) -> float:
        return self.num_requests / self.num_flushes

    @property
    def makespan_seconds(self) -> float:
        """Modelled time from the epoch to the last flush's completion."""
        return max(flush.completion_seconds for flush in self.flushes)

    @property
    def qps(self) -> float:
        """Modelled served throughput over the whole run."""
        return self.num_requests / self.makespan_seconds

    @property
    def latencies(self) -> Tuple[float, ...]:
        """Per-request modelled latency, in request-id (arrival) order."""
        ordered = sorted(
            (request_id, latency)
            for flush in self.flushes
            for request_id, latency in zip(flush.request_ids, flush.latencies)
        )
        return tuple(latency for _request_id, latency in ordered)

    @property
    def p50_seconds(self) -> float:
        return _nearest_rank(sorted(self.latencies), 0.50)

    @property
    def p99_seconds(self) -> float:
        return _nearest_rank(sorted(self.latencies), 0.99)

    @property
    def max_latency_seconds(self) -> float:
        return max(self.latencies)

    @property
    def pcie_bytes(self) -> int:
        """Total PCIe payload across every flush."""
        return sum(flush.pcie_bytes for flush in self.flushes)

    @property
    def pcie_bytes_per_request(self) -> float:
        """Marginal PCIe payload of one served request."""
        return self.pcie_bytes / self.num_requests

    @property
    def energy_joules(self) -> float:
        return sum(flush.energy_joules for flush in self.flushes)

    @property
    def slo_violations(self) -> int:
        return sum(1 for latency in self.latencies if latency > self.slo_seconds)

    @property
    def slo_attainment(self) -> float:
        return 1.0 - self.slo_violations / self.num_requests

    def summary(self) -> Dict[str, float]:
        """The headline numbers, as printed by ``repro serve``."""
        return {
            "qps": self.qps,
            "p50_ms": self.p50_seconds * 1e3,
            "p99_ms": self.p99_seconds * 1e3,
            "max_latency_ms": self.max_latency_seconds * 1e3,
            "mean_batch": self.mean_batch_size,
            "pcie_bytes_per_request": self.pcie_bytes_per_request,
            "slo_attainment": self.slo_attainment,
        }


@dataclass(frozen=True, eq=False)
class ServingResult:
    """A report plus the served actions (request-id order)."""

    report: ServingReport
    actions: np.ndarray


def restore_serving_agent(path: Union[str, Path]):
    """Rebuild a compatible agent from a checkpoint alone.

    ``restore_agent`` needs an already-shaped agent; the serving path
    has only the ``.npz``, so the hidden sizes are inferred from the saved
    actor weight shapes (each dense weight is ``(in_features,
    out_features)``) and the numerics from the metadata's regime name.
    Returns ``(agent, metadata)`` with the checkpoint fully restored —
    including any partially-switched per-layer quantizers.
    """
    metadata, arrays = read_checkpoint(path)
    weight_keys = sorted(
        (
            key
            for key in arrays
            if key.startswith("actor::") and key.endswith(".weight")
        ),
        key=lambda key: int(key.split("::", 1)[1].split(".", 1)[0]),
    )
    hidden_sizes = tuple(int(arrays[key].shape[1]) for key in weight_keys[:-1])
    regime = metadata["numerics"]["name"]
    num_bits = int(metadata["numerics"].get("num_bits") or 16)
    numerics = make_numerics(regime, num_bits=num_bits)
    state_dim = int(metadata["state_dim"])
    action_dim = int(metadata["action_dim"])
    agent = DDPGAgent(
        state_dim,
        action_dim,
        DDPGConfig(hidden_sizes=hidden_sizes),
        numerics=numerics,
        rng=np.random.default_rng(0),  # init values are overwritten by the load
    )
    restore_agent(agent, metadata, arrays)
    return agent, metadata


def _precision_state(numerics) -> Optional[Dict]:
    """The platform-prices precision state of an agent's numerics.

    Dynamic regimes expose their resolved per-layer profile; static
    fixed-point regimes collapse to a uniform state at their activation
    width (fixed16 serves with the half-precision PCIe payload).  Float
    numerics price as the legacy full-precision platform.
    """
    if isinstance(numerics, DynamicFixedPointNumerics):
        return numerics.precision_profile()
    bits = numerics.describe().get("activation_bits")
    if bits is None:
        return None
    return {"default": int(bits), "layers": {}}


class PolicyServer:
    """Serves a detached actor through the dynamic batcher, priced end to end.

    ``platform`` may be a single :class:`~repro.platform.FixarPlatform` or
    an :class:`~repro.platform.AcceleratorPool` — the batcher only touches
    the shared oracle surface, so a pool shards each flush over its
    collection devices with state-count conservation.
    """

    def __init__(self, policy: ActorPolicy, platform, config: ServingConfig):
        self.policy = policy
        self.platform = platform
        self.config = config
        self.batcher = DynamicBatcher(
            platform,
            batch_cap=config.batch_cap,
            slo_seconds=config.slo_seconds,
            timeout_seconds=config.timeout_seconds,
        )

    @classmethod
    def from_agent(
        cls, agent, platform, config: ServingConfig, rng_seed: int = 0
    ) -> "PolicyServer":
        """Wrap an agent's actor replica, re-pricing for its precision state."""
        state = _precision_state(agent.numerics)
        if state is not None:
            platform = platform.with_precision_state(state)
        policy = ActorPolicy.from_agent(
            agent, rng=np.random.default_rng(rng_seed)
        )
        return cls(policy, platform, config)

    @classmethod
    def from_checkpoint(
        cls, path: Union[str, Path], platform, config: ServingConfig
    ) -> "PolicyServer":
        """Restore a checkpointed actor straight into a server."""
        agent, _metadata = restore_serving_agent(path)
        return cls.from_agent(agent, platform, config)

    def serve(self, requests: Sequence[InferenceRequest]) -> ServingResult:
        """Serve a request trace through the queue and batcher.

        Requests flow through a fresh :class:`RequestQueue` (arrival
        order), the batcher drains it into priced flushes, and each
        flush's states take one batched actor forward.  Actions come back
        in request-id order.
        """
        requests = list(requests)
        if not requests:
            raise ValueError("serve() needs at least one request")
        queue = RequestQueue()
        queue.enqueue_many(requests)
        flushes: List[BatchFlush] = []
        chunks: List[np.ndarray] = []
        order: List[int] = []
        for batch, flush in self.batcher.drain(queue):
            states = np.stack([request.state for request in batch])
            chunks.append(self.policy.act_batch(states))
            order.extend(request.request_id for request in batch)
            flushes.append(flush)
        actions = np.concatenate(chunks, axis=0)
        ranks = np.argsort(np.asarray(order), kind="stable")
        report = ServingReport(
            num_requests=len(requests),
            batch_cap=self.config.batch_cap,
            slo_seconds=self.config.slo_seconds,
            timeout_seconds=self.batcher.timeout_seconds,
            flushes=tuple(flushes),
        )
        return ServingResult(report=report, actions=actions[ranks])

    def serve_load(
        self, load: SyntheticLoadGenerator, num_requests: Optional[int] = None
    ) -> ServingResult:
        """Generate a seeded trace and serve it."""
        count = self.config.num_requests if num_requests is None else num_requests
        return self.serve(load.generate(count))
