"""The round-pricing kernel: every collection/training round price, once.

A round is priced over a *resolved fleet* — one :class:`Entry` per group of
collector workers: the sibling platform carrying the group's layer
dimensions, its worker count, lock-step width, lock-steps per scheduled
round, and the device that serves its rollout inferences — on a *topology*:
the devices serving rollout inferences and, each for its own groups, the
update streams.
:class:`~repro.platform.FixarPlatform` is the topology ``(0,)`` and
a homogeneous ``num_workers x num_envs`` run is its one-entry fleet;
:class:`~repro.platform.AcceleratorPool` supplies more devices.  Both
classes only resolve their arguments into a :class:`Round` and delegate.

Accumulation order is part of the contract, because every modelled figure
is compared to the last bit: per-device sums run serially in entry order
from zero; devices then combine by ``max`` (latencies — devices run in
parallel) or by a serial sum in device order (payload, energy); and the
pipelined round keeps the update-stream sum and the rollout-inference
contention sum as separate accumulators, added once per device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

if TYPE_CHECKING:
    from .fixar_platform import BatchInferenceReport, FixarPlatform

__all__ = ["Entry", "Round", "InferenceRow", "InferenceReport"]


class Entry(NamedTuple):
    """One fleet group, resolved for pricing."""

    #: Sibling platform priced under the group's workload.
    platform: "FixarPlatform"
    #: Workers in the group.
    count: int
    #: Lock-step width (environments per worker).
    width: int
    #: Lock-steps the group runs per scheduled round.
    weight: int = 1
    #: Collection device serving the group's rollout inferences.
    device: int = 0
    #: Learner updates per round; ``None`` is one per collected step.
    updates: Optional[int] = None

    @property
    def batches(self) -> int:
        """Batched inferences the group presents per round."""
        return self.count * self.weight

    @property
    def steps(self) -> int:
        """Environment steps the group collects per round."""
        return self.count * self.weight * self.width


@dataclass(frozen=True)
class InferenceRow:
    """One group's (or one shard's) slice of an inference round.

    ``per_worker`` prices one batched inference; the row's device serves
    ``num_workers`` of them back to back, ``weight`` times per round.
    """

    device: int
    benchmark: str
    num_workers: int
    weight: int
    per_worker: "BatchInferenceReport"

    def _per_round(self, value):
        return self.weight * (self.num_workers * value)

    @property
    def num_states(self) -> int:
        return self._per_round(self.per_worker.num_states)

    @property
    def fpga_seconds(self) -> float:
        return self._per_round(self.per_worker.fpga_seconds)

    @property
    def runtime_seconds(self) -> float:
        return self._per_round(self.per_worker.runtime_seconds)

    @property
    def total_seconds(self) -> float:
        return self._per_round(self.per_worker.total_seconds)

    @property
    def pcie_bytes(self) -> float:
        return self._per_round(self.per_worker.pcie_bytes)

    @property
    def energy_joules(self) -> float:
        return self._per_round(self.per_worker.energy_joules)


@dataclass(frozen=True)
class InferenceReport:
    """Inference cost of one round: a fleet's groups or a batch's shards.

    Each device serves its rows serially and the devices run in parallel,
    so latencies are the slowest device's serial sum while state counts,
    payload and energy are totals.  One row reduces every accessor to its
    :class:`~repro.platform.BatchInferenceReport` scaled by workers and
    weight; one device reduces every latency to the plain serial sum.
    """

    #: Rows in fleet (or shard) order.
    rows: Tuple[InferenceRow, ...]

    def _per_device(self, field: str) -> List:
        sums: Dict[int, float] = {}
        for row in self.rows:
            sums[row.device] = sums.get(row.device, 0) + getattr(row, field)
        return [sums[device] for device in sorted(sums)]

    def _across_devices(self, field: str):
        total = 0  # explicit loop: sum() compensates floats on Python 3.12+
        for value in self._per_device(field):
            total += value
        return total

    @property
    def num_workers(self) -> int:
        """Workers across the round (independent of round weights)."""
        return sum(row.num_workers for row in self.rows)

    @property
    def num_states(self) -> int:
        """States inferred per round."""
        return sum(row.num_states for row in self.rows)

    @property
    def fpga_seconds(self) -> float:
        """FPGA time of the slowest device."""
        return max(self._per_device("fpga_seconds"))

    @property
    def runtime_seconds(self) -> float:
        """Runtime/PCIe time of the slowest device."""
        return max(self._per_device("runtime_seconds"))

    @property
    def total_seconds(self) -> float:
        """End-to-end latency of the round (slowest device)."""
        return max(self._per_device("total_seconds"))

    @property
    def pcie_bytes(self) -> float:
        """Bytes crossing PCIe per round, across devices (fractional under
        a mixed per-layer precision plan)."""
        return self._across_devices("pcie_bytes")

    @property
    def energy_joules(self) -> float:
        """FPGA board energy per round, across devices."""
        return self._across_devices("energy_joules")

    @property
    def states_per_second(self) -> float:
        """Inference throughput of the round."""
        return self.num_states / self.total_seconds


@dataclass(frozen=True)
class Round:
    """One scheduled round of a resolved fleet on a device topology."""

    entries: Tuple[Entry, ...]
    #: Devices that serve rollout inferences.
    collection_devices: Tuple[int, ...] = (0,)

    @property
    def steps(self) -> int:
        """Environment steps collected per round."""
        return sum(entry.steps for entry in self.entries)

    def inference_report(self) -> InferenceReport:
        """The round's rollout inferences, one row per entry."""
        return InferenceReport(
            rows=tuple(
                InferenceRow(
                    device=entry.device,
                    benchmark=entry.platform.workload.benchmark,
                    num_workers=entry.count,
                    weight=entry.weight,
                    per_worker=entry.platform.infer_batch(entry.width),
                )
                for entry in self.entries
            )
        )

    def collection_seconds(self) -> float:
        """Steady-state time of one collection round.

        Every worker alternates its host phase (stepping ``width``
        environments on its own core) with its batched inference, so no
        worker cycles faster than its ``host + inference`` chain, stretched
        by the group's round weight.  The workers pipeline against each
        other, but each device serves its groups' batches back to back.
        The round is whichever bound saturates first: the slowest chain or
        the busiest device.
        """
        chains = []
        busy = dict.fromkeys(self.collection_devices, 0.0)
        for entry in self.entries:
            platform = entry.platform
            inference = platform.infer_batch(entry.width).total_seconds
            host = platform.host.collection_step_seconds(
                platform.workload.benchmark, entry.width
            )
            chains.append(entry.weight * (host + inference))
            busy[entry.device] += entry.batches * inference
        return max(max(chains), max(busy.values()))

    def collection_steps_per_second(self) -> float:
        """Collection throughput (environment steps/sec)."""
        return self.steps / self.collection_seconds()

    def _update_streams(self, batch_size: int, pipelined: bool) -> Dict[int, float]:
        """Per-device update-phase seconds.

        Each group's learner streams to the group's collection device, so
        streams on different devices overlap.
        """
        streams = dict.fromkeys(self.collection_devices, 0.0)
        for entry in self.entries:
            updates = entry.steps if entry.updates is None else entry.updates
            streams[entry.device] += entry.platform.update_round_seconds(
                batch_size, updates, pipelined=pipelined
            )
        return streams

    def sequential_seconds(self, batch_size: int) -> float:
        """Collection *then* blocking updates: the phases alternate, so the
        round is their sum (update phases on different devices overlap)."""
        collection = self.collection_seconds()
        return collection + max(self._update_streams(batch_size, False).values())

    def pipelined_seconds(self, batch_size: int) -> float:
        """Update streams overlap collection: ``max(collection, update)``.

        A device serves both sides, so its groups' rollout inference FPGA
        time joins its update stream.
        """
        collection = self.collection_seconds()
        streams = self._update_streams(batch_size, True)
        contention = dict.fromkeys(self.collection_devices, 0.0)
        for entry in self.entries:
            contention[entry.device] += (
                entry.batches * entry.platform.infer_batch(entry.width).fpga_seconds
            )
        return max(
            collection,
            max(streams[device] + contention[device] for device in streams),
        )

    def training_steps_per_second(self, batch_size: int, pipelined: bool) -> float:
        """End-to-end training throughput (environment steps/sec)."""
        seconds = (
            self.pipelined_seconds(batch_size)
            if pipelined
            else self.sequential_seconds(batch_size)
        )
        return self.steps / seconds

    def pipelined_speedup(self, batch_size: int) -> float:
        """Steps/sec of the pipelined schedule over the sequential one."""
        return self.training_steps_per_second(
            batch_size, True
        ) / self.training_steps_per_second(batch_size, False)
