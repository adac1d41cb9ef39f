"""Multi-accelerator device pools: N FIXAR accelerators behind one seam.

An :class:`AcceleratorPool` holds ``num_devices`` identical
:class:`~repro.platform.FixarPlatform` devices and exposes the pricing
joints the training and serving stacks are duck-typed against
(``infer_batch`` / ``serving_round_seconds``, ``infer_fleet``, the
``fleet_*`` oracles and ``with_precision_state``), so the rollout engine
and the round scheduler never learn about devices.  The pool prices
nothing itself: it resolves *which device serves which group* and hands
the round to the kernel in :mod:`repro.platform.rounds` under its own
topology — the single platform is the same kernel's one-device case, so a
1-device pool is bit-exact with it by construction.

What the pool decides:

* **Per-benchmark device affinity** — each fleet group's workers present
  their batched inferences to one device of the pool (round-robin over the
  collection devices by default, or an explicit ``{benchmark: device}``
  mapping).  Devices serve their assigned groups' batches serially but run
  in *parallel* with each other, so the accelerator-serial bound of a
  collection round is a per-device maximum instead of one global sum.
  Each group's update stream runs on the device its collection is assigned
  to: streams on different devices overlap, and each contends with its own
  device's rollout inferences.
* **Sharded batches** — :meth:`AcceleratorPool.infer_batch` splits one wide
  batch across the collection devices (near-equal shards, conserving the
  state count); the report's latency is the slowest shard, so the
  homogeneous wide-group path of ``train()`` and every serving flush shard
  transparently through the existing ``infer_batch`` joint.
"""

from __future__ import annotations

import copy
import operator
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .fixar_platform import FixarPlatform
from .rounds import Entry, InferenceReport, Round

__all__ = ["AcceleratorPool"]


class AcceleratorPool:
    """``num_devices`` identical FIXAR accelerators priced as one pool.

    ``template`` supplies the hardware models (accelerator configuration,
    host, PCIe, precision mode); the pool's devices are sibling platforms
    sharing those models, exactly like :meth:`FixarPlatform.with_workload`
    siblings.  ``assignment`` optionally binds a default per-benchmark
    device affinity (lowercase benchmark keys to collection-device
    indices); per-call ``assignment=`` arguments override it.
    """

    def __init__(
        self,
        template: FixarPlatform,
        num_devices: int = 1,
        assignment: Optional[Mapping[str, int]] = None,
    ):
        try:
            num_devices = operator.index(num_devices)
        except TypeError:
            raise ValueError(
                f"num_devices must be an integer, got {num_devices!r}"
            ) from None
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        self.template = template
        self.num_devices = num_devices
        # Device 0 *is* the template; the rest are siblings sharing its
        # hardware models — identical timing, so any device prices any
        # workload the same way (assignment matters for contention, not
        # per-batch latency).
        self.devices: Tuple[FixarPlatform, ...] = (template,) + tuple(
            template.with_workload(template.workload)
            for _ in range(num_devices - 1)
        )
        self.assignment = self._normalize_assignment(assignment)

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def collection_devices(self) -> Tuple[int, ...]:
        """Indices of the devices that serve rollout inferences (all of
        them); also the attribute ``repro.rl`` detects a pool by."""
        return tuple(range(self.num_devices))

    def device(self, index: int) -> FixarPlatform:
        """The pool's ``index``-th device platform."""
        index = operator.index(index)
        if not 0 <= index < self.num_devices:
            raise ValueError(
                f"device index {index} out of range for a "
                f"{self.num_devices}-device pool"
            )
        return self.devices[index]

    def with_assignment(
        self, assignment: Optional[Mapping[str, int]]
    ) -> "AcceleratorPool":
        """A pool over the *same* devices with another default affinity."""
        sibling = copy.copy(self)
        sibling.assignment = self._normalize_assignment(assignment)
        return sibling

    def with_precision_state(self, state) -> "AcceleratorPool":
        """A pool of the same shape priced under a precision policy's state.

        Rebuilds every device from
        :meth:`FixarPlatform.with_precision_state` siblings of the
        template, preserving the pool's size and bound assignment —
        the pool-level half of the precision re-pricing seam
        (``None`` or an identical-pricing state returns this pool
        unchanged, mirroring the platform).
        """
        template = self.template.with_precision_state(state)
        if template is self.template:
            return self
        return AcceleratorPool(
            template,
            num_devices=self.num_devices,
            assignment=self.assignment,
        )

    # ------------------------------------------------------------------ #
    # Assignment resolution
    # ------------------------------------------------------------------ #
    def _normalize_assignment(
        self, assignment: Optional[Mapping[str, int]]
    ) -> Optional[Dict[str, int]]:
        if assignment is None:
            return None
        collection = self.collection_devices
        normalized: Dict[str, int] = {}
        for key, index in dict(assignment).items():
            try:
                index = operator.index(index)
            except TypeError:
                raise ValueError(
                    f"device assignments must be integer device indices, "
                    f"got {key!r}: {index!r}"
                ) from None
            if index not in collection:
                raise ValueError(
                    f"benchmark {key!r} assigned to device {index}, but the "
                    f"{self.num_devices}-device pool's collection devices are "
                    f"{collection}"
                )
            normalized[str(key).lower()] = index
        return normalized

    def resolve_assignment(
        self,
        keys: Sequence[str],
        assignment: Optional[Mapping[str, int]] = None,
    ) -> List[int]:
        """Collection-device index per fleet entry.

        Entries named by the effective affinity mapping (the per-call
        ``assignment`` or the pool's bound default) take their pinned
        device; the rest round-robin over the collection devices in entry
        order.  Mapping keys that match no fleet entry raise — the same
        unknown-key contract as the scheduler's explicit lock-step weights.
        """
        mapping = (
            self._normalize_assignment(assignment)
            if assignment is not None
            else self.assignment
        )
        collection = self.collection_devices
        keys = [str(key).lower() for key in keys]
        if mapping:
            unknown = sorted(key for key in mapping if key not in set(keys))
            if unknown:
                raise ValueError(
                    f"device assignment names benchmarks that match no fleet "
                    f"entry: {unknown}; fleet keys are {sorted(set(keys))}"
                )
        devices = []
        cursor = 0
        for key in keys:
            if mapping is not None and key in mapping:
                devices.append(mapping[key])
            else:
                devices.append(collection[cursor % len(collection)])
                cursor += 1
        return devices

    # ------------------------------------------------------------------ #
    # Sharded batch inference (the engine's ``infer_batch`` joint)
    # ------------------------------------------------------------------ #
    def shard_widths(self, num_states: int) -> List[Tuple[int, int]]:
        """``(device, shard size)`` split of one batch over the pool.

        Near-equal shards in collection-device order; the first
        ``num_states % len(collection_devices)`` shards take the extra
        state, devices whose shard would be empty are skipped, and the
        shard sizes always sum to ``num_states`` (step-count conservation).
        """
        if num_states <= 0:
            raise ValueError(f"num_states must be positive, got {num_states}")
        collection = self.collection_devices
        base, extra = divmod(num_states, len(collection))
        shards = []
        for rank, device in enumerate(collection):
            width = base + (1 if rank < extra else 0)
            if width > 0:
                shards.append((device, width))
        return shards

    def _round(self, entries) -> Round:
        """A resolved fleet's round under this pool's topology."""
        return Round(tuple(entries), self.collection_devices)

    def infer_batch(self, num_states: int) -> InferenceReport:
        """Price one batch-of-N inference sharded over the collection devices.

        Drop-in for :meth:`FixarPlatform.infer_batch` at the rollout
        engine's pricing joint: one row per shard, and the shards run
        concurrently, so ``total_seconds`` is the slowest shard's latency.
        A 1-device pool reproduces the single platform's report values
        exactly.
        """
        return self._round(
            Entry(self.devices[device], 1, width, device=device)
            for device, width in self.shard_widths(num_states)
        ).inference_report()

    def serving_round_seconds(self, num_requests: int) -> float:
        """Modelled time to serve one dynamic-batcher flush on the pool:
        :meth:`infer_batch`'s sharded latency (the slowest shard)."""
        return self.infer_batch(num_requests).total_seconds

    # ------------------------------------------------------------------ #
    # Fleet rounds (adapters over repro.platform.rounds)
    # ------------------------------------------------------------------ #
    def _fleet_round(
        self,
        fleet: Sequence[Sequence],
        num_envs: Optional[int],
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> Round:
        """The fleet's round on this pool, each group placed on its device."""
        entries = self.template._resolve_fleet(fleet, num_envs, weights)
        devices = self.resolve_assignment(
            [entry.platform.workload.benchmark for entry in entries], assignment
        )
        return self._round(
            entry._replace(device=device) for entry, device in zip(entries, devices)
        )

    def infer_fleet(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> InferenceReport:
        """Fleet inference report of one pool round, one row per group."""
        return self._fleet_round(fleet, num_envs, weights, assignment).inference_report()

    def fleet_collection_round_seconds(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled time of one fleet collection round on the pool."""
        return self._fleet_round(fleet, num_envs, weights, assignment).collection_seconds()

    def fleet_collection_steps_per_second(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled collection throughput of a fleet on the pool."""
        return self._fleet_round(
            fleet, num_envs, weights, assignment
        ).collection_steps_per_second()

    def fleet_sequential_round_seconds(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled time of one *sequential* training round on the pool
        (the update term is the slowest device's blocking-update total)."""
        return self._fleet_round(
            fleet, num_envs, weights, assignment
        ).sequential_seconds(batch_size)

    def fleet_pipelined_round_seconds(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled time of one *pipelined* training round on the pool
        (``max(collection, slowest device stream)``; each stream contends
        with its device's rollout inferences)."""
        return self._fleet_round(
            fleet, num_envs, weights, assignment
        ).pipelined_seconds(batch_size)

    def fleet_training_steps_per_second(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        pipelined: bool = False,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled end-to-end training throughput of a fleet on the pool."""
        return self._fleet_round(
            fleet, num_envs, weights, assignment
        ).training_steps_per_second(batch_size, pipelined)

    def fleet_pipelined_speedup(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Steps/sec of the pipelined pool schedule over the sequential one."""
        return self._fleet_round(
            fleet, num_envs, weights, assignment
        ).pipelined_speedup(batch_size)
