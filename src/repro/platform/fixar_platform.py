"""End-to-end FIXAR platform model (host CPU + PCIe runtime + FPGA).

One platform timestep follows the paper's Fig. 3 sequence:

1. the host CPU advances the environment with the previous action, stores
   the transition, and samples a replay batch of B transitions;
2. the batch and the current state are transferred to the FPGA through the
   Xilinx run-time over PCIe;
3. the FPGA trains the critic and actor networks on the batch and runs the
   actor's inference for the current state;
4. the selected action returns to the host.

The model composes the host, PCIe, and accelerator timing models to produce
the Fig. 8 throughput numbers, the Fig. 9 execution-time breakdown, and the
Fig. 10 accelerator-only comparison.

:class:`FixarPlatform` owns the *leaf* prices of one workload on one
accelerator: the per-timestep components, :meth:`~FixarPlatform.infer_batch`
(one batch-of-N actor inference: one PCIe round trip, one forward pass with
weight loads amortised over the batch) and
:meth:`~FixarPlatform.update_round_seconds` (one learner's update stream,
blocking or streamed).  Collection and training *rounds* are priced by the
kernel in :mod:`repro.platform.rounds`; the platform is that kernel's
one-device topology.  A fleet is a sequence of ``(workload-or-benchmark,
worker_count[, width])`` entries, each resolved to a sibling platform with
that benchmark's layer dimensions (:meth:`~FixarPlatform.with_workload` /
:meth:`~FixarPlatform.for_benchmark`) — back-to-back inferences of
different layer dimensions on one accelerator, the adaptive-parallelism
scenario FIXAR's AAP core exists for — and a homogeneous ``num_workers x
num_envs`` run is the one-entry fleet of the platform itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..accelerator import AcceleratorConfig, PowerModel, TimingModel
from ..envs.registry import benchmark_dimensions
from ..nn.network import DEFAULT_HIDDEN_SIZES
from .host import HostModel
from .metrics import ips_per_watt
from .pcie import PcieModel
from .rounds import Entry, InferenceReport, Round

__all__ = [
    "WorkloadSpec",
    "FixarPlatform",
    "BatchInferenceReport",
    "PAPER_BATCH_SIZES",
]

#: Batch sizes swept in the paper's evaluation.
PAPER_BATCH_SIZES = (64, 128, 256, 512)


def _normalize_precision_state(state: Optional[Dict]) -> Optional[Dict]:
    """Canonical ``{"default": bits, "layers": {name: bits}}`` form (or None)."""
    if state is None:
        return None
    default = int(state.get("default", 32))
    layers = {str(name): int(bits) for name, bits in dict(state.get("layers") or {}).items()}
    if default <= 0 or any(bits <= 0 for bits in layers.values()):
        raise ValueError(f"precision_state bitwidths must be positive, got {state!r}")
    return {"default": default, "layers": layers}


def _positive_int(value, what: str, entry) -> int:
    """``value`` as a positive integer, or a ValueError naming the fleet entry."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(
            f"fleet {what} must be integers, got {value!r} for entry {entry!r}"
        ) from None
    if value <= 0:
        raise ValueError(
            f"fleet {what} must be positive, got {value} for entry {entry!r}"
        )
    return value


@dataclass(frozen=True)
class WorkloadSpec:
    """The DDPG workload a benchmark presents to the accelerator."""

    benchmark: str
    state_dim: int
    action_dim: int
    hidden_sizes: Sequence[int] = DEFAULT_HIDDEN_SIZES

    @property
    def actor_shapes(self):
        """Dense-layer shapes (input, output) of the actor network."""
        sizes = [self.state_dim, *self.hidden_sizes, self.action_dim]
        return list(zip(sizes[:-1], sizes[1:]))

    @property
    def critic_shapes(self):
        """Dense-layer shapes (input, output) of the critic network."""
        sizes = [self.state_dim + self.action_dim, *self.hidden_sizes, 1]
        return list(zip(sizes[:-1], sizes[1:]))

    @classmethod
    def from_environment(cls, env) -> "WorkloadSpec":
        """Build the spec from an environment (scalar or vector) instance."""
        return cls(benchmark=env.name, state_dim=env.state_dim, action_dim=env.action_dim)

    @classmethod
    def from_benchmark(
        cls, name: str, hidden_sizes: Sequence[int] = DEFAULT_HIDDEN_SIZES
    ) -> "WorkloadSpec":
        """Build the spec for a registered benchmark by name.

        Dimensions come from the registry's cached
        :func:`~repro.envs.registry.benchmark_dimensions`, so no environment
        is instantiated — heterogeneous fleet pricing resolves one spec per
        benchmark without paying N env builds.
        """
        dims = benchmark_dimensions(name)
        return cls(
            benchmark=name,
            state_dim=dims["state_dim"],
            action_dim=dims["action_dim"],
            hidden_sizes=tuple(hidden_sizes),
        )


@dataclass(frozen=True)
class BatchInferenceReport:
    """Cost of serving one batch-of-N actor inference to the host.

    Produced by :meth:`FixarPlatform.infer_batch`; the rollout engine
    accumulates ``total_seconds`` per lock-step to co-simulate a vectorized
    rollout's platform time.
    """

    #: Number of states inferred in the batch.
    num_states: int
    #: FPGA time of the batched forward pass.
    fpga_seconds: float
    #: Xilinx runtime / PCIe time of the single batched round trip.
    runtime_seconds: float
    #: Bytes crossing PCIe (N states up, N actions down).
    pcie_bytes: int
    #: FPGA board energy spent on the batched pass.
    energy_joules: float

    @property
    def total_seconds(self) -> float:
        """End-to-end latency of the batched inference."""
        return self.fpga_seconds + self.runtime_seconds

    @property
    def states_per_second(self) -> float:
        """Inference throughput of the batch."""
        return self.num_states / self.total_seconds


class FixarPlatform:
    """Timing model of the full CPU-FPGA platform."""

    def __init__(
        self,
        workload: WorkloadSpec,
        accelerator_config: Optional[AcceleratorConfig] = None,
        host: Optional[HostModel] = None,
        pcie: Optional[PcieModel] = None,
        half_precision: bool = False,
        precision_state: Optional[Dict] = None,
    ):
        self.workload = workload
        self.accelerator_config = accelerator_config or AcceleratorConfig()
        self.timing = TimingModel(self.accelerator_config)
        self.power = PowerModel(self.accelerator_config)
        self.host = host or HostModel()
        self.pcie = pcie or PcieModel()
        self.half_precision = half_precision
        #: Mixed per-layer precision plan (``{"default": bits, "layers":
        #: {layer: bits}}``) — ``None`` means the uniform legacy modes
        #: selected by ``half_precision``.  Set through
        #: :meth:`with_precision_state`.
        self.precision_state = _normalize_precision_state(precision_state)

    # ------------------------------------------------------------------ #
    # Mixed per-layer precision (precision-policy pricing seam)
    # ------------------------------------------------------------------ #
    def with_precision_state(self, state: Optional[Dict]) -> "FixarPlatform":
        """A sibling platform priced under a precision policy's state.

        ``state`` is the normalized ``precision_state()`` of a
        :class:`~repro.rl.precision.PrecisionPolicy` (or
        :class:`~repro.rl.qat.QATController`): ``{"default": bits,
        "layers": {layer: bits}}``.  ``None`` returns this platform
        unchanged (nothing to re-price).  A *uniform* state collapses onto
        the legacy modes — all-32 prices exactly like
        ``half_precision=False`` and all-16 exactly like
        ``half_precision=True`` — while a mixed state prices each layer's
        MVM passes at its own width and the PCIe payload at the
        layer-width-weighted average bytes per value.
        """
        state = _normalize_precision_state(state)
        if state is None:
            return self
        widths = {state["default"], *state["layers"].values()}
        if len(widths) == 1:
            half = next(iter(widths)) <= 16
            if half == self.half_precision and self.precision_state is None:
                return self
            return FixarPlatform(
                self.workload,
                self.accelerator_config,
                host=self.host,
                pcie=self.pcie,
                half_precision=half,
            )
        return FixarPlatform(
            self.workload,
            self.accelerator_config,
            host=self.host,
            pcie=self.pcie,
            half_precision=False,
            precision_state=state,
        )

    def _layer_half_flags(self):
        """Per-layer half flags ``(actor, critic)`` under the current plan.

        Layer names follow the repository's canonical MLP naming —
        ``actor_fc0..actor_fc{n-2}``/``actor_out`` and the ``critic_``
        equivalents — resolved against this workload's layer shapes; a
        layer absent from the plan inherits the plan's default width.
        With no plan both networks collapse to the uniform
        ``half_precision`` bool (identical pricing to the legacy path).
        """
        if self.precision_state is None:
            return self.half_precision, self.half_precision
        default = self.precision_state["default"]
        layers = self.precision_state["layers"]

        def flags(prefix: str, shapes) -> List[bool]:
            names = [f"{prefix}_fc{i}" for i in range(len(shapes) - 1)]
            names.append(f"{prefix}_out")
            return [layers.get(name, default) <= 16 for name in names]

        return (
            flags("actor", self.workload.actor_shapes),
            flags("critic", self.workload.critic_shapes),
        )

    # ------------------------------------------------------------------ #
    # Per-component times (Fig. 9a)
    # ------------------------------------------------------------------ #
    def fpga_seconds(self, batch_size: int, num_envs: int = 1) -> float:
        """FPGA accelerator time of one timestep."""
        actor_half, critic_half = self._layer_half_flags()
        return self.timing.timestep_seconds(
            self.workload.actor_shapes,
            self.workload.critic_shapes,
            batch_size,
            half_precision=self.half_precision,
            num_envs=num_envs,
            actor_half_precision=actor_half,
            critic_half_precision=critic_half,
        )

    @property
    def transfer_bytes_per_value(self) -> float:
        """Width of one transferred value.

        Uniform modes keep the legacy widths (4 bytes full precision, 2
        bytes after the half-precision switch).  Under a mixed per-layer
        plan the host payload carries values produced by layers of
        different widths, so transfers are priced at the
        out-features-weighted average bytes per value across both
        networks' layers — a 2.x-byte effective width between the two
        uniform extremes.
        """
        if self.precision_state is None:
            return 2 if self.half_precision else 4
        actor_half, critic_half = self._layer_half_flags()
        total_features = 0
        total_bytes = 0.0
        for flags, shapes in (
            (actor_half, self.workload.actor_shapes),
            (critic_half, self.workload.critic_shapes),
        ):
            for (_input_dim, output_dim), half in zip(shapes, flags):
                total_features += output_dim
                total_bytes += output_dim * (2 if half else 4)
        return total_bytes / total_features

    def runtime_seconds(
        self, batch_size: int, num_envs: int = 1, bytes_per_value: Optional[int] = None
    ) -> float:
        """Xilinx run-time / PCIe time of one timestep.

        ``bytes_per_value`` scales the transferred payload; by default it
        follows the platform's precision mode (4 bytes full precision, 2
        bytes after the half-precision switch), so half-precision transfer
        studies are priced consistently with the datapath.
        """
        return self.pcie.timestep_seconds(
            batch_size,
            self.workload.state_dim,
            self.workload.action_dim,
            num_envs=num_envs,
            bytes_per_value=(
                self.transfer_bytes_per_value if bytes_per_value is None else bytes_per_value
            ),
        )

    def cpu_seconds(self, batch_size: int, num_envs: int = 1) -> float:
        """Host CPU (environment + replay) time of one timestep."""
        return self.host.timestep_seconds(self.workload.benchmark, batch_size, num_envs=num_envs)

    def timestep_breakdown(self, batch_size: int, num_envs: int = 1) -> Dict[str, float]:
        """Execution-time breakdown of a single timestep (Fig. 9a)."""
        return {
            "cpu_environment": self.cpu_seconds(batch_size, num_envs),
            "runtime": self.runtime_seconds(batch_size, num_envs),
            "fpga": self.fpga_seconds(batch_size, num_envs),
        }

    def timestep_ratio(self, batch_size: int, num_envs: int = 1) -> Dict[str, float]:
        """Execution-time *ratio* of each component (Fig. 9b)."""
        breakdown = self.timestep_breakdown(batch_size, num_envs)
        total = sum(breakdown.values())
        return {name: value / total for name, value in breakdown.items()}

    def timestep_seconds(self, batch_size: int, num_envs: int = 1) -> float:
        """End-to-end time of one platform timestep."""
        return sum(self.timestep_breakdown(batch_size, num_envs).values())

    # ------------------------------------------------------------------ #
    # Batched rollout inference (vectorized execution subsystem)
    # ------------------------------------------------------------------ #
    def infer_batch(self, num_states: int) -> BatchInferenceReport:
        """Price one batch-of-N actor inference served to the host.

        The N states ride a single PCIe round trip and a single forward
        pass whose weight loads are amortised over the batch, so both the
        latency and the payload grow sub-linearly in N — the accounting the
        vectorized rollout engine relies on instead of N serial
        single-state inferences.
        """
        if num_states <= 0:
            raise ValueError(f"num_states must be positive, got {num_states}")
        actor_half, _critic_half = self._layer_half_flags()
        fpga = self.timing.inference_seconds(
            self.workload.actor_shapes, num_states, half_precision=actor_half
        )
        runtime = self.pcie.inference_seconds(
            num_states,
            self.workload.state_dim,
            self.workload.action_dim,
            bytes_per_value=self.transfer_bytes_per_value,
        )
        payload = self.pcie.inference_bytes(
            num_states,
            self.workload.state_dim,
            self.workload.action_dim,
            bytes_per_value=self.transfer_bytes_per_value,
        )
        energy = self.power.average_watts() * fpga
        return BatchInferenceReport(
            num_states=num_states,
            fpga_seconds=fpga,
            runtime_seconds=runtime,
            pcie_bytes=payload,
            energy_joules=energy,
        )

    def serving_round_seconds(self, num_requests: int) -> float:
        """Modelled time to serve one dynamic-batcher flush of N requests.

        A flush is exactly one :meth:`infer_batch` pass — the N coalesced
        states ride a single PCIe round trip and one amortised forward
        pass — so the serving oracle is that report's end-to-end latency.
        """
        return self.infer_batch(num_requests).total_seconds

    def env_steps_per_second(self, batch_size: int, num_envs: int = 1) -> float:
        """Environment steps collected per second with N lock-stepped envs."""
        return num_envs / self.timestep_seconds(batch_size, num_envs)

    # ------------------------------------------------------------------ #
    # One learner's update stream
    # ------------------------------------------------------------------ #
    def train_pass_seconds(self, batch_size: int) -> float:
        """FPGA time of one agent update (training passes only, no rollout
        inference — the collection side prices inference separately through
        :meth:`infer_batch`)."""
        actor_half, critic_half = self._layer_half_flags()
        breakdown = self.timing.timestep_breakdown(
            self.workload.actor_shapes,
            self.workload.critic_shapes,
            batch_size,
            half_precision=self.half_precision,
            num_envs=1,
            actor_half_precision=actor_half,
            critic_half_precision=critic_half,
        )
        cycles = breakdown.total_cycles - breakdown.phases["actor_inference"]
        return cycles / self.timing.config.clock_hz

    def update_step_seconds(self, batch_size: int) -> float:
        """Modelled time of one *blocking* learner update.

        The sequential schedule interleaves each update between collection
        inferences on the same command queue, so every update is its own
        runtime invocation: host replay assembly, a full PCIe invocation for
        the batch, and the FPGA training passes, strictly in sequence.
        """
        return (
            self.host.update_phase_seconds(batch_size)
            + self.pcie.update_seconds(
                batch_size,
                self.workload.state_dim,
                self.workload.action_dim,
                bytes_per_value=self.transfer_bytes_per_value,
            )
            + self.train_pass_seconds(batch_size)
        )

    def update_round_seconds(
        self, batch_size: int, updates: int, pipelined: bool = False
    ) -> float:
        """Modelled time of the learner's update phase for one round.

        ``pipelined=False`` prices the sequential schedule: ``updates``
        blocking invocations back to back.  ``pipelined=True`` prices the
        decoupled learner, which owns an uninterrupted update stream per
        round: the fixed runtime overhead is paid once per submission, and
        each update's replay assembly and DMA transfer are double-buffered
        behind the previous update's FPGA training passes, so the marginal
        cost per update is whichever of the two is longer.
        """
        if updates < 0:
            raise ValueError(f"updates must be non-negative, got {updates}")
        if updates == 0:
            return 0.0
        if not pipelined:
            return updates * self.update_step_seconds(batch_size)
        per_update = max(
            self.train_pass_seconds(batch_size),
            self.host.update_phase_seconds(batch_size)
            + self.pcie.update_marginal_seconds(
                batch_size,
                self.workload.state_dim,
                self.workload.action_dim,
                bytes_per_value=self.transfer_bytes_per_value,
            ),
        )
        return self.pcie.invocation_overhead_seconds + updates * per_update

    # ------------------------------------------------------------------ #
    # Sibling platforms (other layer dimensions on the same hardware)
    # ------------------------------------------------------------------ #
    def with_workload(self, workload: WorkloadSpec) -> "FixarPlatform":
        """A sibling platform pricing another workload on the same hardware.

        The accelerator configuration, host and PCIe models (including any
        host calibration), and the precision mode — uniform *and* any mixed
        per-layer plan — are shared; only the layer dimensions change,
        which is exactly what happens when the single accelerator turns
        from one benchmark's batch to another's.
        """
        return FixarPlatform(
            workload,
            self.accelerator_config,
            host=self.host,
            pcie=self.pcie,
            half_precision=self.half_precision,
            precision_state=self.precision_state,
        )

    def for_benchmark(
        self, benchmark: str, hidden_sizes: Optional[Sequence[int]] = None
    ) -> "FixarPlatform":
        """A sibling platform for a registered benchmark's workload.

        ``hidden_sizes`` defaults to this platform's own hidden layer
        sizes, so a fleet of agents built with one network architecture is
        priced consistently across benchmarks.
        """
        if hidden_sizes is None:
            hidden_sizes = self.workload.hidden_sizes
        return self.with_workload(
            WorkloadSpec.from_benchmark(benchmark, hidden_sizes=tuple(hidden_sizes))
        )

    # ------------------------------------------------------------------ #
    # Collection and training rounds (adapters over repro.platform.rounds)
    # ------------------------------------------------------------------ #
    def _resolve_fleet(
        self,
        fleet: Sequence[Sequence],
        num_envs: Optional[int] = None,
        weights: Optional[Sequence[int]] = None,
    ) -> List[Entry]:
        """Per-group sibling platforms for a fleet's pricing entries.

        Each entry is ``(workload, count)`` or ``(workload, count, width)``
        — a registered benchmark name or an explicit :class:`WorkloadSpec`,
        a positive worker count, and an optional per-group lock-step width
        (``None`` or omitted falls back to the ``num_envs`` argument, the
        uniform-width fleet).  ``weights`` optionally gives each group's
        lock-steps per round (the throughput-weighted schedule); the default
        is one each.  Counts, widths and weights must be positive integers
        (``operator.index``): the scheduler refuses 2.9 lock-steps per
        round, and the pricing side must agree instead of silently pricing
        a fractional worker, batch or round.
        """
        fleet = [tuple(entry) for entry in fleet]
        if not fleet:
            raise ValueError("fleet must contain at least one (workload, count) entry")
        weights = [1] * len(fleet) if weights is None else list(weights)
        if len(weights) != len(fleet):
            raise ValueError(
                f"weights must match the fleet's {len(fleet)} entries, "
                f"got {len(weights)}"
            )
        resolved = []
        for entry, weight in zip(fleet, weights):
            if len(entry) == 2:
                workload, count = entry
                width = None
            elif len(entry) == 3:
                workload, count, width = entry
            else:
                raise ValueError(
                    f"fleet entries must be (workload, count[, width]), got {entry!r}"
                )
            count = _positive_int(count, "worker counts", entry)
            width = _positive_int(
                num_envs if width is None else width, "lock-step widths", entry
            )
            weight = _positive_int(weight, "round weights", entry)
            if isinstance(workload, WorkloadSpec):
                platform = self.with_workload(workload)
            else:
                platform = self.for_benchmark(str(workload))
            resolved.append(Entry(platform, count, width, weight))
        return resolved

    def _fleet_round(self, fleet, num_envs, weights=None) -> Round:
        """The fleet's round on this single accelerator."""
        return Round(tuple(self._resolve_fleet(fleet, num_envs, weights)))

    def _homogeneous_round(
        self, num_envs: int, num_workers: int, updates_per_round: Optional[int] = None
    ) -> Round:
        """The one-entry round of ``num_workers`` workers of this workload."""
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        return Round((Entry(self, num_workers, num_envs, updates=updates_per_round),))

    def infer_collection(self, num_envs: int, num_workers: int = 1) -> InferenceReport:
        """Price the inferences of one ``num_workers``-worker collection round.

        Each worker's lock-step batch of ``num_envs`` states is one
        :meth:`infer_batch` pass and the accelerator serves the fleet's
        batches sequentially — the quantity the async collection
        coordinator aggregates from its per-worker engines.
        """
        return self._homogeneous_round(num_envs, num_workers).inference_report()

    def collection_round_seconds(self, num_envs: int, num_workers: int = 1) -> float:
        """Modelled time of one fleet collection round
        (``num_workers * num_envs`` steps): ``max(host + inference,
        num_workers * inference)``, see :meth:`Round.collection_seconds
        <repro.platform.rounds.Round.collection_seconds>`."""
        return self._homogeneous_round(num_envs, num_workers).collection_seconds()

    def collection_steps_per_second(self, num_envs: int, num_workers: int = 1) -> float:
        """Modelled collection throughput of a ``num_workers``-worker fleet."""
        return self._homogeneous_round(num_envs, num_workers).collection_steps_per_second()

    def sequential_round_seconds(
        self,
        num_envs: int,
        num_workers: int = 1,
        batch_size: int = 64,
        updates_per_round: Optional[int] = None,
    ) -> float:
        """Modelled time of one round of the sequential train() schedule:
        the fleet collects ``num_workers * num_envs`` steps, *then* the
        learner runs ``updates_per_round`` blocking updates (default one
        per collected step), so the round costs their sum.
        """
        return self._homogeneous_round(
            num_envs, num_workers, updates_per_round
        ).sequential_seconds(batch_size)

    def pipelined_round_seconds(
        self,
        num_envs: int,
        num_workers: int = 1,
        batch_size: int = 64,
        updates_per_round: Optional[int] = None,
    ) -> float:
        """Modelled time of one *pipelined* training round.

        While the fleet collects round ``k+1`` the learner streams round
        ``k``'s updates, so the round is ``max(collection, update)``; the
        single accelerator serves both, so the rollout inferences' FPGA
        time joins the update stream.
        """
        return self._homogeneous_round(
            num_envs, num_workers, updates_per_round
        ).pipelined_seconds(batch_size)

    def training_steps_per_second(
        self,
        num_envs: int,
        num_workers: int = 1,
        batch_size: int = 64,
        updates_per_round: Optional[int] = None,
        pipelined: bool = False,
    ) -> float:
        """Modelled end-to-end training throughput (environment steps/sec)."""
        return self._homogeneous_round(
            num_envs, num_workers, updates_per_round
        ).training_steps_per_second(batch_size, pipelined)

    def pipelined_speedup(
        self,
        num_envs: int,
        num_workers: int = 1,
        batch_size: int = 64,
        updates_per_round: Optional[int] = None,
    ) -> float:
        """Steps/sec of the pipelined schedule over the sequential one."""
        return self._homogeneous_round(
            num_envs, num_workers, updates_per_round
        ).pipelined_speedup(batch_size)

    def infer_fleet(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        weights: Optional[Sequence[int]] = None,
    ) -> InferenceReport:
        """Price the inferences of one heterogeneous-fleet collection round.

        Each entry contributes ``count`` workers whose batch-of-``width``
        inferences are priced under *that* workload's layer dimensions, and
        the single accelerator serves all groups back to back.  ``weights``
        (lock-steps per round, the throughput-weighted schedule) is stamped
        on each row, so the report describes the round the scheduler runs.
        """
        return self._fleet_round(fleet, num_envs, weights).inference_report()

    def fleet_collection_round_seconds(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        weights: Optional[Sequence[int]] = None,
    ) -> float:
        """Modelled time of one heterogeneous-fleet collection round.

        ``weights`` prices a *throughput-weighted* round: group ``g`` runs
        ``weights[g]`` lock-steps per round — the cost oracle of
        :class:`repro.rl.scheduler.ThroughputWeightedPolicy`, which fills
        the slack under the slowest benchmark's chain with extra cheap
        lock-steps.
        """
        return self._fleet_round(fleet, num_envs, weights).collection_seconds()

    def fleet_collection_steps_per_second(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        weights: Optional[Sequence[int]] = None,
    ) -> float:
        """Modelled collection throughput of a heterogeneous fleet."""
        return self._fleet_round(fleet, num_envs, weights).collection_steps_per_second()

    def fleet_sequential_round_seconds(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        weights: Optional[Sequence[int]] = None,
    ) -> float:
        """Modelled time of one *sequential* heterogeneous training round:
        the fleet collects, then each benchmark's learner runs one blocking
        update per step its workers collected, priced under that
        benchmark's layer dimensions."""
        return self._fleet_round(fleet, num_envs, weights).sequential_seconds(batch_size)

    def fleet_pipelined_round_seconds(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        weights: Optional[Sequence[int]] = None,
    ) -> float:
        """Modelled time of one *pipelined* heterogeneous training round:
        one streamed update submission per benchmark back to back
        (``train_pass_seconds`` differs per benchmark), overlapping the
        fleet's collection and contending with its rollout inferences."""
        return self._fleet_round(fleet, num_envs, weights).pipelined_seconds(batch_size)

    def fleet_training_steps_per_second(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        pipelined: bool = False,
        weights: Optional[Sequence[int]] = None,
    ) -> float:
        """Modelled end-to-end training throughput of a heterogeneous fleet."""
        return self._fleet_round(fleet, num_envs, weights).training_steps_per_second(
            batch_size, pipelined
        )

    def fleet_pipelined_speedup(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        weights: Optional[Sequence[int]] = None,
    ) -> float:
        """Steps/sec of the pipelined fleet schedule over the sequential one."""
        return self._fleet_round(fleet, num_envs, weights).pipelined_speedup(batch_size)

    # ------------------------------------------------------------------ #
    # Throughput and efficiency (Figs. 8 and 10)
    # ------------------------------------------------------------------ #
    def platform_ips(self, batch_size: int) -> float:
        """System-level training throughput (Fig. 8)."""
        return batch_size / self.timestep_seconds(batch_size)

    def accelerator_ips(self, batch_size: int) -> float:
        """Accelerator-only throughput (Fig. 10a)."""
        return batch_size / self.fpga_seconds(batch_size)

    def accelerator_utilization(self, batch_size: int) -> float:
        """PE-array utilization of the accelerator for this workload."""
        actor_half, critic_half = self._layer_half_flags()
        return self.timing.hardware_utilization(
            self.workload.actor_shapes,
            self.workload.critic_shapes,
            batch_size,
            half_precision=self.half_precision,
            actor_half_precision=actor_half,
            critic_half_precision=critic_half,
        )

    def accelerator_watts(self, batch_size: int) -> float:
        """Average FPGA board power while running this workload."""
        return self.power.average_watts(self.accelerator_utilization(batch_size))

    def accelerator_ips_per_watt(self, batch_size: int) -> float:
        """Accelerator energy efficiency (Fig. 10b)."""
        return ips_per_watt(self.accelerator_ips(batch_size), self.accelerator_watts(batch_size))

    def sweep_platform_ips(self, batch_sizes: Sequence[int] = PAPER_BATCH_SIZES) -> Dict[int, float]:
        """Platform IPS over a batch-size sweep (one Fig. 8 series)."""
        return {batch: self.platform_ips(batch) for batch in batch_sizes}

    def sweep_accelerator_ips(self, batch_sizes: Sequence[int] = PAPER_BATCH_SIZES) -> Dict[int, float]:
        """Accelerator IPS over a batch-size sweep (one Fig. 10a series)."""
        return {batch: self.accelerator_ips(batch) for batch in batch_sizes}
