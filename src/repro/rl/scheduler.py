"""The round scheduler: the one place that drives every training schedule.

The paper's *adaptive parallelism* is the AAP core's intra-layer /
intra-batch switch (:mod:`repro.accelerator`); this module is the host-side
schedule around it, and every policy here fixes its round shape for the
whole run.  A run is a list of :class:`ScheduledGroup` s (built once, in
:mod:`repro.rl.training`); one :class:`RoundScheduler` drives them — one
group for :func:`~repro.rl.training.train`, N for
:func:`~repro.rl.training.train_fleet` — through a pluggable
:class:`SchedulePolicy`:

* :class:`SequentialPolicy` — collect a round, then consume it.  The
  ``pipeline_depth == 0`` oracle: bit-exact with ``train_scalar_reference``
  at one worker and one environment.
* :class:`PipelinedPolicy` — the bounded-staleness overlap: the fleet
  collects round ``k+1 .. k+depth`` while the learner is still consuming
  round ``k``.  ``PipelinedPolicy(0)`` degenerates to the sequential
  schedule.
* :class:`ThroughputWeightedPolicy` — round shaping for heterogeneous
  fleets: benchmarks with cheaper modelled ``host + inference`` chains
  are allocated extra collection lock-steps per round,
  using :meth:`FixarPlatform.fleet_collection_round_seconds` as the cost
  oracle.  The expensive benchmark's chain bounds the round either way, so
  the extra lock-steps ride inside time the fleet was already paying for —
  the QuaRL observation that quantized-RL throughput hinges on keeping
  collection saturated, made first-class.

Determinism contract
--------------------
A policy never introduces nondeterminism: collection is always the
synchronous in-process mode (:meth:`AsyncCollector.step_sync`), rounds are
emulated in one thread, and the only knobs are *how many* lock-steps each
group runs per round (the policy's ``lock_steps`` weights, fixed for the
whole run) and *how many rounds* the fleet may run ahead of the learner
(``depth``).  Every policy preserves the work invariants the regression
tests pin: one agent update per collected post-warmup environment step
(per benchmark), one evaluation per crossed ``evaluation_interval``
boundary, and a full drain of any in-flight rounds at the end of the run.

The scheduler deliberately does **not** import the platform layer —
``repro.platform`` sits *downstream* of ``repro.rl`` in the layer map, so
the cost oracle arrives as a duck-typed object (anything exposing the
``fleet_collection_round_seconds`` / ``fleet_collection_steps_per_second``
pricing pair).  Without an oracle the weighted policy degrades to uniform
weights rather than guessing.

The *device-assignment* seam is the pool analogue of the schedule seam: a
:class:`DeviceAssignmentPolicy` (round-robin, explicit affinity, or
greedy load balancing) maps each benchmark group onto one accelerator of
a duck-typed device pool (:class:`~repro.platform.AcceleratorPool`),
resolved once per run via :func:`resolve_assignment` — symmetric with
:func:`resolve_policy`.  Assignment changes only which modelled device
pays for each group's batches, never the training numerics.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .evaluation import LearningCurve, evaluate_policy
from .qat import QATEvent
from .workers import AsyncCollector

__all__ = [
    "ScheduledGroup",
    "SchedulePolicy",
    "SequentialPolicy",
    "PipelinedPolicy",
    "ThroughputWeightedPolicy",
    "ScheduleOutcome",
    "RoundScheduler",
    "resolve_policy",
    "DeviceAssignmentPolicy",
    "RoundRobinAssignment",
    "AffinityAssignment",
    "LoadBalancedAssignment",
    "ASSIGNMENTS",
    "resolve_assignment",
]


@dataclass
class ScheduledGroup:
    """One benchmark's slice of a scheduled run.

    ``key`` identifies the group (the registry key in a fleet, any stable
    label otherwise) and doubles as the benchmark name the weighted policy's
    cost oracle prices; ``benchmark`` is the display name.  The group owns
    its collector, learner agent, replay buffer, learning curve, and
    evaluation environment — everything the scheduler's learner phase needs.
    """

    key: str
    benchmark: str
    collector: AsyncCollector
    agent: object
    buffer: object
    curve: LearningCurve
    eval_env: object

    @property
    def num_envs(self) -> int:
        """Lock-step width of this group's workers."""
        return self.collector.num_envs

    @property
    def num_workers(self) -> int:
        return self.collector.num_workers

    @property
    def steps_per_lock_round(self) -> int:
        """Environment steps of one of this group's collector rounds."""
        return self.collector.steps_per_round


class SchedulePolicy:
    """How the scheduler shapes a round: lock-step weights + staleness depth.

    ``depth`` is the bounded staleness window (rounds the fleet may run
    ahead of the learner; 0 = strictly alternating).  :meth:`lock_steps`
    returns one positive integer per group — how many collector rounds that
    group runs per scheduler round; the weights are resolved once at
    scheduler construction and stay fixed for the whole run, which is what
    keeps weighted runs reproducible.
    """

    name = "sequential"
    depth = 0

    def lock_steps(self, groups: Sequence[ScheduledGroup], platform=None) -> List[int]:
        """Lock-step allocation per group (default: one each, spec order)."""
        return [1] * len(groups)

    def describe(self) -> str:
        return self.name


class SequentialPolicy(SchedulePolicy):
    """Collect one round per group in spec order, then consume it.

    The ``pipeline_depth == 0`` schedule and the behavioral oracle of every
    other policy (pinned by ``tests/test_scheduler.py``).
    """

    name = "sequential"
    depth = 0


class PipelinedPolicy(SchedulePolicy):
    """Bounded-staleness overlap: the fleet runs up to ``depth`` rounds ahead.

    Collection of round ``k+1`` is scheduled before the learner phase of
    round ``k`` (deterministically, in one thread), so collection acts on
    actor weights up to ``depth`` rounds older than the sequential schedule
    would use; update-side data availability is unchanged and the backlog
    drains at the end of the run.  ``PipelinedPolicy(0)`` *is* the
    sequential schedule.
    """

    name = "pipelined"

    def __init__(self, depth: int = 1):
        if depth < 0:
            raise ValueError(f"pipeline depth must be non-negative, got {depth}")
        self.depth = depth

    def describe(self) -> str:
        return f"{self.name}(depth={self.depth})"


class ThroughputWeightedPolicy(SchedulePolicy):
    """Allocate extra lock-steps to benchmarks with cheaper modelled chains.

    On a heterogeneous fleet the slowest benchmark's serial ``host +
    inference`` chain bounds the collection round (each worker runs on its
    own host core; the single accelerator serves all batches back to back),
    so every cheaper benchmark's workers idle part of every round.  The
    fleet's true ceiling is the sum of the per-worker ceilings
    ``width_b / chain_b`` — reached when benchmark ``b`` runs lock-steps in
    proportion to ``1 / chain_b`` instead of one per round.  This policy
    approximates those proportions with small integer weights: each
    ``slowest_chain / chain_b`` ratio is rounded to a fraction with
    denominator at most ``max_weight``, the fractions are put over a common
    denominator, and the resulting integers (capped at ``max_weight``)
    become the per-round lock-step allocation.  All chain costs come from
    the ``fleet_collection_round_seconds`` cost oracle.

    The policy is conservative: it re-prices the weighted round through the
    oracle and falls back to uniform weights whenever the allocation would
    not improve modelled collection steps/sec (the accelerator-serial bound
    can eat the slack) — so it never schedules worse than spec-order
    round-robin.  With a single group, or without an oracle, it degenerates
    to uniform weights.

    ``weights`` overrides the oracle with an explicit per-benchmark mapping
    (lowercase keys), for tests and manual tuning.
    """

    name = "weighted"

    def __init__(
        self,
        max_weight: int = 16,
        depth: int = 0,
        platform=None,
        weights: Optional[Dict[str, int]] = None,
    ):
        if max_weight < 1:
            raise ValueError(f"max_weight must be >= 1, got {max_weight}")
        if depth < 0:
            raise ValueError(f"pipeline depth must be non-negative, got {depth}")
        self.max_weight = max_weight
        self.depth = depth
        self.platform = platform
        self.weights = weights

    def _ratio_weights(self, chains: Sequence[float]) -> List[int]:
        """Integer lock-step weights approximating ``1 / chain`` proportions."""
        from fractions import Fraction
        from math import gcd

        slowest = max(chains)
        ratios = [
            Fraction(slowest / chain).limit_denominator(self.max_weight)
            for chain in chains
        ]
        denominator = 1
        for ratio in ratios:
            denominator = denominator * ratio.denominator // gcd(
                denominator, ratio.denominator
            )
        weights = [max(1, int(ratio * denominator)) for ratio in ratios]
        # Cap the allocation so rounds stay bounded (extreme chain ratios,
        # or a three-way common denominator, can blow past the cap).  The
        # clamp distorts the ideal proportions, but the oracle verification
        # in lock_steps discards any allocation that does not actually
        # improve modelled throughput.
        weights = [min(weight, self.max_weight) for weight in weights]
        # Reduce by the gcd so equivalent allocations use the smallest
        # rounds (e.g. a clamped [17, 16] -> [16, 16] is just uniform).
        common = 0
        for weight in weights:
            common = gcd(common, weight)
        return [weight // common for weight in weights]

    def lock_steps(self, groups: Sequence[ScheduledGroup], platform=None) -> List[int]:
        if self.weights is not None:
            group_keys = {group.key for group in groups}
            unknown = sorted(key for key in self.weights if key not in group_keys)
            if unknown:
                # A typo'd key must not silently degrade that benchmark to
                # the default weight of 1 (a round-robin slice of the round).
                raise ValueError(
                    f"explicit weights name benchmarks that match no "
                    f"scheduled group: {unknown}; scheduled keys are "
                    f"{sorted(group_keys)}"
                )
            try:
                # operator.index rejects non-integral weights: 2.9 lock-steps
                # must not silently truncate to 2 (same convention as
                # parse_fleet_spec's worker counts).
                resolved = [
                    operator.index(self.weights.get(group.key, 1)) for group in groups
                ]
            except TypeError as exc:
                raise ValueError(
                    f"explicit weights must be integers: {exc}"
                ) from None
            if any(weight < 1 for weight in resolved):
                raise ValueError(f"explicit weights must be >= 1, got {self.weights}")
            return resolved
        oracle = platform if platform is not None else self.platform
        if oracle is None or len(groups) <= 1:
            return [1] * len(groups)
        try:
            chains = [
                oracle.fleet_collection_round_seconds(
                    [(group.key, 1, group.num_envs)], group.num_envs
                )
                for group in groups
            ]
        except (KeyError, ValueError):
            # A group whose key is not a registered benchmark (custom envs)
            # cannot be priced; weighting is a pure optimization, so degrade
            # to the round-robin allocation instead of failing the run.
            return [1] * len(groups)
        weights = self._ratio_weights(chains)
        if all(weight == 1 for weight in weights):
            return weights
        fleet = [
            (group.key, group.num_workers, group.num_envs) for group in groups
        ]
        num_envs = groups[0].num_envs
        uniform = oracle.fleet_collection_steps_per_second(fleet, num_envs)
        weighted = oracle.fleet_collection_steps_per_second(
            fleet, num_envs, weights=weights
        )
        if weighted < uniform:
            return [1] * len(groups)
        return weights

    def describe(self) -> str:
        return f"{self.name}(max_weight={self.max_weight}, depth={self.depth})"


def resolve_policy(config, platform=None) -> SchedulePolicy:
    """The :class:`SchedulePolicy` a :class:`TrainingConfig` asks for.

    ``config.schedule`` of ``None`` resolves from ``pipeline_depth`` (the
    historical behavior: depth 0 is sequential, anything else pipelined);
    ``"weighted"`` combines throughput-weighted rounds with the configured
    staleness depth.  ``platform`` is handed to the weighted policy as its
    cost oracle.
    """
    name = getattr(config, "schedule", None)
    if name is None:
        name = "pipelined" if config.pipeline_depth > 0 else "sequential"
    if name == "sequential":
        return SequentialPolicy()
    if name == "pipelined":
        return PipelinedPolicy(config.pipeline_depth)
    if name == "weighted":
        return ThroughputWeightedPolicy(
            depth=config.pipeline_depth, platform=platform
        )
    raise ValueError(
        f"unknown schedule {name!r}; expected sequential, pipelined, or weighted"
    )


class DeviceAssignmentPolicy:
    """How a fleet's benchmark groups map onto a device pool's accelerators.

    The device-pool analogue of :class:`SchedulePolicy`: where a schedule
    policy shapes *when* each group's lock-steps run inside a round, an
    assignment policy decides *which accelerator* serves each group's
    batched inferences.  :meth:`assign` returns one collection-device index
    per group (duck-typed groups expose ``key`` / ``num_workers`` /
    ``num_envs``, same shape the weighted schedule prices); the pool
    arrives duck-typed too (anything exposing ``collection_devices``,
    ``resolve_assignment`` and the ``fleet_*`` pricing pair), because
    ``repro.platform`` sits downstream of ``repro.rl`` in the layer map.
    Assignments are resolved once per run and stay fixed, so device
    affinity never introduces nondeterminism — it only changes which
    modelled accelerator pays for each group's batches.
    """

    name = "round-robin"

    def assign(self, groups: Sequence, pool) -> List[int]:
        """Collection-device index per group (default: round-robin)."""
        devices = list(pool.collection_devices)
        return [devices[index % len(devices)] for index in range(len(groups))]

    def describe(self) -> str:
        return self.name


class RoundRobinAssignment(DeviceAssignmentPolicy):
    """Deal the groups over the collection devices in spec order.

    The default policy: group ``g`` lands on collection device ``g mod D``.
    With one device it degenerates to the single-accelerator serialization
    — the assignment half of the 1-device bit-exactness pin.
    """

    name = "round-robin"


class AffinityAssignment(DeviceAssignmentPolicy):
    """Pin benchmarks to devices with an explicit ``{key: device}`` mapping.

    Resolved by the pool's own ``resolve_assignment``: keys are matched
    case-insensitively against the group keys; mapping keys that match no
    group raise (the same unknown-key contract as the weighted policy's
    explicit lock-step weights — a typo'd benchmark must not silently fall
    back to round-robin), as do devices outside the pool.  Groups the
    mapping does not name round-robin over the collection devices.
    """

    name = "affinity"

    def __init__(self, mapping: Dict[str, int]):
        if not mapping:
            raise ValueError("AffinityAssignment needs a non-empty mapping")
        try:
            self.mapping = {
                str(key).lower(): operator.index(device)
                for key, device in dict(mapping).items()
            }
        except TypeError as exc:
            raise ValueError(
                f"device assignments must be integers: {exc}"
            ) from None

    def assign(self, groups: Sequence, pool) -> List[int]:
        return pool.resolve_assignment([group.key for group in groups], self.mapping)

    def describe(self) -> str:
        return f"{self.name}({self.mapping})"


class LoadBalancedAssignment(DeviceAssignmentPolicy):
    """Greedily even out the modelled accelerator load across devices.

    Groups are placed heaviest-first (each group's load priced as its
    single-group accelerator-serial time through the pool's
    ``fleet_collection_round_seconds`` oracle) onto the device with the
    least accumulated load.  Groups the oracle cannot price (custom
    benchmarks) fall back to round-robin — balancing is a pure
    optimization, so it degrades instead of failing the run, mirroring
    :class:`ThroughputWeightedPolicy`.
    """

    name = "balanced"

    def assign(self, groups: Sequence, pool) -> List[int]:
        collection = list(pool.collection_devices)
        if len(collection) == 1:
            return [collection[0]] * len(groups)
        try:
            costs = [
                group.num_workers
                * pool.fleet_collection_round_seconds(
                    [(group.key, 1, group.num_envs)], group.num_envs
                )
                for group in groups
            ]
        except (KeyError, ValueError):
            return RoundRobinAssignment().assign(groups, pool)
        load = {device: 0.0 for device in collection}
        devices: List[Optional[int]] = [None] * len(groups)
        # Heaviest groups first; ties broken by spec order so the
        # assignment stays deterministic.
        for index in sorted(
            range(len(groups)), key=lambda i: (-costs[i], i)
        ):
            device = min(collection, key=lambda d: (load[d], d))
            devices[index] = device
            load[device] += costs[index]
        return devices


#: Named device-assignment policies ``TrainingConfig.assignment`` accepts
#: (a mapping selects :class:`AffinityAssignment` instead).
ASSIGNMENTS = ("round-robin", "balanced")


def resolve_assignment(config) -> DeviceAssignmentPolicy:
    """The :class:`DeviceAssignmentPolicy` a :class:`TrainingConfig` asks for.

    Mirrors :func:`resolve_policy`: ``config.assignment`` of ``None`` (or a
    config without the knob) resolves to round-robin, a policy name from
    ``ASSIGNMENTS`` picks the named policy, and a ``{benchmark: device}``
    mapping builds an :class:`AffinityAssignment`.  The policies receive
    the pool at :meth:`assign` time.
    """
    assignment = getattr(config, "assignment", None)
    if assignment is None or assignment == "round-robin":
        return RoundRobinAssignment()
    if assignment == "balanced":
        return LoadBalancedAssignment()
    if isinstance(assignment, str):
        raise ValueError(
            f"unknown assignment {assignment!r}; expected one of "
            f"{ASSIGNMENTS} or a {{benchmark: device}} mapping"
        )
    return AffinityAssignment(dict(assignment))


@dataclass
class ScheduleOutcome:
    """What one scheduled run produced, keyed by group."""

    #: Environment steps actually collected (whole rounds, fleet-wide).
    total_timesteps: int = 0
    #: Environment steps of one scheduler round across all groups.
    steps_per_round: int = 0
    #: Scheduler rounds run.
    iterations: int = 0
    #: Resolved lock-step weights, one per group in spec order.
    weights: List[int] = field(default_factory=list)
    #: Agent updates performed per group key.
    updates_by_key: Dict[str, int] = field(default_factory=dict)
    #: Environment steps collected per group key (whole run).
    steps_by_key: Dict[str, int] = field(default_factory=dict)
    #: The shared QAT precision switch, if it fired.
    qat_event: Optional[QATEvent] = None

    @property
    def total_updates(self) -> int:
        return sum(self.updates_by_key.values())


class RoundScheduler:
    """Drives collector groups through a policy's round schedule.

    The single home of the round/drain/update/evaluate bookkeeping:

    1. advance the QAT controller by the round's environment steps;
    2. **collect** — each group runs its policy-weighted number of
       deterministic collector rounds, in spec order (drained immediately at
       depth 0, deferred behind the bounded-staleness window otherwise);
    3. **learn** — drain the due round, run one agent update per collected
       post-warmup step of each group's slice (spec-order offsets), and
       record one evaluation per crossed ``evaluation_interval`` boundary;
    4. drain the in-flight backlog at the end of the run.

    Parameters
    ----------
    groups:
        The :class:`ScheduledGroup` s in spec order.
    policy:
        The :class:`SchedulePolicy` shaping the rounds.
    config:
        The run's :class:`~repro.rl.training.TrainingConfig` (timestep
        budget, warmup, batch size, evaluation cadence).
    qat_controller:
        Optional shared Algorithm 1 controller, advanced once per
        fleet-wide environment step.
    platform:
        Optional cost oracle forwarded to the policy's ``lock_steps``.
    on_evaluation:
        Optional callback ``(evaluated_step, metrics_by_key)`` fired after
        each evaluation boundary; ``metrics_by_key`` maps each group key to
        ``{"average_return", "episodes"}``.  The training entry points
        adapt this to their public ``progress_callback`` shapes.
    restart_shared_env:
        Single-group compatibility hook for the scalar loop's
        shared-evaluation-environment semantics: restart every worker's
        episodes after each evaluation (the evaluation consumed the shared
        environment's episode).  Only legal at depth 0 — the caller
        enforces that, as the historical loop did.
    """

    def __init__(
        self,
        groups: Sequence[ScheduledGroup],
        policy: SchedulePolicy,
        config,
        *,
        qat_controller=None,
        platform=None,
        on_evaluation: Optional[Callable[[int, Dict[str, dict]], None]] = None,
        restart_shared_env: bool = False,
    ):
        groups = list(groups)
        if not groups:
            raise ValueError("RoundScheduler needs at least one group")
        keys = [group.key for group in groups]
        if len(set(keys)) != len(keys):
            raise ValueError(f"scheduled groups must have unique keys, got {keys}")
        if restart_shared_env and len(groups) > 1:
            raise ValueError(
                "restart_shared_env is the single-group scalar-loop "
                "compatibility hook; a fleet never shares evaluation envs"
            )
        self.groups = groups
        self.policy = policy
        self.config = config
        self.qat_controller = qat_controller
        self.on_evaluation = on_evaluation
        self.restart_shared_env = restart_shared_env
        self.weights = self._validated_weights(policy.lock_steps(groups, platform))
        # The weights are fixed for the run, so each group's slice of a
        # round's global step range (spec-order offset and size) and the
        # round size are too.
        self._group_steps = [
            weight * group.steps_per_lock_round
            for group, weight in zip(groups, self.weights)
        ]
        self._group_offsets = [
            sum(self._group_steps[:index]) for index in range(len(groups))
        ]
        #: Environment steps of one scheduler round across all groups.
        self.steps_per_round = sum(self._group_steps)
        self._updates_by_key = {group.key: 0 for group in groups}
        self._qat_event: Optional[QATEvent] = None

    def _validated_weights(self, weights) -> List[int]:
        weights = list(weights)
        if len(weights) != len(self.groups) or any(
            int(weight) != weight or weight < 1 for weight in weights
        ):
            raise ValueError(
                f"policy {self.policy.describe()} produced invalid lock-step "
                f"weights {weights} for {len(self.groups)} groups"
            )
        return [int(weight) for weight in weights]

    # ------------------------------------------------------------------ #
    # The learner phase (drain, update, evaluate)
    # ------------------------------------------------------------------ #
    def _learner_round(
        self,
        global_step: int,
        deferred,
        episodes_snapshot: Optional[Dict[str, int]],
    ) -> None:
        """Drain one round, run its updates, record crossed evaluations.

        ``global_step`` is the fleet-wide step count at the round's
        collection start.  ``deferred`` is ``None`` in the sequential
        schedule (the collectors drained immediately) and the round's
        per-group queued transitions in the pipelined one.  Either way the
        buffers hold exactly the rounds up to this one when the updates
        sample them, so
        every policy sees the same update-side data availability — policies
        differ only in how stale the *collection* weights are and how
        lock-steps are allocated.  ``episodes_snapshot`` carries the
        per-group episode counts as of the round's collection (pipelined
        schedules pass it so progress metrics do not count rounds the fleet
        has already run ahead on).
        """
        config = self.config
        global_after = global_step + self.steps_per_round
        if deferred is not None:
            for group, rounds in zip(self.groups, deferred):
                group.collector.drain(rounds)

        # ----- Agent updates: one per collected post-warmup step ---------- #
        for group, offset, steps in zip(
            self.groups, self._group_offsets, self._group_steps
        ):
            buffer = group.buffer
            if len(buffer) >= config.batch_size:
                group_lo = global_step + offset
                group_hi = group_lo + steps
                first_update_step = max(group_lo, config.warmup_timesteps)
                for _ in range(max(0, group_hi - first_update_step)):
                    group.agent.update(buffer.sample(config.batch_size))
                    self._updates_by_key[group.key] += 1

        # ----- Periodic evaluation: one point per crossed boundary -------- #
        # A round can cross several evaluation_interval boundaries at once;
        # each one gets its own curve point per group, matching the scalar
        # loop's cadence instead of collapsing them into one.
        interval = config.evaluation_interval
        for boundary in range(global_step // interval + 1, global_after // interval + 1):
            evaluated_step = boundary * interval
            metrics: Dict[str, dict] = {}
            for group in self.groups:
                average_return = evaluate_policy(
                    group.eval_env, group.agent, episodes=config.evaluation_episodes
                )
                group.curve.record(evaluated_step, average_return)
                if self.restart_shared_env:
                    # Evaluation consumed the shared environment's episode;
                    # start fresh training episodes from a clean state.
                    group.collector.restart_episodes(record=True)
                metrics[group.key] = {
                    "average_return": average_return,
                    "episodes": (
                        len(group.collector.episode_returns)
                        if episodes_snapshot is None
                        else episodes_snapshot[group.key]
                    ),
                }
            if self.on_evaluation is not None:
                self.on_evaluation(evaluated_step, metrics)

    # ------------------------------------------------------------------ #
    # The schedule
    # ------------------------------------------------------------------ #
    def run(self) -> ScheduleOutcome:
        """Run the whole schedule and return the bookkeeping totals."""
        config = self.config
        depth = self.policy.depth

        # In-flight rounds the fleet has collected but the learner has not
        # yet consumed (at most ``depth`` long): (round start step, per-group
        # transitions, per-group episode counts as of collection).
        pending: Deque[Tuple[int, List, Dict[str, int]]] = deque()
        steps_per_round = self.steps_per_round
        collected = 0
        iterations = 0
        while collected < config.total_timesteps:
            global_step = collected

            # QAT advances with the collection timeline: the precision
            # driver counts environment steps, and in-process replicas share
            # the learner's numerics object, so a precision switch applies
            # to collection immediately — the (lagging) pipelined learner
            # then runs its remaining updates at the new precision, exactly
            # as a wall-clock switch would.
            if self.qat_controller is not None:
                for offset in range(steps_per_round):
                    event = self.qat_controller.on_timestep(global_step + offset)
                    if event is not None:
                        self._qat_event = event

            if depth == 0:
                # Sequential schedule: collect a round, then consume it.
                for group, weight in zip(self.groups, self.weights):
                    for _ in range(weight):
                        group.collector.step_sync()
                self._learner_round(global_step, None, None)
            else:
                # Pipelined schedule: collect round k first — emulating
                # "collection of round k runs while the learner is busy with
                # round k - depth" — then let the learner catch up to within
                # the staleness window.
                deferred: List[List] = []
                for group, weight in zip(self.groups, self.weights):
                    rounds: List = []
                    for _ in range(weight):
                        rounds.extend(group.collector.step_sync(drain=False))
                    deferred.append(rounds)
                pending.append(
                    (
                        global_step,
                        deferred,
                        {
                            group.key: len(group.collector.episode_returns)
                            for group in self.groups
                        },
                    )
                )
                if len(pending) > depth:
                    self._learner_round(*pending.popleft())

            collected += steps_per_round
            iterations += 1

        # Drain the pipeline: the learner consumes the last in-flight rounds.
        while pending:
            self._learner_round(*pending.popleft())

        total_timesteps = collected
        # If the run ended between evaluation points, add a final evaluation
        # so short smoke-test runs still produce non-empty curves.
        for group in self.groups:
            if not group.curve.points:
                group.curve.record(
                    total_timesteps,
                    evaluate_policy(
                        group.eval_env,
                        group.agent,
                        episodes=config.evaluation_episodes,
                    ),
                )

        return ScheduleOutcome(
            total_timesteps=total_timesteps,
            steps_per_round=steps_per_round,
            iterations=iterations,
            weights=list(self.weights),
            updates_by_key=dict(self._updates_by_key),
            steps_by_key={
                group.key: iterations * steps
                for group, steps in zip(self.groups, self._group_steps)
            },
            qat_event=self._qat_event,
        )
