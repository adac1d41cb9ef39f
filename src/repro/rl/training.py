"""Training entry points: one run builder, one scheduler, two result shapes.

One platform timestep (paper Fig. 3) is: the actor selects a noisy action
for the current state, the environment returns the reward and next state,
the transition is stored in the replay buffer, and a random batch updates
the critic and actor; a precision driver (Algorithm 1's
:class:`~repro.rl.qat.QATController` or a
:class:`~repro.rl.precision.PrecisionPolicy`) may switch the activation
precision at the quantization delay.

A run is a list of *groups* — one benchmark's workers, learner agent, replay
buffer, curve and evaluation environment — built and run in one place:

* :func:`_build_groups` turns resolved :class:`_GroupPlan` s into
  :class:`~repro.rl.scheduler.ScheduledGroup` s (the only worker loop:
  global worker ids, cumulative environment-seed offsets, warmup split over
  all workers, one replay buffer and collector per group);
* :func:`_run_groups` wires the profiler, resets the engines, runs the one
  :class:`~repro.rl.scheduler.RoundScheduler` — every schedule lives in
  :mod:`repro.rl.scheduler` — and shapes one :class:`TrainingResult` per
  group.

:func:`train_fleet` is "validate the agents against ``config.fleet``,
resolve the device assignment, N groups" and returns a
:class:`FleetTrainingResult`; :func:`train` is the one-group case and
returns that group's :class:`TrainingResult`.  They differ in one place:
with ``num_workers == 1`` :func:`train`'s worker acts through the learner's
own agent, noise and warmup stream (the shared-agent fast path), which at
``num_envs == 1`` consumes every RNG stream in the scalar loop's order —
:func:`train_scalar_reference` keeps that loop verbatim as the oracle the
regression tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..envs.base import Environment
from ..envs.registry import benchmark_dimensions
from ..envs.registry import make as make_registered_env
from ..envs.vector import VectorEnv
from ..nn import DynamicFixedPointNumerics
from .ddpg import DDPGAgent
from .evaluation import LearningCurve, evaluate_policy
from .noise import GaussianNoise, NoiseProcess
from .precision import PRECISION_POLICIES, resolve_precision
from .qat import QATController, QATEvent
from .replay_buffer import ReplayBuffer
from .rollout import RolloutEngine
from .scheduler import (
    ASSIGNMENTS,
    RoundScheduler,
    ScheduledGroup,
    ScheduleOutcome,
    resolve_assignment,
    resolve_policy,
)
from .workers import AsyncCollector, CollectorWorker, parse_fleet_spec

#: Round-scheduling policies ``TrainingConfig.schedule`` accepts (``None``
#: resolves from ``pipeline_depth``; see :func:`repro.rl.scheduler.resolve_policy`).
SCHEDULES = ("sequential", "pipelined", "weighted")

__all__ = [
    "TrainingConfig",
    "TrainingResult",
    "FleetTrainingResult",
    "train",
    "train_fleet",
    "train_scalar_reference",
]


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of the training loop (paper defaults, scaled by the caller)."""

    #: Total environment timesteps (paper: 1,000,000).
    total_timesteps: int = 10_000
    #: Steps of uniform-random actions before the policy is used.
    warmup_timesteps: int = 1_000
    #: Replay batch size B sent to the accelerator each timestep.
    batch_size: int = 64
    #: Replay buffer capacity.
    buffer_capacity: int = 100_000
    #: Evaluate every this many timesteps (paper: 5000).
    evaluation_interval: int = 5_000
    #: Rollouts per evaluation (paper: 10).
    evaluation_episodes: int = 10
    #: Std-dev of Gaussian exploration noise added to actions.
    exploration_noise: float = 0.1
    #: Random seed for the loop (exploration, replay sampling).
    seed: Optional[int] = 0
    #: Environments rolled out in lock-step (1 = the paper's scalar loop).
    #: The loop runs whole lock-steps, so ``total_timesteps`` is rounded up
    #: to the next multiple of ``num_envs * num_workers`` (the actual count
    #: is reported in ``TrainingResult.total_timesteps``).
    num_envs: int = 1
    #: Collection workers, each owning its own ``VectorEnv`` of ``num_envs``
    #: environments (seeded ``seed + worker_id * num_envs + i``) and an actor
    #: replica, stepped in id order so runs stay reproducible.  With
    #: ``num_workers == 1`` the worker acts through the learner's own agent
    #: (:func:`train`'s shared-agent fast path).
    num_workers: int = 1
    #: Environment steps between actor-weight broadcasts to the worker
    #: replicas (ignored with ``num_workers == 1``, where the worker acts
    #: through the learner's own agent).
    sync_interval: int = 1
    #: Rounds the collector fleet may run ahead of the learner — the bounded
    #: staleness window of the pipelined schedule (semantics in
    #: :mod:`repro.rl.scheduler`).  ``0`` is the sequential schedule: collect
    #: a round, then update on it.
    pipeline_depth: int = 0
    #: Heterogeneous fleet spec — ``"HalfCheetah:2,Hopper:2:8"`` or a parsed
    #: sequence of ``(benchmark, count[, num_envs])`` tuples (grammar in
    #: :func:`~repro.rl.workers.parse_fleet_spec`; a missing width defaults
    #: to ``num_envs``).  ``None`` (the default) is the homogeneous path
    #: driven by ``num_workers``.  When set, ``num_workers`` must stay at 1
    #: and the run goes through :func:`train_fleet` instead of :func:`train`.
    fleet: Optional[Union[str, Sequence]] = None
    #: Round-scheduling policy: ``"sequential"``, ``"pipelined"``, or
    #: ``"weighted"`` (throughput-weighted rounds — heterogeneous fleets
    #: with cheaper modelled host+inference chains collect extra lock-steps
    #: per round).  ``None`` (the default) resolves from ``pipeline_depth``
    #: — depth 0 is sequential, anything else pipelined — so every
    #: pre-existing configuration keeps its exact behavior.
    schedule: Optional[str] = None
    #: Accelerators in the device pool serving the run.  ``1`` (the
    #: default) is the single-platform path; ``> 1`` requires passing an
    #: :class:`~repro.platform.AcceleratorPool` of that size as the
    #: ``platform`` hook (the rl layer never constructs platform objects).
    #: Devices change only the modelled pricing and per-benchmark device
    #: affinity — the training numerics are identical at every pool size.
    devices: int = 1
    #: Device-assignment policy for fleet groups: ``None`` /
    #: ``"round-robin"`` (spec-order dealing over the collection devices),
    #: ``"balanced"`` (greedy modelled-load balancing), or an explicit
    #: ``{benchmark: device}`` mapping (unknown benchmarks raise).  See
    #: :func:`repro.rl.scheduler.resolve_assignment`.
    assignment: Optional[Union[str, Mapping[str, int]]] = None
    #: Precision policy driving the run's quantization schedule:
    #: ``"global-switch"`` (Algorithm 1's single switch), ``"per-layer"``
    #: (a static per-layer bitwidth table), or ``"range-driven"``
    #: (range-statistic-driven per-layer switches) — the names registered
    #: in :data:`repro.rl.precision.PRECISION_POLICIES`.  ``None`` (the
    #: default) leaves precision to an explicitly passed ``qat_controller``
    #: (or runs un-switched).  Requires dynamic fixed-point numerics; the
    #: resolved policy is shared fleet-wide like the QAT controller.
    precision: Optional[str] = None
    #: Policy-specific spec string for ``precision`` (grammar per policy:
    #: ``[bits][@delay]`` for global-switch, ``pattern=bits[@delay],...``
    #: for per-layer, ``key=value,...`` for range-driven).
    precision_spec: Optional[str] = None

    def __post_init__(self) -> None:
        if self.total_timesteps <= 0:
            raise ValueError("total_timesteps must be positive")
        if self.warmup_timesteps < 0:
            raise ValueError("warmup_timesteps must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer_capacity must be at least batch_size")
        if self.evaluation_interval <= 0:
            raise ValueError("evaluation_interval must be positive")
        if self.evaluation_episodes <= 0:
            raise ValueError("evaluation_episodes must be positive")
        if self.exploration_noise < 0:
            raise ValueError("exploration_noise must be non-negative")
        if self.num_envs <= 0:
            raise ValueError("num_envs must be positive")
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.sync_interval <= 0:
            raise ValueError("sync_interval must be positive")
        if self.pipeline_depth < 0:
            raise ValueError("pipeline_depth must be non-negative")
        if self.schedule is not None:
            if self.schedule not in SCHEDULES:
                raise ValueError(
                    f"schedule must be one of {SCHEDULES}, got {self.schedule!r}"
                )
            if self.schedule == "sequential" and self.pipeline_depth > 0:
                raise ValueError(
                    "schedule 'sequential' conflicts with pipeline_depth > 0; "
                    "use schedule='pipelined' (or leave schedule unset) for a "
                    "staleness window"
                )
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if isinstance(self.assignment, str) and self.assignment not in ASSIGNMENTS:
            raise ValueError(
                f"assignment must be one of {ASSIGNMENTS} or a "
                f"{{benchmark: device}} mapping, got {self.assignment!r}"
            )
        if self.precision is not None and self.precision not in PRECISION_POLICIES:
            raise ValueError(
                f"precision must be one of {sorted(PRECISION_POLICIES)}, "
                f"got {self.precision!r}"
            )
        if self.precision_spec is not None and self.precision is None:
            raise ValueError("precision_spec requires precision to be set")
        if self.fleet is not None:
            if self.num_workers != 1:
                raise ValueError(
                    "fleet and num_workers are alternative fleet sizings: the "
                    "spec's per-benchmark counts determine the workers, so "
                    "num_workers must stay at its default of 1"
                )
            # Surface grammar / unknown-benchmark errors at configuration
            # time rather than deep inside fleet construction.
            parse_fleet_spec(self.fleet)


@dataclass
class TrainingResult:
    """Everything a Fig. 7 experiment needs from one training run."""

    curve: LearningCurve
    episode_returns: List[float] = field(default_factory=list)
    qat_event: Optional[QATEvent] = None
    total_timesteps: int = 0
    total_updates: int = 0
    num_envs: int = 1
    num_workers: int = 1
    pipeline_depth: int = 0
    replay_buffer: Optional[ReplayBuffer] = None

    def summary(self) -> dict:
        info = self.curve.summary()
        info.update(
            {
                "episodes": len(self.episode_returns),
                "total_timesteps": self.total_timesteps,
                "total_updates": self.total_updates,
                "num_envs": self.num_envs,
                "num_workers": self.num_workers,
                "pipeline_depth": self.pipeline_depth,
                "quantization_switch_step": (
                    self.qat_event.timestep if self.qat_event else None
                ),
            }
        )
        return info


@dataclass
class FleetTrainingResult:
    """Outcome of one heterogeneous-fleet training run (:func:`train_fleet`).

    ``per_benchmark`` maps each benchmark's display name (spec order) to a
    full :class:`TrainingResult` — its learning curve, episode returns,
    replay buffer, and per-benchmark step/update counts; the aggregate
    fields describe the fleet round structure.  A shared QAT switch fires
    once for the whole fleet and is recorded on every per-benchmark result
    (the numerics object is shared).
    """

    per_benchmark: Dict[str, TrainingResult] = field(default_factory=dict)
    #: Resolved ``(benchmark_key, worker_count, num_envs)`` entries.
    fleet: List[Tuple[str, int, int]] = field(default_factory=list)
    total_timesteps: int = 0
    total_updates: int = 0
    num_envs: int = 1
    num_workers: int = 1
    pipeline_depth: int = 0
    #: Round-scheduling policy the run used (``sequential``/``pipelined``/
    #: ``weighted``).
    schedule: str = "sequential"
    #: Lock-steps each benchmark group ran per round, in spec order (all 1
    #: except under the throughput-weighted policy).
    weights: List[int] = field(default_factory=list)
    #: Accelerators in the device pool the run was priced on (1 = the
    #: single-platform path).
    devices: int = 1
    #: Resolved per-benchmark device affinity (empty without a pool).
    assignment: Dict[str, int] = field(default_factory=dict)

    @property
    def benchmarks(self) -> List[str]:
        """Display names of the fleet's benchmarks, in spec order."""
        return list(self.per_benchmark)

    @property
    def qat_event(self) -> Optional[QATEvent]:
        """The shared precision switch, if it fired (same on every result)."""
        for result in self.per_benchmark.values():
            if result.qat_event is not None:
                return result.qat_event
        return None

    def summary(self) -> dict:
        info = {
            "fleet": list(self.fleet),
            "total_timesteps": self.total_timesteps,
            "total_updates": self.total_updates,
            "num_envs": self.num_envs,
            "num_workers": self.num_workers,
            "pipeline_depth": self.pipeline_depth,
            "schedule": self.schedule,
            "weights": list(self.weights),
            "devices": self.devices,
            "assignment": dict(self.assignment),
            "quantization_switch_step": (
                self.qat_event.timestep if self.qat_event else None
            ),
        }
        info["per_benchmark"] = {
            name: result.summary() for name, result in self.per_benchmark.items()
        }
        return info


def _resolve_vector_env(
    env: Union[Environment, VectorEnv], config: TrainingConfig
) -> VectorEnv:
    """The vector environment the rollout engine will drive.

    A :class:`VectorEnv` is used as-is.  A scalar environment is wrapped
    unchanged for ``num_envs == 1`` (preserving any custom instance the
    caller configured) and replicated into fresh ``seed + i`` siblings for
    ``num_envs > 1``.
    """
    if isinstance(env, VectorEnv):
        return env
    if config.num_envs == 1:
        return VectorEnv([env])
    return VectorEnv.from_template(env, config.num_envs, seed=config.seed)


def _resolve_device_pool(config: TrainingConfig, platform) -> bool:
    """Whether the platform hook is a device pool, validated against config.

    The rl layer never imports ``repro.platform``, so a pool is detected
    duck-typed (``collection_devices`` + ``device``).  ``config.devices``
    must agree with the pool actually passed — a config asking for 2
    accelerators priced on a single platform (or vice versa) would silently
    report the wrong modelled numbers.
    """
    is_pool = hasattr(platform, "collection_devices") and hasattr(platform, "device")
    if config.devices > 1 and not is_pool:
        raise ValueError(
            "config.devices > 1 prices the run on a multi-accelerator pool; "
            "pass a repro.platform.AcceleratorPool of that size as the "
            "platform hook"
        )
    if is_pool:
        pool_devices = getattr(platform, "num_devices", 1)
        if pool_devices != config.devices:
            raise ValueError(
                f"config.devices={config.devices} does not match the "
                f"{pool_devices}-device pool passed as the platform hook"
            )
    return is_pool


def _resolve_evaluation_env(template: Environment, config: TrainingConfig):
    """Evaluation environment plus whether it is shared with training."""
    try:
        evaluation_env = type(template)()
        evaluation_env.seed(config.seed)
        return evaluation_env, False
    except TypeError:
        return template, True


def _resolve_precision_controller(config: TrainingConfig, agent: DDPGAgent, qat_controller):
    """The precision driver the round scheduler advances each timestep.

    An explicitly passed ``qat_controller`` always wins (``config.precision``
    set alongside it is a configuration conflict).  Otherwise
    ``config.precision`` resolves a registered
    :class:`~repro.rl.precision.PrecisionPolicy` over the agent's numerics,
    which must be dynamic fixed-point — precision policies drive its
    range trackers and quantizers.
    """
    if qat_controller is not None:
        if config.precision is not None:
            raise ValueError(
                "config.precision and an explicit qat_controller are "
                "alternative precision drivers; pass one or the other"
            )
        return qat_controller
    if config.precision is None:
        return None
    numerics = agent.numerics
    if not isinstance(numerics, DynamicFixedPointNumerics):
        raise ValueError(
            f"config.precision={config.precision!r} needs an agent built on "
            "DynamicFixedPointNumerics; got numerics "
            f"{type(numerics).__name__!r}"
        )
    return resolve_precision(config.precision, numerics, config.precision_spec)


@dataclass(frozen=True)
class _GroupPlan:
    """One benchmark's slice of a run, resolved but with no workers built yet.

    The device-assignment policies price it (``key`` / ``num_workers`` /
    ``num_envs``); :func:`_build_groups` turns it into a
    :class:`~repro.rl.scheduler.ScheduledGroup`.
    """

    key: str
    #: Display name (the template environment's ``name``).
    benchmark: str
    agent: DDPGAgent
    #: Scalar environment the workers replicate into seeded siblings.
    template: Environment
    num_workers: int
    num_envs: int
    eval_env: Environment
    #: Learning-curve label.
    label: str
    #: Hook pricing each of this group's batched rollout inferences.
    platform: object = None
    #: :func:`train`'s ``num_workers == 1`` fast path: the one worker wraps
    #: this engine, which acts through the learner's own agent, instead of a
    #: replica built from ``template``.
    shared_engine: Optional[RolloutEngine] = None


def _build_groups(
    plans: Sequence[_GroupPlan], config: TrainingConfig
) -> List[ScheduledGroup]:
    """Build every plan's workers, replay buffer and collector.

    Worker ids are global in plan order; worker ``w`` seeds its environments
    from the cumulative ``env_offset`` (the lock-step widths of all workers
    before it — :func:`~repro.rl.workers.worker_env_seed`), and the warmup
    budget is split evenly over the whole run's workers.
    """
    total_workers = sum(plan.num_workers for plan in plans)
    per_worker_warmup = -(-config.warmup_timesteps // total_workers)
    groups = []
    worker_id = 0
    env_offset = 0
    for plan in plans:
        agent = plan.agent
        if plan.shared_engine is not None:
            workers = [CollectorWorker(worker_id, plan.shared_engine, shared_agent=True)]
            source_agent = None  # broadcasts are pointless with a shared agent
        else:
            workers = []
            for _ in range(plan.num_workers):
                workers.append(
                    CollectorWorker.from_agent(
                        worker_id,
                        agent,
                        plan.template,
                        plan.num_envs,
                        seed=config.seed,
                        sigma=config.exploration_noise,
                        warmup_timesteps=per_worker_warmup,
                        platform=plan.platform,
                        env_offset=env_offset,
                    )
                )
                worker_id += 1
                env_offset += plan.num_envs
            source_agent = agent
        buffer = ReplayBuffer(
            config.buffer_capacity, agent.state_dim, agent.action_dim, seed=config.seed
        )
        collector = AsyncCollector(
            workers, buffer, source_agent=source_agent, sync_interval=config.sync_interval
        )
        groups.append(
            ScheduledGroup(
                key=plan.key,
                benchmark=plan.benchmark,
                collector=collector,
                agent=agent,
                buffer=buffer,
                curve=LearningCurve(plan.label),
                eval_env=plan.eval_env,
            )
        )
    return groups


def _run_groups(
    groups: Sequence[ScheduledGroup],
    config: TrainingConfig,
    policy,
    *,
    qat_controller,
    platform,
    on_evaluation,
    profiler,
    restart_shared_env: bool = False,
) -> Tuple[ScheduleOutcome, List[TrainingResult]]:
    """Run built groups through the scheduler; one result per group, in order."""
    for group in groups:
        if profiler is not None:
            # One accumulator across the whole run: engines attribute the
            # rollout stages, the buffers attribute the drain writes.
            group.buffer.profiler = profiler
        for worker in group.collector.workers:
            if profiler is not None:
                worker.engine.set_profiler(profiler)
            worker.engine.reset()
    outcome = RoundScheduler(
        groups,
        policy,
        config,
        qat_controller=qat_controller,
        platform=platform,
        on_evaluation=on_evaluation,
        restart_shared_env=restart_shared_env,
    ).run()
    results = [
        TrainingResult(
            curve=group.curve,
            episode_returns=group.collector.episode_returns,
            qat_event=outcome.qat_event,
            total_timesteps=outcome.steps_by_key[group.key],
            total_updates=outcome.updates_by_key[group.key],
            num_envs=group.num_envs,
            num_workers=group.num_workers,
            pipeline_depth=config.pipeline_depth,
            replay_buffer=group.buffer,
        )
        for group in groups
    ]
    return outcome, results


def train(
    env: Union[Environment, VectorEnv],
    agent: DDPGAgent,
    config: TrainingConfig,
    *,
    eval_env: Optional[Environment] = None,
    qat_controller: Optional[QATController] = None,
    noise: Optional[NoiseProcess] = None,
    label: Optional[str] = None,
    progress_callback: Optional[Callable[[int, dict], None]] = None,
    platform=None,
    policy=None,
    profiler=None,
) -> TrainingResult:
    """Train one agent on one benchmark: the one-group run.

    Parameters
    ----------
    env:
        Training environment — a scalar :class:`Environment` (replicated
        into seeded siblings as needed) or, with one worker, a ready-made
        :class:`VectorEnv`.
    agent:
        The DDPG agent to train in place.
    config:
        Loop configuration.  ``total_timesteps`` rounds up to whole rounds
        of ``num_envs * num_workers`` steps (``result.total_timesteps``).
    eval_env:
        Evaluation environment; by default a fresh instance of the training
        benchmark.  When that cannot be built the single worker's first
        training environment is shared, exactly like the scalar loop —
        legal under the sequential schedule only.
    qat_controller:
        Optional Algorithm 1 controller (or any
        :class:`~repro.rl.precision.PrecisionPolicy`) switching activation
        precision; ``config.precision`` resolves one by name instead.
    noise:
        The single worker's exploration noise (default: Gaussian at
        ``config.exploration_noise``); rejected with ``num_workers > 1``.
    label:
        Learning-curve label (defaults to the agent's numeric regime name).
    progress_callback:
        Optional ``callback(timestep, metrics)`` invoked after each
        evaluation with ``{"average_return", "episodes", "activation_bits"}``.
    platform:
        Optional :class:`~repro.platform.FixarPlatform` whose
        ``infer_batch`` prices each batched rollout inference; also the
        weighted schedule's cost oracle.  An
        :class:`~repro.platform.AcceleratorPool` at the same hook (matching
        ``config.devices``) shards every batch over
        its collection devices; ``config.assignment`` is validated against
        the one group with the errors :func:`train_fleet` raises.
    policy:
        Optional explicit :class:`~repro.rl.scheduler.SchedulePolicy`
        overriding the one ``config`` resolves to.
    profiler:
        Optional :class:`~repro.rl.profiling.StageTimers` wired through
        every collection engine and the replay buffer; bit-neutral.

    Schedule semantics (rounds, updates per collected step, evaluation
    cadence, bounded staleness) are documented in :mod:`repro.rl.scheduler`.

    Equivalences.  With ``num_workers == 1`` the worker acts through the
    learner's own agent, noise process and ``default_rng(seed)`` warmup
    stream — the shared-agent fast path, the one place this entry point
    differs from a one-group :func:`train_fleet` — which at
    ``num_envs == 1`` reproduces :func:`train_scalar_reference` bit for bit.
    With ``num_workers = N >= 2`` the run is bit-exact with ``train_fleet``
    on the spec ``"B:N"``: worker ``w`` steps fresh siblings of ``env``
    seeded ``seed + w * num_envs + i`` through its own actor replica and
    ``(seed, w, stream)`` noise/warmup streams, with
    ``ceil(warmup_timesteps / N)`` warmup steps each.
    """
    if config.fleet is not None:
        raise ValueError(
            "config.fleet maps workers to multiple benchmarks, which needs "
            "one learner agent and replay buffer per benchmark — call "
            "train_fleet(agents, config) instead of train(env, agent, config)"
        )
    is_pool = _resolve_device_pool(config, platform)
    qat_controller = _resolve_precision_controller(config, agent, qat_controller)
    if policy is None:
        policy = resolve_policy(config, platform)

    shared_engine = None
    if config.num_workers == 1:
        vec_env = _resolve_vector_env(env, config)
        template, num_envs = vec_env.envs[0], vec_env.num_envs
        # The exact PR-1 engine path, which is what keeps this mode
        # bit-exact with train_scalar_reference at num_envs == 1.
        shared_engine = RolloutEngine(
            vec_env,
            agent,
            buffer=None,
            noise=noise
            or GaussianNoise(agent.action_dim, config.exploration_noise, seed=config.seed),
            warmup_timesteps=config.warmup_timesteps,
            rng=np.random.default_rng(config.seed),
            platform=platform,
        )
    else:
        if isinstance(env, VectorEnv):
            raise ValueError(
                "num_workers > 1 replicates a scalar environment template "
                "into per-worker VectorEnvs; pass the scalar environment "
                "instead of a prebuilt VectorEnv"
            )
        if noise is not None:
            raise ValueError(
                "num_workers > 1 gives every worker an independent noise "
                "process; a single shared noise instance cannot be "
                "partitioned — configure exploration_noise instead"
            )
        template, num_envs = env, config.num_envs

    shares_training_env = False
    if eval_env is None:
        # Prefer a fresh instance of the same benchmark so evaluations do not
        # disturb the training episodes; fall back to sharing when the
        # environment cannot be default-constructed.  Replica workers step
        # fresh siblings, never the template itself, so only the shared-agent
        # path has in-flight episodes an evaluation could disturb.
        eval_env, shared = _resolve_evaluation_env(template, config)
        shares_training_env = shared and shared_engine is not None
    if shares_training_env and policy.depth > 0:
        # The rounds already collected past the evaluated boundary would
        # continue the disturbed episodes: refuse instead of diverging.
        raise ValueError(
            "pipeline_depth > 0 cannot share the training environment with "
            "evaluation (the fleet collects past each evaluation boundary "
            "before the restart fires); pass an explicit eval_env"
        )

    key = str(getattr(template, "name", "train")).lower()
    plan = _GroupPlan(
        key=key,
        benchmark=getattr(template, "name", key),
        agent=agent,
        template=template,
        num_workers=config.num_workers,
        num_envs=num_envs,
        eval_env=eval_env,
        label=label or agent.numerics.name,
        platform=platform,
        shared_engine=shared_engine,
    )
    if is_pool:
        # Validation only (unknown benchmark, out-of-range device): the
        # one group's batches shard over the whole pool through the
        # unchanged ``infer_batch`` joint, whatever device it is dealt.
        resolve_assignment(config).assign([plan], platform)

    on_evaluation = None
    if progress_callback is not None:

        def on_evaluation(evaluated_step: int, metrics: Dict[str, dict]) -> None:
            progress_callback(
                evaluated_step,
                {**metrics[key], "activation_bits": agent.numerics.activation_bits},
            )

    _outcome, (result,) = _run_groups(
        _build_groups([plan], config),
        config,
        policy,
        qat_controller=qat_controller,
        platform=platform,
        on_evaluation=on_evaluation,
        profiler=profiler,
        restart_shared_env=shares_training_env,
    )
    return result


def _fleet_plans(
    agents: Mapping[str, DDPGAgent],
    config: TrainingConfig,
    *,
    env_templates: Optional[Mapping[str, Environment]] = None,
    eval_envs: Optional[Mapping[str, Environment]] = None,
    label: Optional[str] = None,
) -> List[_GroupPlan]:
    """One plan per ``config.fleet`` entry, with ``agents`` validated against it.

    Mapping names are matched case-insensitively.  Every spec benchmark
    needs an agent (and no agent may be left over), and each agent's
    ``(state_dim, action_dim)`` must match the registry's
    :func:`~repro.envs.registry.benchmark_dimensions`.
    """
    agents_by_key = {str(name).lower(): agent for name, agent in dict(agents).items()}
    if len(agents_by_key) != len(dict(agents)):
        raise ValueError("agents mapping has case-colliding benchmark names")
    fleet_spec = parse_fleet_spec(config.fleet, default_width=config.num_envs)
    spec_keys = [key for key, _count, _width in fleet_spec]
    missing = [key for key in spec_keys if key not in agents_by_key]
    if missing:
        raise ValueError(f"agents mapping is missing fleet benchmarks: {missing}")
    extra = sorted(set(agents_by_key) - set(spec_keys))
    if extra:
        raise ValueError(f"agents mapping names benchmarks outside the fleet: {extra}")
    templates = {str(name).lower(): env for name, env in dict(env_templates or {}).items()}
    given_eval = {str(name).lower(): env for name, env in dict(eval_envs or {}).items()}

    plans = []
    for key, count, width in fleet_spec:
        agent = agents_by_key[key]
        dims = benchmark_dimensions(key)
        if (agent.state_dim, agent.action_dim) != (dims["state_dim"], dims["action_dim"]):
            raise ValueError(
                f"agent for {key!r} has dims "
                f"({agent.state_dim}, {agent.action_dim}); the benchmark needs "
                f"({dims['state_dim']}, {dims['action_dim']})"
            )
        template = templates.get(key)
        if template is None:
            template = make_registered_env(key)
        eval_env = given_eval.get(key)
        if eval_env is None:
            # No worker ever steps the template (they step fresh siblings),
            # so even the sharing fallback cannot disturb a training episode.
            eval_env, _shared = _resolve_evaluation_env(template, config)
        plans.append(
            _GroupPlan(
                key=key,
                benchmark=template.name,
                agent=agent,
                template=template,
                num_workers=count,
                num_envs=width,
                eval_env=eval_env,
                label=f"{label or agent.numerics.name}/{template.name}",
            )
        )
    return plans


def train_fleet(
    agents: Mapping[str, DDPGAgent],
    config: TrainingConfig,
    *,
    env_templates: Optional[Mapping[str, Environment]] = None,
    eval_envs: Optional[Mapping[str, Environment]] = None,
    qat_controller: Optional[QATController] = None,
    label: Optional[str] = None,
    progress_callback: Optional[Callable[[int, dict], None]] = None,
    platform=None,
    policy=None,
    profiler=None,
) -> FleetTrainingResult:
    """Train per-benchmark learners over one heterogeneous collector fleet.

    Each ``config.fleet`` entry ``benchmark:count[:num_envs]`` (grammar in
    :func:`~repro.rl.workers.parse_fleet_spec`) is one group: ``count``
    workers stepping ``num_envs`` environments of that benchmark each, one
    learner agent, one replay buffer.

    Parameters
    ----------
    agents:
        One learner agent per fleet benchmark (names matched
        case-insensitively, no extras), each matching its benchmark's
        registered ``(state_dim, action_dim)``.  All agents must share **one
        numerics object** so a QAT precision switch applies to every
        benchmark's networks (and collection replicas) at once.
    config:
        Loop configuration with ``config.fleet`` set and ``num_workers`` left
        at 1.  ``total_timesteps`` rounds up to whole fleet rounds.
    env_templates, eval_envs:
        Optional per-benchmark template environments (workers step fresh
        seeded replicas; default ``registry.make``) and evaluation
        environments (default: a fresh instance, exactly like :func:`train`).
    qat_controller:
        Optional shared precision driver, as in :func:`train`.  It counts
        fleet-wide environment steps, so a switch lands on the same global
        timestep as in an equivalent homogeneous run.
    label:
        Learning-curve label prefix; each benchmark's curve is labelled
        ``"<label>/<benchmark>"`` (default: the shared numerics name).
    progress_callback:
        Optional ``callback(timestep, metrics)`` invoked after each
        evaluation boundary with ``{"benchmarks": {name:
        {"average_return", "episodes"}}, "activation_bits"}``.
    platform:
        Optional :class:`~repro.platform.FixarPlatform`, re-targeted per
        group (``for_benchmark``) so every worker prices its batched
        inferences under its own layer dimensions; also the weighted
        schedule's cost oracle.  With an
        :class:`~repro.platform.AcceleratorPool` (matching
        ``config.devices``) the
        :class:`~repro.rl.scheduler.DeviceAssignmentPolicy` selected by
        ``config.assignment`` maps each group to a device before any worker
        is built, the group's workers price on that device, and the
        affinity lands in ``FleetTrainingResult.assignment``.  Devices
        change only the modelled pricing, never the training numerics.
    policy, profiler:
        As in :func:`train`.

    The groups run, in spec order, through the same round schedule as
    :func:`train`'s one group (:mod:`repro.rl.scheduler`).

    Equivalences.  Worker ids are global in spec order, so every worker
    keeps the ``seed + env_offset + i`` environment seeds and ``(seed,
    worker_id, stream)`` noise/warmup streams of :func:`train`'s replica
    workers: a single-benchmark spec ``"B:N"`` is *bit-exact* with
    ``train(env, agent, config(num_workers=N))`` for ``N >= 2``.  ``"B:1"``
    is still the replica path, *not* ``train(num_workers=1)``'s
    shared-agent fast path.  On a pool of two or more devices the two entry
    points agree on the training numerics but not on
    ``modelled_platform_seconds``: a fleet group prices on its one assigned
    device, ``train`` shards every batch over the pool.
    """
    if config.fleet is None:
        raise ValueError("train_fleet needs config.fleet; for homogeneous runs call train")
    numerics_objects = {id(agent.numerics) for agent in dict(agents).values()}
    if len(numerics_objects) > 1:
        raise ValueError(
            "fleet agents must share one numerics object (a QAT precision "
            "switch has to apply to every benchmark at once) — construct the "
            "agents with the same numerics instance"
        )
    if qat_controller is not None:
        controller_numerics = getattr(qat_controller, "numerics", None)
        if controller_numerics is not None and numerics_objects != {id(controller_numerics)}:
            raise ValueError(
                "qat_controller is bound to a different numerics object than "
                "the fleet's agents; share one instance across both"
            )
    plans = _fleet_plans(
        agents, config, env_templates=env_templates, eval_envs=eval_envs, label=label
    )
    numerics = plans[0].agent.numerics
    qat_controller = _resolve_precision_controller(config, plans[0].agent, qat_controller)

    assignment: Dict[str, int] = {}
    is_pool = _resolve_device_pool(config, platform)
    if is_pool:
        # Resolve the per-benchmark device affinity before any worker is
        # built, then bind it onto the pool so the weighted policy's oracle
        # and every fleet_* report price the round actually scheduled.
        devices = resolve_assignment(config).assign(plans, platform)
        assignment = {plan.key: device for plan, device in zip(plans, devices)}
        platform = platform.with_assignment(assignment)
    if platform is not None:
        # Each group's workers price their inferences under their own layer
        # dimensions — on a pool, on their assigned device.
        plans = [
            replace(
                plan,
                platform=(
                    platform.device(assignment[plan.key]) if is_pool else platform
                ).for_benchmark(
                    plan.key, hidden_sizes=tuple(plan.agent.config.hidden_sizes)
                ),
            )
            for plan in plans
        ]
    if policy is None:
        policy = resolve_policy(config, platform)

    on_evaluation = None
    if progress_callback is not None:

        def on_evaluation(evaluated_step: int, metrics: Dict[str, dict]) -> None:
            progress_callback(
                evaluated_step,
                {
                    "benchmarks": {plan.benchmark: metrics[plan.key] for plan in plans},
                    "activation_bits": numerics.activation_bits,
                },
            )

    outcome, results = _run_groups(
        _build_groups(plans, config),
        config,
        policy,
        qat_controller=qat_controller,
        platform=platform,
        on_evaluation=on_evaluation,
        profiler=profiler,
    )
    result = FleetTrainingResult(
        fleet=[(plan.key, plan.num_workers, plan.num_envs) for plan in plans],
        total_timesteps=outcome.total_timesteps,
        total_updates=outcome.total_updates,
        num_envs=config.num_envs,
        num_workers=sum(plan.num_workers for plan in plans),
        pipeline_depth=config.pipeline_depth,
        schedule=policy.name,
        weights=list(outcome.weights),
        devices=config.devices,
        assignment=assignment,
    )
    for plan, benchmark_result in zip(plans, results):
        # Keyed by display name (nice for reports); a factory whose env
        # display name collides with another group's falls back to the
        # unique registry key rather than silently overwriting a result.
        result_key = plan.benchmark
        if result_key in result.per_benchmark:
            result_key = plan.key
        result.per_benchmark[result_key] = benchmark_result
    return result


def train_scalar_reference(
    env: Environment,
    agent: DDPGAgent,
    config: TrainingConfig,
    *,
    eval_env: Optional[Environment] = None,
    qat_controller: Optional[QATController] = None,
    noise: Optional[NoiseProcess] = None,
    label: Optional[str] = None,
    progress_callback: Optional[Callable[[int, dict], None]] = None,
) -> TrainingResult:
    """The pre-vectorization scalar training loop, preserved verbatim.

    This is the behavioral oracle for the rollout-engine refactor: the
    regression tests assert that :func:`train` with ``num_envs == 1``
    reproduces this loop bit for bit (same learning curve, same episode
    returns, same replay-buffer contents, same final weights).  Production
    code should call :func:`train`.
    """
    rng = np.random.default_rng(config.seed)
    shares_training_env = False
    if eval_env is not None:
        evaluation_env = eval_env
    else:
        evaluation_env, shares_training_env = _resolve_evaluation_env(env, config)
    noise = noise or GaussianNoise(agent.action_dim, config.exploration_noise, seed=config.seed)
    buffer = ReplayBuffer(
        config.buffer_capacity, agent.state_dim, agent.action_dim, seed=config.seed
    )
    curve = LearningCurve(label or agent.numerics.name)
    result = TrainingResult(curve=curve, replay_buffer=buffer)

    observation = env.reset()
    episode_return = 0.0

    for timestep in range(config.total_timesteps):
        qat_event = None
        if qat_controller is not None:
            qat_event = qat_controller.on_timestep(timestep)
            if qat_event is not None:
                result.qat_event = qat_event

        # ----- Action selection ------------------------------------------ #
        if timestep < config.warmup_timesteps:
            action = rng.uniform(-1.0, 1.0, size=agent.action_dim)
        else:
            action = agent.act(observation, noise.sample())

        # ----- Environment interaction (host CPU side) -------------------- #
        next_observation, reward, done, _ = env.step(action)
        buffer.add(observation, action, reward, next_observation, done)
        episode_return += reward
        observation = next_observation

        if done:
            result.episode_returns.append(episode_return)
            episode_return = 0.0
            observation = env.reset()
            noise.reset()

        # ----- Agent update (accelerator side) ----------------------------- #
        if len(buffer) >= config.batch_size and timestep >= config.warmup_timesteps:
            agent.update(buffer.sample(config.batch_size))
            result.total_updates += 1

        # ----- Periodic evaluation ---------------------------------------- #
        if (timestep + 1) % config.evaluation_interval == 0:
            average_return = evaluate_policy(
                evaluation_env, agent, episodes=config.evaluation_episodes
            )
            curve.record(timestep + 1, average_return)
            if shares_training_env:
                # Evaluation consumed the shared environment's episode; start
                # a fresh training episode from a clean state.
                result.episode_returns.append(episode_return)
                episode_return = 0.0
                observation = env.reset()
                noise.reset()
            if progress_callback is not None:
                progress_callback(
                    timestep + 1,
                    {
                        "average_return": average_return,
                        "episodes": len(result.episode_returns),
                        "activation_bits": agent.numerics.activation_bits,
                    },
                )

    # If the run ended between evaluation points, add a final evaluation so
    # short smoke-test runs still produce a non-empty curve.
    if not curve.points:
        curve.record(
            config.total_timesteps,
            evaluate_policy(evaluation_env, agent, episodes=config.evaluation_episodes),
        )

    result.total_timesteps = config.total_timesteps
    return result
