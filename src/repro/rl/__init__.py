"""Deep reinforcement learning substrate (DDPG + quantization-aware training).

Contains the replay buffer, exploration noise processes, the DDPG agent with
explicit forward/backward/weight-update phases, Algorithm 1's QAT schedule
and controller, the training loop, and the evaluation protocol used by the
paper's Fig. 7 accuracy study.

Experience collection is built on the vectorized rollout subsystem: a
:class:`RolloutEngine` lock-steps a :class:`~repro.envs.VectorEnv`, selects
actions for all ``num_envs`` environments with one batched actor forward
pass, draws exploration noise in one batched call
(:meth:`NoiseProcess.sample_batch`), and inserts transitions with one
:meth:`ReplayBuffer.add_batch` write.  An :class:`AsyncCollector`
coordinates one benchmark's :class:`CollectorWorker` replicas (each owning
its own ``VectorEnv`` + engine, seeded ``seed + env_offset + i``) around one
shared replay buffer in deterministic in-process rounds; the replicas share
the learner's numerics object, so a precision switch reaches them at once.

Training is one builder, one scheduler, two result shapes
(:mod:`repro.rl.training`).  A run is a list of :class:`ScheduledGroup` s —
one benchmark's collector, learner agent, replay buffer, curve and
evaluation environment, all learners sharing one numerics object so QAT
switches apply run-wide — built in one place and driven by one
:class:`RoundScheduler`.  :func:`train_fleet` runs the N groups of a
``TrainingConfig.fleet`` spec (e.g. ``"HalfCheetah:2,Hopper:2"``) and
returns a :class:`FleetTrainingResult`; :func:`train` is the one-group case
(``TrainingConfig.num_workers``) and returns its :class:`TrainingResult`.
With one worker and ``num_envs == 1`` it reproduces the scalar loop —
preserved as :func:`train_scalar_reference` — bit for bit.  The scheduler
(:mod:`repro.rl.scheduler`) shapes rounds through a pluggable
:class:`SchedulePolicy` selected by ``TrainingConfig.schedule``:
:class:`SequentialPolicy`, :class:`PipelinedPolicy` (bounded staleness: the
fleet collects round k+1 while the learner drains round k) and
:class:`ThroughputWeightedPolicy` (cheaper modelled benchmarks collect
extra lock-steps per round).  Activation precision is driven
by the *precision subsystem* (:mod:`repro.rl.precision`): a registry of
drivers — ``global-switch`` (Algorithm 1's single fleet-wide switch, which
*is* :class:`QATController`; :data:`GlobalSwitchPolicy` is its alias),
:class:`PerLayerSchedulePolicy` (static per-layer bitwidth table), and
:class:`RangeDrivenPolicy` (switches each layer once its activation-range
statistics stabilise) — that advance the shared numerics object's
per-layer state, which the checkpoint and platform pricing layers read
back as a normalized ``precision_state()``.  Future
scaling layers
(sharded accelerators, multi-backend inference) should likewise slot in
behind the engine's ``act_batch``/``step`` seam rather than re-introducing
per-transition calls.
"""

from .checkpoint import (
    checkpoint_metadata,
    load_agent_into,
    read_checkpoint,
    restore_agent,
    save_agent,
)
from .ddpg import DDPGAgent, DDPGConfig, UpdateMetrics
from .evaluation import EvaluationPoint, LearningCurve, compare_curves, evaluate_policy
from .noise import DecayedNoise, GaussianNoise, NoiseProcess, OrnsteinUhlenbeckNoise
from .precision import (
    PRECISION_POLICIES,
    GlobalSwitchPolicy,
    LayerSwitch,
    PerLayerSchedulePolicy,
    PrecisionEvent,
    PrecisionPolicy,
    RangeDrivenPolicy,
    register_precision_policy,
    resolve_precision,
)
from .profiling import ROLLOUT_STAGES, StageTimers
from .qat import QATController, QATEvent, QATSchedule
from .replay_buffer import ReplayBuffer, TransitionBatch
from .rollout import RolloutEngine, RolloutStats, VectorTransitions
from .scheduler import (
    ASSIGNMENTS,
    AffinityAssignment,
    DeviceAssignmentPolicy,
    LoadBalancedAssignment,
    PipelinedPolicy,
    RoundRobinAssignment,
    RoundScheduler,
    ScheduledGroup,
    ScheduleOutcome,
    SchedulePolicy,
    SequentialPolicy,
    ThroughputWeightedPolicy,
    resolve_assignment,
    resolve_policy,
)
from .training import (
    FleetTrainingResult,
    TrainingConfig,
    TrainingResult,
    train,
    train_fleet,
    train_scalar_reference,
)
from .workers import (
    ActorPolicy,
    AsyncCollector,
    AsyncCollectStats,
    CollectorWorker,
    parse_fleet_spec,
    worker_env_seed,
)

__all__ = [
    "DDPGAgent",
    "DDPGConfig",
    "UpdateMetrics",
    "save_agent",
    "load_agent_into",
    "read_checkpoint",
    "restore_agent",
    "checkpoint_metadata",
    "ReplayBuffer",
    "TransitionBatch",
    "NoiseProcess",
    "GaussianNoise",
    "OrnsteinUhlenbeckNoise",
    "DecayedNoise",
    "QATSchedule",
    "QATController",
    "QATEvent",
    "PrecisionPolicy",
    "PrecisionEvent",
    "LayerSwitch",
    "GlobalSwitchPolicy",
    "PerLayerSchedulePolicy",
    "RangeDrivenPolicy",
    "PRECISION_POLICIES",
    "register_precision_policy",
    "resolve_precision",
    "RolloutEngine",
    "RolloutStats",
    "VectorTransitions",
    "StageTimers",
    "ROLLOUT_STAGES",
    "RoundScheduler",
    "ScheduledGroup",
    "ScheduleOutcome",
    "SchedulePolicy",
    "SequentialPolicy",
    "PipelinedPolicy",
    "ThroughputWeightedPolicy",
    "resolve_policy",
    "DeviceAssignmentPolicy",
    "RoundRobinAssignment",
    "AffinityAssignment",
    "LoadBalancedAssignment",
    "ASSIGNMENTS",
    "resolve_assignment",
    "ActorPolicy",
    "AsyncCollector",
    "AsyncCollectStats",
    "CollectorWorker",
    "parse_fleet_spec",
    "worker_env_seed",
    "TrainingConfig",
    "TrainingResult",
    "FleetTrainingResult",
    "train",
    "train_fleet",
    "train_scalar_reference",
    "evaluate_policy",
    "LearningCurve",
    "EvaluationPoint",
    "compare_curves",
]
