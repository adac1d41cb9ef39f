"""Collection workers: actor replicas, one collector per replay buffer.

A :class:`CollectorWorker` owns a :class:`~repro.envs.vector.VectorEnv` and a
:class:`~repro.rl.rollout.RolloutEngine`; an :class:`AsyncCollector`
coordinates the workers of **one** benchmark around **one** shared
:class:`~repro.rl.replay_buffer.ReplayBuffer` (``add_batch`` drains) and
broadcasts the learner's actor weights to their :class:`ActorPolicy`
replicas every ``sync_interval`` environment steps.  A training run is one
collector per benchmark group; the groups are built in
:mod:`repro.rl.training` and stepped by :mod:`repro.rl.scheduler`.

Fleet specs
-----------
A run's workers may span several registered benchmarks, so one run stresses
the accelerator with mixed batch shapes (the adaptive-parallelism scenario
the paper's multi-benchmark evaluation implies).  :func:`parse_fleet_spec`
owns the grammar: ``"HalfCheetah:2:16,Hopper:2:8"`` is a four-worker fleet
whose HalfCheetah workers step 16 environments in lock-step while the Hopper
workers step 8.

Topology and seeding
--------------------
Worker ids are **global** across a run, in spec order: entry ``(b, count,
width)`` claims the next ``count`` ids.  Worker ``w``'s environment ``i`` is
seeded ``seed + env_offset(w) + i`` (:func:`worker_env_seed`), where
``env_offset(w)`` is the sum of the lock-step widths of all workers before
it.  At a uniform width that is ``seed + w * num_envs + i``, so the workers
observe exactly the trajectories one wide ``VectorEnv`` of all their
environments would have produced, partitioned into independent slices —
and a one-benchmark spec ``"Hopper:2"`` seeds exactly as ``num_workers=2``
does (pinned by ``tests/test_hetero_fleet.py``; the mixed-width offsets by
``tests/test_scheduler.py``).  Each replica worker also owns an independent
exploration-noise process and warmup RNG on the derived streams
``(seed, w, 0)`` and ``(seed, w, 1)``, keyed by worker id regardless of
widths.

Execution
---------
Collection is in-process and deterministic: :meth:`AsyncCollector.step_sync`
steps the workers in id order, one lock-step each, draining every worker's
transitions into the shared buffer in that order.  With one worker this is
*bit-exact* with driving the worker's :class:`RolloutEngine` directly, and
runs are reproducible at any worker count; a pipelined schedule runs the
same rounds with the buffer insertion deferred (``step_sync(drain=False)`` +
:meth:`AsyncCollector.drain`).  Replicas share the learner's numerics
object, so a precision switch reaches every worker the moment it fires.

Platform accounting: every worker's engine prices each policy lock-step as
one ``platform.infer_batch(num_envs)``, and the coordinator aggregates the
per-worker :class:`~repro.rl.rollout.RolloutStats` including those modelled
seconds.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from ..envs.base import Environment
from ..envs.registry import available_benchmarks
from ..envs.vector import VectorEnv
from ..nn.network import MLP, build_actor
from .ddpg import batched_policy_actions
from .noise import GaussianNoise, NoiseProcess
from .replay_buffer import ReplayBuffer
from .rollout import RolloutEngine, RolloutStats, VectorTransitions

__all__ = [
    "ActorPolicy",
    "CollectorWorker",
    "AsyncCollector",
    "AsyncCollectStats",
    "parse_fleet_spec",
    "worker_env_seed",
]


def _parse_count_field(name: str, what: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(
            f"{what} of {name!r} must be an integer, got {text.strip()!r}"
        ) from None


def parse_fleet_spec(
    spec: Union[str, Sequence], default_width: Optional[int] = None
) -> List[tuple]:
    """Parse a fleet spec into ``[(benchmark_key, worker_count, width), ...]``.

    The grammar is a comma-separated list of
    ``benchmark[:count[:num_envs]]`` entries: ``"HalfCheetah:2:16,Hopper"``
    means two HalfCheetah workers of 16 lock-stepped environments each,
    followed by one Hopper worker at the default width.  Benchmark names are
    resolved case-insensitively against :mod:`repro.envs.registry`
    (``register()`` there is how new benchmarks join fleets) and
    returned as the lowercase registry keys; entry order is preserved
    because it determines the fleet's global worker-id assignment (and with
    it the deterministic seeding).  A pre-parsed sequence of ``(name,
    count)`` pairs or ``(name, count, width)`` triples is validated and
    canonicalised the same way.

    ``width`` is ``default_width`` (usually the run's ``config.num_envs``;
    ``None`` when no default applies yet) for entries that do not set the
    third field.

    Raises ``ValueError`` for an empty spec, an empty entry, a non-integer
    or non-positive count or width, an unregistered benchmark, or a
    benchmark that appears more than once.
    """
    if isinstance(spec, str):
        entries = []
        for raw_entry in spec.split(","):
            entry = raw_entry.strip()
            if not entry:
                raise ValueError(f"empty entry in fleet spec {spec!r}")
            fields = [field.strip() for field in entry.split(":")]
            if len(fields) > 3:
                raise ValueError(
                    f"fleet entry {entry!r} has too many fields; the grammar "
                    "is benchmark[:count[:num_envs]]"
                )
            name = fields[0]
            if not name:
                raise ValueError(f"missing benchmark name in fleet entry {entry!r}")
            count = (
                _parse_count_field(name, "worker count", fields[1])
                if len(fields) >= 2
                else 1
            )
            width = (
                _parse_count_field(name, "num_envs width", fields[2])
                if len(fields) == 3
                else None
            )
            entries.append((name, count, width))
    else:
        entries = []
        for item in spec:
            try:
                # operator.index rejects non-integral counts (2.9 must not
                # silently truncate to 2 workers — that would change the
                # fleet's deterministic seeding layout); same for widths.
                if len(item) == 2:
                    name, count = item
                    width = None
                else:
                    name, count, width = item
                    width = None if width is None else operator.index(width)
                entries.append((str(name), operator.index(count), width))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    "a pre-parsed fleet spec must be (name, integer count) "
                    f"pairs or (name, count, width) triples: {exc}"
                ) from None
    if not entries:
        raise ValueError("fleet spec must name at least one benchmark")

    registered = set(available_benchmarks())
    resolved: List[tuple] = []
    seen = set()
    for name, count, width in entries:
        key = name.lower()
        if key not in registered:
            raise ValueError(
                f"unknown benchmark {name!r} in fleet spec; "
                f"available: {sorted(registered)}"
            )
        if count <= 0:
            raise ValueError(
                f"worker count of {name!r} must be positive, got {count}"
            )
        if width is None:
            width = default_width
        elif width <= 0:
            raise ValueError(
                f"num_envs width of {name!r} must be positive, got {width}"
            )
        if key in seen:
            raise ValueError(
                f"benchmark {name!r} appears more than once in the fleet spec; "
                "merge its worker counts into one entry"
            )
        seen.add(key)
        resolved.append((key, count, width))
    return resolved


def worker_env_seed(
    seed: Optional[int],
    worker_id: int,
    num_envs: int,
    env_offset: Optional[int] = None,
) -> Optional[int]:
    """Base environment seed of one worker: ``seed + env_offset``.

    ``env_offset`` is the worker's global environment offset — the number of
    environments owned by all workers before it in fleet order.  It defaults
    to ``worker_id * num_envs`` (the uniform-width fleet), realising the
    historical ``seed + worker_id * num_envs + i`` scheme; mixed-width
    fleets pass the cumulative offset instead, so environment ``i`` of the
    worker still gets ``base + i`` through :meth:`VectorEnv.spawn_seeds`
    and every global environment index maps to exactly one seed.
    """
    if seed is None:
        return None
    if env_offset is None:
        env_offset = worker_id * num_envs
    return seed + env_offset


def _derived_stream_seed(seed: Optional[int], worker_id: int, stream: int):
    """Entropy for a worker-private RNG stream, independent across workers."""
    if seed is None:
        return None
    return [seed, worker_id, stream]


class ActorPolicy:
    """A detached actor replica: selects actions, never learns.

    Collection workers do not act through the learner's mutable networks:
    each worker owns a copy of the actor MLP holding whatever the last
    broadcast delivered (:meth:`load_parameters`), which is what gives
    ``sync_interval`` and the pipelined staleness window their meaning.
    The numerics object is *shared* with the source agent, so a QAT
    precision switch applies to replicas immediately.
    """

    def __init__(self, actor: MLP, action_dim: int):
        self.actor = actor
        self.action_dim = action_dim

    @classmethod
    def from_agent(cls, agent, rng: Union[np.random.Generator, int, None] = None) -> "ActorPolicy":
        """Clone an agent's actor network."""
        replica = build_actor(
            agent.state_dim,
            agent.action_dim,
            tuple(agent.config.hidden_sizes),
            rng=rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng),
            numerics=agent.numerics,
        )
        replica.copy_from(agent.actor)
        return cls(replica, agent.action_dim)

    def act_batch(self, states: np.ndarray, noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Batched actor inference — the agents' shared implementation."""
        return batched_policy_actions(self.actor, states, noise)

    def load_parameters(self, params) -> None:
        """Overwrite the replica's weights with a broadcast parameter dict."""
        self.actor.set_parameters(params)


class CollectorWorker:
    """One collection worker: its own ``VectorEnv`` plus engine replica.

    Parameters
    ----------
    worker_id:
        Position of the worker in the fleet (drives the seeding scheme).
    engine:
        The worker's private rollout engine.  Its buffer must be ``None`` —
        transitions flow to the coordinator, which owns the single shared
        replay buffer.
    shared_agent:
        ``True`` when the engine acts through the learner's own agent object
        (the single-worker deterministic path); weight broadcasts are then
        no-ops.
    """

    def __init__(self, worker_id: int, engine: RolloutEngine, *, shared_agent: bool = False):
        if worker_id < 0:
            raise ValueError(f"worker_id must be non-negative, got {worker_id}")
        if engine.buffer is not None:
            raise ValueError(
                "a CollectorWorker's engine must not own a replay buffer; "
                "the AsyncCollector drains transitions into the shared one"
            )
        self.worker_id = worker_id
        self.engine = engine
        self.shared_agent = shared_agent

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_agent(
        cls,
        worker_id: int,
        agent,
        env_template: Environment,
        num_envs: int,
        *,
        seed: Optional[int] = 0,
        sigma: float = 0.1,
        warmup_timesteps: int = 0,
        platform=None,
        env_offset: Optional[int] = None,
    ) -> "CollectorWorker":
        """Build a worker replica around a scalar environment template.

        The worker's environments are fresh seeded siblings of the template
        (``seed + env_offset + i``, where ``env_offset`` defaults to
        ``worker_id * num_envs`` — the uniform-width scheme — and
        mixed-width fleets pass the worker's cumulative environment offset);
        the policy is an :class:`ActorPolicy` clone of ``agent``'s actor;
        the noise process and warmup RNG use worker-private derived streams
        keyed by the worker id alone.
        """
        if num_envs <= 0:
            raise ValueError(f"num_envs must be positive, got {num_envs}")
        env = VectorEnv.from_template(
            env_template,
            num_envs,
            seed=worker_env_seed(seed, worker_id, num_envs, env_offset=env_offset),
        )
        policy = ActorPolicy.from_agent(agent)
        noise = GaussianNoise(
            agent.action_dim, sigma, seed=_derived_stream_seed(seed, worker_id, 0)
        )
        engine = RolloutEngine(
            env,
            policy,
            buffer=None,
            noise=noise,
            warmup_timesteps=warmup_timesteps,
            rng=np.random.default_rng(_derived_stream_seed(seed, worker_id, 1)),
            platform=platform,
        )
        return cls(worker_id, engine)

    # ------------------------------------------------------------------ #
    # Introspection / weight sync
    # ------------------------------------------------------------------ #
    @property
    def num_envs(self) -> int:
        return self.engine.num_envs

    def sync_weights(self, params) -> None:
        """Refresh the worker's actor replica from broadcast parameters."""
        if self.shared_agent:
            return
        self.engine.agent.load_parameters(params)

    def stats_snapshot(self, wall_seconds: float = 0.0) -> RolloutStats:
        """The worker's lifetime rollout statistics."""
        engine = self.engine
        return RolloutStats(
            num_envs=engine.num_envs,
            total_steps=engine.total_env_steps,
            iterations=engine.total_env_steps // engine.num_envs,
            episodes=len(engine.episode_returns),
            wall_seconds=wall_seconds,
            modelled_platform_seconds=engine.modelled_platform_seconds,
        )

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self) -> VectorTransitions:
        """One lock-step of this worker's environments."""
        return self.engine.step()


@dataclass
class AsyncCollectStats(RolloutStats):
    """Aggregate outcome of one :meth:`AsyncCollector.collect` run.

    Extends :class:`RolloutStats` (throughput properties included) with the
    fleet dimensions; ``num_envs`` is the per-worker lock-step width,
    ``total_steps``/``episodes``/``modelled_platform_seconds`` aggregate the
    whole fleet, and ``iterations`` counts the deterministic rounds.
    """

    num_workers: int = 1
    per_worker: List[RolloutStats] = field(default_factory=list)

    def as_dict(self) -> dict:
        info = super().as_dict()
        info["num_workers"] = self.num_workers
        return info


class AsyncCollector:
    """Coordinates N collection workers around one shared replay buffer.

    Parameters
    ----------
    workers:
        The worker fleet.  All workers must step the same number of
        environments (the lock-step width of the fleet is uniform).
    buffer:
        The single shared replay buffer every worker feeds via ``add_batch``.
    source_agent:
        The learner whose actor weights are broadcast to the worker replicas.
        ``None`` disables broadcasting (pure-collection runs with frozen
        replicas).
    sync_interval:
        Environment steps between actor-weight broadcasts: a round
        broadcasts at the first boundary where the counter has reached the
        interval.
    """

    def __init__(
        self,
        workers: Sequence[CollectorWorker],
        buffer: ReplayBuffer,
        *,
        source_agent=None,
        sync_interval: int = 1,
    ):
        workers = list(workers)
        if not workers:
            raise ValueError("AsyncCollector needs at least one worker")
        widths = {worker.num_envs for worker in workers}
        if len(widths) > 1:
            raise ValueError(f"workers must share one lock-step width, got {sorted(widths)}")
        ids = [worker.worker_id for worker in workers]
        if len(set(ids)) != len(ids):
            raise ValueError(f"worker ids must be unique, got {ids}")
        if sync_interval <= 0:
            raise ValueError(f"sync_interval must be positive, got {sync_interval}")
        self.workers = workers
        self.buffer = buffer
        self.source_agent = source_agent
        self.sync_interval = sync_interval
        self._steps_since_sync = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def num_envs(self) -> int:
        """Lock-step width of each worker."""
        return self.workers[0].num_envs

    @property
    def steps_per_round(self) -> int:
        """Environment steps of one synchronous round across the fleet."""
        return self.num_workers * self.num_envs

    @property
    def episode_returns(self) -> List[float]:
        """All finished episode returns, concatenated per worker in id order."""
        returns: List[float] = []
        for worker in sorted(self.workers, key=lambda w: w.worker_id):
            returns.extend(worker.engine.episode_returns)
        return returns

    @property
    def total_env_steps(self) -> int:
        return sum(worker.engine.total_env_steps for worker in self.workers)

    def restart_episodes(self, record: bool = True) -> None:
        """Abandon every worker's in-flight episodes (shared-eval-env path)."""
        for worker in self.workers:
            worker.engine.restart_episodes(record=record)

    # ------------------------------------------------------------------ #
    # Weight broadcast
    # ------------------------------------------------------------------ #
    def _actor_parameters(self):
        """``name → array`` views into one copy of the learner actor's
        parameter buffer.  A read: the learner keeps its cached projections."""
        actor = self.source_agent.actor
        return actor._views(actor._flat.copy())

    def broadcast_weights(self) -> None:
        """Push the learner's current actor weights to every worker replica.

        The snapshot is taken on the coordinator's thread without locking the
        learner: every supported schedule — including the *pipelined* one in
        :func:`~repro.rl.training.train`, which emulates the overlap
        deterministically in one thread — guarantees no agent update runs
        concurrently with a broadcast.  A free-running multi-threaded
        training schedule would have to synchronize (or double-buffer) the
        parameters before broadcasting, or workers would receive torn
        half-updated layers.
        """
        if self.source_agent is None:
            return
        params = self._actor_parameters()
        for worker in self.workers:
            worker.sync_weights(params)
        self._steps_since_sync = 0

    # ------------------------------------------------------------------ #
    # Deterministic rounds
    # ------------------------------------------------------------------ #
    def step_sync(self, drain: bool = True) -> List[VectorTransitions]:
        """One deterministic round: every worker steps once, in id order.

        Weight broadcasts happen at round *boundaries* (before stepping),
        so workers act on the weights produced by the updates of the
        previous round once ``sync_interval`` steps have accumulated.  With
        ``drain=True`` each worker's transitions are drained into the shared
        buffer immediately after its lock-step, giving a reproducible
        insertion order.  ``drain=False`` defers the buffer insertion to the
        caller (see :meth:`drain`): the pipelined training schedule collects
        round *k+1* while round *k*'s transitions are still queued for the
        learner, so the learner — not the collector — decides when a round's
        data becomes sampleable.
        """
        if self._steps_since_sync >= self.sync_interval:
            self.broadcast_weights()
        rounds: List[VectorTransitions] = []
        for worker in self.workers:
            transitions = worker.step()
            rounds.append(transitions)
        if drain:
            self.drain(rounds)
        self._steps_since_sync += self.steps_per_round
        return rounds

    def drain(self, rounds: Sequence[VectorTransitions]) -> None:
        """Insert deferred lock-step transitions into the shared buffer.

        Rounds are drained in the order given (worker id order within a
        round, FIFO across rounds), so a pipelined schedule that defers the
        drain reproduces exactly the insertion order of the immediate-drain
        path.
        """
        for transitions in rounds:
            self.buffer.add_batch(
                transitions.states,
                transitions.actions,
                transitions.rewards,
                transitions.next_states,
                transitions.dones,
            )

    def collect(self, num_steps: int) -> AsyncCollectStats:
        """Collect at least ``num_steps`` environment steps into the buffer.

        Runs whole deterministic rounds, so the total rounds up to a
        multiple of ``num_workers * num_envs``.
        """
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        rounds = -(-num_steps // self.steps_per_round)
        episodes_before = {w.worker_id: len(w.engine.episode_returns) for w in self.workers}
        modelled_before = {
            w.worker_id: w.engine.modelled_platform_seconds for w in self.workers
        }
        start = time.perf_counter()
        for _ in range(rounds):
            self.step_sync()
        wall = time.perf_counter() - start
        stats = AsyncCollectStats(
            num_workers=self.num_workers,
            num_envs=self.num_envs,
            total_steps=rounds * self.steps_per_round,
            iterations=rounds,
            wall_seconds=wall,
        )
        for worker in self.workers:
            engine = worker.engine
            worker_stats = RolloutStats(
                num_envs=worker.num_envs,
                total_steps=rounds * worker.num_envs,
                iterations=rounds,
                episodes=len(engine.episode_returns) - episodes_before[worker.worker_id],
                wall_seconds=wall,
                modelled_platform_seconds=(
                    engine.modelled_platform_seconds - modelled_before[worker.worker_id]
                ),
            )
            stats.per_worker.append(worker_stats)
            stats.episodes += worker_stats.episodes
            stats.modelled_platform_seconds += worker_stats.modelled_platform_seconds
        return stats
