"""Vectorized rollout engine: batched inference over N lock-stepped envs.

The scalar training loop feeds the platform one transition at a time,
leaving the batch dimension of ``MLP.forward`` (and of the accelerator's
data-level parallelism) idle during experience collection.  The
:class:`RolloutEngine` closes that gap: it drives a
:class:`~repro.envs.vector.VectorEnv`, selecting actions for all N
environments with **one** actor forward pass per lock-step, drawing
exploration noise in one batched call, and inserting the N transitions with
one :meth:`~repro.rl.replay_buffer.ReplayBuffer.add_batch` write.

The engine is the bit-compatibility seam of the subsystem: with
``num_envs == 1`` every RNG consumption (warmup uniform draws, exploration
noise, environment streams) happens in exactly the order of the scalar loop
in :mod:`repro.rl.training`, which is what makes the vectorized ``train``
provably behavior-preserving (``tests/test_rollout_engine.py``).

An optional :class:`~repro.platform.FixarPlatform` hook prices each
lock-step's batched actor inference (one batch-of-N FPGA pass + one PCIe
round trip instead of N serial ones), accumulating the modelled platform
time alongside the wall-clock measurement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..envs.vector import VectorEnv, VectorStepResult
from .noise import GaussianNoise, NoiseProcess
from .profiling import StageTimers
from .replay_buffer import ReplayBuffer

__all__ = ["VectorTransitions", "RolloutStats", "RolloutEngine"]


@dataclass(frozen=True)
class VectorTransitions:
    """The N transitions produced by one lock-step, one row per env.

    ``next_states`` holds the *true* successor of each transition (the
    terminal observation when the episode ended — what belongs in the replay
    buffer), while ``observations`` holds what the policy acts on next
    (auto-reset already applied).
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    observations: np.ndarray
    infos: Sequence[dict]

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass
class RolloutStats:
    """Aggregate outcome of a :meth:`RolloutEngine.collect` run."""

    num_envs: int
    total_steps: int = 0
    iterations: int = 0
    episodes: int = 0
    wall_seconds: float = 0.0
    modelled_platform_seconds: float = 0.0
    #: Per-stage wall-clock attribution of this collect, present only when
    #: a profiler was attached (``RolloutEngine.set_profiler``).
    stage_seconds: Optional[Dict[str, float]] = None

    @property
    def steps_per_second(self) -> float:
        """Measured environment steps per wall-clock second."""
        return self.total_steps / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def modelled_steps_per_second(self) -> float:
        """Environment steps per second under the platform timing model."""
        if self.modelled_platform_seconds <= 0:
            return 0.0
        return self.total_steps / self.modelled_platform_seconds

    def as_dict(self) -> dict:
        data = {
            "num_envs": self.num_envs,
            "total_steps": self.total_steps,
            "iterations": self.iterations,
            "episodes": self.episodes,
            "wall_seconds": self.wall_seconds,
            "modelled_platform_seconds": self.modelled_platform_seconds,
            "steps_per_second": self.steps_per_second,
            "modelled_steps_per_second": self.modelled_steps_per_second,
        }
        if self.stage_seconds is not None:
            data["stage_seconds"] = dict(self.stage_seconds)
        return data


class RolloutEngine:
    """Drives batched action selection, stepping, and replay insertion.

    Parameters
    ----------
    env:
        The vector environment to roll out (or a scalar count via
        ``VectorEnv``; the engine never steps scalar environments itself).
    agent:
        Any agent exposing ``act_batch(states, noise=None)`` and
        ``action_dim``.
    buffer:
        Optional replay buffer receiving every transition via ``add_batch``.
    noise:
        Exploration noise process; defaults to Gaussian with ``sigma``.
    warmup_timesteps:
        Environment steps during which actions are drawn uniformly from
        ``[-1, 1]`` instead of from the policy.  The boundary is evaluated
        per lock-step, so with ``num_envs > 1`` it effectively rounds up to
        the next multiple of ``num_envs``.
    rng:
        Generator (or seed) for the warmup action draws.
    platform:
        Optional :class:`~repro.platform.FixarPlatform`; when present every
        policy lock-step is priced with ``platform.infer_batch(num_envs)``
        and accumulated into the rollout stats.
    """

    def __init__(
        self,
        env: VectorEnv,
        agent,
        *,
        buffer: Optional[ReplayBuffer] = None,
        noise: Optional[NoiseProcess] = None,
        sigma: float = 0.1,
        warmup_timesteps: int = 0,
        rng: Union[np.random.Generator, int, None] = None,
        platform=None,
    ):
        if not isinstance(env, VectorEnv):
            raise TypeError(f"env must be a VectorEnv, got {type(env).__name__}")
        if warmup_timesteps < 0:
            raise ValueError("warmup_timesteps must be non-negative")
        self.env = env
        self.agent = agent
        self.buffer = buffer
        self.noise = noise or GaussianNoise(agent.action_dim, sigma)
        if env.num_envs > 1 and type(self.noise).sample_batch is NoiseProcess.sample_batch:
            # The default sample_batch stacks sequential sample() calls: a
            # stateful process (e.g. DecayedNoise) would hand temporally
            # *consecutive* noise to parallel environments and be reset
            # whenever any one episode ends — not N independent processes.
            # OrnsteinUhlenbeckNoise defines per-environment batch state and
            # passes this check.
            raise ValueError(
                f"{type(self.noise).__name__} does not define a batched "
                "sample_batch; stateful exploration noise is not supported "
                "with num_envs > 1 — use GaussianNoise/OrnsteinUhlenbeckNoise "
                "or override sample_batch with per-environment semantics"
            )
        self.warmup_timesteps = warmup_timesteps
        self._rng = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        self.platform = platform

        self.total_env_steps = 0
        self.episode_returns: List[float] = []
        self.modelled_platform_seconds = 0.0
        self._running_returns = np.zeros(env.num_envs)
        self._observations: Optional[np.ndarray] = None

        #: Optional stage-level perf counters (off by default; attach via
        #: :meth:`set_profiler` or the CLIs' ``--profile``).
        self.profiler: Optional[StageTimers] = None
        # Hot-path caches: the lock-step width and warmup draw shape never
        # change, and the platform's batched-inference price is a pure
        # function of (platform object, batch size) — FixarPlatform is
        # immutable and precision switches arrive as *new* platform objects
        # (with_precision_state), so object identity is a sound cache key.
        self._n = env.num_envs
        self._warmup_shape = (env.num_envs, agent.action_dim)
        self._price_platform = None
        self._price_batch = -1
        self._price_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def num_envs(self) -> int:
        return self.env.num_envs

    @property
    def observations(self) -> Optional[np.ndarray]:
        """The current ``(N, S)`` policy inputs (None before reset)."""
        return self._observations

    def set_profiler(self, profiler: Optional[StageTimers]) -> Optional[StageTimers]:
        """Attach (or detach, with ``None``) stage timers to the hot path.

        One accumulator is wired through the engine, the vector environment,
        and the replay buffer, so a single object collects the whole
        lock-step breakdown.  Profiling changes no trajectory bit — it only
        brackets the existing stages with ``perf_counter`` reads.
        """
        self.profiler = profiler
        self.env.profiler = profiler
        if self.buffer is not None:
            self.buffer.profiler = profiler
        return profiler

    def reset(self) -> np.ndarray:
        """Reset every environment and the running episode returns."""
        self._observations = self.env.reset()
        self._running_returns[:] = 0.0
        return self._observations

    def restart_episodes(self, record: bool = True) -> np.ndarray:
        """Abandon the in-flight episodes and start fresh ones.

        Mirrors the scalar loop's shared-evaluation-environment handling:
        the running returns are recorded (as interrupted episodes), the
        noise process is reset, and every environment re-rolls its initial
        state.
        """
        if record:
            self.episode_returns.extend(float(r) for r in self._running_returns)
        self.noise.reset()
        return self.reset()

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    # repro-lint: hot
    def step(self) -> VectorTransitions:
        """One lock-step: batched action, env step, bulk replay insertion."""
        if self._observations is None:
            self.reset()
        states = self._observations
        n = self._n
        prof = self.profiler

        if self.total_env_steps < self.warmup_timesteps:
            rng = self._rng
            actions = rng.uniform(-1.0, 1.0, size=self._warmup_shape)
        else:
            noise = self.noise
            agent = self.agent
            if prof is not None:
                t0 = perf_counter()
                exploration = noise.sample_batch(n)
                t1 = perf_counter()
                prof.add("noise-draw", t1 - t0)
                actions = agent.act_batch(states, noise=exploration)
                prof.add("actor-forward", perf_counter() - t1)
            else:
                actions = agent.act_batch(states, noise=noise.sample_batch(n))
            platform = self.platform
            if platform is not None:
                if prof is not None:
                    t0 = perf_counter()
                if platform is not self._price_platform or n != self._price_batch:
                    report = platform.infer_batch(n)
                    self._price_seconds = report.total_seconds
                    self._price_platform = platform
                    self._price_batch = n
                self.modelled_platform_seconds += self._price_seconds
                if prof is not None:
                    prof.add("platform-pricing", perf_counter() - t0)

        env = self.env
        result: VectorStepResult = env.step(actions)
        rewards = result.rewards
        dones = result.dones
        infos = result.infos

        next_states = result.observations
        done_indices = np.flatnonzero(dones)
        if done_indices.size:
            next_states = next_states.copy()
            finals = getattr(infos, "final_observations", None)
            if finals is None:
                for i in done_indices:
                    next_states[i] = infos[i]["final_observation"]
            else:
                for i, observation in finals.items():
                    next_states[i] = observation

        buffer = self.buffer
        if buffer is not None:
            buffer.add_batch_trusted(states, actions, rewards, next_states, dones)

        running_returns = self._running_returns
        running_returns += rewards
        if done_indices.size:
            episode_returns = self.episode_returns
            for i in done_indices:
                episode_returns.append(float(running_returns[i]))
                running_returns[i] = 0.0
            noise = self.noise
            if n > 1:
                # Only the finished environments' noise state restarts; a
                # process with per-environment state (batched OU) keeps the
                # other trajectories, and stateless processes defer to a
                # single reset() — never one reset per finished episode (K
                # episodes ending together must not reset an annealing
                # schedule K times).
                noise.reset_envs(done_indices)
            else:
                # The scalar path resets exactly like the scalar loop (the
                # bit-compatibility contract).
                noise.reset()

        self._observations = result.observations
        self.total_env_steps += n
        return VectorTransitions(
            states=states,
            actions=actions,
            rewards=rewards,
            next_states=next_states,
            dones=dones,
            observations=result.observations,
            infos=infos,
        )

    def collect(self, num_steps: int) -> RolloutStats:
        """Roll out at least ``num_steps`` environment steps, timing them.

        Runs ``ceil(num_steps / num_envs)`` lock-steps; returns throughput
        statistics (wall-clock and, when a platform hook is attached, the
        modelled platform time of the batched inferences).
        """
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        if self._observations is None:
            self.reset()
        iterations = -(-num_steps // self.env.num_envs)
        episodes_before = len(self.episode_returns)
        modelled_before = self.modelled_platform_seconds
        profiler = self.profiler
        stages_before = profiler.snapshot() if profiler is not None else None
        start = time.perf_counter()
        step = self.step
        for _ in range(iterations):
            step()
        wall = time.perf_counter() - start
        return RolloutStats(
            num_envs=self.env.num_envs,
            total_steps=iterations * self.env.num_envs,
            iterations=iterations,
            episodes=len(self.episode_returns) - episodes_before,
            wall_seconds=wall,
            modelled_platform_seconds=self.modelled_platform_seconds - modelled_before,
            stage_seconds=(
                profiler.delta(stages_before) if profiler is not None else None
            ),
        )
