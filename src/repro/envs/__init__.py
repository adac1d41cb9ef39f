"""Continuous-control environments emulated on the host CPU.

These are synthetic stand-ins for the MuJoCo locomotion benchmarks the paper
uses (HalfCheetah, Hopper, Swimmer), preserving their state/action
dimensionality, reward structure, and episode semantics.

Two execution granularities are exposed:

* scalar — one :class:`Environment` stepped transition by transition, the
  host-CPU role in the paper's Fig. 3 loop;
* vectorized — :class:`VectorEnv` steps N registered environments in
  lock-step with auto-reset and per-env seeding (``seed + i``), batching the
  physics through the shared :class:`LocomotionDynamics` kernel so batched
  rollouts are bitwise identical to N scalar trajectories.  This is the
  environment half of the vectorized rollout subsystem
  (:mod:`repro.rl.rollout` is the agent half); future async-worker or
  sharded-accelerator layers should drive :class:`VectorEnv` rather than
  stepping scalar environments, so the batch dimension survives end to end.
"""

from .base import Environment, StepResult
from .halfcheetah import HalfCheetahEnv
from .hopper import HopperEnv
from .locomotion import LocomotionConfig, LocomotionDynamics, LocomotionEnv
from .registry import (
    BENCHMARK_SUITE,
    available_benchmarks,
    benchmark_dimensions,
    make,
    register,
)
from .spaces import Box
from .swimmer import SwimmerEnv
from .vector import VectorEnv, VectorStepResult

__all__ = [
    "Environment",
    "StepResult",
    "Box",
    "LocomotionConfig",
    "LocomotionDynamics",
    "LocomotionEnv",
    "VectorEnv",
    "VectorStepResult",
    "HalfCheetahEnv",
    "HopperEnv",
    "SwimmerEnv",
    "make",
    "register",
    "available_benchmarks",
    "benchmark_dimensions",
    "BENCHMARK_SUITE",
]
