#!/usr/bin/env python3
"""Domain scenario: quantization-aware training on the Hopper benchmark.

Hopper is the paper's benchmark with early termination: the agent falls if
its posture drifts too far, so the learning problem couples forward progress
with stability.  This example trains a DDPG agent with Algorithm 1's QAT on
Hopper — collecting experience through the vectorized rollout engine, which
steps ``--num-envs`` Hopper instances in lock-step with one batched actor
inference per step — reports the reward before and after the precision
switch, and then offloads the trained actor to the accelerator's integer
datapath kernel to compare the fixed-point policy's behaviour against the
software policy in the live environment.

With ``--num-workers W`` experience collection fans out over W collection
workers, each owning its own VectorEnv of ``--num-envs`` Hopper instances
(worker ``w``'s environment ``i`` is seeded ``seed + w * num_envs + i``) and
an actor replica that is refreshed from the learner every round; the workers
are scheduled deterministically, so a run is reproducible for any topology.

With ``--pipeline-depth D > 0`` the training schedule is *pipelined*: the
worker fleet collects round k+1 while the learner drains round k and runs
its updates, with collection acting on weights at most D rounds stale.  On
the modelled platform the two phases overlap (``max`` instead of sum); the
run itself stays deterministic, so results are still reproducible.

Run:
    python examples/train_hopper_qat.py [--timesteps 4000] [--num-envs 4] \
        [--num-workers 2] [--pipeline-depth 1]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.accelerator import network_forward
from repro.core import format_curve
from repro.envs import HopperEnv
from repro.nn import DynamicFixedPointNumerics
from repro.platform import FixarPlatform, WorkloadSpec
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    QATController,
    QATSchedule,
    TrainingConfig,
    evaluate_policy,
    train,
    worker_env_seed,
)


def rollout_on_datapath(env: HopperEnv, actor, episodes: int = 3) -> float:
    """Average return when actions come from the actor on the integer datapath."""
    returns = []
    for _ in range(episodes):
        observation = env.reset()
        total = 0.0
        done = False
        while not done:
            action = np.clip(network_forward(actor, observation)[0], -1.0, 1.0)
            observation, reward, done, _ = env.step(action)
            total += reward
        returns.append(total)
    return float(np.mean(returns))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timesteps", type=int, default=4_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--num-envs", type=int, default=4,
                        help="Hopper instances rolled out in lock-step per worker")
    parser.add_argument("--num-workers", type=int, default=1,
                        help="collection workers, each owning its own VectorEnv "
                             "of --num-envs Hoppers and an actor replica")
    parser.add_argument("--pipeline-depth", type=int, default=0,
                        help="rounds the fleet may run ahead of the learner "
                             "(0 = sequential schedule; 1 = classic overlapped "
                             "pipeline with one round of weight staleness)")
    args = parser.parse_args()

    env = HopperEnv(seed=args.seed, max_episode_steps=400)
    # The evaluation env takes the seed of the fleet's (nonexistent)
    # next worker — the blessed scheme's first seed past every collector.
    eval_env = HopperEnv(
        seed=worker_env_seed(args.seed, args.num_workers, args.num_envs),
        max_episode_steps=400,
    )
    print("=== Hopper with quantization-aware training ===")
    schedule = (
        f"pipelined (depth {args.pipeline_depth})" if args.pipeline_depth else "sequential"
    )
    print(f"state dim {env.state_dim}, action dim {env.action_dim}, fall threshold enabled; "
          f"{args.num_workers} worker(s) x {args.num_envs} environments in lock-step, "
          f"{schedule} schedule")

    numerics = DynamicFixedPointNumerics(num_bits=16)
    hidden_sizes = (64, 48)
    agent = DDPGAgent(
        env.state_dim,
        env.action_dim,
        DDPGConfig(hidden_sizes=hidden_sizes, actor_learning_rate=1e-3, critic_learning_rate=1e-3),
        numerics=numerics,
        rng=np.random.default_rng(args.seed),
    )
    controller = QATController(numerics, QATSchedule(num_bits=16, quantization_delay=args.timesteps // 2))
    config = TrainingConfig(
        total_timesteps=args.timesteps,
        warmup_timesteps=min(500, args.timesteps // 5),
        batch_size=64,
        buffer_capacity=max(args.timesteps, 10_000),
        evaluation_interval=max(500, args.timesteps // 8),
        evaluation_episodes=5,
        exploration_noise=0.15,
        seed=args.seed,
        num_envs=args.num_envs,
        num_workers=args.num_workers,
        pipeline_depth=args.pipeline_depth,
    )

    result = train(env, agent, config, eval_env=eval_env, qat_controller=controller, label="hopper-qat")
    print(format_curve(result.curve.timesteps, result.curve.returns, label="reward curve"))
    if result.qat_event:
        event = result.qat_event
        print(f"precision switch at t={event.timestep}: activation range "
              f"[{event.activation_min:.2f}, {event.activation_max:.2f}], delta={event.delta:.5f}")
    print(f"episodes finished: {len(result.episode_returns)}  "
          f"(falls terminate episodes early; trained agents survive longer)")
    print()

    # Offload the trained actor to the integer datapath and compare the
    # in-environment behaviour of the software and fixed-point policies; the
    # accelerator is priced under the precision the run ended in.
    platform = FixarPlatform(
        WorkloadSpec(env.name, env.state_dim, env.action_dim, hidden_sizes)
    ).with_precision_state(controller.precision_state())
    software_return = evaluate_policy(eval_env, agent, episodes=3)
    hardware_return = rollout_on_datapath(eval_env, agent.actor, episodes=3)
    print(f"software policy return (3 episodes)      : {software_return:8.1f}")
    print(f"datapath fixed-point policy return       : {hardware_return:8.1f}")
    label = f"accelerator IPS at batch 64 ({numerics.activation_bits}-bit)"
    print(f"{label:41s}: {platform.accelerator_ips(64):8.0f}")


if __name__ == "__main__":
    main()
