"""Twin Delayed DDPG (TD3) — the DDPG variant the paper cites.

The paper notes that DDPG "and its variants" (D4PG, TD3) are the strongest
actor-critic algorithms for continuous control.  TD3 (Fujimoto et al., 2018)
addresses DDPG's Q-value over-estimation with three changes:

* **twin critics** — two independent critics; the TD target uses the minimum
  of their target estimates;
* **target policy smoothing** — clipped Gaussian noise added to the target
  action before it is evaluated;
* **delayed policy updates** — the actor and the target networks are updated
  only every ``policy_delay`` critic updates.

The accelerator runs TD3 with the same dataflow as DDPG (one extra critic
network doubles the critic's share of the weight memory), so this agent is a
drop-in replacement for :class:`~repro.rl.ddpg.DDPGAgent` in the training
loop and the platform models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..nn import (
    Adam,
    MLP,
    Numerics,
    build_actor,
    build_critic,
    mse_loss,
    policy_gradient_loss,
)
from .ddpg import UpdateMetrics, batched_policy_actions
from .replay_buffer import TransitionBatch

__all__ = ["TD3Config", "TD3Agent"]


@dataclass(frozen=True)
class TD3Config:
    """TD3 hyper-parameters (Fujimoto et al. defaults, paper network sizes)."""

    gamma: float = 0.99
    tau: float = 0.005
    actor_learning_rate: float = 1e-4
    critic_learning_rate: float = 1e-4
    hidden_sizes: Sequence[int] = (400, 300)
    #: Std-dev of the target policy smoothing noise.
    target_noise: float = 0.2
    #: Clipping bound of the smoothing noise.
    noise_clip: float = 0.5
    #: Critic updates per actor / target update.
    policy_delay: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.actor_learning_rate <= 0 or self.critic_learning_rate <= 0:
            raise ValueError("learning rates must be positive")
        if self.target_noise < 0 or self.noise_clip < 0:
            raise ValueError("noise parameters must be non-negative")
        if self.policy_delay < 1:
            raise ValueError(f"policy_delay must be >= 1, got {self.policy_delay}")
        if len(self.hidden_sizes) == 0:
            raise ValueError("hidden_sizes must not be empty")


class TD3Agent:
    """TD3 with the same explicit FP/BP/WU structure as the DDPG agent."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        config: Optional[TD3Config] = None,
        numerics: Optional[Numerics] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if state_dim <= 0 or action_dim <= 0:
            raise ValueError("state_dim and action_dim must be positive")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.config = config or TD3Config()
        self.numerics = numerics or Numerics()
        self._rng = rng or np.random.default_rng()
        hidden = tuple(self.config.hidden_sizes)

        self.actor: MLP = build_actor(state_dim, action_dim, hidden, rng=self._rng, numerics=self.numerics)
        self.critic_1: MLP = build_critic(state_dim, action_dim, hidden, rng=self._rng, numerics=self.numerics)
        self.critic_2: MLP = build_critic(state_dim, action_dim, hidden, rng=self._rng, numerics=self.numerics)
        self.target_actor: MLP = build_actor(state_dim, action_dim, hidden, rng=self._rng, numerics=self.numerics)
        self.target_critic_1: MLP = build_critic(state_dim, action_dim, hidden, rng=self._rng, numerics=self.numerics)
        self.target_critic_2: MLP = build_critic(state_dim, action_dim, hidden, rng=self._rng, numerics=self.numerics)
        self.target_actor.copy_from(self.actor)
        self.target_critic_1.copy_from(self.critic_1)
        self.target_critic_2.copy_from(self.critic_2)

        project = self.numerics.project_weight
        self.actor_optimizer = Adam(self.actor.parameters(), self.config.actor_learning_rate, project=project)
        self.critic_1_optimizer = Adam(self.critic_1.parameters(), self.config.critic_learning_rate, project=project)
        self.critic_2_optimizer = Adam(self.critic_2.parameters(), self.config.critic_learning_rate, project=project)
        self.update_count = 0

    # ------------------------------------------------------------------ #
    # Acting (same interface as DDPGAgent)
    # ------------------------------------------------------------------ #
    def act(self, state: np.ndarray, noise: Optional[np.ndarray] = None) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        action = self.actor.forward(state)[0]
        if noise is not None:
            action = action + np.asarray(noise, dtype=np.float64).ravel()
        return np.clip(action, -1.0, 1.0)

    def act_batch(self, states: np.ndarray, noise: Optional[np.ndarray] = None) -> np.ndarray:
        return batched_policy_actions(self.actor, states, noise)

    def q_value(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Q-estimate of the first critic (TD3's convention for the actor)."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        return self.critic_1.forward(np.concatenate([states, actions], axis=1))

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def update(self, batch: TransitionBatch) -> UpdateMetrics:
        """One TD3 update: both critics every call, actor every ``policy_delay``."""
        config = self.config

        # Target action with clipped smoothing noise.
        next_actions = self.target_actor.forward(batch.next_states)
        smoothing = np.clip(
            self._rng.normal(scale=config.target_noise, size=next_actions.shape),
            -config.noise_clip,
            config.noise_clip,
        )
        next_actions = np.clip(next_actions + smoothing, -1.0, 1.0)

        target_inputs = np.concatenate([batch.next_states, next_actions], axis=1)
        target_q = np.minimum(
            self.target_critic_1.forward(target_inputs),
            self.target_critic_2.forward(target_inputs),
        )
        td_target = batch.rewards + config.gamma * (1.0 - batch.dones) * target_q

        # Both critics regress to the shared clipped double-Q target.
        critic_inputs = np.concatenate([batch.states, batch.actions], axis=1)
        critic_losses = []
        q_values = None
        for critic, optimizer in (
            (self.critic_1, self.critic_1_optimizer),
            (self.critic_2, self.critic_2_optimizer),
        ):
            critic.zero_grad()
            predictions = critic.forward(critic_inputs)
            loss, grad = mse_loss(predictions, td_target)
            critic.backward(grad, input_grad=False)
            optimizer.step(critic.gradients())
            critic_losses.append(loss)
            if q_values is None:
                q_values = predictions

        # Delayed actor and target updates.
        actor_loss = float("nan")
        if self.update_count % config.policy_delay == 0:
            self.actor.zero_grad()
            predicted_actions = self.actor.forward(batch.states)
            policy_inputs = np.concatenate([batch.states, predicted_actions], axis=1)
            policy_q = self.critic_1.forward(policy_inputs)
            actor_loss, q_grad = policy_gradient_loss(policy_q)
            input_grad = self.critic_1.backward(q_grad, parameter_grads=False)
            self.actor.backward(input_grad[:, self.state_dim:], input_grad=False)
            self.actor_optimizer.step(self.actor.gradients())

            self.target_actor.soft_update_from(self.actor, config.tau)
            self.target_critic_1.soft_update_from(self.critic_1, config.tau)
            self.target_critic_2.soft_update_from(self.critic_2, config.tau)

        self.update_count += 1
        return UpdateMetrics(
            critic_loss=float(np.mean(critic_losses)),
            actor_loss=float(actor_loss),
            mean_q=float(np.mean(q_values)),
            mean_target_q=float(np.mean(td_target)),
            extras={"critic_1_loss": critic_losses[0], "critic_2_loss": critic_losses[1]},
        )

    # ------------------------------------------------------------------ #
    # Model accounting
    # ------------------------------------------------------------------ #
    def network_shapes(self) -> Dict[str, list]:
        return {
            "actor": self.actor.layer_shapes,
            "critic": self.critic_1.layer_shapes,
            "critic_2": self.critic_2.layer_shapes,
        }

    def parameter_count(self) -> int:
        return (
            self.actor.parameter_count
            + self.critic_1.parameter_count
            + self.critic_2.parameter_count
        )

    def model_size_bytes(self, bits_per_weight: int = 32) -> int:
        return self.parameter_count() * bits_per_weight // 8
