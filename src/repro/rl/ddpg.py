"""Deep Deterministic Policy Gradient (DDPG) agent.

DDPG is the actor-critic algorithm the paper accelerates: a deterministic
actor maps states to continuous actions, a critic estimates Q-values, target
copies of both networks stabilise the bootstrapped temporal-difference
target, and both networks are optimised with Adam.

The implementation is deliberately explicit about its forward / backward /
weight-update phases: the FIXAR accelerator schedules exactly these phases
on its array cores (critic FP+BP+WU, then actor FP+BP+WU, then actor
inference for the next action), so the same structure is reused by the
accelerator simulator to count work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .replay_buffer import TransitionBatch

__all__ = ["DDPGConfig", "DDPGAgent", "batched_policy_actions"]


def batched_policy_actions(actor, states, noise=None) -> np.ndarray:
    """Saturated batched actor inference: forward, add noise, clip to ±1.

    The one shared implementation behind ``DDPGAgent.act_batch`` and the
    collection workers' :class:`~repro.rl.workers.ActorPolicy` replicas —
    replica inference must match the learner's bit for bit, so the
    semantics live in exactly one place.
    """
    actions = actor.forward(states)
    if noise is not None:
        actions = actions + np.asarray(noise, dtype=np.float64).reshape(actions.shape)
    return np.clip(actions, -1.0, 1.0)


@dataclass(frozen=True)
class DDPGConfig:
    """Hyper-parameters of the DDPG agent (paper defaults)."""

    #: Discount factor for future rewards.
    gamma: float = 0.99
    #: Polyak averaging coefficient for the target networks.
    tau: float = 0.005
    #: Actor learning rate (paper: 1e-4).
    actor_learning_rate: float = 1e-4
    #: Critic learning rate (paper: 1e-4).
    critic_learning_rate: float = 1e-4
    #: Hidden layer sizes (paper: 400, 300).
    hidden_sizes: Sequence[int] = (400, 300)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.actor_learning_rate <= 0 or self.critic_learning_rate <= 0:
            raise ValueError("learning rates must be positive")
        if len(self.hidden_sizes) == 0:
            raise ValueError("hidden_sizes must not be empty")


@dataclass
class UpdateMetrics:
    """Diagnostics returned by one training update."""

    critic_loss: float
    actor_loss: float
    mean_q: float
    mean_target_q: float
    extras: Dict[str, float] = field(default_factory=dict)


class DDPGAgent:
    """The paper's DDPG agent with pluggable numeric policy.

    Parameters
    ----------
    state_dim, action_dim:
        Environment dimensionalities.
    config:
        DDPG hyper-parameters.
    numerics:
        Numeric policy shared by the actor, critic, and their target copies.
        Defaults to full floating point.
    rng:
        Random generator for weight initialisation.
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        config: Optional[DDPGConfig] = None,
        numerics: Optional[Numerics] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if state_dim <= 0 or action_dim <= 0:
            raise ValueError("state_dim and action_dim must be positive")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.config = config or DDPGConfig()
        self.numerics = numerics or Numerics()
        rng = rng or np.random.default_rng()

        hidden = tuple(self.config.hidden_sizes)
        self.actor: MLP = build_actor(state_dim, action_dim, hidden, rng=rng, numerics=self.numerics)
        self.critic: MLP = build_critic(state_dim, action_dim, hidden, rng=rng, numerics=self.numerics)
        self.target_actor: MLP = build_actor(state_dim, action_dim, hidden, rng=rng, numerics=self.numerics)
        self.target_critic: MLP = build_critic(state_dim, action_dim, hidden, rng=rng, numerics=self.numerics)
        self.target_actor.copy_from(self.actor)
        self.target_critic.copy_from(self.critic)

        project = self.numerics.project_weight
        self.actor_optimizer = Adam(
            self.actor.parameters(), self.config.actor_learning_rate, project=project
        )
        self.critic_optimizer = Adam(
            self.critic.parameters(), self.config.critic_learning_rate, project=project
        )
        self.update_count = 0

    # ------------------------------------------------------------------ #
    # Acting
    # ------------------------------------------------------------------ #
    def act(self, state: np.ndarray, noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Actor inference for a single state, with optional exploration noise.

        The result is clipped into the ±1 action range, matching the tanh
        output bound and the accelerator's saturation of the noisy action.
        """
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        action = self.actor.forward(state)[0]
        if noise is not None:
            action = action + np.asarray(noise, dtype=np.float64).ravel()
        return np.clip(action, -1.0, 1.0)

    def act_batch(self, states: np.ndarray, noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Actor inference for a batch of states in one forward pass.

        With ``noise`` (one row per state) this is the batched counterpart of
        :meth:`act`: the noise is added before the saturating clip, so a
        single-row call reproduces ``act`` bit for bit.
        """
        return batched_policy_actions(self.actor, states, noise)

    def q_value(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Critic evaluation of state-action pairs."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        return self.critic.forward(np.concatenate([states, actions], axis=1))

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def update(self, batch: TransitionBatch) -> UpdateMetrics:
        """One DDPG update from a replay batch (critic, then actor, then targets)."""
        gamma = self.config.gamma

        # ----- Temporal-difference target from the target networks -------- #
        next_actions = self.target_actor.forward(batch.next_states)
        target_inputs = np.concatenate([batch.next_states, next_actions], axis=1)
        next_q = self.target_critic.forward(target_inputs)
        target_q = batch.rewards + gamma * (1.0 - batch.dones) * next_q

        # ----- Critic regression (FP + BP + WU on the critic network) ----- #
        self.critic.zero_grad()
        critic_inputs = np.concatenate([batch.states, batch.actions], axis=1)
        q_values = self.critic.forward(critic_inputs)
        critic_loss, critic_grad = mse_loss(q_values, target_q)
        self.critic.backward(critic_grad, input_grad=False)
        self.critic_optimizer.step(self.critic.gradients())

        # ----- Actor policy gradient (FP + BP + WU on the actor network) -- #
        # The critic only carries the actor loss back to the actions: BP
        # without weight gradients, the accelerator's dataflow for this pass.
        self.actor.zero_grad()
        predicted_actions = self.actor.forward(batch.states)
        policy_inputs = np.concatenate([batch.states, predicted_actions], axis=1)
        policy_q = self.critic.forward(policy_inputs)
        actor_loss, q_grad = policy_gradient_loss(policy_q)
        input_grad = self.critic.backward(q_grad, parameter_grads=False)
        action_grad = input_grad[:, self.state_dim:]
        self.actor.backward(action_grad, input_grad=False)
        self.actor_optimizer.step(self.actor.gradients())

        # ----- Target network soft update ---------------------------------- #
        self.target_actor.soft_update_from(self.actor, self.config.tau)
        self.target_critic.soft_update_from(self.critic, self.config.tau)

        self.update_count += 1
        return UpdateMetrics(
            critic_loss=float(critic_loss),
            actor_loss=float(actor_loss),
            mean_q=float(np.mean(q_values)),
            mean_target_q=float(np.mean(target_q)),
        )

    # ------------------------------------------------------------------ #
    # Model accounting (consumed by the accelerator memory/timing models)
    # ------------------------------------------------------------------ #
    def network_shapes(self) -> Dict[str, list]:
        """Dense-layer shapes of the actor and critic networks."""
        return {
            "actor": self.actor.layer_shapes,
            "critic": self.critic.layer_shapes,
        }

    def parameter_count(self) -> int:
        """Total trainable parameters across actor and critic."""
        return self.actor.parameter_count + self.critic.parameter_count

    def model_size_bytes(self, bits_per_weight: int = 32) -> int:
        """Model footprint (actor + critic) at the given weight precision."""
        return (
            self.actor.model_size_bytes(bits_per_weight)
            + self.critic.model_size_bytes(bits_per_weight)
        )
