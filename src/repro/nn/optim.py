"""Optimizers with an optional post-update projection hook.

The accelerator keeps the whole model on chip and performs weight updates in
a dedicated Adam module, so the software model exposes the same two
optimizers the paper mentions (Adam with learning rate 1e-4, plus plain SGD
for ablations).  The ``project`` hook is how fixed-point weight storage is
modelled: after every update the parameters are snapped back onto the 32-bit
fixed-point grid.

An optimizer writes through the handles it was built on at every step, long
after the network cached its weight projections.  Handles that came from
``MLP.parameters()`` are therefore told of each write, and given the projected
arrays just stored: exactly the weights the next forward pass needs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

__all__ = ["Optimizer", "Adam", "SGD"]

Projection = Callable[[np.ndarray], np.ndarray]


class Optimizer:
    """Base optimizer over a named parameter dictionary."""

    def __init__(
        self,
        parameters: Dict[str, np.ndarray],
        learning_rate: float,
        project: Optional[Projection] = None,
    ):
        if learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.project = project
        self.step_count = 0

    def step(self, gradients: Dict[str, np.ndarray]) -> None:
        """Apply one update from the given gradients (in place)."""
        raise NotImplementedError

    def _apply_projection(self) -> None:
        """Snap the parameters onto the grid and report them written."""
        projected = None
        if self.project is not None:
            projected = {}
            for name, value in self.parameters.items():
                projected[name] = value[...] = self.project(value)
        written = getattr(self.parameters, "written", None)
        if written is not None:
            written(self.project, projected)


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Dict[str, np.ndarray],
        learning_rate: float = 1e-4,
        momentum: float = 0.0,
        project: Optional[Projection] = None,
    ):
        super().__init__(parameters, learning_rate, project)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = {name: np.zeros_like(v) for name, v in parameters.items()}

    def step(self, gradients: Dict[str, np.ndarray]) -> None:
        self.step_count += 1
        for name, param in self.parameters.items():
            grad = gradients[name]
            if self.momentum > 0.0:
                velocity = self._velocity[name]
                velocity[...] = self.momentum * velocity + grad
                grad = velocity
            param -= self.learning_rate * grad
        self._apply_projection()


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), the paper's weight-update rule.

    Default hyper-parameters follow the paper: learning rate 1e-4, standard
    beta/epsilon values.
    """

    def __init__(
        self,
        parameters: Dict[str, np.ndarray],
        learning_rate: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        project: Optional[Projection] = None,
    ):
        super().__init__(parameters, learning_rate, project)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._moment1 = {name: np.zeros_like(v) for name, v in parameters.items()}
        self._moment2 = {name: np.zeros_like(v) for name, v in parameters.items()}

    def step(self, gradients: Dict[str, np.ndarray]) -> None:
        self.step_count += 1
        bias_correction1 = 1.0 - self.beta1 ** self.step_count
        bias_correction2 = 1.0 - self.beta2 ** self.step_count
        for name, param in self.parameters.items():
            grad = gradients[name]
            m = self._moment1[name]
            v = self._moment2[name]
            m[...] = self.beta1 * m + (1.0 - self.beta1) * grad
            v[...] = self.beta2 * v + (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        self._apply_projection()

    def state(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Optimizer state (first/second moments), e.g. for checkpointing."""
        return {"moment1": self._moment1, "moment2": self._moment2}
