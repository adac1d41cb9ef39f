"""Optimizers with an optional post-update projection hook.

The accelerator keeps the whole model on chip and performs weight updates in
a dedicated Adam module, so the software model exposes the same two
optimizers the paper mentions (Adam with learning rate 1e-4, plus plain SGD
for ablations).  The ``project`` hook is how fixed-point weight storage is
modelled: after every update the parameters are snapped back onto the 32-bit
fixed-point grid.

An optimizer runs one loop over the *buffers* behind its parameters: the one
flat buffer of an :class:`~repro.nn.network.MLP`'s parameter handles (so a
whole network is updated with a fixed number of in-place NumPy calls over
preallocated scratch), or each array of a plain ``name → array`` dict.  The
update is elementwise, so both give every element the same bits.

An optimizer writes through the handles it was built on at every step, long
after the network cached its weight projections.  Handles that came from
``MLP.parameters()`` are therefore told of each write, and given the projected
buffer just stored: exactly the weights the next forward pass needs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

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
        # The buffers behind the parameters: the one flat buffer of a
        # network's handles, or else the arrays themselves.
        buffer = getattr(parameters, "buffer", None)
        self._arena = buffer is not None
        self._buffers = list(parameters.values()) if buffer is None else [buffer]
        self._scratch = [np.empty_like(buffer) for buffer in self._buffers]

    def _state(self) -> tuple:
        """Zeroed per-buffer state and its ``name → array`` views."""
        buffers = [np.zeros_like(buffer) for buffer in self._buffers]
        if self._arena:
            return buffers, self.parameters.like(buffers[0])
        return buffers, dict(zip(self.parameters, buffers))

    def _gradient_buffers(self, gradients: Dict[str, np.ndarray]) -> List[np.ndarray]:
        """``gradients`` as buffers laid out like the parameter buffers."""
        if not self._arena:
            return [gradients[name] for name in self.parameters]
        buffer = getattr(gradients, "buffer", None)
        if buffer is None:
            raise TypeError(
                "an optimizer over a network's parameters steps with that "
                "network's gradients() (a plain gradient dict has no buffer)"
            )
        return [buffer]

    def step(self, gradients: Dict[str, np.ndarray]) -> None:
        """Apply one update from the given gradients (in place)."""
        raise NotImplementedError

    # repro-lint: hot
    def _apply_projection(self) -> None:
        """Snap the parameters onto the grid and report them written."""
        project = self.project
        projected = None
        if project is not None:
            projected = []
            for buffer in self._buffers:
                value = project(buffer)
                buffer[...] = value
                projected.append(value)
        written = getattr(self.parameters, "written", None)
        if written is not None:
            written(project, projected)


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
        self._velocity, _ = self._state()

    # repro-lint: hot
    def step(self, gradients: Dict[str, np.ndarray]) -> None:
        self.step_count += 1
        learning_rate, momentum = self.learning_rate, self.momentum
        for param, grad, velocity, scratch in zip(
            self._buffers, self._gradient_buffers(gradients), self._velocity, self._scratch
        ):
            if momentum > 0.0:
                np.multiply(velocity, momentum, out=velocity)
                np.add(velocity, grad, out=velocity)
                grad = velocity
            np.multiply(grad, learning_rate, out=scratch)
            np.subtract(param, scratch, out=param)
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
        self._moment1_buffers, self._moment1 = self._state()
        self._moment2_buffers, self._moment2 = self._state()
        self._denominators = [np.empty_like(buffer) for buffer in self._buffers]

    # repro-lint: hot
    def step(self, gradients: Dict[str, np.ndarray]) -> None:
        """``m ← β1·m + (1−β1)·g``, ``v ← β2·v + (1−β2)·g²``,
        ``θ ← θ − lr·m̂ / (√v̂ + ε)``, one buffer at a time, in place."""
        self.step_count += 1
        beta1, beta2, epsilon = self.beta1, self.beta2, self.epsilon
        learning_rate = self.learning_rate
        bias_correction1 = 1.0 - beta1 ** self.step_count
        bias_correction2 = 1.0 - beta2 ** self.step_count
        for param, grad, m, v, scratch, denominator in zip(
            self._buffers,
            self._gradient_buffers(gradients),
            self._moment1_buffers,
            self._moment2_buffers,
            self._scratch,
            self._denominators,
        ):
            np.multiply(m, beta1, out=m)
            np.multiply(grad, 1.0 - beta1, out=scratch)
            np.add(m, scratch, out=m)
            np.square(grad, out=scratch)
            np.multiply(scratch, 1.0 - beta2, out=scratch)
            np.multiply(v, beta2, out=v)
            np.add(v, scratch, out=v)
            np.divide(v, bias_correction2, out=denominator)
            np.sqrt(denominator, out=denominator)
            np.add(denominator, epsilon, out=denominator)
            np.divide(m, bias_correction1, out=scratch)
            np.multiply(scratch, learning_rate, out=scratch)
            np.divide(scratch, denominator, out=scratch)
            np.subtract(param, scratch, out=param)
        self._apply_projection()

    def state(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Optimizer state (first/second moments), e.g. for checkpointing."""
        return {"moment1": self._moment1, "moment2": self._moment2}
