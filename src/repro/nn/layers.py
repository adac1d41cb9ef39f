"""Network layers with explicit forward and backward passes.

The FIXAR accelerator schedules forward propagation (FP), backward
propagation (BP), and weight update (WU) as separate phases over the same
matrix-vector hardware, so the software model mirrors that structure: each
layer exposes ``forward`` and ``backward`` explicitly instead of relying on
an autograd engine.  All tensors are batch-major: inputs have shape
``(batch, features)``.

A :class:`Linear` projects its weights through the numeric policy once per
*write*, not once per pass: it keeps the ``(weight, bias)`` projection it last
computed and drops it when a writable handle is handed out (``layer.weight``,
``layer.bias``, ``parameters()``) or a writer that kept one reports a write
(:meth:`Linear.invalidate`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from .initializers import fan_in_uniform
from .numerics import Numerics

__all__ = ["Layer", "Linear", "ReLU", "Tanh"]

Initializer = Callable[[tuple, np.random.Generator], np.ndarray]


class Layer:
    """Base class for layers.

    Layers with parameters expose them through :meth:`parameters` and their
    accumulated gradients through :meth:`gradients`; parameter-free layers
    return empty dictionaries.
    """

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> Dict[str, np.ndarray]:
        """Writable handles on the layer's parameter arrays, by name."""
        return {}

    def _parameters(self) -> Dict[str, np.ndarray]:
        """:meth:`parameters` for callers that only read the arrays."""
        return self.parameters()

    def gradients(self) -> Dict[str, np.ndarray]:
        return {}

    def zero_grad(self) -> None:
        """Reset accumulated gradients to zero."""

    @property
    def output_dim(self) -> Optional[int]:
        """Output feature dimension, if the layer changes it."""
        return None


def _parameter_handle(attribute: str, doc: str) -> property:
    """A :class:`Linear` parameter array: handing it out for writing, like
    replacing it, first drops the layer's cached projection."""

    def read(layer: "Linear") -> np.ndarray:
        layer._projected = None
        return getattr(layer, attribute)

    def replace(layer: "Linear", value: np.ndarray) -> None:
        layer._projected = None
        setattr(layer, attribute, value)

    return property(read, replace, doc=doc)


class Linear(Layer):
    """A dense layer ``y = x @ W + b`` with explicit backward pass.

    The weight matrix is stored as ``(in_features, out_features)``, matching
    the accelerator's weight-memory layout where each matrix row is spread
    over 16 BRAM modules.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator,
        weight_init: Optional[Initializer] = None,
        bias_init: Optional[Initializer] = None,
        numerics: Optional[Numerics] = None,
        name: str = "linear",
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"layer dimensions must be positive, got {in_features}x{out_features}"
            )
        weight_init = weight_init or fan_in_uniform
        bias_init = bias_init or fan_in_uniform
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        self.numerics = numerics or Numerics()
        #: ``(numerics, weight_format, weight, bias)`` of the last projection.
        self._projected: Optional[tuple] = None
        self._weight = weight_init((in_features, out_features), rng)
        self._bias = bias_init((out_features,), rng)
        self.grad_weight = np.zeros_like(self._weight)
        self.grad_bias = np.zeros_like(self._bias)
        self._inputs: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Parameters and their cached projection
    # ------------------------------------------------------------------ #
    weight = _parameter_handle("_weight", "The weight matrix, ``(in_features, out_features)``.")
    bias = _parameter_handle("_bias", "The bias vector, ``(out_features,)``.")

    def invalidate(
        self, weight: Optional[np.ndarray] = None, bias: Optional[np.ndarray] = None
    ) -> None:
        """The parameter arrays were written in place: drop the projection.

        A writer that has just stored ``project_weight`` of both arrays, under
        the layer's current numerics, passes the two projected arrays; they
        serve the next passes in place of a second projection.
        """
        self._projected = None
        if weight is not None and bias is not None:
            numerics = self.numerics
            self._projected = (numerics, numerics.weight_format, weight, bias)

    def _projected_parameters(self) -> tuple:
        numerics, cached = self.numerics, self._projected
        if cached is None or cached[0] is not numerics or cached[1] is not numerics.weight_format:
            project = numerics.project_weight
            cached = (numerics, numerics.weight_format, project(self._weight), project(self._bias))
            self._projected = cached
        return cached

    # ------------------------------------------------------------------ #
    # repro-lint: hot
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim < 2:
            inputs = np.atleast_2d(inputs)
        if inputs.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, "
                f"got {inputs.shape[1]}"
            )
        self._inputs = inputs
        _, _, weight, bias = self._projected_parameters()
        return inputs @ weight + bias

    # repro-lint: hot
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        inputs = self._inputs
        if inputs is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        numerics = self.numerics
        project_gradient = numerics.project_gradient
        grad_output = project_gradient(grad_output)
        weight = self._projected_parameters()[2]
        self.grad_weight += project_gradient(inputs.T @ grad_output)
        self.grad_bias += project_gradient(grad_output.sum(axis=0))
        return grad_output @ weight.T

    # ------------------------------------------------------------------ #
    def parameters(self) -> Dict[str, np.ndarray]:
        self._projected = None
        return self._parameters()

    def _parameters(self) -> Dict[str, np.ndarray]:
        return {f"{self.name}.weight": self._weight, f"{self.name}.bias": self._bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {f"{self.name}.weight": self.grad_weight, f"{self.name}.bias": self.grad_bias}

    def zero_grad(self) -> None:
        self.grad_weight[...] = 0.0
        self.grad_bias[...] = 0.0

    @property
    def output_dim(self) -> int:
        return self.out_features

    @property
    def parameter_count(self) -> int:
        """Number of scalar parameters (weights plus biases)."""
        return self._weight.size + self._bias.size


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._mask = inputs > 0.0
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("ReLU: backward called before forward")
        return np.asarray(grad_output, dtype=np.float64) * self._mask


class Tanh(Layer):
    """Hyperbolic tangent, used on the actor's output to bound actions."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._output = np.tanh(np.asarray(inputs, dtype=np.float64))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("Tanh: backward called before forward")
        return np.asarray(grad_output, dtype=np.float64) * (1.0 - self._output ** 2)
