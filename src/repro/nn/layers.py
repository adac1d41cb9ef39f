"""Network layers with explicit forward and backward passes.

The FIXAR accelerator schedules forward propagation (FP), backward
propagation (BP), and weight update (WU) as separate phases over the same
matrix-vector hardware, so the software model mirrors that structure: each
layer exposes ``forward`` and ``backward`` explicitly instead of relying on
an autograd engine.  All tensors are batch-major: inputs have shape
``(batch, features)``.

A :class:`Linear` stores its weight and bias as views into one flat slice
(weight first, row-major, then bias), and its gradients and raw gradient
products likewise; an :class:`~repro.nn.network.MLP` lays the slices of all
its dense layers end to end in one buffer each, so a whole network is updated,
projected, averaged and zeroed with one call per buffer.

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
    assigning to it, first drops the layer's cached projection.  Assignment
    copies into the array in place (it is a view into the layer's buffer), so
    the new value must have its shape."""

    def read(layer: "Linear") -> np.ndarray:
        layer._projected = None
        return getattr(layer, attribute)

    def replace(layer: "Linear", value: np.ndarray) -> None:
        target = getattr(layer, attribute)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != target.shape:
            raise ValueError(
                f"{layer.name}: cannot assign shape {value.shape} to a parameter "
                f"of shape {target.shape}"
            )
        layer._projected = None
        target[...] = value

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
        weight = weight_init((in_features, out_features), rng)
        bias = bias_init((out_features,), rng)
        self._flat = np.concatenate([np.ravel(weight), bias], dtype=np.float64)
        self._grad_flat = np.zeros_like(self._flat)
        self._bind(self._flat, self._grad_flat, np.empty_like(self._flat), 0)
        self._inputs: Optional[np.ndarray] = None

    def _bind(
        self,
        parameters: np.ndarray,
        gradients: np.ndarray,
        products: np.ndarray,
        offset: int,
    ) -> None:
        """Move the layer's storage into flat slices, keeping its values.

        ``parameters`` and ``gradients`` hold the weight (row-major) then the
        bias; ``products`` receives the raw weight / bias gradient products of
        :meth:`backward_products`.  ``offset`` is where the slices start in
        the buffers they were cut from (see :meth:`invalidate`).
        """
        parameters[...] = self._flat
        gradients[...] = self._grad_flat
        split = self.in_features * self.out_features
        shape = (self.in_features, self.out_features)
        self._flat, self._grad_flat, self._products = parameters, gradients, products
        self._span = (offset, offset + split, offset + parameters.size)
        self._weight, self._bias = parameters[:split].reshape(shape), parameters[split:]
        self.grad_weight, self.grad_bias = gradients[:split].reshape(shape), gradients[split:]
        self._product_weight = products[:split].reshape(shape)
        self._product_bias = products[split:]
        self._projected = None

    # ------------------------------------------------------------------ #
    # Parameters and their cached projection
    # ------------------------------------------------------------------ #
    weight = _parameter_handle("_weight", "The weight matrix, ``(in_features, out_features)``.")
    bias = _parameter_handle("_bias", "The bias vector, ``(out_features,)``.")

    # repro-lint: hot
    def invalidate(self, projected: Optional[np.ndarray] = None) -> None:
        """The parameter arrays were written in place: drop the projection.

        A writer that has just stored ``project_weight`` of the whole buffer
        the layer's slice was cut from, under the layer's current numerics,
        passes that projected buffer; the layer's slice of it serves the next
        passes in place of a second projection.
        """
        self._projected = None
        if projected is not None:
            numerics = self.numerics
            start, split, stop = self._span
            weight = projected[start:split].reshape(self.in_features, self.out_features)
            self._projected = (numerics, numerics.weight_format, weight, projected[split:stop])

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
    def backward_products(
        self,
        grad_output: np.ndarray,
        parameter_grads: bool = True,
        input_grad: bool = True,
    ) -> Optional[np.ndarray]:
        """Back-propagate through the layer without touching its gradients.

        Projects ``grad_output``.  With ``parameter_grads`` the raw weight and
        bias products (``inputs.T @ g`` and ``g.sum(axis=0)``) are written
        into the layer's slice of its products buffer, for the owner of that
        buffer to project and add into the gradients.  Returns the input
        gradient ``g @ W.T`` unprojected, or ``None`` without ``input_grad``.
        """
        inputs = self._inputs
        if inputs is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        numerics = self.numerics
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        grad_output = numerics.project_gradient(grad_output)
        if parameter_grads:
            np.matmul(inputs.T, grad_output, out=self._product_weight)
            np.sum(grad_output, axis=0, out=self._product_bias)
        if not input_grad:
            return None
        return grad_output @ self._projected_parameters()[2].T

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """:meth:`backward_products`, then ``gradients += project(products)``."""
        gradient = self.backward_products(grad_output)
        self._grad_flat += self.numerics.project_gradient(self._products)
        return gradient

    # ------------------------------------------------------------------ #
    def parameters(self) -> Dict[str, np.ndarray]:
        self._projected = None
        return self._parameters()

    def _parameters(self) -> Dict[str, np.ndarray]:
        return {f"{self.name}.weight": self._weight, f"{self.name}.bias": self._bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {f"{self.name}.weight": self.grad_weight, f"{self.name}.bias": self.grad_bias}

    def zero_grad(self) -> None:
        self._grad_flat.fill(0.0)

    @property
    def output_dim(self) -> int:
        return self.out_features

    @property
    def parameter_count(self) -> int:
        """Number of scalar parameters (weights plus biases)."""
        return self._flat.size


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
