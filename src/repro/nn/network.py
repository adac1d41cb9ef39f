"""Multi-layer perceptron container and the paper's actor / critic builders.

Both FIXAR networks are small MLPs:

* actor:  state → 400 → 300 → action, ReLU hidden activations, tanh output;
* critic: (state ‖ action) → 400 → 300 → 1, ReLU hidden activations, linear
  output.

The :class:`MLP` applies the numeric policy's activation projection after
every layer, which is where the quantization-aware training hook lives.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .initializers import fan_in_uniform, uniform
from .layers import Layer, Linear, ReLU, Tanh
from .numerics import Numerics

__all__ = ["MLP", "build_actor", "build_critic", "DEFAULT_HIDDEN_SIZES"]

#: Hidden layer widths used throughout the paper.
DEFAULT_HIDDEN_SIZES: Tuple[int, int] = (400, 300)


class ParameterHandles(dict):
    """``name → array`` handles on a network's parameters that lead back to it.

    Taking the handles drops the network's cached weight projections once.  A
    holder that writes through them *later* (an optimizer, on every step)
    calls :meth:`written` after each write, so that no projection outlives
    the parameters it was computed from.
    """

    def __init__(self, network: "MLP", arrays: Dict[str, np.ndarray]):
        super().__init__(arrays)
        self.network = network

    def written(self, project=None, projected: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Report an in-place write through these handles.

        ``projected[name]`` is ``project(array)``, when the writer has just
        stored exactly that in every array; a layer whose ``project_weight``
        is ``project`` takes it as its next projection and computes none.
        """
        for index, layer in enumerate(self.network.layers):
            if not isinstance(layer, Linear):
                continue
            if projected is not None and project == layer.numerics.project_weight:
                prefix = f"{index}.{layer.name}"
                layer.invalidate(projected.get(f"{prefix}.weight"), projected.get(f"{prefix}.bias"))
            else:
                layer.invalidate()


class MLP:
    """A sequential network with explicit forward / backward passes.

    Parameters
    ----------
    layers:
        The layer sequence (alternating ``Linear`` and activation layers).
    numerics:
        Numeric policy applied to every layer's output activation and shared
        with the dense layers for weight / gradient projection.
    """

    def __init__(self, layers: Sequence[Layer], numerics: Optional[Numerics] = None):
        if not layers:
            raise ValueError("an MLP needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.numerics = numerics or Numerics()
        for layer in self.layers:
            if isinstance(layer, Linear):
                layer.numerics = self.numerics

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #
    # repro-lint: hot
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Forward propagation with per-layer activation projection.

        Each projection is keyed by the most recent dense layer's name, so a
        per-layer precision policy quantizes a Linear's output *and* the
        activation function applied to it under one layer name.
        """
        activation = np.asarray(inputs, dtype=np.float64)
        if activation.ndim < 2:
            activation = np.atleast_2d(activation)
        numerics = self.numerics
        observe, project = numerics.observe_activation, numerics.project_activation
        current: Optional[str] = None
        for layer in self.layers:
            if isinstance(layer, Linear):
                current = layer.name
            activation = layer.forward(activation)
            observe(activation, layer=current)
            activation = project(activation, layer=current)
        return activation

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward propagation; returns the gradient w.r.t. the inputs.

        Every layer's input gradient is projected once: a dense layer projects
        what it is handed itself and projection is idempotent, so only what
        goes to an activation layer (or back to the caller) is projected here.
        """
        gradient = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        project = self.numerics.project_gradient
        layers = self.layers
        for index in range(len(layers) - 1, -1, -1):
            gradient = layers[index].backward(gradient)
            if index == 0 or not isinstance(layers[index - 1], Linear):
                gradient = project(gradient)
        return gradient

    # ------------------------------------------------------------------ #
    # Parameter management
    # ------------------------------------------------------------------ #
    def parameters(self) -> Dict[str, np.ndarray]:
        """Writable handles on every parameter array, by name.

        Handing them out counts as a write (the cached weight projections are
        dropped); see :class:`ParameterHandles` for holders that write later.
        """
        handles = ParameterHandles(self, self._parameters())
        handles.written()
        return handles

    def _parameters(self) -> Dict[str, np.ndarray]:
        """:meth:`parameters` for readers: nothing is handed out or dropped."""
        params: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.layers):
            for name, value in layer._parameters().items():
                params[f"{index}.{name}"] = value
        return params

    def gradients(self) -> Dict[str, np.ndarray]:
        grads: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.layers):
            for name, value in layer.gradients().items():
                grads[f"{index}.{name}"] = value
        return grads

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def set_parameters(self, params: Dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place, all or nothing (names and shapes are checked first)."""
        current = self.parameters()
        for name, value in params.items():
            if name not in current:
                raise KeyError(f"unknown parameter {name!r}")
            if current[name].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{current[name].shape} vs {value.shape}"
                )
        for name, value in params.items():
            current[name][...] = value

    def copy_from(self, other: "MLP") -> None:
        """Hard-copy another network's parameters (used for target networks)."""
        self.set_parameters(other._parameters())

    def soft_update_from(self, other: "MLP", tau: float) -> None:
        """Polyak averaging ``theta ← tau * theta_other + (1 - tau) * theta``."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {tau}")
        params = self.parameters()
        source = other._parameters()
        for name in params:
            if name not in source:
                raise KeyError(name)
        for name, value in params.items():
            value[...] = tau * source[name] + (1.0 - tau) * value

    # ------------------------------------------------------------------ #
    # Model accounting (used by the accelerator memory model)
    # ------------------------------------------------------------------ #
    @property
    def parameter_count(self) -> int:
        """Total number of scalar parameters."""
        return sum(v.size for v in self._parameters().values())

    @property
    def layer_shapes(self) -> List[Tuple[int, int]]:
        """The (in, out) shape of every dense layer, in order."""
        return [
            (layer.in_features, layer.out_features)
            for layer in self.layers
            if isinstance(layer, Linear)
        ]

    def model_size_bytes(self, bits_per_weight: int = 32) -> int:
        """Storage footprint of all parameters at the given bit width."""
        return self.parameter_count * bits_per_weight // 8


def build_actor(
    state_dim: int,
    action_dim: int,
    hidden_sizes: Sequence[int] = DEFAULT_HIDDEN_SIZES,
    *,
    rng: Optional[np.random.Generator] = None,
    numerics: Optional[Numerics] = None,
) -> MLP:
    """The paper's actor network: state → 400 → 300 → action with tanh output."""
    rng = rng or np.random.default_rng()
    sizes = [state_dim, *hidden_sizes]
    layers: List[Layer] = []
    for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Linear(fan_in, fan_out, rng=rng, name=f"actor_fc{index}"))
        layers.append(ReLU())
    layers.append(
        Linear(
            sizes[-1],
            action_dim,
            rng=rng,
            weight_init=uniform(-3e-3, 3e-3),
            bias_init=uniform(-3e-3, 3e-3),
            name="actor_out",
        )
    )
    layers.append(Tanh())
    return MLP(layers, numerics=numerics)


def build_critic(
    state_dim: int,
    action_dim: int,
    hidden_sizes: Sequence[int] = DEFAULT_HIDDEN_SIZES,
    *,
    rng: Optional[np.random.Generator] = None,
    numerics: Optional[Numerics] = None,
) -> MLP:
    """The paper's critic network: (state ‖ action) → 400 → 300 → 1."""
    rng = rng or np.random.default_rng()
    sizes = [state_dim + action_dim, *hidden_sizes]
    layers: List[Layer] = []
    for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Linear(fan_in, fan_out, rng=rng, name=f"critic_fc{index}"))
        layers.append(ReLU())
    layers.append(
        Linear(
            sizes[-1],
            1,
            rng=rng,
            weight_init=uniform(-3e-3, 3e-3),
            bias_init=uniform(-3e-3, 3e-3),
            name="critic_out",
        )
    )
    return MLP(layers, numerics=numerics)
