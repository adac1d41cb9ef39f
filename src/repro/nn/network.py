"""Multi-layer perceptron container and the paper's actor / critic builders.

Both FIXAR networks are small MLPs:

* actor:  state → 400 → 300 → action, ReLU hidden activations, tanh output;
* critic: (state ‖ action) → 400 → 300 → 1, ReLU hidden activations, linear
  output.

The :class:`MLP` applies the numeric policy's activation projection after
every layer, which is where the quantization-aware training hook lives.

An :class:`MLP` keeps all its parameters in one contiguous float64 buffer,
its gradients in a second and scratch of the same size in a third — the
software image of FIXAR's single on-chip weight memory.  Every dense layer's
``weight`` / ``bias`` / ``grad_*`` arrays are views into those buffers, laid
end to end in layer order (weight row-major, then bias), which is the order of
:meth:`MLP.parameters`.  An optimizer step, its post-step projection, a Polyak
average with its target refill and ``zero_grad`` are therefore each one NumPy
call per network rather than one per tensor.
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


class ArenaViews(dict):
    """``name → array`` views into one flat buffer laid out like a network's
    parameters; :attr:`buffer` is that buffer."""

    def __init__(self, network: "MLP", buffer: np.ndarray):
        super().__init__(network._views(buffer))
        self.network = network
        self.buffer = buffer

    def like(self, buffer: np.ndarray) -> "ArenaViews":
        """The same names over another buffer of the layout (optimizer moments)."""
        return ArenaViews(self.network, buffer)


class ParameterHandles(ArenaViews):
    """Writable handles on a network's parameters that lead back to it.

    Taking the handles drops the network's cached weight projections once.  A
    holder that writes through them *later* (an optimizer, on every step)
    calls :meth:`written` after each write, so that no projection outlives
    the parameters it was computed from.
    """

    def __init__(self, network: "MLP"):
        super().__init__(network, network._flat)

    def written(self, project=None, projected: Optional[Sequence[np.ndarray]] = None) -> None:
        """Report an in-place write through these handles.

        ``projected`` is ``[project(buffer)]``, when the writer has just
        stored exactly that in :attr:`buffer`; a layer whose
        ``project_weight`` is ``project`` takes its slice as its next
        projection and computes none.
        """
        self.network._written(project, None if projected is None else projected[0])


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
        dense = [layer for layer in self.layers if isinstance(layer, Linear)]
        size = sum(layer.parameter_count for layer in dense)
        self._flat = np.empty(size)
        self._grad_flat = np.empty(size)
        #: The raw gradient products of a backward pass; the source term of
        #: a Polyak average.
        self._scratch = np.empty(size)
        #: ``(name, start, stop, shape)`` of every parameter, in buffer order.
        layout = []
        offset = 0
        for index, layer in enumerate(self.layers):
            if not isinstance(layer, Linear):
                continue
            layer.numerics = self.numerics
            stop = offset + layer.parameter_count
            layer._bind(
                self._flat[offset:stop], self._grad_flat[offset:stop],
                self._scratch[offset:stop], offset,
            )
            start, split, stop = layer._span
            layout.append((f"{index}.{layer.name}.weight", start, split, layer._weight.shape))
            layout.append((f"{index}.{layer.name}.bias", split, stop, layer._bias.shape))
            offset = stop
        self._layout: Tuple[tuple, ...] = tuple(layout)
        self._dense: Tuple[Linear, ...] = tuple(dense)
        self._first_dense = self.layers.index(dense[0]) if dense else 0

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

    # repro-lint: hot
    def backward(
        self,
        grad_output: np.ndarray,
        *,
        parameter_grads: bool = True,
        input_grad: bool = True,
    ) -> Optional[np.ndarray]:
        """Backward propagation; returns the gradient w.r.t. the inputs.

        Every layer's input gradient is projected once: a dense layer projects
        what it is handed itself and projection is idempotent, so only what
        goes to an activation layer (or back to the caller) is projected here.

        The dense layers write their raw weight / bias products into the
        scratch buffer, and one ``project_gradient`` of it is added into the
        gradient buffer: elementwise ``grad += project(product)``, exactly as
        if each tensor were projected and accumulated on its own, so passes
        without a ``zero_grad`` between them accumulate.

        ``parameter_grads=False`` leaves the gradients untouched (the
        accelerator's BP-only dataflow, for back-propagating the actor loss
        through the critic).  ``input_grad=False`` stops at the first dense
        layer without computing the input gradient, and returns ``None``.
        """
        gradient = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        numerics = self.numerics
        project = numerics.project_gradient
        layers = self.layers
        stop = 0 if input_grad else self._first_dense
        for index in range(len(layers) - 1, stop - 1, -1):
            layer = layers[index]
            if isinstance(layer, Linear):
                gradient = layer.backward_products(
                    gradient, parameter_grads, input_grad or index > stop
                )
            else:
                gradient = layer.backward(gradient)
            if gradient is not None and (index == 0 or not isinstance(layers[index - 1], Linear)):
                gradient = project(gradient)
        if parameter_grads:
            self._grad_flat += project(self._scratch)
        return gradient

    # ------------------------------------------------------------------ #
    # Parameter management
    # ------------------------------------------------------------------ #
    def parameters(self) -> ParameterHandles:
        """Writable handles on every parameter array, by name.

        Handing them out counts as a write (the cached weight projections are
        dropped); see :class:`ParameterHandles` for holders that write later.
        """
        handles = ParameterHandles(self)
        handles.written()
        return handles

    def _parameters(self) -> Dict[str, np.ndarray]:
        """:meth:`parameters` for readers: nothing is handed out or dropped."""
        return self._views(self._flat)

    def _views(self, buffer: np.ndarray) -> Dict[str, np.ndarray]:
        """Named views into ``buffer``, a flat array of the parameter layout."""
        return {name: buffer[start:stop].reshape(shape) for name, start, stop, shape in self._layout}

    def gradients(self) -> ArenaViews:
        return ArenaViews(self, self._grad_flat)

    def zero_grad(self) -> None:
        self._grad_flat.fill(0.0)

    # repro-lint: hot
    def _written(self, project=None, projected: Optional[np.ndarray] = None) -> None:
        """The parameter buffer was written in place.

        Every dense layer drops its projection or, when ``projected`` is
        ``project`` of the whole buffer and ``project`` is the layer's own
        ``project_weight``, takes its slice of ``projected`` instead.
        """
        for layer in self._dense:
            if projected is not None and project == layer.numerics.project_weight:
                layer.invalidate(projected)
            else:
                layer.invalidate()

    def set_parameters(self, params: Dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place, all or nothing (names and shapes are
        checked first); the layers drop their projections once."""
        current = self._parameters()
        for name, value in params.items():
            if name not in current:
                raise ValueError(f"unknown parameter {name!r}")
            if current[name].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{current[name].shape} vs {value.shape}"
                )
        for name, value in params.items():
            current[name][...] = value
        self._written()

    def copy_from(self, other: "MLP") -> None:
        """Hard-copy another network's parameters (used for target networks)."""
        self.set_parameters(other._parameters())

    # repro-lint: hot
    def soft_update_from(self, other: "MLP", tau: float) -> None:
        """Polyak averaging ``theta ← tau * theta_other + (1 - tau) * theta``.

        The averaged buffer is then projected once, and every dense layer
        takes its slice as the projection its next forward pass uses.
        """
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {tau}")
        self._require_layout(other)
        flat, scratch = self._flat, self._scratch
        np.multiply(other._flat, tau, out=scratch)
        np.multiply(flat, 1.0 - tau, out=flat)
        np.add(scratch, flat, out=flat)
        numerics = self.numerics
        project = numerics.project_weight
        self._written(project, project(flat))

    def _require_layout(self, other: "MLP") -> None:
        """Raise unless ``other`` lays out the same parameters the same way."""
        if other._layout == self._layout:
            return
        shapes = {name: shape for name, _start, _stop, shape in other._layout}
        for name, _start, _stop, shape in self._layout:
            if name not in shapes:
                raise ValueError(f"the source network has no parameter {name!r}")
            if shapes[name] != shape:
                raise ValueError(f"shape mismatch for {name!r}: {shape} vs {shapes[name]}")
        raise ValueError("the networks order their parameters differently")

    # ------------------------------------------------------------------ #
    # Model accounting (used by the accelerator memory model)
    # ------------------------------------------------------------------ #
    @property
    def parameter_count(self) -> int:
        """Total number of scalar parameters."""
        return self._flat.size

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
