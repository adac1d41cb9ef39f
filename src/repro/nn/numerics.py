"""Numeric policies: how weights, activations, and gradients are represented.

The same network code runs under several numeric regimes in the paper's
Fig. 7 study:

* 32-bit floating point (the GPU baseline),
* 32-bit fixed point for the whole run,
* 16-bit fixed point from scratch (shown to fail),
* FIXAR's *dynamic* fixed point: 32-bit activations during the quantization
  delay, then 16-bit activations quantized with the captured range, with
  weights and gradients staying 32-bit fixed point throughout.

A :class:`Numerics` object encapsulates one such regime.  Layers call its
projection hooks so the numeric behaviour is fully decoupled from the network
topology.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..fixedpoint import (
    ACTIVATION_FULL_FORMAT,
    ACTIVATION_HALF_FORMAT,
    GRADIENT_FORMAT,
    WEIGHT_FORMAT,
    AffineQuantizer,
    QFormat,
    RangeTracker,
)

__all__ = [
    "Numerics",
    "FloatNumerics",
    "FixedPointNumerics",
    "DynamicFixedPointNumerics",
]


class Numerics:
    """Base numeric policy: full floating point, no projection."""

    #: Human-readable name used in reports and learning-curve legends.
    name = "float32"
    #: Fixed-point weight format, if any; dense layers key their cache on it.
    weight_format: Optional[QFormat] = None

    def project_weight(self, weight: np.ndarray) -> np.ndarray:
        """Representation applied to weights before they are used.

        Must be idempotent and a function of ``weight`` and
        :attr:`weight_format` alone: dense layers cache it, and an optimizer's
        post-step projection becomes the weights of the next forward pass.
        """
        return weight

    def project_activation(
        self, activation: np.ndarray, layer: Optional[str] = None
    ) -> np.ndarray:
        """Representation applied to every layer's output activation.

        ``layer`` names the dense layer whose output is being projected
        (``actor_fc0``, ``critic_out``, ...); per-layer precision regimes key
        their quantizer maps on it, uniform regimes ignore it.
        """
        return activation

    def project_gradient(self, gradient: np.ndarray) -> np.ndarray:
        """Representation applied to gradients during back-propagation."""
        return gradient

    def observe_activation(
        self, activation: np.ndarray, layer: Optional[str] = None
    ) -> None:
        """Hook for monitoring activation statistics (no-op by default)."""

    @property
    def activation_bits(self) -> int:
        """Bit width of the current activation representation."""
        return 32

    @property
    def weight_bits(self) -> int:
        """Bit width of the weight representation."""
        return 32

    def describe(self) -> Dict[str, object]:
        """A serialisable description of the numeric regime."""
        return {
            "name": self.name,
            "weight_bits": self.weight_bits,
            "activation_bits": self.activation_bits,
        }


class FloatNumerics(Numerics):
    """Single-precision floating point for everything (the GPU baseline)."""

    name = "float32"

    def project_weight(self, weight: np.ndarray) -> np.ndarray:
        return weight.astype(np.float32).astype(np.float64)

    def project_activation(
        self, activation: np.ndarray, layer: Optional[str] = None
    ) -> np.ndarray:
        return activation.astype(np.float32).astype(np.float64)

    def project_gradient(self, gradient: np.ndarray) -> np.ndarray:
        return gradient.astype(np.float32).astype(np.float64)


class FixedPointNumerics(Numerics):
    """Static fixed-point representation for weights/activations/gradients.

    With the default formats this is the paper's "Fixed 32-bit" regime; pass
    16-bit formats to obtain the "Fixed 16-bit from scratch" regime that the
    paper shows failing to train.
    """

    def __init__(
        self,
        weight_format: QFormat = WEIGHT_FORMAT,
        activation_format: QFormat = ACTIVATION_FULL_FORMAT,
        gradient_format: QFormat = GRADIENT_FORMAT,
        name: Optional[str] = None,
    ):
        self.weight_format = weight_format
        self.activation_format = activation_format
        self.gradient_format = gradient_format
        self.name = name or f"fixed{activation_format.word_length}"

    def project_weight(self, weight: np.ndarray) -> np.ndarray:
        return self.weight_format.quantize(weight)

    def project_activation(
        self, activation: np.ndarray, layer: Optional[str] = None
    ) -> np.ndarray:
        return self.activation_format.quantize(activation)

    def project_gradient(self, gradient: np.ndarray) -> np.ndarray:
        return self.gradient_format.quantize(gradient)

    @property
    def activation_bits(self) -> int:
        return self.activation_format.word_length

    @property
    def weight_bits(self) -> int:
        return self.weight_format.word_length

    def describe(self) -> Dict[str, object]:
        desc = super().describe()
        desc.update(
            {
                "weight_format": str(self.weight_format),
                "activation_format": str(self.activation_format),
                "gradient_format": str(self.gradient_format),
            }
        )
        return desc


class DynamicFixedPointNumerics(FixedPointNumerics):
    """FIXAR's dynamic dual fixed-point regime (the paper's contribution).

    Starts in the 32-bit activation format while a :class:`RangeTracker`
    monitors the activation range.  Calling :meth:`switch_to_half` freezes the
    range, builds the affine quantizer of Algorithm 1, and from then on every
    activation is quantized to ``num_bits`` (16) before being snapped onto the
    half-precision fixed-point grid.  Weights and gradients stay in 32-bit
    fixed point for the entire run.
    """

    def __init__(
        self,
        weight_format: QFormat = WEIGHT_FORMAT,
        full_activation_format: QFormat = ACTIVATION_FULL_FORMAT,
        half_activation_format: QFormat = ACTIVATION_HALF_FORMAT,
        gradient_format: QFormat = GRADIENT_FORMAT,
        num_bits: int = 16,
    ):
        super().__init__(
            weight_format=weight_format,
            activation_format=full_activation_format,
            gradient_format=gradient_format,
            name="fixar-dynamic",
        )
        self.full_activation_format = full_activation_format
        self.half_activation_format = half_activation_format
        self.num_bits = int(num_bits)
        self.range_tracker = RangeTracker()
        self.quantizer: Optional[AffineQuantizer] = None
        self._half_mode = False
        # Per-layer precision state (the PrecisionPolicy seam): quantizers
        # keyed by dense-layer name override the global mode layer by layer,
        # with trackers accumulating each layer's own observed range.
        self.layer_trackers: Dict[str, RangeTracker] = {}
        self.layer_quantizers: Dict[str, AffineQuantizer] = {}
        self.layer_bits: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Mode control
    # ------------------------------------------------------------------ #
    @property
    def half_mode(self) -> bool:
        """Whether the quantization delay has elapsed (16-bit activations)."""
        return self._half_mode

    def switch_to_half(self) -> AffineQuantizer:
        """Freeze the observed range and switch activations to 16 bits."""
        self.quantizer = AffineQuantizer.from_tracker(self.num_bits, self.range_tracker)
        self._half_mode = True
        self.activation_format = self.half_activation_format
        return self.quantizer

    def switch_to_full(self) -> None:
        """Return to full-precision activations (used by ablation studies)."""
        self._half_mode = False
        self.activation_format = self.full_activation_format

    def switch_layer_to_half(
        self, layer: str, num_bits: Optional[int] = None
    ) -> AffineQuantizer:
        """Freeze one layer's observed range and quantize that layer only.

        The per-layer analogue of :meth:`switch_to_half`: builds an affine
        quantizer from the *layer's own* range tracker and installs it in the
        per-layer quantizer map, leaving every other layer in its current
        mode.  Layers are identified by their dense-layer name
        (``actor_fc0``, ``critic_out``, ...).
        """
        bits = int(num_bits) if num_bits is not None else self.num_bits
        tracker = self.layer_trackers.get(layer)
        if tracker is None or not tracker.initialized:
            raise ValueError(
                f"layer {layer!r} has no observed activation range to freeze"
            )
        quantizer = AffineQuantizer.from_tracker(bits, tracker)
        self.layer_quantizers[layer] = quantizer
        self.layer_bits[layer] = bits
        return quantizer

    # ------------------------------------------------------------------ #
    # Projection hooks
    # ------------------------------------------------------------------ #
    def observe_activation(
        self, activation: np.ndarray, layer: Optional[str] = None
    ) -> None:
        if self._half_mode:
            return
        if layer is None or layer in self.layer_quantizers:
            self.range_tracker.update(activation)
            return
        tracker = self.layer_trackers.get(layer)
        if tracker is None:
            tracker = self.layer_trackers[layer] = RangeTracker()
        self.range_tracker.update(activation, tracker)

    # repro-lint: hot
    def project_activation(
        self, activation: np.ndarray, layer: Optional[str] = None
    ) -> np.ndarray:
        quantizer = self.quantizer if self._half_mode else None
        if quantizer is None and layer is not None:
            layer_quantizers = self.layer_quantizers
            quantizer = layer_quantizers.get(layer)
        if quantizer is None:
            full_format = self.full_activation_format
            return full_format.quantize(activation)
        half_format = self.half_activation_format
        return half_format.quantize(quantizer.apply(activation))

    @property
    def activation_bits(self) -> int:
        if self._half_mode:
            return self.half_activation_format.word_length
        return self.full_activation_format.word_length

    def layer_activation_bits(self, layer: str) -> int:
        """The activation bit width currently in effect for one layer."""
        if self._half_mode:
            return self.half_activation_format.word_length
        return self.layer_bits.get(layer, self.full_activation_format.word_length)

    def precision_profile(self) -> Dict[str, object]:
        """The resolved per-layer precision state, for pricing and reports.

        Normalized shape ``{"default": bits, "layers": {name: bits}}`` — the
        same profile :meth:`FixarPlatform.with_precision_state` prices.
        """
        return {"default": self.activation_bits, "layers": dict(self.layer_bits)}

    def describe(self) -> Dict[str, object]:
        desc = super().describe()
        desc.update(
            {
                "half_mode": self._half_mode,
                "num_bits": self.num_bits,
                "range": (
                    [self.range_tracker.min_value, self.range_tracker.max_value]
                    if self.range_tracker.initialized
                    else None
                ),
                "layer_bits": dict(self.layer_bits),
            }
        )
        return desc
