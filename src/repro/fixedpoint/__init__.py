"""Fixed-point numeric substrate for the FIXAR reproduction.

This package models the data formats and arithmetic the FIXAR accelerator
uses: Q-format descriptions with their raw-code conversions and fused
quantizer, the processing element's decomposed multiplier, and the affine
activation quantizer used by quantization-aware training.
"""

from .qformat import (
    ACTIVATION_FULL_FORMAT,
    ACTIVATION_HALF_FORMAT,
    GRADIENT_FORMAT,
    WEIGHT_FORMAT,
    QFormat,
)
from .quantizer import AffineQuantizer, QuantizationError, RangeTracker
from .arithmetic import (
    combine_halves,
    dual_multiply,
    mac_full_precision,
    mac_half_precision,
    multiply_decomposed,
    split_halves,
)

__all__ = [
    "QFormat",
    "AffineQuantizer",
    "RangeTracker",
    "QuantizationError",
    "WEIGHT_FORMAT",
    "ACTIVATION_FULL_FORMAT",
    "ACTIVATION_HALF_FORMAT",
    "GRADIENT_FORMAT",
    "split_halves",
    "combine_halves",
    "multiply_decomposed",
    "dual_multiply",
    "mac_full_precision",
    "mac_half_precision",
]
