"""Activation quantization for quantization-aware training (Algorithm 1).

The paper's QAT algorithm trains with 32-bit fixed-point activations for the
first ``d`` timesteps while monitoring the running minimum and maximum of the
activations.  After the quantization delay it switches to 16-bit activations
quantized with an affine mapping derived from the captured range::

    delta = (|Amin| + |Amax|) / 2**n
    z     = floor(-Amin / delta)
    Qn(A) = floor(A / delta) + z

This module provides the range tracker and the affine quantizer, plus a
"fake-quantize" path (quantize then dequantize) used when the surrounding
computation stays in real-valued numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RangeTracker", "AffineQuantizer", "QuantizationError"]


class QuantizationError(ValueError):
    """Raised when a quantizer cannot be constructed from the observed range."""


@dataclass
class RangeTracker:
    """Tracks the running minimum and maximum of observed activations.

    The tracker is updated on every forward pass during the quantization-delay
    phase; the captured range is frozen when the quantizer is built.
    """

    min_value: float = field(default=float("inf"))
    max_value: float = field(default=float("-inf"))
    count: int = 0

    def update(self, values: np.ndarray | float, *sharing: "RangeTracker") -> None:
        """Fold a batch of activations into the running range.

        ``sharing`` trackers observe the same batch (a layer's own beside
        the global one): ``(min, max)`` is reduced once and folded into each.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        low, high, count = float(arr.min()), float(arr.max()), int(arr.size)
        for tracker in (self, *sharing):
            tracker.min_value = min(tracker.min_value, low)
            tracker.max_value = max(tracker.max_value, high)
            tracker.count += count

    @property
    def initialized(self) -> bool:
        """Whether at least one value has been observed."""
        return self.count > 0

    def reset(self) -> None:
        self.min_value = float("inf")
        self.max_value = float("-inf")
        self.count = 0

    def merge(self, other: "RangeTracker") -> None:
        """Fold another tracker's observations into this one."""
        if not other.initialized:
            return
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)
        self.count += other.count


class AffineQuantizer:
    """The paper's ``Qn(A, Amin, Amax)`` affine quantizer.

    Parameters
    ----------
    num_bits:
        Quantization bit width ``n`` (16 in the paper).
    min_value, max_value:
        Activation range captured during the quantization-delay phase.
    """

    def __init__(self, num_bits: int, min_value: float, max_value: float):
        if num_bits < 2:
            raise QuantizationError(f"num_bits must be >= 2, got {num_bits}")
        if not np.isfinite(min_value) or not np.isfinite(max_value):
            raise QuantizationError(
                f"activation range is not finite: [{min_value}, {max_value}]"
            )
        if max_value < min_value:
            raise QuantizationError(
                f"max_value ({max_value}) is smaller than min_value ({min_value})"
            )
        self.num_bits = int(num_bits)
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        delta = (abs(self.min_value) + abs(self.max_value)) / float(2 ** self.num_bits)
        if delta == 0.0:
            # A constant all-zero activation range degenerates; use one LSB of
            # unity so the quantizer is still well defined.
            delta = 1.0 / float(2 ** self.num_bits)
        self.delta = delta
        self.zero_point = int(np.floor(-self.min_value / self.delta))
        self._code_max = float(self.code_max)

    @classmethod
    def from_tracker(cls, num_bits: int, tracker: RangeTracker) -> "AffineQuantizer":
        """Build a quantizer from a frozen range tracker."""
        if not tracker.initialized:
            raise QuantizationError(
                "range tracker has not observed any activations; cannot quantize"
            )
        return cls(num_bits, tracker.min_value, tracker.max_value)

    # ------------------------------------------------------------------ #
    # Core mapping
    # ------------------------------------------------------------------ #
    @property
    def code_min(self) -> int:
        """Smallest integer code produced for values within the range."""
        return 0

    @property
    def code_max(self) -> int:
        """Largest integer code produced for values within the range."""
        return (1 << self.num_bits) - 1

    def quantize(self, values: np.ndarray | float) -> np.ndarray:
        """Map real activations to integer codes ``floor(A/delta) + z``."""
        arr = np.asarray(values, dtype=np.float64)
        codes = np.floor(arr / self.delta) + self.zero_point
        return np.clip(codes, self.code_min, self.code_max).astype(np.int64)

    def dequantize(self, codes: np.ndarray | int) -> np.ndarray:
        """Map integer codes back to real activations."""
        codes = np.asarray(codes, dtype=np.float64)
        return (codes - self.zero_point) * self.delta

    # repro-lint: hot
    def apply(self, values: np.ndarray | float) -> np.ndarray:
        """Fake-quantize: quantize then dequantize (simulated precision loss).

        Bit-equal to ``dequantize(quantize(values))``, which stays the
        definition (and takes NaN and 0-d values itself), in one float64
        buffer that never aliases ``values``.
        """
        arr = np.asarray(values)
        if arr.ndim == 0 or arr.size == 0:
            return self.dequantize(self.quantize(values))
        out = np.divide(arr, self.delta, dtype=np.float64)
        np.floor(out, out=out)
        out += self.zero_point
        low, high = out.min(), out.max()
        if not (low >= 0.0 and high <= self._code_max):  # saturating, or NaN
            if low != low:
                return self.dequantize(self.quantize(values))
            np.clip(out, 0.0, self._code_max, out=out)
        out -= self.zero_point
        out *= self.delta
        return out

    def quantization_error(self, values: np.ndarray | float) -> float:
        """Maximum absolute error introduced by quantizing ``values``."""
        arr = np.asarray(values, dtype=np.float64)
        return float(np.max(np.abs(arr - self.apply(arr)))) if arr.size else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AffineQuantizer(n={self.num_bits}, range=[{self.min_value:.4g}, "
            f"{self.max_value:.4g}], delta={self.delta:.4g}, z={self.zero_point})"
        )
