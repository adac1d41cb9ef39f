"""Fixed-point number format descriptions.

FIXAR represents every number the accelerator touches as a signed fixed-point
value: an integer *raw* value interpreted with an implicit binary point.  A
format is fully described by its total word length and the number of
fractional bits.  The paper uses a 32-bit format for weights and gradients
for the whole training run, a 32-bit format for activations before the
quantization delay, and a 16-bit format for activations afterwards.

``from_raw(to_raw(x))`` is the *definition* of rounding onto a format's grid.
:meth:`QFormat.quantize` computes the same bits in one float64 buffer, with
no int64 round trip; the few inputs where that cast is observable (NaN, 0-d
values, words too wide for a float64 mantissa) take the definition itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QFormat",
    "WEIGHT_FORMAT",
    "ACTIVATION_FULL_FORMAT",
    "ACTIVATION_HALF_FORMAT",
    "GRADIENT_FORMAT",
]


@dataclass(frozen=True)
class QFormat:
    """A signed two's-complement fixed-point format.

    Parameters
    ----------
    word_length:
        Total number of bits, including the sign bit.
    frac_bits:
        Number of bits to the right of the binary point.  May be zero (pure
        integer) and must be smaller than ``word_length``.
    """

    word_length: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.word_length < 2:
            raise ValueError(
                f"word_length must be at least 2 bits, got {self.word_length}"
            )
        if self.word_length > 63:
            raise ValueError(
                "word_length larger than 63 bits cannot be represented with "
                f"int64 raw values, got {self.word_length}"
            )
        if self.frac_bits < 0:
            raise ValueError(f"frac_bits must be non-negative, got {self.frac_bits}")
        if self.frac_bits >= self.word_length:
            raise ValueError(
                "frac_bits must leave at least the sign bit: "
                f"word_length={self.word_length}, frac_bits={self.frac_bits}"
            )
        # quantize()'s constants, worked out once (the dataclass is frozen).
        kernel = (self.scale, self.resolution, float(self.raw_min), float(self.raw_max))
        object.__setattr__(self, "_kernel", kernel)

    # ------------------------------------------------------------------ #
    # Derived properties
    # ------------------------------------------------------------------ #
    @property
    def int_bits(self) -> int:
        """Number of integer bits (excluding the sign bit)."""
        return self.word_length - self.frac_bits - 1

    @property
    def resolution(self) -> float:
        """Smallest representable increment (value of one LSB)."""
        return 2.0 ** (-self.frac_bits)

    @property
    def scale(self) -> float:
        """Number of raw codes per unit value (``2 ** frac_bits``)."""
        return float(2 ** self.frac_bits)

    @property
    def raw_min(self) -> int:
        """Most negative raw code."""
        return -(1 << (self.word_length - 1))

    @property
    def raw_max(self) -> int:
        """Most positive raw code."""
        return (1 << (self.word_length - 1)) - 1

    @property
    def min_value(self) -> float:
        """Most negative representable real value."""
        return self.raw_min * self.resolution

    @property
    def max_value(self) -> float:
        """Most positive representable real value."""
        return self.raw_max * self.resolution

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_raw(self, values: np.ndarray | float, saturate: bool = True) -> np.ndarray:
        """Convert real values to raw integer codes (round-to-nearest).

        Values outside the representable range are saturated when
        ``saturate`` is true (the accelerator's behaviour), otherwise a
        ``ValueError`` is raised.
        """
        arr = np.asarray(values, dtype=np.float64)
        raw = np.rint(arr * self.scale)
        if saturate:
            raw = np.clip(raw, self.raw_min, self.raw_max)
        else:
            if np.any(raw < self.raw_min) or np.any(raw > self.raw_max):
                raise ValueError(
                    f"value out of range for {self}: "
                    f"[{self.min_value}, {self.max_value}]"
                )
        return raw.astype(np.int64)

    def from_raw(self, raw: np.ndarray | int) -> np.ndarray:
        """Convert raw integer codes back to real values."""
        return np.asarray(raw, dtype=np.float64) * self.resolution

    # repro-lint: hot
    def quantize(self, values: np.ndarray | float) -> np.ndarray:
        """Round real values onto this format's representable grid.

        Bit-equal to ``from_raw(to_raw(values))``, never an alias of
        ``values``.  The definition's int64 cast shows twice: ``-0.0`` comes
        back ``+0.0`` (hence ``+= 0.0``), and NaN becomes ``INT64_MIN`` with a
        ``RuntimeWarning`` (NaN is handed to the definition, warning and all).
        """
        arr = np.asarray(values)
        if arr.ndim == 0 or arr.size == 0 or self.word_length > 53:
            return self.from_raw(self.to_raw(values))
        scale, resolution, raw_min, raw_max = self._kernel
        out = np.multiply(arr, scale, dtype=np.float64)
        np.rint(out, out=out)
        low, high = out.min(), out.max()
        if not (low >= raw_min and high <= raw_max):  # saturating, or NaN
            if low != low:
                return self.from_raw(self.to_raw(values))
            np.clip(out, raw_min, raw_max, out=out)
        out += 0.0
        out *= resolution
        return out

    def clip_raw(self, raw: np.ndarray) -> np.ndarray:
        """Saturate raw codes into this format's representable range."""
        return np.clip(raw, self.raw_min, self.raw_max).astype(np.int64)

    def representable(self, values: np.ndarray | float) -> np.ndarray:
        """Boolean mask of values that fit this format without saturation."""
        arr = np.asarray(values, dtype=np.float64)
        return (arr >= self.min_value) & (arr <= self.max_value)

    def half(self) -> "QFormat":
        """The format with half the word length and half the fraction bits.

        This mirrors the paper's precision reduction: a 32-bit activation
        format becomes a 16-bit format after the quantization delay.
        """
        word = self.word_length // 2
        frac = min(self.frac_bits // 2, word - 1)
        return QFormat(word_length=word, frac_bits=frac)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q{self.int_bits}.{self.frac_bits} ({self.word_length}b)"


#: 32-bit fixed-point format used for weights for the entire training run.
WEIGHT_FORMAT = QFormat(word_length=32, frac_bits=16)

#: 32-bit fixed-point activation format used before the quantization delay.
ACTIVATION_FULL_FORMAT = QFormat(word_length=32, frac_bits=16)

#: 16-bit fixed-point activation format used after the quantization delay.
ACTIVATION_HALF_FORMAT = QFormat(word_length=16, frac_bits=8)

#: 32-bit fixed-point format used for gradients for the entire training run.
GRADIENT_FORMAT = QFormat(word_length=32, frac_bits=16)
