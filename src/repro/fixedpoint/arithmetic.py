"""Bit-level fixed-point arithmetic primitives used by the processing element.

The FIXAR processing element (paper Fig. 5) supports two datapath modes:

* **Full precision** — a 32-bit activation multiplied by a 32-bit weight.
  The PE implements this with *two* 32x16 multipliers: the activation is
  split into its upper and lower 16-bit halves, each half is multiplied by
  the weight, and the upper product is left-shifted by 16 before the two
  partial products are added.
* **Half precision** — after quantization the 32-bit activation word carries
  two independent 16-bit activations; the same two multipliers then produce
  two independent products per cycle, doubling throughput.

The functions here model that decomposition exactly on integer raw codes.
The accelerator's datapath kernel (:mod:`repro.accelerator.datapath`) forms
every MVM product through :func:`multiply_decomposed`, and the tests check the
configurable datapath is numerically identical to a plain wide multiply.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "split_halves",
    "combine_halves",
    "multiply_decomposed",
    "dual_multiply",
    "mac_full_precision",
    "mac_half_precision",
]

_HALF_BITS = 16
_HALF_MASK = (1 << _HALF_BITS) - 1


def split_halves(value: np.ndarray | int) -> Tuple[np.ndarray, np.ndarray]:
    """Split a 32-bit raw activation into (upper, lower) 16-bit halves.

    The lower half is treated as *unsigned* (it is just the low 16 bits of the
    two's-complement word); the upper half keeps the sign.  Recombining with
    :func:`combine_halves` gives back the original value.
    """
    arr = np.asarray(value, dtype=np.int64)
    lower = arr & _HALF_MASK
    upper = arr >> _HALF_BITS
    return upper, lower


def combine_halves(upper: np.ndarray | int, lower: np.ndarray | int) -> np.ndarray:
    """Reassemble a 32-bit value from its (upper, lower) halves."""
    upper = np.asarray(upper, dtype=np.int64)
    lower = np.asarray(lower, dtype=np.int64)
    return (upper << _HALF_BITS) + lower


def multiply_decomposed(activation: np.ndarray | int, weight: np.ndarray | int) -> np.ndarray:
    """Full-precision multiply via the PE's two 32x16 multipliers.

    ``activation`` is a 32-bit raw code and ``weight`` a 32-bit raw code; the
    result equals ``activation * weight`` computed directly, demonstrating the
    shift-and-add recombination in Fig. 5.
    """
    upper, lower = split_halves(activation)
    weight = np.asarray(weight, dtype=np.int64)
    partial_low = lower * weight          # 32x16 multiplier #1
    partial_high = upper * weight         # 32x16 multiplier #2
    return (partial_high << _HALF_BITS) + partial_low


def dual_multiply(
    activation_a: np.ndarray | int,
    activation_b: np.ndarray | int,
    weight: np.ndarray | int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Half-precision mode: two independent 16-bit activations per cycle.

    Each activation is a 16-bit raw code; both are multiplied by the same
    weight using the PE's two multipliers and returned separately.
    """
    weight = np.asarray(weight, dtype=np.int64)
    prod_a = np.asarray(activation_a, dtype=np.int64) * weight
    prod_b = np.asarray(activation_b, dtype=np.int64) * weight
    return prod_a, prod_b


def mac_full_precision(
    accumulator: np.ndarray | int,
    activation: np.ndarray | int,
    weight: np.ndarray | int,
) -> np.ndarray:
    """One full-precision multiply-accumulate step on raw codes."""
    return np.asarray(accumulator, dtype=np.int64) + multiply_decomposed(activation, weight)


def mac_half_precision(
    accumulator_a: np.ndarray | int,
    accumulator_b: np.ndarray | int,
    activation_a: np.ndarray | int,
    activation_b: np.ndarray | int,
    weight: np.ndarray | int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One half-precision MAC step producing two accumulations per cycle."""
    prod_a, prod_b = dual_multiply(activation_a, activation_b, weight)
    acc_a = np.asarray(accumulator_a, dtype=np.int64) + prod_a
    acc_b = np.asarray(accumulator_b, dtype=np.int64) + prod_b
    return acc_a, acc_b
