"""Unit tests for the PE's decomposed multiplier arithmetic (Fig. 5)."""

import numpy as np
import pytest

from repro.fixedpoint import (
    combine_halves,
    dual_multiply,
    mac_full_precision,
    mac_half_precision,
    multiply_decomposed,
    split_halves,
)


class TestSplitCombine:
    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 12345, -54321, 2 ** 31 - 1, -(2 ** 31),
         0xFFFF, 0x10000, -0x10000, -0x8000],  # either side of the half boundary
    )
    def test_roundtrip(self, value):
        upper, lower = split_halves(value)
        assert combine_halves(upper, lower) == value

    def test_vectorised_roundtrip(self, rng):
        values = rng.integers(-(2 ** 31), 2 ** 31, size=100)
        upper, lower = split_halves(values)
        np.testing.assert_array_equal(combine_halves(upper, lower), values)

    def test_lower_half_is_unsigned_field(self):
        _, lower = split_halves(-1)
        assert lower == 0xFFFF


class TestDecomposedMultiply:
    @pytest.mark.parametrize(
        "activation,weight",
        [(0, 0), (1, 1), (-1, 7), (123456, -98765), (2 ** 30, 2 ** 20), (-(2 ** 30), 3),
         # the extremes of both 32-bit operands, and an all-ones / carry lower half
         (2 ** 31 - 1, 2 ** 31 - 1), (-(2 ** 31), -(2 ** 31)), (-(2 ** 31), 2 ** 31 - 1),
         (0xFFFF, -3), (0x10000, 5), (-1, -1)],
    )
    def test_equals_direct_multiply(self, activation, weight):
        assert multiply_decomposed(activation, weight) == activation * weight

    def test_vectorised_equals_direct(self, rng):
        activations = rng.integers(-(2 ** 31), 2 ** 31, size=200)
        weights = rng.integers(-(2 ** 15), 2 ** 15, size=200)
        np.testing.assert_array_equal(
            multiply_decomposed(activations, weights), activations * weights
        )

    def test_mac_accumulates(self):
        acc = mac_full_precision(10, 3, 4)
        assert acc == 10 + 12


class TestDualMode:
    def test_dual_multiply_independent(self):
        prod_a, prod_b = dual_multiply(3, -5, 7)
        assert prod_a == 21
        assert prod_b == -35

    def test_dual_mac(self):
        acc_a, acc_b = mac_half_precision(1, 2, 3, 4, 10)
        assert acc_a == 1 + 30
        assert acc_b == 2 + 40

    def test_throughput_doubling_shape(self, rng):
        """Two half-precision activations per weight produce two results."""
        activations_a = rng.integers(-(2 ** 15), 2 ** 15, size=64)
        activations_b = rng.integers(-(2 ** 15), 2 ** 15, size=64)
        weights = rng.integers(-(2 ** 15), 2 ** 15, size=64)
        prod_a, prod_b = dual_multiply(activations_a, activations_b, weights)
        assert prod_a.shape == prod_b.shape == (64,)
        np.testing.assert_array_equal(prod_a, activations_a * weights)
        np.testing.assert_array_equal(prod_b, activations_b * weights)


class TestPeSteps:
    """A PE holding one weight, driven a step at a time through the MACs."""

    def test_full_precision_mac_sequence(self):
        acc = mac_full_precision(0, 4, 3)
        assert acc == 12
        assert mac_full_precision(acc, -2, 3) == 12 - 6

    def test_full_precision_with_wide_operands(self):
        weight = 2 ** 20 + 12345
        activation = -(2 ** 30) + 999
        assert mac_full_precision(0, activation, weight) == weight * activation

    def test_half_precision_dual_mac_sequence(self):
        acc_a, acc_b = mac_half_precision(0, 0, 2, -3, 5)
        assert (acc_a, acc_b) == (10, -15)
        assert mac_half_precision(acc_a, acc_b, 1, 1, 5) == (15, -10)

    def test_half_precision_continues_full_precision_accumulators(self):
        """Switching the datapath mid-accumulation keeps what is in flight."""
        acc = mac_full_precision(0, 10, 2)
        acc_a, acc_b = mac_half_precision(acc, 0, 1, 1, 2)
        assert (acc_a, acc_b) == (22, 2)

    def test_dual_mac_equals_two_full_precision_macs(self, rng):
        accumulators = rng.integers(-(2 ** 40), 2 ** 40, size=(2, 64))
        activations = rng.integers(-(2 ** 15), 2 ** 15, size=(2, 64))
        weights = rng.integers(-(2 ** 31), 2 ** 31, size=64)
        acc_a, acc_b = mac_half_precision(*accumulators, *activations, weights)
        np.testing.assert_array_equal(acc_a, mac_full_precision(accumulators[0], activations[0], weights))
        np.testing.assert_array_equal(acc_b, mac_full_precision(accumulators[1], activations[1], weights))
