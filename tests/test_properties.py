"""Property-based tests (hypothesis) for the core numeric substrates.

These check the invariants the rest of the system relies on: fixed-point
conversion error bounds, the exactness of the PE's decomposed multiplier,
the datapath MVM against a plain product under any split across cores,
quantizer range guarantees, and replay-buffer bookkeeping.  The datapath
kernel's differential suite against ``nn`` is ``tests/test_datapath.py``.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.accelerator import mvm
from repro.fixedpoint import (
    AffineQuantizer,
    QFormat,
    multiply_decomposed,
    split_halves,
    combine_halves,
)
from repro.nn import make_numerics
from repro.rl import ReplayBuffer

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
qformats = st.builds(
    QFormat,
    word_length=st.integers(min_value=8, max_value=32),
    frac_bits=st.integers(min_value=0, max_value=7),
)

small_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


class TestQFormatProperties:
    @given(fmt=qformats, value=small_floats)
    @settings(max_examples=200, deadline=None)
    def test_quantization_error_bounded(self, fmt, value):
        """Quantizing an in-range value never errs by more than half an LSB."""
        if not (fmt.min_value <= value <= fmt.max_value):
            return
        assert abs(fmt.quantize(value) - value) <= fmt.resolution / 2 + 1e-12

    @given(fmt=qformats, value=small_floats)
    @settings(max_examples=200, deadline=None)
    def test_quantization_is_idempotent(self, fmt, value):
        once = fmt.quantize(value)
        twice = fmt.quantize(once)
        assert once == twice

    @given(fmt=qformats, value=small_floats)
    @settings(max_examples=200, deadline=None)
    def test_saturation_stays_in_range(self, fmt, value):
        quantized = fmt.quantize(value)
        assert fmt.min_value - 1e-12 <= quantized <= fmt.max_value + 1e-12


class TestDecomposedMultiplierProperties:
    @given(
        activation=st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
        weight=st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_decomposition_exact(self, activation, weight):
        assert multiply_decomposed(activation, weight) == activation * weight

    @given(value=st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_split_combine_roundtrip(self, value):
        upper, lower = split_halves(value)
        assert combine_halves(upper, lower) == value


class TestDatapathProperties:
    """The column-wise MVM of the datapath kernel against a plain product,
    and its partial sums under any split of the work across cores."""

    @given(
        rows=st.integers(1, 6),
        fan_in=st.integers(1, 12),
        fan_out=st.integers(1, 12),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=100, deadline=None)
    def test_mvm_matches_matmul(self, rows, fan_in, fan_out, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-(2 ** 31), 2 ** 31, size=(rows, fan_in))
        w = rng.integers(-(2 ** 24), 2 ** 24, size=(fan_in, fan_out))
        np.testing.assert_array_equal(mvm(x, w), x @ w)

    @given(fan_in=st.integers(1, 40), cores=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_interleaved_fan_in_partial_sums_add_up(self, fan_in, cores, seed):
        """Column ``q`` of the paper's ``W`` (fan-in index ``q``) on core
        ``q mod N``: the cross-core sum of the partial MVMs is the MVM."""
        rng = np.random.default_rng(seed)
        x = rng.integers(-(2 ** 20), 2 ** 20, size=(2, fan_in))
        w = rng.integers(-(2 ** 20), 2 ** 20, size=(fan_in, 5))
        partials = [mvm(x[:, core::cores], w[core::cores]) for core in range(min(cores, fan_in))]
        np.testing.assert_array_equal(sum(partials), mvm(x, w))

    @given(batch=st.integers(1, 40), cores=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_batch_split_rows_are_independent(self, batch, cores, seed):
        """Any contiguous split of the batch across cores gives the batch's rows."""
        rng = np.random.default_rng(seed)
        x = rng.integers(-(2 ** 20), 2 ** 20, size=(batch, 6))
        w = rng.integers(-(2 ** 20), 2 ** 20, size=(6, 4))
        shares = np.array_split(np.arange(batch), cores)
        np.testing.assert_array_equal(
            np.vstack([mvm(x[share], w) for share in shares if share.size]), mvm(x, w)
        )


class TestQuantizerProperties:
    @given(
        num_bits=st.integers(min_value=2, max_value=16),
        low=st.floats(min_value=-100, max_value=0, allow_nan=False),
        span=st.floats(min_value=1e-3, max_value=200, allow_nan=False),
        values=arrays(np.float64, st.integers(1, 30), elements=st.floats(-150, 150)),
    )
    @settings(max_examples=150, deadline=None)
    def test_codes_always_within_code_range(self, num_bits, low, span, values):
        quantizer = AffineQuantizer(num_bits, low, low + span)
        codes = quantizer.quantize(values)
        assert codes.min() >= quantizer.code_min
        assert codes.max() <= quantizer.code_max

    @given(
        num_bits=st.integers(min_value=4, max_value=16),
        low=st.floats(min_value=-10, max_value=0, allow_nan=False),
        span=st.floats(min_value=0.1, max_value=20, allow_nan=False),
        values=arrays(np.float64, st.integers(1, 30), elements=st.floats(-5, 5)),
    )
    @settings(max_examples=150, deadline=None)
    def test_in_range_roundtrip_error_bounded_by_delta(self, num_bits, low, span, values):
        high = low + span
        quantizer = AffineQuantizer(num_bits, low, high)
        in_range = np.clip(values, low, high)
        recovered = quantizer.apply(in_range)
        assert np.max(np.abs(recovered - in_range)) <= quantizer.delta + 1e-9


# --------------------------------------------------------------------------- #
# Fused kernels against their definitions
# --------------------------------------------------------------------------- #
#: ``(53, 20)`` is the widest word the fused kernel takes; ``(60, 20)`` goes
#: through the definition itself.
KERNEL_FORMATS = [QFormat(32, 16), QFormat(16, 8), QFormat(8, 4), QFormat(53, 20), QFormat(60, 20)]

magnitudes = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
    st.integers(min_value=-8, max_value=11),
)
special_values = st.sampled_from(
    [0.0, -0.0, -1e-9, -2.0 ** -22, 2.0 ** -22, 0.5, -0.5, 1.5, -1.5,
     2.0 ** 31, -(2.0 ** 31), 2.0 ** 62, -(2.0 ** 62), 1e300, -1e300,
     float("inf"), float("-inf"), float("nan")]
)
kernel_values = st.lists(
    st.one_of(magnitudes, special_values, st.floats(allow_nan=True, allow_infinity=True)),
    min_size=0,
    max_size=24,
)
#: How the same numbers reach a kernel: dtype, layout, writability, boxing.
PRESENTATIONS = {
    "float64": lambda values: np.array(values, dtype=np.float64),
    "matrix": lambda values: np.array(values + values, dtype=np.float64).reshape(2, -1),
    "strided": lambda values: np.array(values + values, dtype=np.float64)[::2],
    "transposed": lambda values: np.array(values + values, dtype=np.float64).reshape(2, -1).T,
    "read_only": lambda values: _read_only(np.array(values, dtype=np.float64)),
    "float32": lambda values: _as_float32(values),
    "int64": lambda values: np.array([int(v) for v in values if abs(v) < 2.0 ** 62], dtype=np.int64),
    "list": lambda values: list(values),
    "python_float": lambda values: float(values[0]) if values else 0.0,
    "zero_dim": lambda values: np.array(values[0] if values else -0.0, dtype=np.float64),
}


def _read_only(array):
    array.setflags(write=False)
    return array


def _as_float32(values):
    with np.errstate(over="ignore"):
        return np.array(values, dtype=np.float64).astype(np.float32)


def _observed(function, argument):
    """The result of one call and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = function(argument)
    return result, [(item.category, str(item.message)) for item in caught]


def _assert_same_bits(fused, definition, argument):
    result, raised = _observed(fused, argument)
    expected, expected_raised = _observed(definition, argument)
    assert type(result) is type(expected)  # np.float64 for 0-d input
    assert result.dtype == expected.dtype == np.float64
    assert result.shape == expected.shape
    assert result.tobytes() == expected.tobytes()
    # As sets: an input with both an overflow and a NaN warns of the overflow
    # once in the kernel and once more in the definition it falls back on.
    assert set(raised) == set(expected_raised)
    if isinstance(argument, np.ndarray):
        assert not np.shares_memory(result, argument)


class TestFusedKernelDifferential:
    """``quantize`` / ``apply`` compute their definitions, to the last bit."""

    @given(
        fmt=st.sampled_from(KERNEL_FORMATS),
        values=kernel_values,
        presentation=st.sampled_from(sorted(PRESENTATIONS)),
    )
    @settings(max_examples=600, deadline=None)
    def test_quantize_is_from_raw_of_to_raw(self, fmt, values, presentation):
        argument = PRESENTATIONS[presentation](values)
        _assert_same_bits(fmt.quantize, lambda x: fmt.from_raw(fmt.to_raw(x)), argument)

    @given(
        num_bits=st.sampled_from([8, 16]),
        low=st.floats(min_value=-1e4, max_value=1e4),
        span=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e5)),
        values=kernel_values,
        presentation=st.sampled_from(sorted(PRESENTATIONS)),
    )
    @settings(max_examples=600, deadline=None)
    def test_apply_is_dequantize_of_quantize(self, num_bits, low, span, values, presentation):
        quantizer = AffineQuantizer(num_bits, low, low + span)
        argument = PRESENTATIONS[presentation](values)
        _assert_same_bits(
            quantizer.apply, lambda x: quantizer.dequantize(quantizer.quantize(x)), argument
        )

    @given(
        fmt=st.sampled_from(KERNEL_FORMATS),
        values=kernel_values.filter(lambda values: not any(v != v for v in values)),
    )
    @settings(max_examples=300, deadline=None)
    def test_quantized_values_are_a_fixed_point(self, fmt, values):
        """On-grid, ``-0.0``-free values project onto themselves.

        This is what lets ``MLP.backward`` project a gradient once where a
        dense layer is about to project it again.  NaN is outside the claim:
        the definition sends it to ``INT64_MIN`` codes, beyond the format's
        range, and only a second projection saturates those.
        """
        with np.errstate(over="ignore"):
            once = fmt.quantize(np.array(values, dtype=np.float64))
        assert fmt.quantize(once).tobytes() == once.tobytes()

    @given(
        regime=st.sampled_from(["float32", "fixed32", "fixed16", "fixar-dynamic"]),
        values=kernel_values.filter(lambda values: not any(v != v for v in values)),
    )
    @settings(max_examples=200, deadline=None)
    def test_gradient_projection_is_idempotent(self, regime, values):
        numerics = make_numerics(regime)
        with np.errstate(over="ignore"):
            once = numerics.project_gradient(np.array(values, dtype=np.float64))
            assert numerics.project_gradient(once).tobytes() == once.tobytes()


class TestReplayBufferProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        additions=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_size_never_exceeds_capacity(self, capacity, additions):
        buffer = ReplayBuffer(capacity, state_dim=2, action_dim=1, seed=0)
        for index in range(additions):
            buffer.add(np.zeros(2), np.zeros(1), float(index), np.zeros(2), False)
        assert len(buffer) == min(capacity, additions)
        assert buffer.full == (additions >= capacity)

    @given(
        capacity=st.integers(min_value=4, max_value=64),
        additions=st.integers(min_value=1, max_value=200),
        batch=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_samples_only_contain_stored_rewards(self, capacity, additions, batch):
        buffer = ReplayBuffer(capacity, state_dim=2, action_dim=1, seed=0)
        for index in range(additions):
            buffer.add(np.zeros(2), np.zeros(1), float(index), np.zeros(2), False)
        sampled = buffer.sample(batch)
        valid_low = max(0, additions - capacity)
        assert sampled.rewards.min() >= valid_low
        assert sampled.rewards.max() <= additions - 1
