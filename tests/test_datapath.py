"""Differential suite: ``nn``'s dense layer against the raw-code datapath kernel.

``repro.accelerator.datapath`` is the paper's integer layer; ``repro.nn``
computes the same layer in float64 and rounds through its numerics object.
For one dense layer with inputs and parameters on their grids — at full
precision (Q15.16 inputs) and at half precision (inputs that
``project_activation`` put on the Q7.8 grid after ``switch_to_half``) —
this suite pins every difference, in LSBs:

* the accumulator is ``==``: ``x @ W + b`` in float64 is the kernel's
  unrounded integer sum while ``Σ|x·w| + |b|·2^fx < 2^53`` (raw codes):
  every product and partial sum is then a whole number of ``2^-(fx+fw)``
  units below float64's 53-bit significand, so nothing rounds;
* the forward rounding differs only at ties: the kernel rounds half up,
  ``QFormat.quantize`` half to even, so a difference appears exactly where
  the dropped bits are one half LSB and the code below is even, and it is
  exactly +1 LSB;
* back-propagation is ``==``: the kernel's ``g @ Wᵀ``, ``xᵀ @ g`` and
  ``Σ g`` accumulators equal ``Linear.backward_products`` under the same
  condition, and ``project_gradient`` rounds both;
* the kernel's MVM is ``==`` a tile-by-tile walk of single-PE
  ``mac_full_precision`` / ``mac_half_precision`` steps, and the partial
  sums of either parallelism mapping add up to it.

The same relations hold for every dense layer of every registered
benchmark's paper-size actor and critic under each fixed-point regime, and
every rescale the layer makes is checked against an exact rational
round-half-up.  The weight update has no raw-code form: Adam is ``nn.Adam`` alone.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.accelerator import (
    ArrayGeometry,
    dense_forward,
    inference_schedule,
    mvm,
    network_forward,
    requantize,
    training_schedule,
)
from repro.envs import available_benchmarks, benchmark_dimensions
from repro.fixedpoint import (
    ACTIVATION_FULL_FORMAT,
    ACTIVATION_HALF_FORMAT,
    GRADIENT_FORMAT,
    WEIGHT_FORMAT,
    QFormat,
    mac_full_precision,
    mac_half_precision,
)
from repro.nn import DynamicFixedPointNumerics, FixedPointNumerics, Linear, make_numerics
from repro.rl import DDPGAgent, DDPGConfig

FULL = ACTIVATION_FULL_FORMAT
HALF = ACTIVATION_HALF_FORMAT


# --------------------------------------------------------------------------- #
# Strategies: raw codes, with the values that put ties under the shift
# --------------------------------------------------------------------------- #
def codes(limit):
    """Raw codes in ``[-limit, limit]``, often a multiple of a half LSB of the
    16-bit (``2^15``) or 8-bit (``2^7``) shifts the layer makes."""
    ties = [sign * multiple * shift for sign in (1, -1) for multiple in (1, 3)
            for shift in (2 ** 7, 2 ** 15)]
    return st.one_of(st.integers(-limit, limit), st.sampled_from([0, 1, -1] + ties))


@st.composite
def dense_layers(draw, x_codes):
    """``(x, w, b)`` raw codes of one dense layer, batch-major."""
    batch = draw(st.integers(1, 4))
    fan_in = draw(st.integers(1, 12))
    fan_out = draw(st.integers(1, 8))
    x = draw(arrays(np.int64, (batch, fan_in), elements=x_codes))
    w = draw(arrays(np.int64, (fan_in, fan_out), elements=codes(2 ** 18)))
    b = draw(arrays(np.int64, (fan_out,), elements=codes(2 ** 18)))
    return x, w, b


def _layer(numerics, w, b, w_fmt=WEIGHT_FORMAT):
    """An ``nn`` dense layer holding the weight / bias codes ``w``, ``b``."""
    layer = Linear(*w.shape, rng=np.random.default_rng(0), numerics=numerics, name="fc")
    layer.weight = w_fmt.from_raw(w)
    layer.bias = w_fmt.from_raw(b)
    return layer


def _half_numerics():
    """Dynamic numerics switched to 16 bits over the observed range [-8, 8]."""
    numerics = DynamicFixedPointNumerics()
    numerics.observe_activation(np.array([-8.0, 8.0]))
    numerics.switch_to_half()
    return numerics


def _half_grid_inputs(numerics, values):
    """``project_activation``'s output for ``values`` and its Q7.8 codes."""
    x = numerics.project_activation(np.asarray(values, dtype=np.float64))
    x_codes = HALF.to_raw(x)
    np.testing.assert_array_equal(HALF.from_raw(x_codes), x)  # on the Q7.8 grid
    return x_codes


def _layer_on_half_grid(values, data):
    """Half-precision numerics, Q7.8 input codes from ``values`` and drawn
    weight / bias codes of one dense layer."""
    numerics = _half_numerics()
    x = _half_grid_inputs(numerics, values)
    fan_out = data.draw(st.integers(1, 8))
    w = data.draw(arrays(np.int64, (x.shape[1], fan_out), elements=codes(2 ** 18)))
    b = data.draw(arrays(np.int64, (fan_out,), elements=codes(2 ** 18)))
    return numerics, x, w, b


def _below_2_53(a, b, bias=0):
    """The derived condition under which float64 computes ``a @ b + bias``
    exactly: ``Σ|a·b| + |bias| < 2^53``, every term in output units."""
    terms = np.abs(a).astype(float) @ np.abs(b).astype(float)
    return (terms + np.abs(bias)).max() < 2.0 ** 53


# --------------------------------------------------------------------------- #
# The relations, one dense layer at a time
# --------------------------------------------------------------------------- #
def _assert_forward_relation(numerics, x, w, b, x_fmt, w_fmt=WEIGHT_FORMAT):
    """The pinned forward relation, with the output in the weight format."""
    assert _below_2_53(x, w, b * 2.0 ** x_fmt.frac_bits)
    layer = _layer(numerics, w, b, w_fmt)
    software = layer.forward(x_fmt.from_raw(x))
    frac_bits = x_fmt.frac_bits + w_fmt.frac_bits

    # Accumulator: nn's float64 sum is the kernel's unrounded integer sum.
    acc = mvm(x, w)
    unrounded = (acc + (b << x_fmt.frac_bits)).astype(np.float64) * 2.0 ** -frac_bits
    np.testing.assert_array_equal(software, unrounded)

    # Rounding onto the output format: +1 LSB exactly at the ties that
    # round-half-to-even sends down, nowhere else.
    kernel = dense_forward(x, w, b, x_fmt, w_fmt, w_fmt)
    reference = w_fmt.to_raw(software)
    shift = frac_bits - w_fmt.frac_bits
    tie = (acc & ((1 << shift) - 1)) == 1 << (shift - 1)
    below_is_even = ((acc >> shift) + b) % 2 == 0
    np.testing.assert_array_equal(kernel - reference, (tie & below_is_even).astype(np.int64))


def _assert_backward_relation(numerics, x, w, b, x_fmt, g, w_fmt=WEIGHT_FORMAT):
    """The pinned BP relation, with ``g`` in the numerics' gradient format."""
    project = numerics.project_gradient
    g_fmt = numerics.gradient_format
    layer = _layer(numerics, w, b, w_fmt)
    layer.forward(x_fmt.from_raw(x))
    layer.zero_grad()
    upstream = g_fmt.from_raw(g)
    input_grad = project(layer.backward(upstream))

    fg, fw, fx = g_fmt.frac_bits, w_fmt.frac_bits, x_fmt.frac_bits
    assert _below_2_53(g, w.T) and _below_2_53(x.T, g)
    np.testing.assert_array_equal(project(mvm(g, w.T) * 2.0 ** -(fg + fw)), input_grad)
    np.testing.assert_array_equal(project(mvm(x.T, g) * 2.0 ** -(fx + fg)), layer.grad_weight)
    np.testing.assert_array_equal(project(g.sum(axis=0) * 2.0 ** -fg), layer.grad_bias)


class TestFullPrecisionLayer:
    """Q15.16 inputs, Q15.16 weights: the ``fixed32`` / pre-switch layer."""

    @given(layer=dense_layers(codes(2 ** 20)))
    @example(layer=(np.array([[1]]), np.array([[2 ** 15]]), np.array([0])))   # tie, even below
    @example(layer=(np.array([[1]]), np.array([[3 * 2 ** 15]]), np.array([0])))  # tie, odd below
    @settings(max_examples=200, deadline=None)
    def test_forward(self, layer):
        _assert_forward_relation(FixedPointNumerics(), *layer, FULL)

    @given(layer=dense_layers(codes(2 ** 20)), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_backward(self, layer, data):
        x, w, b = layer
        g = data.draw(arrays(np.int64, (x.shape[0], w.shape[1]), elements=codes(2 ** 20)))
        _assert_backward_relation(FixedPointNumerics(), x, w, b, FULL, g)


class TestHalfPrecisionLayer:
    """Inputs ``project_activation`` put on the Q7.8 grid after the switch."""

    @given(
        values=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                      elements=st.floats(-10.0, 10.0)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_forward(self, values, data):
        numerics, x, w, b = _layer_on_half_grid(values, data)
        _assert_forward_relation(numerics, x, w, b, HALF)

    def test_forward_tie(self):
        """``x = 2^-8`` times ``w = 2^-9`` is half a Q15.16 LSB: the kernel
        rounds it up to 1, ``quantize`` down to the even 0."""
        numerics = _half_numerics()
        x = _half_grid_inputs(numerics, [[2.0 ** -8]])
        assert x.tolist() == [[1]]
        _assert_forward_relation(numerics, x, np.array([[2 ** 7]]), np.array([0]), HALF)
        kernel = dense_forward(x, np.array([[2 ** 7]]), np.array([0]), HALF, WEIGHT_FORMAT, FULL)
        assert kernel.tolist() == [[1]]

    @given(
        values=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                      elements=st.floats(-10.0, 10.0)),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_backward(self, values, data):
        numerics, x, w, b = _layer_on_half_grid(values, data)
        g = data.draw(arrays(np.int64, (x.shape[0], w.shape[1]), elements=codes(2 ** 20)))
        _assert_backward_relation(numerics, x, w, b, HALF, g)


def test_accumulator_condition_is_needed():
    """Past 2^53 float64 drops product bits the integer sum keeps."""
    x, w = np.array([[2 ** 30 + 1]]), np.array([[2 ** 30 + 1]])
    assert not _below_2_53(x, w)
    software = _layer(FixedPointNumerics(), w, np.array([0])).forward(FULL.from_raw(x))
    assert int(mvm(x, w)[0, 0]) == (2 ** 30 + 1) ** 2
    assert int(software[0, 0] * 2 ** 32) == (2 ** 30 + 1) ** 2 - 1


# --------------------------------------------------------------------------- #
# The kernel's own contract
# --------------------------------------------------------------------------- #
def _tiled_mvm(x, w, rows, cols, half):
    """``x @ w`` walked tile by tile through single-PE MAC steps.

    Each ``rows x cols`` weight tile is loaded in turn; every PE multiplies
    its weight into its column's accumulator — one activation per step in
    full precision, two batch rows' 16-bit activations per step in half.
    """
    if half and len(x) % 2:
        x = np.vstack([x, np.zeros_like(x[:1])])
    out = np.zeros((len(x), w.shape[1]), dtype=np.int64)
    for col_start in range(0, w.shape[1], cols):
        for row_start in range(0, w.shape[0], rows):
            for k in range(row_start, min(row_start + rows, w.shape[0])):
                for j in range(col_start, min(col_start + cols, w.shape[1])):
                    if half:
                        for i in range(0, len(x), 2):
                            out[i, j], out[i + 1, j] = mac_half_precision(
                                out[i, j], out[i + 1, j], x[i, k], x[i + 1, k], w[k, j]
                            )
                    else:
                        for i in range(len(x)):
                            out[i, j] = mac_full_precision(out[i, j], x[i, k], w[k, j])
    return out


class TestMvm:
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 10), st.integers(1, 9)),
        geometry=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        half=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_tile_by_tile_pe_walk(self, shape, geometry, half, data):
        batch, fan_in, fan_out = shape
        limit = 2 ** 15 if half else 2 ** 31
        x = data.draw(arrays(np.int64, (batch, fan_in), elements=st.integers(-limit, limit - 1)))
        w = data.draw(arrays(np.int64, (fan_in, fan_out), elements=st.integers(-2 ** 24, 2 ** 24)))
        np.testing.assert_array_equal(mvm(x, w), _tiled_mvm(x, w, *geometry, half)[:batch])

    def test_vector_and_matrix_operands(self, rng):
        w = rng.integers(-1000, 1000, size=(5, 3))
        x = rng.integers(-1000, 1000, size=5)
        np.testing.assert_array_equal(mvm(x, w), x @ w)
        np.testing.assert_array_equal(mvm(x[None], w), (x @ w)[None])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mvm(np.zeros((2, 3), dtype=np.int64), np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            mvm(np.zeros((2, 3), dtype=np.int64), np.zeros(3, dtype=np.int64))

    def test_refuses_a_sum_that_could_wrap(self):
        """``2·(2^31 − 1)^2`` fits int64 but not under the 2^62 guard;
        ``4·(2^31 − 1)^2`` would wrap.  Both are refused, not wrapped."""
        big = 2 ** 31 - 1
        for terms in (2, 4):
            with pytest.raises(ValueError, match="overflow"):
                mvm(np.full((1, terms), big), np.full((terms, 1), big))

    def test_runs_every_sum_below_the_guard(self):
        big = 2 ** 31 - 1
        a, b = np.array([[big, -big]]), np.array([[2 ** 30 - 1], [2 ** 30 - 1]])
        assert mvm(a, b).tolist() == [[0]]
        assert mvm(a[:, :1], b[:1]).tolist() == [[big * (2 ** 30 - 1)]]


class TestRequantize:
    def test_rounds_half_up(self):
        halves = np.array([-3, -1, 1, 3]) * 2 ** 15
        assert requantize(halves, 32, FULL).tolist() == [-1, 0, 1, 2]

    def test_saturates(self):
        assert requantize(np.array([2 ** 50, -(2 ** 50)]), 32, FULL).tolist() == [
            FULL.raw_max, FULL.raw_min,
        ]

    def test_widening_saturates_instead_of_wrapping(self):
        wide = np.array([2 ** 60, -(2 ** 60), 3])
        assert requantize(wide, 0, FULL).tolist() == [FULL.raw_max, FULL.raw_min, 3 << 16]


#: Every rescale the datapath makes, as ``(fraction bits in, format out)``.
SHIFTS = {
    "full-forward": (32, FULL),        # Q15.16 inputs x Q15.16 weights
    "half-forward": (24, FULL),        # Q7.8 inputs x Q15.16 weights
    "fixed16-forward": (16, HALF),     # Q7.8 inputs x Q7.8 weights
    "onto-half": (32, HALF),
    "bias-onto-half": (16, HALF),      # a Q15.16 bias joining a Q7.8 output
    "bias": (16, FULL),                # no shift
    "widening": (8, FULL),             # a Q7.8 bias joining a Q15.16 output
}


@pytest.mark.parametrize("frac_bits, fmt", list(SHIFTS.values()), ids=list(SHIFTS))
class TestRequantizeShifts:
    """:func:`requantize` on every shift the layer makes, against an exact
    rational reference."""

    @given(acc=st.lists(st.integers(-(2 ** 62), 2 ** 62), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_is_round_half_up_then_saturate(self, frac_bits, fmt, acc):
        scale = Fraction(2) ** (fmt.frac_bits - frac_bits)
        expected = [min(max(math.floor(a * scale + Fraction(1, 2)), fmt.raw_min), fmt.raw_max)
                    for a in acc]
        assert requantize(np.array(acc), frac_bits, fmt).tolist() == expected

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_differs_from_quantize_only_at_ties(self, frac_bits, fmt, data):
        """``to_raw`` rounds half to even: the kernel is 1 LSB above it
        exactly where the dropped bits are one half and the code below even."""
        shift = frac_bits - fmt.frac_bits
        limit = (fmt.raw_max + 1) << max(shift, 0)
        acc = np.array(data.draw(st.lists(st.one_of(
            st.integers(-limit, limit),
            st.integers(-(2 ** 10), 2 ** 10).map(lambda n: (2 * n + 1) << max(shift - 1, 0)),
        ), min_size=1, max_size=16)))
        kernel = requantize(acc, frac_bits, fmt)
        reference = fmt.to_raw(acc.astype(np.float64) * 2.0 ** -frac_bits)
        if shift <= 0:
            np.testing.assert_array_equal(kernel, reference)
            return
        tie = (acc & ((1 << shift) - 1)) == 1 << (shift - 1)
        below_is_even = (acc >> shift) % 2 == 0
        inside = (acc >> shift) < fmt.raw_max
        np.testing.assert_array_equal(kernel - reference, (tie & below_is_even & inside).astype(np.int64))

    @given(acc=st.lists(st.integers(-(2 ** 62), 2 ** 62), min_size=2, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_is_monotone(self, frac_bits, fmt, acc):
        codes = requantize(np.sort(np.array(acc)), frac_bits, fmt)
        assert np.all(np.diff(codes) >= 0)


class TestDenseForwardOrder:
    """The bias joins after the accumulator's shift (the accelerator's order)."""

    def test_bias_is_rounded_on_its_own(self):
        """Half a Q7.8 LSB from the MVM plus half an LSB of bias: each rounds
        up to 1 LSB, so the kernel gives 2 where one rounding of the exact sum
        (``nn``'s ``quantize``, or bias before the shift) gives 1."""
        x, w, b = np.array([[1]]), np.array([[2 ** 15]]), np.array([2 ** 7])
        assert dense_forward(x, w, b, HALF, WEIGHT_FORMAT, HALF).tolist() == [[2]]
        exact = HALF.from_raw(x) @ WEIGHT_FORMAT.from_raw(w) + WEIGHT_FORMAT.from_raw(b)
        assert HALF.to_raw(exact).tolist() == [[1]]

    def test_accumulator_saturates_before_the_bias(self):
        """``16 × 32768`` saturates Q15.16 at ``raw_max``; the bias ``-32768``
        is then added to the saturated code."""
        x, w, b = np.array([[2 ** 20]]), np.array([[2 ** 31 - 1]]), np.array([-(2 ** 31)])
        assert dense_forward(x, w, b, FULL, WEIGHT_FORMAT, FULL).tolist() == [[-1]]


class TestParallelism:
    """The two mappings of :mod:`repro.accelerator.dataflow` move where the
    kernel's partial sums are formed, never the integer layer they add up to."""

    GEOMETRY = ArrayGeometry(4, 4)
    FAN_IN, FAN_OUT, BATCH = 37, 11, 9

    def _operands(self, rng, batch, half_precision=False):
        limit = 2 ** 15 if half_precision else 2 ** 31
        x = rng.integers(-limit, limit, size=(batch, self.FAN_IN))
        w = rng.integers(-(2 ** 24), 2 ** 24, size=(self.FAN_IN, self.FAN_OUT))
        return x, w

    @pytest.mark.parametrize("half_precision", [False, True], ids=["full", "half"])
    @pytest.mark.parametrize("num_cores", [1, 2, 3, 4])
    def test_intra_layer_partial_sums_add_up_to_the_layer(self, num_cores, half_precision, rng):
        """Inference: each core takes a block of the schedule's row chunks
        (fan-in) and the cross-core accumulation sums their accumulators."""
        schedule = inference_schedule(self.FAN_OUT, self.FAN_IN, self.GEOMETRY, num_cores,
                                      half_precision)
        rows = self.GEOMETRY.rows * (2 if half_precision else 1)
        share = -(-schedule.row_chunks // num_cores) * rows
        x, w = self._operands(rng, 1, half_precision)
        partials = [mvm(x[:, start:start + share], w[start:start + share])
                    for start in range(0, self.FAN_IN, share)]
        assert len(partials) <= num_cores
        assert schedule.needs_cross_core_accumulation or len(partials) == 1
        np.testing.assert_array_equal(sum(partials), mvm(x, w))

    @pytest.mark.parametrize("num_cores", [1, 2, 3, 4])
    def test_intra_batch_cores_each_run_the_whole_layer(self, num_cores, rng):
        """Training: each core streams its share of the batch through every
        tile; the shares' outputs stack into the batch's."""
        schedule = training_schedule(self.FAN_OUT, self.FAN_IN, self.BATCH, self.GEOMETRY,
                                     num_cores)
        share = schedule.vectors_per_core
        x, w = self._operands(rng, self.BATCH)
        outputs = [mvm(x[start:start + share], w) for start in range(0, self.BATCH, share)]
        assert len(outputs) <= num_cores and not schedule.needs_cross_core_accumulation
        np.testing.assert_array_equal(np.vstack(outputs), mvm(x, w))

    @pytest.mark.parametrize("num_cores", [1, 2, 3, 4])
    def test_intra_batch_weight_gradients_add_up(self, num_cores, rng):
        """The weight gradient ``xᵀ @ g`` sums over the batch, so the cores'
        shares give partial gradients whose integer sum is the batch's."""
        schedule = training_schedule(self.FAN_OUT, self.FAN_IN, self.BATCH, self.GEOMETRY,
                                     num_cores)
        share = schedule.vectors_per_core
        x, _ = self._operands(rng, self.BATCH)
        g = rng.integers(-(2 ** 24), 2 ** 24, size=(self.BATCH, self.FAN_OUT))
        partials = [mvm(x[start:start + share].T, g[start:start + share])
                    for start in range(0, self.BATCH, share)]
        assert len(partials) <= num_cores
        np.testing.assert_array_equal(sum(partials), mvm(x.T, g))


# --------------------------------------------------------------------------- #
# Whole networks on the kernel
# --------------------------------------------------------------------------- #
def _agent(numerics, seed=3):
    return DDPGAgent(11, 3, DDPGConfig(hidden_sizes=(24, 16)), numerics=numerics,
                     rng=np.random.default_rng(seed))


class TestNetworkForward:
    def test_full_precision_networks_track_nn(self, rng):
        """Every dense layer differs from ``nn`` only at ties; on these seeded
        nets no tie reaches an output by more than 1 LSB."""
        agent = _agent(FixedPointNumerics())
        states = FULL.quantize(rng.normal(size=(32, 11)))
        for network, inputs in ((agent.actor, states),
                                (agent.critic, np.hstack([states, agent.act_batch(states)]))):
            error = FULL.to_raw(network.forward(inputs)) - FULL.to_raw(network_forward(network, inputs))
            assert np.abs(error).max() <= 1

    def test_half_precision_actor_tracks_nn(self, rng):
        """After the switch the affine quantizer sees the kernel's rounded
        output, not ``nn``'s exact sum: within 1 Q7.8 LSB on this seeded net."""
        numerics = DynamicFixedPointNumerics()
        agent = _agent(numerics)
        agent.actor.forward(3 * rng.normal(size=(64, 11)))
        numerics.switch_to_half()
        states = HALF.quantize(rng.normal(size=(64, 11)))
        error = HALF.to_raw(agent.actor.forward(states)) - HALF.to_raw(network_forward(agent.actor, states))
        assert np.abs(error).max() <= 1

    def test_observes_nothing(self, rng):
        numerics = DynamicFixedPointNumerics()
        agent = _agent(numerics)
        network_forward(agent.actor, rng.normal(size=(4, 11)))
        assert not numerics.range_tracker.initialized
        assert not numerics.layer_trackers

    def test_float_numerics_rejected(self):
        with pytest.raises(ValueError, match="fixed-point"):
            network_forward(_agent(None).actor, np.zeros(11))


#: Fixed-point regimes a network runs under: ``(make_numerics name, switch)``.
REGIMES = {
    "fixed32": ("fixed32", None),
    "fixed16": ("fixed16", None),
    "fixar-dynamic-half": ("fixar-dynamic", "half"),
    "fixar-dynamic-per-layer": ("fixar-dynamic", "per-layer"),
}


def _paper_network(env_name, regime, network, rng):
    """The benchmark's paper-size (400-300) actor or critic under ``regime``,
    with a batch of its inputs on the activation grid."""
    name, switch = REGIMES[regime]
    numerics = make_numerics(name)
    dims = benchmark_dimensions(env_name)
    agent = DDPGAgent(dims["state_dim"], dims["action_dim"], DDPGConfig(), numerics=numerics,
                      rng=np.random.default_rng(7))
    states = rng.normal(size=(8, dims["state_dim"]))
    if switch is not None:
        agent.critic.forward(np.hstack([3 * states, agent.act_batch(3 * states)]))
        if switch == "half":
            numerics.switch_to_half()
        else:
            numerics.switch_layer_to_half("actor_fc0")
            numerics.switch_layer_to_half("critic_fc1")
    states = numerics.activation_format.quantize(states)
    if network == "actor":
        return agent.actor, states
    return agent.critic, np.hstack([states, agent.act_batch(states)])


def _dense_layer_codes(network, inputs):
    """``(x, w, b)`` raw codes of every dense layer as ``network.forward(inputs)``
    feeds it: its input in the activation format, its parameters in the
    weight format."""
    numerics = network.numerics
    x_fmt, w_fmt = numerics.activation_format, numerics.weight_format
    values, current, layers = np.atleast_2d(inputs), None, []
    for layer in network.layers:
        if isinstance(layer, Linear):
            current = layer.name
            x = x_fmt.to_raw(values)
            np.testing.assert_array_equal(x_fmt.from_raw(x), values)  # on the grid
            layers.append((x, w_fmt.to_raw(layer.weight), w_fmt.to_raw(layer.bias)))
        values = numerics.project_activation(layer.forward(values), layer=current)
    np.testing.assert_array_equal(values, network.forward(inputs))
    return layers


@pytest.mark.parametrize("network", ["actor", "critic"])
@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("env_name", available_benchmarks())
class TestRegisteredNetworks:
    """Every dense layer of every registered benchmark's paper-size actor and
    critic, fed what ``nn`` feeds it, obeys the one-layer relations."""

    def test_forward(self, env_name, regime, network, rng):
        net, inputs = _paper_network(env_name, regime, network, rng)
        numerics = net.numerics
        for x, w, b in _dense_layer_codes(net, inputs):
            _assert_forward_relation(numerics, x, w, b, numerics.activation_format,
                                     numerics.weight_format)

    def test_backward(self, env_name, regime, network, rng):
        net, inputs = _paper_network(env_name, regime, network, rng)
        numerics = net.numerics
        unit = 2 ** numerics.gradient_format.frac_bits
        for x, w, b in _dense_layer_codes(net, inputs):
            g = rng.integers(-unit, unit, size=(len(x), w.shape[1]))
            _assert_backward_relation(numerics, x, w, b, numerics.activation_format, g,
                                      numerics.weight_format)


def test_sixteen_bit_formats_run_on_the_kernel():
    """``fixed16`` keeps weights in Q7.8: the kernel takes any format pair."""
    fmt = QFormat(16, 8)
    numerics = FixedPointNumerics(fmt, fmt, fmt)
    agent = _agent(numerics)
    states = fmt.quantize(np.linspace(-1, 1, 22).reshape(2, 11))
    error = fmt.to_raw(agent.actor.forward(states)) - fmt.to_raw(network_forward(agent.actor, states))
    assert np.abs(error).max() <= 1
