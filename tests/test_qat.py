"""Unit tests for Algorithm 1's quantization-aware training schedule."""

import numpy as np
import pytest

from repro.nn import DynamicFixedPointNumerics, FixedPointNumerics
from repro.rl import QATController, QATSchedule


class TestSchedule:
    def test_defaults(self):
        schedule = QATSchedule()
        assert schedule.num_bits == 16
        assert schedule.quantization_delay == 500_000

    def test_phase_at(self):
        schedule = QATSchedule(num_bits=16, quantization_delay=100)
        assert schedule.phase_at(0) == "full"
        assert schedule.phase_at(99) == "full"
        assert schedule.phase_at(100) == "half"

    def test_validation(self):
        with pytest.raises(ValueError):
            QATSchedule(num_bits=1)
        with pytest.raises(ValueError):
            QATSchedule(quantization_delay=-1)


class TestController:
    def _controller(self, delay=10, num_bits=16):
        numerics = DynamicFixedPointNumerics(num_bits=num_bits)
        return QATController(numerics, QATSchedule(num_bits=num_bits, quantization_delay=delay)), numerics

    def test_requires_dynamic_numerics(self):
        with pytest.raises(TypeError):
            QATController(FixedPointNumerics(), QATSchedule())

    def test_bit_width_mismatch_rejected(self):
        numerics = DynamicFixedPointNumerics(num_bits=8)
        with pytest.raises(ValueError):
            QATController(numerics, QATSchedule(num_bits=16))

    def test_no_switch_before_delay(self, rng):
        controller, numerics = self._controller(delay=10)
        numerics.observe_activation(rng.normal(size=10))
        for step in range(10):
            assert controller.on_timestep(step) is None
        assert not controller.switched

    def test_switch_at_delay(self, rng):
        controller, numerics = self._controller(delay=10)
        numerics.observe_activation(rng.uniform(-3, 5, size=100))
        event = controller.on_timestep(10)
        assert event is not None
        assert controller.switched
        assert numerics.half_mode
        assert event.timestep == 10
        assert event.num_bits == 16
        assert event.activation_max == pytest.approx(numerics.range_tracker.max_value)
        assert event.delta > 0

    def test_switch_happens_once(self, rng):
        controller, numerics = self._controller(delay=5)
        numerics.observe_activation(rng.normal(size=10))
        assert controller.on_timestep(5) is not None
        assert controller.on_timestep(6) is None
        assert controller.event is not None

    def test_switch_postponed_until_range_observed(self):
        controller, numerics = self._controller(delay=0)
        # No activations observed yet: the controller must wait.
        assert controller.on_timestep(0) is None
        numerics.observe_activation(np.array([-1.0, 1.0]))
        assert controller.on_timestep(1) is not None

    def test_activation_bits_at(self, rng):
        controller, numerics = self._controller(delay=100)
        assert controller.activation_bits_at(0) == 32
        assert controller.activation_bits_at(99) == 32
        # The switch has not happened yet (the controller may still postpone
        # it), so the numerics actually in effect at t >= delay are full
        # precision until on_timestep really flips them.
        assert controller.activation_bits_at(100) == 32
        numerics.observe_activation(rng.uniform(-2, 2, size=50))
        assert controller.on_timestep(100) is not None
        assert controller.activation_bits_at(100) == 16
        assert controller.activation_bits_at(99) == 32

    def test_activation_bits_track_postponed_switch(self, rng):
        """A postponed switch must not be reported as half precision.

        With an uninitialized range tracker the controller postpones the
        switch past the delay; activation_bits_at has to report the full
        width for those timesteps — they really ran at full precision —
        and half width only from the actual switch timestep on.
        """
        controller, numerics = self._controller(delay=10)
        # Steps 10..12 pass with no observed range: postponed, still 32-bit.
        for step in (10, 11, 12):
            assert controller.on_timestep(step) is None
            assert controller.activation_bits_at(step) == 32
        numerics.observe_activation(rng.uniform(-1, 1, size=20))
        event = controller.on_timestep(13)
        assert event is not None and event.timestep == 13
        # The postponed window keeps reporting the precision it really had.
        assert controller.activation_bits_at(10) == 32
        assert controller.activation_bits_at(12) == 32
        assert controller.activation_bits_at(13) == 16
        assert controller.activation_bits_at(999) == 16

    def test_precision_state_matches_numerics_profile(self, rng):
        """The controller speaks the same normalized precision_state()
        surface as the PrecisionPolicy seam, so the round scheduler and the
        platform pricing treat both drivers interchangeably."""
        controller, numerics = self._controller(delay=5)
        assert controller.precision_state() == {"default": 32, "layers": {}}
        numerics.observe_activation(rng.uniform(-1, 1, size=20))
        controller.on_timestep(5)
        assert controller.precision_state() == {"default": 16, "layers": {}}
        assert controller.precision_state() == numerics.precision_profile()

    def test_activation_bits_trust_restored_half_mode_numerics(self, rng):
        """A controller resumed on checkpoint-restored numerics that are
        already in half mode must report half precision even though *it*
        never performed the switch."""
        _, numerics = self._controller(delay=10)
        numerics.observe_activation(rng.uniform(-1, 1, size=20))
        numerics.switch_to_half()  # what load_agent_into does on restore
        resumed = QATController(numerics, QATSchedule(num_bits=16, quantization_delay=10))
        assert not resumed.switched  # this controller recorded no event
        assert resumed.activation_bits_at(9) == 32
        assert resumed.activation_bits_at(10) == 16
        assert resumed.activation_bits_at(500) == 16
