"""Quantization-aware training for deep reinforcement learning (Algorithm 1).

The paper's QAT algorithm trains the DDPG networks with 32-bit fixed-point
activations while monitoring their dynamic range; after ``quantization_delay``
timesteps the activations are down-scaled to ``num_bits`` (16) using the
captured range, and training continues at the reduced precision.  Weights and
gradients stay in 32-bit fixed point for the whole run.

:class:`QATController` owns the schedule and flips the agent's
:class:`~repro.nn.numerics.DynamicFixedPointNumerics` policy at the right
timestep; the round scheduler in :mod:`repro.rl.scheduler` calls it once per
environment step.  It is the one implementation of the global switch:
:mod:`repro.rl.precision` registers this class itself as the
``global-switch`` precision policy, so ``config.precision="global-switch"``
and an explicitly passed controller are the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..fixedpoint import AffineQuantizer
from ..nn.numerics import DynamicFixedPointNumerics

__all__ = ["QATSchedule", "QATController", "QATEvent"]


@dataclass(frozen=True)
class QATSchedule:
    """Algorithm 1's two knobs: quantization bit width ``n`` and delay ``d``."""

    #: Quantization bit width ``n`` (paper: 16).
    num_bits: int = 16
    #: Quantization delay ``d``: timestep at which activations drop to ``n`` bits.
    quantization_delay: int = 500_000

    def __post_init__(self) -> None:
        if self.num_bits < 2:
            raise ValueError(f"num_bits must be >= 2, got {self.num_bits}")
        if self.quantization_delay < 0:
            raise ValueError(
                f"quantization_delay must be non-negative, got {self.quantization_delay}"
            )

    def phase_at(self, timestep: int) -> str:
        """Which phase a timestep falls in: ``"full"`` or ``"half"`` precision."""
        return "full" if timestep < self.quantization_delay else "half"


@dataclass(frozen=True)
class QATEvent:
    """Describes the precision switch, returned once by the controller."""

    timestep: int
    num_bits: int
    activation_min: float
    activation_max: float
    delta: float
    zero_point: int


class QATController:
    """Drives the precision switch of a dynamic fixed-point numeric policy.

    Without a ``schedule`` the controller runs :class:`QATSchedule`'s default
    delay at the numerics' own bit width.
    """

    #: Registry key and the ``--precision-policy`` spelling.
    name = "global-switch"

    def __init__(
        self,
        numerics: DynamicFixedPointNumerics,
        schedule: Optional[QATSchedule] = None,
    ):
        if not isinstance(numerics, DynamicFixedPointNumerics):
            raise TypeError(
                "QATController requires DynamicFixedPointNumerics, got "
                f"{type(numerics).__name__}"
            )
        if schedule is None:
            schedule = QATSchedule(num_bits=numerics.num_bits)
        if numerics.num_bits != schedule.num_bits:
            raise ValueError(
                "numerics and schedule disagree on the quantization bit width: "
                f"{numerics.num_bits} vs {schedule.num_bits}"
            )
        self.numerics = numerics
        self.schedule = schedule
        self._event: Optional[QATEvent] = None

    @property
    def switched(self) -> bool:
        """Whether the precision switch has already happened."""
        return self._event is not None

    @property
    def event(self) -> Optional[QATEvent]:
        """The switch event, if it has happened."""
        return self._event

    @property
    def events(self) -> Tuple[QATEvent, ...]:
        """Every event emitted, in order (at most the one switch)."""
        return (self._event,) if self._event is not None else ()

    def on_timestep(self, timestep: int) -> Optional[QATEvent]:
        """Advance the schedule; returns the switch event exactly once.

        Called with the zero-based global timestep *before* the agent update
        at that timestep, so that the update at ``t == d`` already runs in
        half precision, matching Algorithm 1's ``if t < d`` test.
        """
        if self.switched or timestep < self.schedule.quantization_delay:
            return None
        if not self.numerics.range_tracker.initialized:
            # No activations observed yet (e.g. a zero delay before any
            # forward pass); postpone the switch until a range exists.
            return None
        quantizer: AffineQuantizer = self.numerics.switch_to_half()
        self._event = QATEvent(
            timestep=timestep,
            num_bits=self.schedule.num_bits,
            activation_min=quantizer.min_value,
            activation_max=quantizer.max_value,
            delta=quantizer.delta,
            zero_point=quantizer.zero_point,
        )
        return self._event

    def precision_state(self) -> dict:
        """Normalized precision profile (``{"default": bits, "layers": {}}``).

        The shape every precision driver — this controller and the
        :class:`~repro.rl.precision.PrecisionPolicy` subclasses — exposes so
        the scheduler can re-price throughput weights and the platform's
        ``with_precision_state`` can price the active bit widths.
        """
        return self.numerics.precision_profile()

    def describe(self) -> Dict[str, object]:
        return {
            "policy": self.name,
            "precision_state": self.precision_state(),
            "num_bits": self.schedule.num_bits,
            "quantization_delay": self.schedule.quantization_delay,
        }

    @classmethod
    def from_spec(
        cls, numerics: DynamicFixedPointNumerics, spec: Optional[str] = None
    ) -> "QATController":
        """Spec grammar: ``[bits][@delay]`` — e.g. ``16@1000``, ``@500``."""
        if not spec:
            return cls(numerics)
        bits_part, _, delay_part = spec.partition("@")
        num_bits = int(bits_part) if bits_part else numerics.num_bits
        delay = int(delay_part) if delay_part else QATSchedule().quantization_delay
        return cls(numerics, QATSchedule(num_bits=num_bits, quantization_delay=delay))

    def activation_bits_at(self, timestep: int) -> int:
        """Activation bit width actually in effect at a timestep.

        The schedule alone is not authoritative: :meth:`on_timestep` postpones
        the switch past ``quantization_delay`` while the range tracker is
        uninitialized, so the reported width consults :attr:`switched` (and
        the recorded switch timestep) rather than assuming the delay was
        honored.  Timesteps before the *actual* switch report the full
        precision the numerics were really running at.
        """
        full_bits = self.numerics.full_activation_format.word_length
        if timestep < self.schedule.quantization_delay:
            return full_bits
        if self._event is not None:
            return self.schedule.num_bits if timestep >= self._event.timestep else full_bits
        # No switch recorded by this controller.  The numerics may still be
        # in half mode already — a controller resumed on a restored
        # checkpoint taken after the switch — so their current mode, not the
        # schedule, is authoritative.
        return self.schedule.num_bits if self.numerics.half_mode else full_bits
