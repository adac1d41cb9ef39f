"""Pluggable per-layer precision policies (the QAT switch, generalized).

FIXAR's Algorithm 1 is *one* precision schedule: train every activation at
32 bits for a delay, then quantize them all to 16 with the captured range.
The related work goes further — per-layer fixed-point configs (Dai et al.,
arXiv:2401.17544), adaptive-precision backprop (Zhang et al.,
arXiv:1911.00361), and the wide post-training sweeps of QuaRL
(arXiv:1910.01055) — so this module makes the precision schedule a
first-class policy seam, symmetric with the round scheduler's
:class:`~repro.rl.scheduler.SchedulePolicy` and
:class:`~repro.rl.scheduler.DeviceAssignmentPolicy`: a small class
hierarchy, a registry, and a resolve function.

Every precision driver advances a
:class:`~repro.nn.numerics.DynamicFixedPointNumerics` object through one
surface, so the training loop and the round scheduler never ask which kind
they hold:

* ``on_timestep(t)`` advances the schedule and returns an event when one or
  more layers switch precision (``None`` otherwise);
* ``switched`` is *terminal* — ``True`` only once no further events are
  possible;
* ``precision_state()`` is the normalized ``{"default": bits, "layers":
  {name: bits}}`` profile the platform layer prices via
  ``FixarPlatform.with_precision_state``.

Algorithm 1's global switch is :class:`~repro.rl.qat.QATController` itself,
registered here under ``global-switch`` (:data:`GlobalSwitchPolicy` is an
alias of it, not a wrapper); :class:`PrecisionPolicy` is the base of the two
per-layer policies.  In-process collection replicas share the learner's
numerics object, so a switch by any driver reaches the whole fleet at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..nn.numerics import DynamicFixedPointNumerics
from .qat import QATController

__all__ = [
    "LayerSwitch",
    "PrecisionEvent",
    "PrecisionPolicy",
    "GlobalSwitchPolicy",
    "PerLayerSchedulePolicy",
    "RangeDrivenPolicy",
    "PRECISION_POLICIES",
    "register_precision_policy",
    "resolve_precision",
]


# --------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LayerSwitch:
    """One layer's precision switch: the frozen quantizer's parameters."""

    layer: str
    num_bits: int
    activation_min: float
    activation_max: float
    delta: float
    zero_point: int


@dataclass(frozen=True)
class PrecisionEvent:
    """One or more layers switching precision at a timestep.

    Exposes ``timestep`` and ``num_bits`` like
    :class:`~repro.rl.qat.QATEvent`, so result summaries and the CLI print
    either event shape without caring which policy produced it.
    """

    timestep: int
    switches: Tuple[LayerSwitch, ...]

    @property
    def num_bits(self) -> int:
        """The smallest bit width this event switched a layer to."""
        return min(switch.num_bits for switch in self.switches)

    @property
    def layers(self) -> Tuple[str, ...]:
        return tuple(switch.layer for switch in self.switches)


# --------------------------------------------------------------------- #
# The policy seam
# --------------------------------------------------------------------- #
class PrecisionPolicy:
    """Base precision policy: drives one dynamic numerics object.

    Subclasses implement :meth:`on_timestep`; the normalized state derives
    from the numerics object's per-layer maps.  Defining a subclass
    registers it under its ``name``, so ``--precision-policy`` and
    :func:`resolve_precision` find it with no further step.
    """

    #: Registry key and the ``--precision-policy`` spelling.
    name = "precision"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        register_precision_policy(cls)

    def __init__(self, numerics: DynamicFixedPointNumerics):
        if not isinstance(numerics, DynamicFixedPointNumerics):
            raise TypeError(
                f"{type(self).__name__} requires DynamicFixedPointNumerics, "
                f"got {type(numerics).__name__}"
            )
        self.numerics = numerics
        self._events: List[PrecisionEvent] = []
        self._done = False

    # -- the driver surface (shared with QATController) ------------------ #
    @property
    def switched(self) -> bool:
        """Terminal: ``True`` once no further precision events are possible."""
        return self._done

    @property
    def event(self):
        """The most recent event, if any (result-summary compatibility)."""
        return self._events[-1] if self._events else None

    @property
    def events(self) -> Tuple[PrecisionEvent, ...]:
        """Every event the policy has emitted, in order."""
        return tuple(self._events)

    def on_timestep(self, timestep: int):
        """Advance the schedule; returns an event when layers switch."""
        raise NotImplementedError

    def precision_state(self) -> Dict[str, object]:
        """Normalized profile for the pricing oracles and the scheduler."""
        return self.numerics.precision_profile()

    def describe(self) -> Dict[str, object]:
        return {"policy": self.name, "precision_state": self.precision_state()}

    # -- construction from a CLI spec ------------------------------------ #
    @classmethod
    def from_spec(
        cls, numerics: DynamicFixedPointNumerics, spec: Optional[str] = None
    ) -> "PrecisionPolicy":
        if spec:
            raise ValueError(f"precision policy {cls.name!r} takes no spec, got {spec!r}")
        return cls(numerics)


#: Registry of shipped precision drivers, keyed by policy name.
PRECISION_POLICIES: Dict[str, type] = {}


def register_precision_policy(cls: type) -> type:
    """Add a policy to :data:`PRECISION_POLICIES`.

    Every :class:`PrecisionPolicy` subclass goes through here when it is
    defined; :class:`~repro.rl.qat.QATController`, which is not one, is
    registered by an explicit call.
    """
    if not cls.name or cls.name == PrecisionPolicy.name:
        raise ValueError(f"{cls.__name__} must set a distinct policy name")
    if cls.name in PRECISION_POLICIES:
        raise ValueError(f"duplicate precision policy name {cls.name!r}")
    PRECISION_POLICIES[cls.name] = cls
    return cls


def resolve_precision(
    name: str,
    numerics: DynamicFixedPointNumerics,
    spec: Optional[str] = None,
):
    """A registered policy instance from its name and optional spec string."""
    if name not in PRECISION_POLICIES:
        raise ValueError(
            f"unknown precision policy {name!r}; registered policies are "
            f"{sorted(PRECISION_POLICIES)}"
        )
    return PRECISION_POLICIES[name].from_spec(numerics, spec)


# --------------------------------------------------------------------- #
# Policy 1: the paper's global switch (Algorithm 1) is the QAT controller
# --------------------------------------------------------------------- #
GlobalSwitchPolicy = register_precision_policy(QATController)


# --------------------------------------------------------------------- #
# Policy 2: static per-layer bitwidth table
# --------------------------------------------------------------------- #
class PerLayerSchedulePolicy(PrecisionPolicy):
    """A static per-layer bitwidth table, applied on per-layer delays.

    The table is an ordered sequence of ``(pattern, bits, delay)`` entries:
    ``pattern`` matches a dense-layer name exactly or as a prefix
    (``"actor"`` covers ``actor_fc0``/``actor_fc1``/``actor_out``), ``bits``
    is the activation width the matching layers switch to (32 = keep full
    precision), and ``delay`` is the earliest timestep the switch may fire.
    First matching entry wins; a layer switches once its delay has elapsed
    *and* its own range tracker has observed activations — the per-layer
    analogue of the global controller's postponement rule — so switches are
    deterministic given the seeded rollout streams.
    """

    name = "per-layer"

    def __init__(
        self,
        numerics: DynamicFixedPointNumerics,
        table: Sequence[Tuple[str, int, int]],
    ):
        super().__init__(numerics)
        entries = []
        for pattern, bits, delay in table:
            pattern, bits, delay = str(pattern), int(bits), int(delay)
            if not pattern:
                raise ValueError("per-layer table patterns must be non-empty")
            if bits < 2:
                raise ValueError(f"num_bits must be >= 2, got {bits}")
            if delay < 0:
                raise ValueError(f"delay must be non-negative, got {delay}")
            entries.append((pattern, bits, delay))
        if not entries:
            raise ValueError("per-layer schedule needs at least one table entry")
        self.table: Tuple[Tuple[str, int, int], ...] = tuple(entries)
        self._max_delay = max(delay for _pattern, _bits, delay in entries)

    def _match(self, layer: str) -> Optional[Tuple[int, int]]:
        """(bits, delay) of the first table entry covering a layer."""
        for pattern, bits, delay in self.table:
            if layer == pattern or layer.startswith(pattern):
                return bits, delay
        return None

    def _pending_layers(self) -> List[str]:
        """Observed layers still awaiting a reduced-precision switch."""
        numerics = self.numerics
        full_bits = numerics.full_activation_format.word_length
        pending = []
        for layer in sorted(numerics.layer_trackers):
            if layer in numerics.layer_quantizers:
                continue
            entry = self._match(layer)
            if entry is not None and entry[0] < full_bits:
                pending.append(layer)
        return pending

    def on_timestep(self, timestep: int) -> Optional[PrecisionEvent]:
        if self._done:
            return None
        numerics = self.numerics
        full_bits = numerics.full_activation_format.word_length
        switches = []
        for layer in sorted(numerics.layer_trackers):
            if layer in numerics.layer_quantizers:
                continue
            entry = self._match(layer)
            if entry is None:
                continue
            bits, delay = entry
            if bits >= full_bits or timestep < delay:
                continue
            if not numerics.layer_trackers[layer].initialized:
                continue
            quantizer = numerics.switch_layer_to_half(layer, bits)
            switches.append(
                LayerSwitch(
                    layer=layer,
                    num_bits=bits,
                    activation_min=quantizer.min_value,
                    activation_max=quantizer.max_value,
                    delta=quantizer.delta,
                    zero_point=quantizer.zero_point,
                )
            )
        if (
            timestep >= self._max_delay
            and numerics.layer_trackers
            and not self._pending_layers()
        ):
            self._done = True
        if not switches:
            return None
        event = PrecisionEvent(timestep=timestep, switches=tuple(switches))
        self._events.append(event)
        return event

    def describe(self) -> Dict[str, object]:
        desc = super().describe()
        desc["table"] = [list(entry) for entry in self.table]
        return desc

    @classmethod
    def from_spec(
        cls, numerics: DynamicFixedPointNumerics, spec: Optional[str] = None
    ) -> "PerLayerSchedulePolicy":
        """Spec grammar: ``pattern=bits[@delay],...``.

        ``"actor=16@1000,critic=32"`` switches every actor layer to 16 bits
        at t=1000 and keeps the critic at full precision.
        """
        if not spec:
            raise ValueError(
                "per-layer policy needs a spec: pattern=bits[@delay],..."
            )
        table = []
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            pattern, separator, rest = entry.partition("=")
            if not separator or not pattern or not rest:
                raise ValueError(
                    f"bad per-layer spec entry {entry!r}; "
                    "expected pattern=bits[@delay]"
                )
            bits_part, _, delay_part = rest.partition("@")
            table.append(
                (pattern.strip(), int(bits_part), int(delay_part) if delay_part else 0)
            )
        return cls(numerics, table)


# --------------------------------------------------------------------- #
# Policy 3: range-statistic-driven switches
# --------------------------------------------------------------------- #
class RangeDrivenPolicy(PrecisionPolicy):
    """Switches each layer once its observed range stops growing.

    At every ``check_interval``-th timestep the policy records each
    unswitched layer's observed span (``max - min``); a layer switches to
    ``num_bits`` after its span has grown by at most ``tolerance``
    (relative) for ``patience`` consecutive checks with at least
    ``min_observations`` samples.  All inputs are the deterministic range
    statistics of the seeded rollout streams, so switch timesteps are
    reproducible — no wall clocks, no global RNG.
    """

    name = "range-driven"

    def __init__(
        self,
        numerics: DynamicFixedPointNumerics,
        *,
        num_bits: Optional[int] = None,
        check_interval: int = 1_000,
        patience: int = 2,
        tolerance: float = 0.05,
        min_observations: int = 1,
    ):
        super().__init__(numerics)
        if check_interval <= 0:
            raise ValueError(f"check_interval must be positive, got {check_interval}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        if min_observations < 1:
            raise ValueError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        self.num_bits = int(num_bits) if num_bits is not None else numerics.num_bits
        if self.num_bits < 2:
            raise ValueError(f"num_bits must be >= 2, got {self.num_bits}")
        self.check_interval = int(check_interval)
        self.patience = int(patience)
        self.tolerance = float(tolerance)
        self.min_observations = int(min_observations)
        self._spans: Dict[str, float] = {}
        self._stable_checks: Dict[str, int] = {}

    def on_timestep(self, timestep: int) -> Optional[PrecisionEvent]:
        if self._done:
            return None
        if timestep <= 0 or timestep % self.check_interval != 0:
            return None
        numerics = self.numerics
        switches = []
        for layer in sorted(numerics.layer_trackers):
            if layer in numerics.layer_quantizers:
                continue
            tracker = numerics.layer_trackers[layer]
            if not tracker.initialized or tracker.count < self.min_observations:
                continue
            span = float(tracker.max_value - tracker.min_value)
            previous = self._spans.get(layer)
            if previous is not None and previous > 0.0 and (
                span - previous
            ) <= self.tolerance * previous:
                self._stable_checks[layer] = self._stable_checks.get(layer, 0) + 1
            else:
                self._stable_checks[layer] = 0
            self._spans[layer] = span
            if self._stable_checks[layer] >= self.patience:
                quantizer = numerics.switch_layer_to_half(layer, self.num_bits)
                switches.append(
                    LayerSwitch(
                        layer=layer,
                        num_bits=self.num_bits,
                        activation_min=quantizer.min_value,
                        activation_max=quantizer.max_value,
                        delta=quantizer.delta,
                        zero_point=quantizer.zero_point,
                    )
                )
        if numerics.layer_trackers and all(
            layer in numerics.layer_quantizers for layer in numerics.layer_trackers
        ):
            self._done = True
        if not switches:
            return None
        event = PrecisionEvent(timestep=timestep, switches=tuple(switches))
        self._events.append(event)
        return event

    def describe(self) -> Dict[str, object]:
        desc = super().describe()
        desc.update(
            {
                "num_bits": self.num_bits,
                "check_interval": self.check_interval,
                "patience": self.patience,
                "tolerance": self.tolerance,
            }
        )
        return desc

    @classmethod
    def from_spec(
        cls, numerics: DynamicFixedPointNumerics, spec: Optional[str] = None
    ) -> "RangeDrivenPolicy":
        """Spec grammar: ``key=value,...`` over ``bits``/``interval``/
        ``patience``/``tolerance``/``min-observations``."""
        kwargs: Dict[str, object] = {}
        mapping = {
            "bits": ("num_bits", int),
            "interval": ("check_interval", int),
            "patience": ("patience", int),
            "tolerance": ("tolerance", float),
            "min-observations": ("min_observations", int),
        }
        for raw in (spec or "").split(","):
            entry = raw.strip()
            if not entry:
                continue
            key, separator, value = entry.partition("=")
            key = key.strip()
            if not separator or key not in mapping:
                raise ValueError(
                    f"bad range-driven spec entry {entry!r}; known keys are "
                    f"{sorted(mapping)}"
                )
            attribute, cast = mapping[key]
            kwargs[attribute] = cast(value.strip())
        return cls(numerics, **kwargs)
