"""Structural parameters of the FIXAR FPGA accelerator.

The defaults describe the paper's Alveo U50 implementation: two adaptive
array processing cores of 16×16 configurable PEs each, a 512-bit weight
memory port (16 weights per cycle), a 164 MHz clock, and the whole model on
chip — a 1.05 MB weight memory, an equally sized gradient memory and a
2.94 KB activation memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .dataflow import ArrayGeometry

__all__ = ["AcceleratorConfig"]


@dataclass(frozen=True)
class AcceleratorConfig:
    """Geometry, clocking, and memory parameters of the accelerator."""

    #: Number of adaptive array processing (AAP) cores.
    num_cores: int = 2
    #: PE-array geometry of each core.
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)
    #: Operating clock frequency in Hz (paper: 164 MHz on the U50).
    clock_hz: float = 164e6
    #: Weights delivered per weight-memory access (512-bit row of 32-bit words).
    weights_per_cycle: int = 16
    #: Pipeline fill/drain plus accumulation/activation overhead per layer pass.
    layer_overhead_cycles: int = 64
    #: Parallel lanes of the Adam weight-update module.
    adam_lanes: int = 16
    #: Weight memory capacity in bytes: the paper's 1.05 MB holds the actor
    #: and critic parameters (the gradient memory is the same size).
    weight_memory_bytes: int = int(1.05 * 1024 * 1024)
    #: Activation memory capacity in bytes: the paper's 2.94 KB holds all
    #: three layers of one network.
    activation_memory_bytes: int = int(2.94 * 1024)

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {self.num_cores}")
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {self.clock_hz}")
        if self.weights_per_cycle <= 0:
            raise ValueError("weights_per_cycle must be positive")
        if self.layer_overhead_cycles < 0:
            raise ValueError("layer_overhead_cycles must be non-negative")
        if self.adam_lanes <= 0:
            raise ValueError("adam_lanes must be positive")
        if self.weight_memory_bytes <= 0 or self.activation_memory_bytes <= 0:
            raise ValueError("memory capacities must be positive")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def pe_count(self) -> int:
        """Total processing elements across all cores."""
        return self.num_cores * self.geometry.pe_count

    @property
    def cycle_time_s(self) -> float:
        """Seconds per clock cycle."""
        return 1.0 / self.clock_hz

    def peak_macs_per_second(self, half_precision: bool = False) -> float:
        """Peak MAC throughput (doubled in half-precision mode)."""
        factor = 2 if half_precision else 1
        return self.pe_count * factor * self.clock_hz

    def tile_weight_load_cycles(self) -> int:
        """Cycles to load one PE-array weight tile from the weight memory."""
        tile_weights = self.geometry.rows * self.geometry.cols
        return -(-tile_weights // self.weights_per_cycle)

    def with_cores(self, num_cores: int) -> "AcceleratorConfig":
        """A copy of this configuration with a different core count."""
        return replace(self, num_cores=num_cores)

    def with_geometry(self, rows: int, cols: int) -> "AcceleratorConfig":
        """A copy of this configuration with a different PE-array geometry."""
        return replace(self, geometry=ArrayGeometry(rows=rows, cols=cols))
