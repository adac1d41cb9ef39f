"""Analytical FPGA resource model (reproduces Table I).

The paper reports the Alveo U50 resource usage of each accelerator component.
This model derives the same accounting from the structural configuration:
per-PE LUT/FF/DSP costs scale with the PE count, the on-chip memory BRAM/URAM
count scales with the memory capacities, and the infrastructure components
(control, kernel interface, HBM interface, PCIe DMA) are fixed blocks.  The
per-unit coefficients are calibrated so the paper's default configuration
(2 cores × 256 PEs, 1.05 MB weight + gradient memories) reproduces Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .config import AcceleratorConfig

__all__ = ["ResourceUsage", "DeviceCapacity", "ALVEO_U50", "ResourceModel", "BRAM_BYTES"]

#: Capacity of one Xilinx BRAM36 block in bytes (36 Kbit).
BRAM_BYTES = 36 * 1024 // 8


@dataclass(frozen=True)
class ResourceUsage:
    """LUT/FF/BRAM/URAM/DSP usage of one component."""

    lut: int = 0
    ff: int = 0
    bram: int = 0
    uram: int = 0
    dsp: int = 0

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            bram=self.bram + other.bram,
            uram=self.uram + other.uram,
            dsp=self.dsp + other.dsp,
        )

    def as_dict(self) -> Dict[str, int]:
        return {"LUT": self.lut, "FF": self.ff, "BRAM": self.bram, "URAM": self.uram, "DSP": self.dsp}


@dataclass(frozen=True)
class DeviceCapacity:
    """Total resources of the target FPGA device."""

    name: str
    lut: int
    ff: int
    bram: int
    uram: int
    dsp: int

    def utilization(self, usage: ResourceUsage) -> Dict[str, float]:
        """Fractional utilization of each resource class."""
        return {
            "LUT": usage.lut / self.lut,
            "FF": usage.ff / self.ff,
            "BRAM": usage.bram / self.bram,
            "URAM": usage.uram / self.uram,
            "DSP": usage.dsp / self.dsp,
        }

    def fits(self, usage: ResourceUsage) -> bool:
        """Whether the design fits the device."""
        return all(fraction <= 1.0 for fraction in self.utilization(usage).values())


#: Xilinx Alveo U50 (XCU50) capacities.
ALVEO_U50 = DeviceCapacity(
    name="Xilinx Alveo U50", lut=870_000, ff=1_740_000, bram=1344, uram=640, dsp=5952
)


# --------------------------------------------------------------------------- #
# Calibrated per-unit coefficients (paper Table I / 512 PEs, 2.1 MB of BRAM
# memories, 128 URAM for gradient storage)
# --------------------------------------------------------------------------- #
#: Logic cost of one configurable-datapath PE (two 32x16 multipliers).
_LUT_PER_PE = 422.5
_FF_PER_PE = 316.0
_DSP_PER_PE = 4.4824
#: Memory control logic per allocated BRAM block.
_LUT_PER_BRAM = 17.6
#: Fixed blocks reported by the paper (independent of the array size).
_ADAM_OPTIMIZER = ResourceUsage(lut=46_700, ff=70_200, dsp=3)
_CONTROL_UNIT = ResourceUsage(lut=69_000, ff=45_400)
_KERNEL_INTERFACE = ResourceUsage(lut=68_800, ff=15_200, bram=12)
_HBM_INTERFACE = ResourceUsage(lut=8_200, ff=13_100, bram=2)
_PCIE_DMA = ResourceUsage(lut=88_800, ff=103_200, bram=176, dsp=4)
#: URAM blocks used for the gradient memory in the paper's implementation.
_GRADIENT_URAM_BLOCKS = 128
#: BRAM multiplier covering the gradient memory (same size as the weight
#: memory), activation storage, line buffers, and double buffering beyond the
#: raw weight-storage requirement (calibration constant for Table I).
_MEMORY_BRAM_OVERHEAD_FACTOR = 2.44


class ResourceModel:
    """Estimates FPGA resource usage for an accelerator configuration."""

    def __init__(self, config: AcceleratorConfig | None = None, device: DeviceCapacity = ALVEO_U50):
        self.config = config or AcceleratorConfig()
        self.device = device

    # ------------------------------------------------------------------ #
    # Per-component estimates
    # ------------------------------------------------------------------ #
    def processing_elements(self) -> ResourceUsage:
        """The PE arrays of all AAP cores."""
        pes = self.config.pe_count
        return ResourceUsage(
            lut=int(round(_LUT_PER_PE * pes)),
            ff=int(round(_FF_PER_PE * pes)),
            dsp=int(round(_DSP_PER_PE * pes)),
        )

    def on_chip_memory(self) -> ResourceUsage:
        """Weight / gradient / activation memories and line buffers."""
        weight_brams = int(np.ceil(self.config.weight_memory_bytes / BRAM_BYTES))
        activation_brams = max(1, int(np.ceil(self.config.activation_memory_bytes / BRAM_BYTES)))
        total_brams = int(round(weight_brams * _MEMORY_BRAM_OVERHEAD_FACTOR)) + activation_brams
        return ResourceUsage(
            lut=int(round(_LUT_PER_BRAM * total_brams)),
            bram=total_brams,
            uram=_GRADIENT_URAM_BLOCKS,
        )

    def adam_optimizer(self) -> ResourceUsage:
        return _ADAM_OPTIMIZER

    def control_unit(self) -> ResourceUsage:
        return _CONTROL_UNIT

    def kernel_interface(self) -> ResourceUsage:
        return _KERNEL_INTERFACE

    def hbm_interface(self) -> ResourceUsage:
        return _HBM_INTERFACE

    def pcie_dma(self) -> ResourceUsage:
        return _PCIE_DMA

    # ------------------------------------------------------------------ #
    # Aggregation (Table I)
    # ------------------------------------------------------------------ #
    def components(self) -> Dict[str, ResourceUsage]:
        """Per-component usage in the paper's Table I order."""
        return {
            "PEs": self.processing_elements(),
            "On-chip Memory": self.on_chip_memory(),
            "Adam Optimizer": self.adam_optimizer(),
            "Control Unit": self.control_unit(),
            "Kernel Interface": self.kernel_interface(),
            "HBM Interface": self.hbm_interface(),
            "PCIe DMA": self.pcie_dma(),
        }

    def total(self) -> ResourceUsage:
        """Total usage across all components."""
        total = ResourceUsage()
        for usage in self.components().values():
            total = total + usage
        return total

    def utilization(self) -> Dict[str, float]:
        """Device utilization fractions for the total usage."""
        return self.device.utilization(self.total())

    def fits_device(self) -> bool:
        """Whether the configured design fits the target device."""
        return self.device.fits(self.total())

    def table(self) -> List[Dict[str, object]]:
        """Table I as a list of rows (components, total, utilization)."""
        rows: List[Dict[str, object]] = []
        for name, usage in self.components().items():
            row: Dict[str, object] = {"Component": name}
            row.update(usage.as_dict())
            rows.append(row)
        total = self.total()
        total_row: Dict[str, object] = {"Component": "Total"}
        total_row.update(total.as_dict())
        rows.append(total_row)
        util_row: Dict[str, object] = {"Component": "Utilization (%)"}
        util_row.update(
            {key: round(100.0 * value, 1) for key, value in self.device.utilization(total).items()}
        )
        rows.append(util_row)
        return rows
