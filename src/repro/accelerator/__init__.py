"""The FIXAR FPGA accelerator: its integer datapath and its analytical models.

The raw-code datapath kernel (:mod:`.datapath`) is the paper's dense layer
on int64 codes — the PE's decomposed multiplier under a column-wise MVM,
the accumulator's round-half-up rescale and the bias — pinned against
``repro.nn`` in LSBs.  Beside it sit the analytical models calibrated
against the paper's Alveo U50 implementation: the dataflow / tile mapping
with intra-layer and intra-batch parallelism, the cycle-level timing model,
and the resource and power models.
"""

from .config import AcceleratorConfig
from .dataflow import (
    ArrayGeometry,
    Parallelism,
    TileSchedule,
    inference_schedule,
    training_schedule,
)
from .datapath import dense_forward, mvm, network_forward, requantize
from .power import PowerBreakdown, PowerModel
from .resources import ALVEO_U50, BRAM_BYTES, DeviceCapacity, ResourceModel, ResourceUsage
from .schedule_report import (
    layer_mapping_report,
    memory_footprint_report,
    workload_mapping_report,
)
from .timing import CycleBreakdown, TimingModel

__all__ = [
    "AcceleratorConfig",
    "mvm",
    "requantize",
    "dense_forward",
    "network_forward",
    "BRAM_BYTES",
    "ArrayGeometry",
    "Parallelism",
    "TileSchedule",
    "inference_schedule",
    "training_schedule",
    "TimingModel",
    "CycleBreakdown",
    "layer_mapping_report",
    "workload_mapping_report",
    "memory_footprint_report",
    "ResourceModel",
    "ResourceUsage",
    "DeviceCapacity",
    "ALVEO_U50",
    "PowerModel",
    "PowerBreakdown",
]
