"""The FIXAR core: configuration, the assembled system, and reporting."""

from .comparison import (
    AcceleratorEntry,
    FA3C_ASPLOS19,
    PPO_FCCM20,
    comparison_table,
    fixar_entry,
    normalize_peak_performance,
)
from .config import FixarConfig, paper_config, smoke_test_config
from .fixar import FixarSystem, ThroughputReport, run_precision_driver
from .report import (
    format_breakdown,
    format_curve,
    format_series,
    format_table,
    rows_to_csv,
    summarize_speedups,
)

__all__ = [
    "FixarConfig",
    "paper_config",
    "smoke_test_config",
    "FixarSystem",
    "ThroughputReport",
    "run_precision_driver",
    "AcceleratorEntry",
    "FA3C_ASPLOS19",
    "PPO_FCCM20",
    "fixar_entry",
    "comparison_table",
    "normalize_peak_performance",
    "format_table",
    "format_series",
    "format_breakdown",
    "format_curve",
    "rows_to_csv",
    "summarize_speedups",
]
