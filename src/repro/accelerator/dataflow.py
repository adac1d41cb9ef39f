"""Column-wise matrix decomposition and the two adaptive-parallelism mappings.

FIXAR computes every layer as a matrix-vector multiplication (MVM) of a
weight matrix ``W`` (P×Q) and an activation vector ``A`` (Q×1) using
*column-wise decomposition* (paper Fig. 4a): column ``q`` of ``W`` is scaled
by element ``A[q]`` and the Q partial-sum vectors are accumulated into the
output.  The same mechanism serves both propagation directions:

* **Inference (intra-layer parallelism)** — the columns of ``W`` are
  interleaved across the AAP cores, each core accumulates its own partial
  result, and a final cross-core accumulation produces the output vector.
  One vector is processed N times faster on N cores.
* **Training (intra-batch parallelism)** — the MVM uses the transposed
  matrix; the batch's vectors are distributed across the cores so each core
  runs a whole MVM on its share of the batch, processing N times more
  vectors in parallel.

This module holds the mapping math: how many weight tiles each core
processes and how many vectors stream through each tile.  The column-wise
MVM itself, on raw codes, is :func:`repro.accelerator.datapath.mvm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Parallelism",
    "ArrayGeometry",
    "TileSchedule",
    "inference_schedule",
    "training_schedule",
]


class Parallelism(str, Enum):
    """The two dataflow modes of the adaptive array processing cores."""

    INTRA_LAYER = "intra-layer"   # inference: split one MVM across cores
    INTRA_BATCH = "intra-batch"   # training: one MVM per core, split the batch


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical PE-array dimensions of one AAP core."""

    rows: int = 16
    cols: int = 16

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"array dimensions must be positive, got {self.rows}x{self.cols}")

    @property
    def pe_count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class TileSchedule:
    """How one MVM maps onto the PE arrays.

    ``row_chunks`` covers the activation (Q) dimension, ``col_chunks`` the
    output (P) dimension.  ``tiles_per_core`` is the number of 16×16 weight
    tiles each core must process for its share of the work, and
    ``vectors_per_core`` how many activation vectors stream through each tile.
    """

    parallelism: Parallelism
    row_chunks: int
    col_chunks: int
    tiles_per_core: int
    vectors_per_core: int
    needs_cross_core_accumulation: bool

    @property
    def total_tiles(self) -> int:
        return self.row_chunks * self.col_chunks


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def inference_schedule(
    output_dim: int,
    input_dim: int,
    geometry: ArrayGeometry,
    num_cores: int,
    half_precision: bool = False,
) -> TileSchedule:
    """Tile schedule for one forward-propagation MVM (intra-layer parallelism).

    In half-precision mode each PE row consumes two activations per cycle, so
    the activation dimension needs half as many row chunks.
    """
    if output_dim <= 0 or input_dim <= 0:
        raise ValueError("layer dimensions must be positive")
    if num_cores <= 0:
        raise ValueError("num_cores must be positive")
    activations_per_row = 2 if half_precision else 1
    row_chunks = _ceil_div(input_dim, geometry.rows * activations_per_row)
    col_chunks = _ceil_div(output_dim, geometry.cols)
    tiles_per_core = _ceil_div(row_chunks, num_cores) * col_chunks
    return TileSchedule(
        parallelism=Parallelism.INTRA_LAYER,
        row_chunks=row_chunks,
        col_chunks=col_chunks,
        tiles_per_core=tiles_per_core,
        vectors_per_core=1,
        needs_cross_core_accumulation=num_cores > 1,
    )


def training_schedule(
    output_dim: int,
    input_dim: int,
    batch_size: int,
    geometry: ArrayGeometry,
    num_cores: int,
    half_precision: bool = False,
) -> TileSchedule:
    """Tile schedule for one back-propagation MVM batch (intra-batch parallelism).

    The transposed-matrix MVM reuses the same column-wise mechanism; each
    core owns ``ceil(batch / num_cores)`` vectors and streams them through
    every weight tile, so the weight-load cost is amortised over the batch.
    """
    if output_dim <= 0 or input_dim <= 0:
        raise ValueError("layer dimensions must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if num_cores <= 0:
        raise ValueError("num_cores must be positive")
    activations_per_row = 2 if half_precision else 1
    row_chunks = _ceil_div(input_dim, geometry.rows * activations_per_row)
    col_chunks = _ceil_div(output_dim, geometry.cols)
    return TileSchedule(
        parallelism=Parallelism.INTRA_BATCH,
        row_chunks=row_chunks,
        col_chunks=col_chunks,
        tiles_per_core=row_chunks * col_chunks,
        vectors_per_core=_ceil_div(batch_size, num_cores),
        needs_cross_core_accumulation=False,
    )
