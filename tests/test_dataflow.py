"""Unit tests for the adaptive-parallelism tile mappings."""

import pytest

from repro.accelerator import (
    ArrayGeometry,
    Parallelism,
    inference_schedule,
    training_schedule,
)


class TestSchedules:
    GEOMETRY = ArrayGeometry(16, 16)

    def test_inference_schedule_paper_layer(self):
        # The 300x400 hidden layer: 25 row chunks, 19 column chunks.
        schedule = inference_schedule(300, 400, self.GEOMETRY, num_cores=2)
        assert schedule.parallelism is Parallelism.INTRA_LAYER
        assert schedule.row_chunks == 25
        assert schedule.col_chunks == 19
        assert schedule.tiles_per_core == 13 * 19
        assert schedule.vectors_per_core == 1
        assert schedule.needs_cross_core_accumulation

    def test_inference_half_precision_halves_row_chunks(self):
        full = inference_schedule(300, 400, self.GEOMETRY, num_cores=2, half_precision=False)
        half = inference_schedule(300, 400, self.GEOMETRY, num_cores=2, half_precision=True)
        assert half.row_chunks == (full.row_chunks + 1) // 2

    def test_single_core_needs_no_cross_core_accumulation(self):
        schedule = inference_schedule(300, 400, self.GEOMETRY, num_cores=1)
        assert not schedule.needs_cross_core_accumulation

    def test_training_schedule_intra_batch(self):
        schedule = training_schedule(300, 400, batch_size=512, geometry=self.GEOMETRY, num_cores=2)
        assert schedule.parallelism is Parallelism.INTRA_BATCH
        assert schedule.vectors_per_core == 256
        assert schedule.tiles_per_core == schedule.total_tiles
        assert not schedule.needs_cross_core_accumulation

    def test_training_vectors_per_core_scales_with_cores(self):
        two = training_schedule(300, 400, 512, self.GEOMETRY, num_cores=2)
        four = training_schedule(300, 400, 512, self.GEOMETRY, num_cores=4)
        assert four.vectors_per_core == two.vectors_per_core // 2

    def test_small_layer_has_single_tile(self):
        schedule = training_schedule(6, 16, 32, self.GEOMETRY, num_cores=2)
        assert schedule.total_tiles == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            inference_schedule(0, 10, self.GEOMETRY, 2)
        with pytest.raises(ValueError):
            training_schedule(10, 10, 0, self.GEOMETRY, 2)
        with pytest.raises(ValueError):
            training_schedule(10, 10, 8, self.GEOMETRY, 0)
        with pytest.raises(ValueError):
            ArrayGeometry(0, 16)
