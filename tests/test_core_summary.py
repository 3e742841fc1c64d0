"""Tests for the TrajectorySummary container and its storage accounting."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import CQCConfig, PartitionCriterion, PPQConfig
from repro.core.ppq import PartitionwisePredictiveQuantizer
from repro.core.summary import SummaryStorage, TimestepRecord, TrajectorySummary
from repro.core.codebook import Codebook
from repro.data.synthetic import PORTO_LIKE, generate_dataset


@pytest.fixture(scope="module")
def summary(porto_small):
    quantizer = PartitionwisePredictiveQuantizer(PPQConfig(), CQCConfig())
    return quantizer.summarize(porto_small)


class TestReconstruction:
    def test_reconstruct_point_matches_cache(self, summary, porto_small):
        tid = porto_small.trajectory_ids[0]
        point = summary.reconstruct_point(tid, 3)
        assert point is not None and point.shape == (2,)

    def test_missing_point_returns_none(self, summary):
        assert summary.reconstruct_point(10_000, 0) is None
        assert summary.reconstruct_point(0, 10_000) is None

    def test_reconstruct_path_stops_at_trajectory_end(self, summary, porto_small):
        tid = porto_small.trajectory_ids[0]
        length = len(porto_small.get(tid))
        path = summary.reconstruct_path(tid, length - 2, 10)
        assert len(path) == 2

    def test_reconstruct_path_empty_when_absent(self, summary):
        assert summary.reconstruct_path(10_000, 0, 5).shape == (0, 2)

    def test_recompute_matches_cached_reconstruction(self, porto_small):
        """Reconstructions replayed purely from the summary parameters equal
        the ones stored during quantization, bit for bit."""
        quantizer = PartitionwisePredictiveQuantizer(PPQConfig(), CQCConfig(enabled=False))
        original = quantizer.summarize(porto_small, t_max=15)
        # A fresh summary object with the same records/codebook but an empty
        # reconstruction store.
        rebuilt = TrajectorySummary(original.config, original.cqc_config,
                                    original.codebook, original.cqc_coder)
        for record in original.records.values():
            rebuilt.add_record(record)
        assert rebuilt.reconstruct_point(porto_small.trajectory_ids[0], 0) is None
        rebuilt.replay()
        for t in original.timestamps:
            for tid in original.trajectories_at(t):
                a = original.reconstruct_point(tid, t, use_cqc=False)
                b = rebuilt.reconstruct_point(tid, t, use_cqc=False)
                assert a.tobytes() == b.tobytes(), (tid, t)

    def test_use_cqc_false_returns_base_reconstruction(self, summary, porto_small):
        tid = porto_small.trajectory_ids[0]
        base = summary.reconstruct_point(tid, 5, use_cqc=False)
        refined = summary.reconstruct_point(tid, 5, use_cqc=True)
        truth = porto_small.get(tid).point_at(5)
        # The refined point should not be farther from the truth than the base.
        assert (np.linalg.norm(truth - refined)
                <= np.linalg.norm(truth - base) + 1e-12)


class TestLongTrajectoryRecompute:
    """Replay over a 1,500-point trajectory equals fit, last point included."""

    @pytest.mark.parametrize("criterion, epsilon_p", [
        (PartitionCriterion.SPATIAL, 0.1),             # PPQ-S
        (PartitionCriterion.AUTOCORRELATION, 0.01),    # PPQ-A
    ])
    def test_last_point_first_equals_fit(self, criterion, epsilon_p):
        dataset = generate_dataset(dataclasses.replace(
            PORTO_LIKE, num_trajectories=1, min_length=1500, max_length=1500, seed=3))
        config = PPQConfig(criterion=criterion, epsilon_p=epsilon_p)
        summary = PartitionwisePredictiveQuantizer(config, CQCConfig()).summarize(dataset)
        fitted = {t: point.copy() for t, point in summary._reconstructions[0].items()}
        assert sorted(fitted) == list(range(1500))
        summary.replay()
        for t in reversed(range(1500)):
            point = summary.reconstruct_point(0, t, use_cqc=False)
            assert point.tobytes() == fitted[t].tobytes(), t


class TestAccessors:
    def test_timestamps_sorted(self, summary):
        assert summary.timestamps == sorted(summary.timestamps)

    def test_trajectories_at(self, summary, porto_small):
        expected = sorted(int(t) for t in porto_small.time_slice(0).traj_ids)
        assert summary.trajectories_at(0) == expected

    def test_trajectories_at_missing_timestamp(self, summary):
        assert summary.trajectories_at(10_000) == []

    def test_num_codewords_positive(self, summary):
        assert summary.num_codewords > 0


class TestStorageAccounting:
    def test_storage_fields_positive(self, summary):
        storage = summary.storage()
        assert storage.codebook_bits > 0
        assert storage.codeword_index_bits > 0
        assert storage.coefficient_bits > 0
        assert storage.cqc_bits > 0
        assert storage.total_bits == (
            storage.codebook_bits + storage.codeword_index_bits
            + storage.coefficient_bits + storage.partition_assignment_bits
            + storage.cqc_bits
        )

    def test_total_bytes(self):
        storage = SummaryStorage(codebook_bits=16)
        assert storage.total_bytes == 2.0

    def test_compression_ratio_definition(self, summary):
        ratio = summary.compression_ratio()
        raw_bits = summary.num_points * 2 * 8 * 8
        assert ratio == pytest.approx(raw_bits / summary.storage().total_bits)

    def test_basic_variant_has_no_cqc_bits(self, porto_small):
        quantizer = PartitionwisePredictiveQuantizer(PPQConfig(), CQCConfig(enabled=False))
        basic = quantizer.summarize(porto_small, t_max=10)
        assert basic.storage().cqc_bits == 0

    def test_empty_summary_ratio_is_infinite(self):
        summary = TrajectorySummary(PPQConfig(), CQCConfig(enabled=False), Codebook())
        assert summary.compression_ratio() == float("inf")


class TestTimestepRecord:
    def test_counts(self):
        record = TimestepRecord(t=0)
        record.codeword_index = {1: 0, 2: 1}
        record.coefficients = {0: np.zeros(2)}
        assert record.num_points == 2
        assert record.num_partitions == 1
