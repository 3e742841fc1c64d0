"""Tests for E-PQ and PPQ (the paper's core quantizers)."""

import numpy as np
import pytest

from repro.core.config import CQCConfig, PPQConfig, PartitionCriterion
from repro.core.epq import ErrorBoundedPredictiveQuantizer
from repro.core.ppq import PartitionwisePredictiveQuantizer
from repro.metrics.accuracy import mean_absolute_error, reconstruction_errors
from repro.utils.geo import meters_to_degrees


class TestErrorBoundInvariant:
    """The central guarantee: the base reconstruction is within epsilon1."""

    @pytest.mark.parametrize("criterion", [PartitionCriterion.SPATIAL,
                                           PartitionCriterion.AUTOCORRELATION])
    def test_ppq_base_reconstruction_is_error_bounded(self, porto_small, criterion):
        eps_p = 0.1 if criterion is PartitionCriterion.SPATIAL else 0.01
        config = PPQConfig(epsilon1=0.001, epsilon_p=eps_p, criterion=criterion)
        quantizer = PartitionwisePredictiveQuantizer(config, CQCConfig(enabled=False))
        summary = quantizer.summarize(porto_small)
        errors = reconstruction_errors(summary, porto_small)
        assert len(errors) == porto_small.num_points
        assert np.max(errors) <= config.epsilon1 + 1e-9

    def test_epq_base_reconstruction_is_error_bounded(self, porto_small):
        config = PPQConfig(epsilon1=0.002)
        quantizer = ErrorBoundedPredictiveQuantizer(config, CQCConfig(enabled=False))
        summary = quantizer.summarize(porto_small)
        errors = reconstruction_errors(summary, porto_small)
        assert np.max(errors) <= config.epsilon1 + 1e-9

    def test_cqc_tightens_the_bound(self, porto_small):
        """With CQC the residual error is bounded by sqrt(2)/2 * g_s (Lemma 3)."""
        config = PPQConfig(epsilon1=0.001)
        cqc = CQCConfig(grid_size=meters_to_degrees(50.0))
        quantizer = PartitionwisePredictiveQuantizer(config, cqc)
        summary = quantizer.summarize(porto_small)
        errors = reconstruction_errors(summary, porto_small)
        bound = np.sqrt(2.0) / 2.0 * cqc.grid_size
        assert np.max(errors) <= bound + 1e-9


class TestSummaryContents:
    def test_every_point_is_summarised(self, porto_small, default_ppq_config):
        quantizer = PartitionwisePredictiveQuantizer(default_ppq_config, CQCConfig())
        summary = quantizer.summarize(porto_small)
        assert summary.num_points == porto_small.num_points

    def test_t_max_limits_processing(self, porto_small, default_ppq_config):
        quantizer = PartitionwisePredictiveQuantizer(default_ppq_config, CQCConfig())
        summary = quantizer.summarize(porto_small, t_max=10)
        assert max(summary.timestamps) <= 10

    def test_records_hold_coefficients_and_codes(self, porto_small, default_ppq_config):
        quantizer = PartitionwisePredictiveQuantizer(default_ppq_config, CQCConfig())
        summary = quantizer.summarize(porto_small, t_max=5)
        for record in summary.records.values():
            assert record.num_partitions >= 1
            assert record.num_points >= 1
            assert len(record.cqc_codes) == record.num_points
            for coeffs in record.coefficients.values():
                assert coeffs.shape == (default_ppq_config.prediction_order,)

    def test_basic_variant_has_no_cqc_codes(self, porto_small, default_ppq_config):
        quantizer = PartitionwisePredictiveQuantizer(
            default_ppq_config, CQCConfig(enabled=False)
        )
        summary = quantizer.summarize(porto_small, t_max=5)
        assert summary.cqc_coder is None
        assert all(not record.cqc_codes for record in summary.records.values())

    def test_partition_history_is_tracked(self, porto_small, default_ppq_config):
        quantizer = PartitionwisePredictiveQuantizer(default_ppq_config, CQCConfig())
        quantizer.summarize(porto_small, t_max=10)
        assert len(quantizer.partition_history) > 0
        assert all(q >= 1 for q in quantizer.partition_history)

    def test_timings_recorded(self, porto_small, default_ppq_config):
        quantizer = PartitionwisePredictiveQuantizer(default_ppq_config, CQCConfig())
        quantizer.summarize(porto_small, t_max=10)
        assert quantizer.timings["total"] > 0.0
        assert quantizer.timings["quantization"] >= 0.0


class TestPredictionBenefit:
    def test_prediction_shrinks_codebook_on_predictable_data(self, straight_line_dataset):
        """On perfectly linear motion the predictive codebook stays tiny while
        the non-predictive one must tile the whole spatial extent."""
        eps = 0.0002
        with_prediction = PartitionwisePredictiveQuantizer(
            PPQConfig(epsilon1=eps, use_prediction=True), CQCConfig(enabled=False)
        ).summarize(straight_line_dataset)
        without_prediction = PartitionwisePredictiveQuantizer(
            PPQConfig(epsilon1=eps, use_prediction=False), CQCConfig(enabled=False)
        ).summarize(straight_line_dataset)
        assert with_prediction.num_codewords < without_prediction.num_codewords

    def test_epq_single_partition(self, porto_small):
        quantizer = ErrorBoundedPredictiveQuantizer(PPQConfig(), CQCConfig())
        summary = quantizer.summarize(porto_small, t_max=10)
        assert summary.max_partitions() == 1

    def test_ppq_uses_multiple_partitions_when_needed(self, porto_small):
        config = PPQConfig(epsilon_p=0.01)  # tight spatial threshold
        quantizer = PartitionwisePredictiveQuantizer(config, CQCConfig())
        summary = quantizer.summarize(porto_small, t_max=10)
        assert summary.max_partitions() > 1


class TestMAEOrdering:
    def test_cqc_variant_has_lower_mae_than_basic(self, porto_small):
        config = PPQConfig(epsilon1=0.001)
        basic = PartitionwisePredictiveQuantizer(
            config, CQCConfig(enabled=False)).summarize(porto_small)
        full = PartitionwisePredictiveQuantizer(config, CQCConfig()).summarize(porto_small)
        assert mean_absolute_error(full, porto_small) < mean_absolute_error(basic, porto_small)

