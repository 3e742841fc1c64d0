"""End-to-end tests of the PPQTrajectory facade."""

import numpy as np
import pytest

from repro import CQCConfig, IndexConfig, PPQConfig, PPQTrajectory, PartitionCriterion
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.metrics.accuracy import mean_absolute_error


class TestConstruction:
    def test_defaults(self):
        system = PPQTrajectory()
        assert system.variant == "ppq"
        assert system.ppq_config.epsilon1 == pytest.approx(0.001)

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            PPQTrajectory(variant="bogus")

    def test_ppq_a_factory(self):
        system = PPQTrajectory.ppq_a()
        assert system.ppq_config.criterion is PartitionCriterion.AUTOCORRELATION
        assert system.ppq_config.epsilon_p == pytest.approx(0.01)

    def test_ppq_s_factory(self):
        system = PPQTrajectory.ppq_s()
        assert system.ppq_config.criterion is PartitionCriterion.SPATIAL

    def test_epq_variant_uses_single_partition(self, porto_small):
        system = PPQTrajectory(variant="epq")
        system.fit(porto_small, t_max=8, build_index=False)
        assert system.summary.max_partitions() == 1


class TestLifecycle:
    def test_query_before_fit_raises(self):
        system = PPQTrajectory()
        with pytest.raises(RuntimeError):
            system.strq(0.0, 0.0, 0)
        with pytest.raises(RuntimeError):
            system.compression_ratio()

    @pytest.mark.parametrize("preset", [PPQTrajectory.ppq_s, PPQTrajectory.ppq_a])
    def test_fit_refuses_a_dataset_without_points(self, preset, tmp_path):
        with pytest.raises(ValueError, match="no points"):
            preset().fit(TrajectoryDataset([]))
        late = TrajectoryDataset([Trajectory(0, np.zeros((3, 2)), np.arange(5, 8))])
        with pytest.raises(ValueError, match="no points at or before t_max=4"):
            preset().fit(late, t_max=4)
        system = preset().fit(late, t_max=5)
        assert system.summary.num_points == 1
        system.save(tmp_path / "late.ppq")

    def test_fit_without_index_blocks_queries_but_allows_reconstruction(self, porto_small):
        system = PPQTrajectory()
        system.fit(porto_small, t_max=10, build_index=False)
        assert system.reconstruct(porto_small.trajectory_ids[0], 3) is not None
        with pytest.raises(RuntimeError):
            system.strq(0.0, 0.0, 0)

    def test_full_fit_enables_all_queries(self, fitted_ppq_s, porto_small):
        tid = porto_small.trajectory_ids[0]
        traj = porto_small.get(tid)
        x, y = traj.points[4]
        assert fitted_ppq_s.strq(x, y, 4).candidates
        assert fitted_ppq_s.tpq(x, y, 4, length=5).paths
        assert fitted_ppq_s.exact(x, y, 4).matches is not None

    def test_reconstruction_error_within_cqc_bound(self, fitted_ppq_s, porto_small):
        coder = fitted_ppq_s.summary.cqc_coder
        bound = coder.residual_bound
        rng = np.random.default_rng(0)
        for _ in range(30):
            tid = int(rng.choice(porto_small.trajectory_ids))
            traj = porto_small.get(tid)
            t = int(rng.integers(0, len(traj)))
            reconstruction = fitted_ppq_s.reconstruct(tid, t)
            assert np.linalg.norm(reconstruction - traj.points[t]) <= bound + 1e-12

    def test_compression_ratio_above_one(self, fitted_ppq_s):
        assert fitted_ppq_s.compression_ratio() > 1.0

    def test_num_codewords_positive(self, fitted_ppq_s):
        assert fitted_ppq_s.num_codewords() > 0


class TestVariantOrdering:
    """Relative behaviours the paper reports, checked end to end."""

    def test_ppq_beats_no_prediction_on_codebook_size(self, porto_small):
        ppq = PPQTrajectory(ppq_config=PPQConfig(), cqc_config=CQCConfig(enabled=False))
        ppq.fit(porto_small, build_index=False)
        no_pred = PPQTrajectory(
            ppq_config=PPQConfig(use_prediction=False), cqc_config=CQCConfig(enabled=False)
        )
        no_pred.fit(porto_small, build_index=False)
        assert ppq.num_codewords() <= no_pred.num_codewords()

    def test_cqc_reduces_mae(self, porto_small):
        basic = PPQTrajectory(cqc_config=CQCConfig(enabled=False))
        basic.fit(porto_small, build_index=False)
        full = PPQTrajectory(cqc_config=CQCConfig())
        full.fit(porto_small, build_index=False)
        assert (mean_absolute_error(full.summary, porto_small)
                < mean_absolute_error(basic.summary, porto_small))

    def test_geolife_like_also_supported(self, geolife_small):
        system = PPQTrajectory.ppq_a(index_config=IndexConfig(epsilon_s=5.0))
        system.fit(geolife_small, t_max=30)
        mae = mean_absolute_error(system.summary, geolife_small, t_max=30)
        # Bounded by the CQC bound (about 35 m for the default 50 m grid).
        assert mae < 40.0
