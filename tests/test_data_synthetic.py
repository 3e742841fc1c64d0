"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.data.synthetic import (
    GEOLIFE_LIKE,
    PORTO_LIKE,
    SyntheticConfig,
    generate_dataset,
    generate_geolife_like,
    generate_porto_like,
)
from repro.utils.geo import DEGREE_TO_METERS


class TestGenerators:
    def test_porto_like_basic_properties(self):
        dataset = generate_porto_like(num_trajectories=10, max_length=60, seed=1)
        assert len(dataset) == 10
        assert all(len(traj) >= 30 for traj in dataset)
        assert all(len(traj) <= 60 for traj in dataset)

    def test_geolife_like_has_larger_extent_than_porto(self):
        porto = generate_porto_like(num_trajectories=10, max_length=60, seed=1)
        geolife = generate_geolife_like(num_trajectories=10, max_length=120, seed=1)
        p_box = porto.bounding_box()
        g_box = geolife.bounding_box()
        p_extent = max(p_box[2] - p_box[0], p_box[3] - p_box[1])
        g_extent = max(g_box[2] - g_box[0], g_box[3] - g_box[1])
        assert g_extent > p_extent

    def test_determinism(self):
        a = generate_porto_like(num_trajectories=5, max_length=40, seed=7)
        b = generate_porto_like(num_trajectories=5, max_length=40, seed=7)
        for tid in a.trajectory_ids:
            np.testing.assert_array_equal(a.get(tid).points, b.get(tid).points)

    def test_different_seeds_differ(self):
        a = generate_porto_like(num_trajectories=5, max_length=40, seed=1)
        b = generate_porto_like(num_trajectories=5, max_length=40, seed=2)
        assert not np.array_equal(a.get(0).points, b.get(0).points)

    def test_motion_is_smooth(self):
        """Consecutive displacements should be bounded by speed * interval."""
        config = SyntheticConfig(num_trajectories=5, min_length=30, max_length=30,
                                 mean_speed_mps=10.0, sampling_interval_s=15.0,
                                 noise_std_m=0.0, seed=3)
        dataset = generate_dataset(config)
        max_step_deg = 10.0 * 2.5 * 15.0 / DEGREE_TO_METERS * 1.5  # speed cap x margin
        for traj in dataset:
            steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
            assert np.all(steps <= max_step_deg)

    def test_autocorrelation_present(self):
        """Consecutive displacement vectors should be positively correlated --
        the property PPQ's prediction step exploits."""
        dataset = generate_porto_like(num_trajectories=10, max_length=100, seed=11)
        correlations = []
        for traj in dataset:
            deltas = np.diff(traj.points, axis=0)
            if len(deltas) < 3:
                continue
            a = deltas[:-1].ravel()
            b = deltas[1:].ravel()
            correlations.append(np.corrcoef(a, b)[0, 1])
        assert np.mean(correlations) > 0.5

    def test_hotspot_starts_within_region(self):
        dataset = generate_porto_like(num_trajectories=20, max_length=40, seed=5)
        cx, cy = PORTO_LIKE.center
        for traj in dataset:
            start = traj.points[0]
            assert abs(start[0] - cx) < 0.3
            assert abs(start[1] - cy) < 0.3

    def test_speed_mix_used_by_geolife_config(self):
        assert len(GEOLIFE_LIKE.speed_mix) > 1

    def test_config_validation_happens_downstream(self):
        # A degenerate config should still produce a valid dataset object.
        config = SyntheticConfig(num_trajectories=1, min_length=30, max_length=30, seed=0)
        dataset = generate_dataset(config)
        assert dataset.num_points == 30

    def test_all_trajectories_start_at_t0(self):
        dataset = generate_porto_like(num_trajectories=4, max_length=40, seed=2)
        for traj in dataset:
            assert traj.timestamps[0] == 0

    def test_short_maximum_lowers_the_preset_minimum(self):
        geolife = generate_geolife_like(num_trajectories=4, max_length=50, seed=1)
        porto = generate_porto_like(num_trajectories=4, max_length=20, seed=1)
        assert [len(traj) for traj in geolife] == [50] * 4
        assert [len(traj) for traj in porto] == [20] * 4

    def test_presets_draw_what_they_drew_before(self):
        """Maxima at or above the preset minimum keep the preset's numbers."""
        for generate, preset, max_length in ((generate_porto_like, PORTO_LIKE, 45),
                                             (generate_geolife_like, GEOLIFE_LIKE, 80)):
            got = generate(num_trajectories=6, max_length=max_length, seed=4)
            expected = generate_dataset(SyntheticConfig(
                **{**preset.__dict__, "num_trajectories": 6, "max_length": max_length,
                   "seed": 4}))
            for tid in expected.trajectory_ids:
                assert got.get(tid).points.tobytes() == expected.get(tid).points.tobytes()

    def test_minimum_above_maximum_rejected(self):
        config = SyntheticConfig(num_trajectories=1, min_length=40, max_length=30)
        with pytest.raises(ValueError, match=r"min_length \(40\).*max_length \(30\)"):
            generate_dataset(config)
