"""Tests for the trajectory data model."""

import numpy as np
import pytest

from repro.data.trajectory import Trajectory, TrajectoryDataset


def make_dataset():
    t0 = Trajectory(traj_id=0, points=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    t1 = Trajectory(traj_id=1, points=np.array([[5.0, 5.0], [6.0, 6.0]]))
    t2 = Trajectory(traj_id=2, points=np.array([[9.0, 9.0]]), timestamps=np.array([2]))
    return TrajectoryDataset([t0, t1, t2])


class TestTrajectory:
    def test_default_timestamps(self):
        traj = Trajectory(traj_id=0, points=np.zeros((4, 2)))
        np.testing.assert_array_equal(traj.timestamps, [0, 1, 2, 3])

    def test_length_and_duration(self):
        traj = Trajectory(traj_id=0, points=np.zeros((4, 2)))
        assert len(traj) == 4
        assert traj.duration == 3

    def test_mismatched_timestamps_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(traj_id=0, points=np.zeros((3, 2)), timestamps=np.array([0, 1]))

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(traj_id=0, points=np.zeros((3, 2)), timestamps=np.array([0, 2, 1]))

    def test_repeated_timestamp_rejected(self):
        timestamps = np.insert(np.arange(8), 4, 3)          # 0, 1, 2, 3, 3, 4, ..., 7
        with pytest.raises(ValueError, match=r"trajectory 7: .*3 follows 3"):
            Trajectory(traj_id=7, points=np.zeros((9, 2)), timestamps=timestamps)

    def test_gaps_allowed(self):
        traj = Trajectory(traj_id=0, points=np.zeros((3, 2)), timestamps=np.array([0, 4, 5]))
        assert traj.duration == 5

    def test_point_at(self):
        traj = Trajectory(traj_id=0, points=np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(traj.point_at(1), [3.0, 4.0])
        assert traj.point_at(5) is None

    def test_segment(self):
        traj = Trajectory(traj_id=0, points=np.arange(10).reshape(5, 2))
        segment = traj.segment(1, 3)
        assert segment.shape == (3, 2)

    def test_bounding_box(self):
        traj = Trajectory(traj_id=0, points=np.array([[0.0, 5.0], [2.0, -1.0]]))
        assert traj.bounding_box() == (0.0, -1.0, 2.0, 5.0)


class TestTrajectoryDataset:
    def test_len_and_contains(self):
        dataset = make_dataset()
        assert len(dataset) == 3
        assert 0 in dataset
        assert 7 not in dataset

    def test_duplicate_ids_rejected(self):
        t = Trajectory(traj_id=0, points=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            TrajectoryDataset([t, t])

    def test_num_points_and_max_length(self):
        dataset = make_dataset()
        assert dataset.num_points == 6
        assert dataset.max_length == 3

    def test_time_slice_alignment(self):
        dataset = make_dataset()
        slice0 = dataset.time_slice(0)
        assert sorted(slice0.traj_ids.tolist()) == [0, 1]
        slice2 = dataset.time_slice(2)
        assert sorted(slice2.traj_ids.tolist()) == [0, 2]

    def test_time_slice_points_match_trajectories(self):
        dataset = make_dataset()
        slice1 = dataset.time_slice(1)
        for tid, point in zip(slice1.traj_ids, slice1.points):
            np.testing.assert_array_equal(point, dataset.get(int(tid)).point_at(1))

    def test_missing_timestamp_gives_empty_slice(self):
        dataset = make_dataset()
        empty = dataset.time_slice(99)
        assert len(empty) == 0

    def test_iter_time_slices_ordered_and_bounded(self):
        dataset = make_dataset()
        timestamps = [s.t for s in dataset.iter_time_slices()]
        assert timestamps == sorted(timestamps)
        bounded = [s.t for s in dataset.iter_time_slices(t_max=1)]
        assert bounded == [0, 1]

    def test_restrict(self):
        dataset = make_dataset()
        small = dataset.restrict([0, 2])
        assert sorted(small.trajectory_ids) == [0, 2]

    def test_truncate(self):
        dataset = make_dataset()
        truncated = dataset.truncate(0)
        assert truncated.num_points == 2
        assert 2 not in truncated  # trajectory 2 starts at t=2

    def test_from_arrays(self):
        dataset = TrajectoryDataset.from_arrays([np.zeros((3, 2)), np.ones((2, 2))])
        assert len(dataset) == 2
        assert dataset.get(1).points.shape == (2, 2)

    def test_bounding_box(self):
        dataset = make_dataset()
        assert dataset.bounding_box() == (0.0, 0.0, 9.0, 9.0)

    def test_timestamps_property(self):
        dataset = make_dataset()
        assert dataset.timestamps == [0, 1, 2]
