"""Tests for the temporal partition-based index (Algorithm 4)."""

from collections import Counter

import numpy as np
import pytest

from repro.core.config import IndexConfig
from repro.data.synthetic import generate_porto_like
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.index.tpi import TemporalPartitionIndex, TimePeriod


def drifting_dataset(num_traj=20, length=30, drift_at=15, seed=0):
    """Trajectories that stay in one area then jump to a different one.

    The jump at ``drift_at`` empties the original rectangles, which forces the
    TPI to re-build.
    """
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(num_traj):
        base = rng.normal(scale=0.01, size=2)
        points = np.tile(base, (length, 1)) + rng.normal(scale=0.001, size=(length, 2))
        points[drift_at:] += 5.0
        trajectories.append(Trajectory(traj_id=i, points=points))
    return TrajectoryDataset(trajectories)


def stable_dataset(num_traj=20, length=30, seed=1):
    """Trajectories that jitter around fixed positions (stable distribution)."""
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(num_traj):
        base = rng.normal(scale=0.01, size=2)
        jitter = rng.normal(scale=0.0002, size=(length, 2))
        trajectories.append(Trajectory(traj_id=i, points=base + jitter))
    return TrajectoryDataset(trajectories)


def staggered_dataset(seed=7):
    """Porto-like trips with start times spread over 60 steps (drifting data)."""
    base = generate_porto_like(num_trajectories=24, max_length=40, seed=seed)
    rng = np.random.default_rng(seed)
    return TrajectoryDataset(
        Trajectory(tr.traj_id, tr.points, tr.timestamps + int(rng.integers(0, 60)))
        for tr in base
    )


def reference_action(tpi, points, config):
    """Algorithm 4's decision for the next slice, one rectangle test at a time."""
    if not tpi.periods:
        return "initial"
    pi = tpi.periods[-1].index
    masks = [grid.rect.contains_points(points) for grid in pi.grids]
    dropped = 0
    for grid, base, mask in zip(pi.grids, pi.baseline_density, masks):
        count = int(np.count_nonzero(mask))
        area = grid.rect.area
        density = count / area if area > 0 else float(count)
        if base <= 0:
            continue
        rate = (density - base) / base
        if rate < 0 and abs(rate) > config.epsilon_c:
            dropped += 1
    if (dropped / len(pi.grids) if pi.grids else 1.0) > config.epsilon_d:
        return "rebuild"
    return "reuse" if np.any(masks, axis=0).all() else "insert"


class TestBuild:
    def test_stable_data_keeps_one_period(self):
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005,
                                                 epsilon_c=0.5, epsilon_d=0.5))
        tpi.build(stable_dataset())
        assert tpi.num_periods == 1
        assert tpi.stats.num_rebuilds == 0

    def test_drifting_data_triggers_rebuild(self):
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005,
                                                 epsilon_c=0.5, epsilon_d=0.5))
        tpi.build(drifting_dataset())
        assert tpi.num_periods >= 2
        assert tpi.stats.num_rebuilds >= 1

    def test_periods_cover_all_timestamps_contiguously(self):
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005))
        dataset = drifting_dataset()
        tpi.build(dataset)
        covered = []
        for period in tpi.periods:
            assert period.start <= period.end
            covered.extend(range(period.start, period.end + 1))
        assert sorted(covered) == dataset.timestamps

    def test_uncovered_points_trigger_insertion(self):
        """New trajectories appearing in a fresh area must produce insertions
        (not rebuilds) when the existing rectangles keep their density."""
        rng = np.random.default_rng(3)
        trajectories = []
        for i in range(15):
            base = rng.normal(scale=0.01, size=2)
            points = np.tile(base, (20, 1)) + rng.normal(scale=0.0005, size=(20, 2))
            trajectories.append(Trajectory(traj_id=i, points=points))
        # A latecomer far away, active only from t=5.
        late_points = np.tile([3.0, 3.0], (15, 1)) + rng.normal(scale=0.0005, size=(15, 2))
        trajectories.append(Trajectory(traj_id=99, points=late_points,
                                       timestamps=np.arange(5, 20)))
        dataset = TrajectoryDataset(trajectories)
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005,
                                                 epsilon_c=0.9, epsilon_d=0.9))
        tpi.build(dataset)
        assert tpi.stats.num_insertions >= 1
        # The latecomer must be findable at a later timestamp.
        assert 99 in tpi.lookup(3.0, 3.0, 10) or 99 in tpi.lookup_local(3.0, 3.0, 10, 0.002)

    def test_higher_epsilon_d_means_fewer_periods(self):
        dataset = drifting_dataset(drift_at=10)
        strict = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005,
                                                    epsilon_d=0.05)).build(dataset)
        loose = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005,
                                                   epsilon_d=0.95)).build(dataset)
        assert loose.num_periods <= strict.num_periods


class TestLookup:
    def test_lookup_finds_indexed_trajectory(self):
        dataset = stable_dataset()
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.002)).build(dataset)
        traj = dataset.get(0)
        t = 7
        x, y = traj.points[t]
        assert 0 in tpi.lookup(x, y, t)

    def test_lookup_unknown_time_is_empty(self):
        dataset = stable_dataset()
        tpi = TemporalPartitionIndex(IndexConfig()).build(dataset)
        assert tpi.lookup(0.0, 0.0, 10_000) == []

    def test_period_for_binary_search(self):
        dataset = drifting_dataset()
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005)).build(dataset)
        for t in dataset.timestamps:
            period = tpi.period_for(t)
            assert period is not None
            assert period.start <= t <= period.end
        assert tpi.period_for(-5) is None

    def test_lookup_local_is_superset_of_plain(self):
        dataset = stable_dataset()
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.002)).build(dataset)
        traj = dataset.get(3)
        x, y = traj.points[5]
        plain = set(tpi.lookup(x, y, 5))
        local = set(tpi.lookup_local(x, y, 5, radius=0.001))
        assert plain <= local


class TestStatistics:
    def test_stats_filled_by_build(self):
        dataset = stable_dataset()
        tpi = TemporalPartitionIndex(IndexConfig()).build(dataset)
        assert tpi.stats.build_seconds > 0.0
        assert tpi.storage_megabytes() == pytest.approx(tpi.storage_bits() / 8.0 / (1 << 20))


class TestBatchScalarBoundaryEquivalence:
    """Property tests: the vectorised ``period_indices_for`` / ``lookup_batch``
    path must agree with the scalar ``period_for`` / ``lookup`` path at every
    period boundary (the ``searchsorted(..., side="right") - 1`` edge cases).
    """

    def _index_of(self, tpi, period):
        return -1 if period is None else tpi.periods.index(period)

    def _boundary_ts(self, periods):
        """Every period start/end plus its off-by-one neighbours."""
        ts = set()
        for period in periods:
            ts.update((period.start - 1, period.start, period.start + 1,
                       period.end - 1, period.end, period.end + 1))
        ts.update((min(p.start for p in periods) - 10,
                   max(p.end for p in periods) + 10))
        return sorted(ts)

    def test_built_index_boundaries_agree(self):
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005,
                                                 epsilon_c=0.5, epsilon_d=0.5))
        tpi.build(drifting_dataset())
        assert tpi.num_periods >= 2, "need several periods; test is vacuous"
        ts = self._boundary_ts(tpi.periods)
        vectorised = tpi.period_indices_for(np.asarray(ts))
        for t, got in zip(ts, vectorised):
            assert got == self._index_of(tpi, tpi.period_for(t)), f"t={t}"

    def test_fabricated_gapped_periods_agree(self):
        """Gaps between periods must map to -1, exactly like the scalar path.

        The build path tiles periods contiguously, but nothing in the lookup
        contract requires it -- the vectorised path has to handle gaps too.
        """
        tpi = TemporalPartitionIndex(IndexConfig())
        tpi.periods = [TimePeriod(0, 4, None), TimePeriod(10, 14, None),
                       TimePeriod(15, 15, None), TimePeriod(20, 29, None)]
        ts = self._boundary_ts(tpi.periods)
        vectorised = tpi.period_indices_for(np.asarray(ts))
        for t, got in zip(ts, vectorised):
            assert got == self._index_of(tpi, tpi.period_for(t)), f"t={t}"

    def test_randomized_period_layouts_agree(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            periods, t = [], 0
            for _ in range(int(rng.integers(1, 9))):
                t += int(rng.integers(0, 4))          # occasional gap
                end = t + int(rng.integers(0, 6))     # single-point periods too
                periods.append(TimePeriod(t, end, None))
                t = end + 1
            tpi = TemporalPartitionIndex(IndexConfig())
            tpi.periods = periods
            span = np.arange(periods[0].start - 3, periods[-1].end + 4)
            vectorised = tpi.period_indices_for(span)
            for ts, got in zip(span, vectorised):
                assert got == self._index_of(tpi, tpi.period_for(int(ts))), \
                    f"t={ts} layout={[(p.start, p.end) for p in periods]}"

    def test_empty_index_and_empty_batch(self):
        tpi = TemporalPartitionIndex(IndexConfig())
        assert tpi.period_indices_for(np.asarray([0, 5])).tolist() == [-1, -1]
        tpi.periods = [TimePeriod(0, 9, None)]
        assert tpi.period_indices_for(np.asarray([], dtype=np.int64)).tolist() == []

    def test_lookup_batch_agrees_at_boundaries(self):
        dataset = drifting_dataset()
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005,
                                                 epsilon_c=0.5, epsilon_d=0.5))
        tpi.build(dataset)
        assert tpi.num_periods >= 2
        boundary_ts = self._boundary_ts(tpi.periods)
        traj = dataset.get(0)
        probes = [(float(traj.points[min(max(t, 0), len(traj) - 1), 0]),
                   float(traj.points[min(max(t, 0), len(traj) - 1), 1]), t)
                  for t in boundary_ts]
        xs, ys, ts = (np.asarray(v) for v in zip(*probes))
        batched = tpi.lookup_batch(xs, ys, ts)
        hits = 0
        for (x, y, t), got in zip(probes, batched):
            assert got == tpi.lookup(x, y, t), f"t={t}"
            hits += bool(got)
        assert hits, "no probe hit the index; comparison is vacuous"


class TestInsertSliceActions:
    def test_staggered_actions_match_per_rectangle_reference(self):
        config = IndexConfig()
        tpi = TemporalPartitionIndex(config)
        actions = []
        for slice_ in staggered_dataset().iter_time_slices():
            if len(slice_) == 0:
                continue
            expected = reference_action(tpi, slice_.points, config)
            actions.append(tpi.insert_slice(slice_.t, slice_.traj_ids, slice_.points))
            assert actions[-1] == expected, f"t={slice_.t}"
        # Counts of the per-rectangle implementation this one replaced.
        assert Counter(actions) == {"initial": 1, "rebuild": 16, "insert": 69, "reuse": 6}
        assert (tpi.stats.num_rebuilds, tpi.stats.num_insertions) == (16, 69)

    def test_build_matches_slice_by_slice_insertion(self):
        dataset = staggered_dataset()
        built = TemporalPartitionIndex(IndexConfig()).build(dataset)
        assert (built.stats.num_rebuilds, built.stats.num_insertions) == (16, 69)
        assert built.num_periods == 17
