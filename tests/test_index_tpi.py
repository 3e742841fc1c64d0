"""Tests for the temporal partition-based index (Algorithm 4)."""

from collections import Counter

import numpy as np
import pytest

from brute_force import period_index, tpi_candidates
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

    def test_period_indices_for_binary_search(self):
        dataset = drifting_dataset()
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005)).build(dataset)
        found = tpi.period_indices_for(np.asarray(dataset.timestamps))
        for t, position in zip(dataset.timestamps, found.tolist()):
            assert position >= 0
            assert tpi.periods[position].start <= t <= tpi.periods[position].end
        assert tpi.period_indices_for(np.asarray([-5])).tolist() == [-1]

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
    """Period resolution and lookups at every period boundary (the
    ``searchsorted(..., side="right") - 1`` edge cases) against the
    brute-force reference: a linear period scan and a plain-Python union of
    postings.  Lookups run as batches and as batches of one.
    """

    def _boundary_ts(self, periods):
        """Every period start/end plus its off-by-one neighbours."""
        ts = set()
        for period in periods:
            ts.update((period.start - 1, period.start, period.start + 1,
                       period.end - 1, period.end, period.end + 1))
        ts.update((min(p.start for p in periods) - 10,
                   max(p.end for p in periods) + 10))
        return sorted(ts)

    def _assert_periods_match_reference(self, tpi, ts):
        got = tpi.period_indices_for(np.asarray(ts)).tolist()
        assert got == [period_index(tpi.periods, int(t)) for t in ts], \
            f"layout={[(p.start, p.end) for p in tpi.periods]}"

    def test_built_index_boundaries_agree(self):
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005,
                                                 epsilon_c=0.5, epsilon_d=0.5))
        tpi.build(drifting_dataset())
        assert tpi.num_periods >= 2, "need several periods; test is vacuous"
        self._assert_periods_match_reference(tpi, self._boundary_ts(tpi.periods))

    def test_fabricated_gapped_periods_agree(self):
        """Gaps between periods map to -1.

        The build path tiles periods contiguously, but nothing in the lookup
        contract requires it -- the period search has to handle gaps too.
        """
        tpi = TemporalPartitionIndex(IndexConfig())
        tpi.periods = [TimePeriod(0, 4, None), TimePeriod(10, 14, None),
                       TimePeriod(15, 15, None), TimePeriod(20, 29, None)]
        self._assert_periods_match_reference(tpi, self._boundary_ts(tpi.periods))

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
            self._assert_periods_match_reference(tpi, span)

    def test_empty_index_and_empty_batch(self):
        tpi = TemporalPartitionIndex(IndexConfig())
        assert tpi.period_indices_for(np.asarray([0, 5])).tolist() == [-1, -1]
        tpi.periods = [TimePeriod(0, 9, None)]
        assert tpi.period_indices_for(np.asarray([], dtype=np.int64)).tolist() == []
        assert tpi.lookup_batch([], [], []) == []

    def test_lookup_batch_agrees_at_boundaries(self):
        self._assert_lookups_match_reference(radius=None)

    def test_lookup_local_batch_agrees_at_boundaries(self):
        self._assert_lookups_match_reference(radius=0.002)

    def _assert_lookups_match_reference(self, radius):
        dataset = drifting_dataset()
        tpi = TemporalPartitionIndex(IndexConfig(epsilon_s=1.0, grid_cell=0.005,
                                                 epsilon_c=0.5, epsilon_d=0.5))
        tpi.build(dataset)
        assert tpi.num_periods >= 2
        probes = []
        for t in self._boundary_ts(tpi.periods):
            for tid in (0, 7):
                traj = dataset.get(tid)
                row = min(max(t, 0), len(traj) - 1)
                probes.append((float(traj.points[row, 0]), float(traj.points[row, 1]), t))
        xs, ys, ts = (np.asarray(v) for v in zip(*probes))
        if radius is None:
            batched = tpi.lookup_batch(xs, ys, ts)
            singles = [tpi.lookup(x, y, t) for x, y, t in probes]
        else:
            batched = tpi.lookup_local_batch(xs, ys, ts, radius)
            singles = [tpi.lookup_local(x, y, t, radius) for x, y, t in probes]
        want = [tpi_candidates(tpi, x, y, t, radius) for x, y, t in probes]
        assert batched == want
        assert singles == want
        assert sum(map(bool, want)) > len(probes) // 2, "few probes hit the index"


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
