"""Tests for the partition-based index (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.config import IndexConfig
from repro.index.grid import GridIndex
from repro.index.pi import PartitionIndex, build_partition_index
from repro.index.rectangles import Rect


def covered_mask(pi, points):
    """Which points fall inside any of the PI's rectangles."""
    return pi._containment_matrix(np.asarray(points, dtype=float), slack=None).any(axis=0)


@pytest.fixture()
def two_cluster_slice():
    rng = np.random.default_rng(0)
    cluster_a = rng.normal(loc=[0.0, 0.0], scale=0.01, size=(30, 2))
    cluster_b = rng.normal(loc=[1.0, 1.0], scale=0.01, size=(30, 2))
    points = np.vstack([cluster_a, cluster_b])
    traj_ids = np.arange(60)
    return traj_ids, points


class TestBuild:
    def test_every_point_is_indexed(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        assert pi.num_indexed_ids == len(points)

    def test_empty_slice(self):
        pi = build_partition_index(0, np.empty(0, dtype=int), np.empty((0, 2)), IndexConfig())
        assert pi.num_rectangles == 0
        assert pi.lookup(0.0, 0.0) == []

    def test_rectangles_are_disjoint(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        rects = [g.rect for g in pi.grids]
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert not a.intersects(b)

    def test_lookup_returns_cell_mates(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        config = IndexConfig(epsilon_s=0.1, grid_cell=0.005)
        pi = build_partition_index(0, traj_ids, points, config)
        x, y = points[0]
        result = pi.lookup(x, y)
        assert 0 in result
        # All returned trajectories must be close to the query point (within
        # a cell diagonal of the same grid).
        for tid in result:
            distance = np.linalg.norm(points[tid] - points[0])
            assert distance <= np.sqrt(2) * config.grid_cell + 1e-9

    def test_lookup_local_is_superset(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        config = IndexConfig(epsilon_s=0.1, grid_cell=0.005)
        pi = build_partition_index(0, traj_ids, points, config)
        x, y = points[5]
        plain = set(pi.lookup(x, y))
        local = set(pi.lookup_local(x, y, radius=0.004))
        assert plain <= local

    def test_covered_mask(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        assert np.all(covered_mask(pi, points))
        assert not covered_mask(pi, np.array([[50.0, 50.0]]))[0]

    def test_insert_reports_coverage(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        new_points = np.array([[0.0, 0.0], [100.0, 100.0]])
        covered = pi.insert(np.array([100, 101]), new_points)
        assert covered[0] and not covered[1]

    def test_storage_and_densities(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        assert pi.storage_bits() > 0
        assert len(pi.densities()) == pi.num_rectangles
        assert len(pi.baseline_density) == pi.num_rectangles

    def test_extend_with_keeps_rectangles_disjoint(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        config = IndexConfig(epsilon_s=0.1, grid_cell=0.01)
        pi = build_partition_index(0, traj_ids[:30], points[:30], config)
        added = pi.extend_with(traj_ids[30:], points[30:], seed=1)
        assert added >= 1
        rects = [g.rect for g in pi.grids]
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert not a.intersects(b)
        # The new points are now covered and findable.
        assert np.all(covered_mask(pi, points[30:]))
        assert pi.lookup(*points[45]) != []

    def test_extend_with_empty_is_noop(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        before = pi.num_rectangles
        assert pi.extend_with(np.empty(0, dtype=int), np.empty((0, 2))) == 0
        assert pi.num_rectangles == before

    def test_append_grids(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        config = IndexConfig(epsilon_s=0.1, grid_cell=0.01)
        pi = build_partition_index(0, traj_ids[:30], points[:30], config)
        other = build_partition_index(0, traj_ids[30:], points[30:], config)
        before = pi.num_rectangles
        pi.append_grids(other)
        assert pi.num_rectangles == before + other.num_rectangles
        assert pi.lookup(*points[45]) != []


class TestContainmentPass:
    """The containment matrix against a per-rectangle ``Rect.contains_points``."""

    @pytest.fixture()
    def shared_edges(self):
        # Three rectangles that meet along x = 1 and y = 1, and a degenerate
        # (zero-width) one on the line x = 3.
        rects = [Rect(0.0, 0.0, 1.0, 1.0), Rect(1.0, 0.0, 2.0, 1.0),
                 Rect(0.0, 1.0, 2.0, 2.0), Rect(3.0, 0.0, 3.0, 2.0)]
        pi = PartitionIndex(t=0, grids=[GridIndex(r, 0.25) for r in rects])
        below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        points = np.array([
            [1.0, 0.5], [0.5, 1.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0],   # edges, corners
            [below, 0.5], [above, 0.5], [0.5, below], [0.5, above],       # one ulp off
            [3.0, 1.0], [3.0, 2.0], [np.nextafter(3.0, 4.0), 1.0],         # degenerate rect
            [2.5, 0.5], [-1e-12, 0.5], [2.0, 2.0 + 1e-12],                # outside
        ])
        return pi, points

    def test_counts_and_covered_mask_match_reference(self, shared_edges):
        pi, points = shared_edges
        reference = np.array([g.rect.contains_points(points) for g in pi.grids])
        inside = pi._containment_matrix(points, slack=None)
        assert np.array_equal(inside, reference)
        assert inside.sum(axis=1).tolist() == [int(row.sum()) for row in reference]
        assert np.array_equal(covered_mask(pi, points), reference.any(axis=0))
        # The fixture exercises both sides of every boundary.
        assert reference.sum(axis=0).max() >= 3 and not reference.any(axis=0).all()

    def test_insert_puts_edge_points_into_every_containing_grid(self, shared_edges):
        pi, points = shared_edges
        reference = np.array([g.rect.contains_points(points) for g in pi.grids])
        covered = pi.insert(np.arange(len(points)), points)
        assert np.array_equal(covered, reference.any(axis=0))
        for grid, row in zip(pi.grids, reference):
            assert grid.num_indexed_ids == int(row.sum())
