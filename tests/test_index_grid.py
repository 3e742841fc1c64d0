"""Tests for the per-rectangle grid index."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.index.grid import GridIndex
from repro.index.idcodec import compress_ids
from repro.index.pi import PartitionIndex
from repro.index.rectangles import Rect


@pytest.fixture()
def grid():
    return GridIndex(Rect(0.0, 0.0, 10.0, 10.0), cell_size=1.0)


class TestInsertAndLookup:
    def test_insert_and_lookup(self, grid):
        ids = np.array([1, 2, 3])
        points = np.array([[0.5, 0.5], [0.6, 0.4], [5.5, 5.5]])
        inserted = grid.insert(ids, points)
        assert inserted == 3
        assert sorted(grid.lookup(0.5, 0.5)) == [1, 2]
        assert grid.lookup(5.1, 5.9) == [3]

    def test_points_outside_rect_ignored(self, grid):
        inserted = grid.insert(np.array([9]), np.array([[20.0, 20.0]]))
        assert inserted == 0
        assert grid.num_indexed_ids == 0

    def test_lookup_outside_rect_empty(self, grid):
        grid.insert(np.array([1]), np.array([[0.5, 0.5]]))
        assert grid.lookup(50.0, 50.0) == []

    def test_duplicate_ids_in_cell_stored_once(self, grid):
        grid.insert(np.array([7, 7]), np.array([[0.1, 0.1], [0.2, 0.2]]))
        assert grid.lookup(0.15, 0.15) == [7]

    def test_incremental_insert_extends_posting_list(self, grid):
        grid.insert(np.array([1]), np.array([[0.5, 0.5]]))
        grid.insert(np.array([2]), np.array([[0.4, 0.6]]))
        assert sorted(grid.lookup(0.5, 0.5)) == [1, 2]

    def test_alignment_validation(self, grid):
        with pytest.raises(ValueError):
            grid.insert(np.array([1, 2]), np.array([[0.0, 0.0]]))

    def test_cell_of_is_globally_anchored(self, grid):
        # Cell boundaries sit at multiples of the cell size in absolute
        # coordinates, so the same point maps to the same cell in every grid.
        assert grid.cell_of(0.5, 0.5) == (0, 0)
        assert grid.cell_of(1.0, 2.7) == (1, 2)
        assert grid.cell_of(-0.1, 0.0) == (-1, 0)

    def test_lookup_cells_union(self, grid):
        grid.insert(np.array([1, 2]), np.array([[0.5, 0.5], [1.5, 0.5]]))
        result = grid.lookup_cells([(0, 0), (1, 0), (5, 5)])
        assert result == {1, 2}

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(Rect(0, 0, 1, 1), cell_size=0.0)


class TestStatistics:
    def test_counts(self, grid):
        grid.insert(np.array([1, 2, 3]), np.array([[0.5, 0.5], [0.6, 0.6], [3.5, 3.5]]))
        assert grid.num_nonempty_cells == 2
        assert grid.num_indexed_ids == 3

    def test_density_definition(self):
        grid = GridIndex(Rect(0.0, 0.0, 2.0, 2.0), cell_size=1.0)
        grid.insert(np.array([1, 2]), np.array([[0.5, 0.5], [1.5, 1.5]]))
        # TRD = postings / area = 2 / 4.
        assert grid.density() == pytest.approx(0.5)

    def test_count_for_points(self, grid):
        # A rectangle's point count is its row sum in the PI's containment
        # matrix (the TRD updates of the TPI read it from there).
        pi = PartitionIndex(t=0, grids=[grid])
        points = np.array([[0.5, 0.5], [100.0, 100.0], [9.0, 9.0]])
        assert pi._containment_matrix(points, slack=None).sum(axis=1).tolist() == [2]
        assert pi._containment_matrix(np.empty((0, 2)), slack=None).sum(axis=1).tolist() == [0]

    def test_insert_takes_mask_from_caller(self, grid):
        points = np.array([[0.5, 0.5], [100.0, 100.0], [9.0, 9.0]])
        assert grid.insert(np.array([1, 2, 3]), points, np.array([True, False, False])) == 1
        assert grid.num_indexed_ids == 1
        assert grid.lookup(9.0, 9.0) == []

    def test_storage_bits_grow_with_content(self, grid):
        empty_bits = grid.storage_bits()
        grid.insert(np.arange(50), np.random.default_rng(0).uniform(0, 10, size=(50, 2)))
        assert grid.storage_bits() > empty_bits

    def test_num_cells_dimensions(self):
        grid = GridIndex(Rect(0.0, 0.0, 2.5, 1.2), cell_size=1.0)
        assert grid.num_cells_x == 3
        assert grid.num_cells_y == 2


@given(st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                       st.lists(st.integers(0, 5000), min_size=1, max_size=12),
                       max_size=30))
@example({(0, 0): [7]})                                   # one ID
@example({(0, 0): [3, 9, 12], (4, 1): [40]})              # several IDs
@example({(2, 2): [5, 5, 5], (3, 7): [8, 1, 8, 2]})       # repeated IDs
def test_storage_bits_are_the_codec_sizes(postings):
    """Section 5.1 accounting: grid metadata, then per cell a 64-bit key and
    the delta+Huffman list as :func:`compress_ids` sizes it."""
    grid = GridIndex(Rect(0.0, 0.0, 10.0, 10.0), cell_size=1.0)
    cells = [cell for cell, ids in postings.items() for _ in ids]
    ids = [tid for members in postings.values() for tid in members]
    grid.insert(np.asarray(ids, dtype=np.int64),
                np.asarray(cells, dtype=float).reshape(-1, 2) + 0.5)
    assert grid.postings() == {cell: tuple(sorted(set(members)))
                               for cell, members in postings.items()}
    assert grid.storage_bits() == 4 * 64 + 2 * 32 + sum(
        64 + compress_ids(members).storage_bits for members in postings.values())
