"""Tests for the local-search cell enumeration helpers."""

import math

import pytest

from repro.cqc.local_search import cells_within_radius, search_radius


class TestSearchRadius:
    def test_formula(self):
        assert search_radius(1.0) == pytest.approx(math.sqrt(2) / 2)

    def test_scales_linearly(self):
        assert search_radius(2.0) == pytest.approx(2 * search_radius(1.0))


class TestCellsWithinRadius:
    def test_radius_smaller_than_cell_returns_at_most_four(self):
        cells = cells_within_radius((0.55, 0.55), radius=0.1, origin=(0.0, 0.0), cell_size=1.0)
        assert (0, 0) in cells
        assert len(cells) <= 4

    def test_large_radius_covers_many_cells(self):
        cells = cells_within_radius((5.0, 5.0), radius=2.5, origin=(0.0, 0.0), cell_size=1.0)
        # The disc of radius 2.5 around (5,5) spans cells 2..7 in each axis.
        assert (4, 4) in cells
        assert (7, 5) in cells
        assert (0, 0) not in cells

    def test_cells_actually_intersect_disc(self):
        point = (3.3, 4.7)
        radius = 1.7
        cells = cells_within_radius(point, radius, origin=(0.0, 0.0), cell_size=1.0)
        for ix, iy in cells:
            nearest_x = min(max(point[0], ix), ix + 1.0)
            nearest_y = min(max(point[1], iy), iy + 1.0)
            assert (nearest_x - point[0]) ** 2 + (nearest_y - point[1]) ** 2 <= radius ** 2 + 1e-9

    def test_query_cell_always_included(self):
        cells = cells_within_radius((2.5, 2.5), radius=0.01, origin=(0.0, 0.0), cell_size=1.0)
        assert (2, 2) in cells

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            cells_within_radius((0.0, 0.0), 1.0, (0.0, 0.0), 0.0)
