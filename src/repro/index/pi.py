"""Partition-based index (PI) for one timestamp -- Algorithm 3 of the paper.

Building a PI for the points of timestamp ``t``:

1. partition the points with the spatial criterion and threshold ``eps_s``
   (same procedure as PPQ partitioning, Equation 7 with ``eps_s``);
2. cover each partition with its minimum bounding rectangle;
3. remove overlaps against previously emitted rectangles, splitting the
   remainder into disjoint rectangles;
4. build a grid index (cell ``g_c``) per rectangle and insert every point's
   trajectory ID into its cell's posting list.

The rectangles of a freshly built PI are disjoint.  A TPI insertion
(:meth:`~repro.index.tpi.TemporalPartitionIndex.insert_slice`) appends the
rectangles of a new PI built over the uncovered points, and those may overlap
older ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import IndexConfig
from repro.core.partitioning import partition_points
from repro.cqc.local_search import cells_within_radius, neighbor_cells
from repro.index.grid import GridIndex, encode_cells
from repro.index.rectangles import Rect, minimum_bounding_rect, remove_overlap

#: Cell offsets of the 3x3 local-search neighbourhood (``r <= g_c`` case),
#: pre-built for the broadcast path of :meth:`PartitionIndex.lookup_local_batch`.
_NEIGHBOR_OFFSETS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
                             dtype=np.int64)


@dataclass
class PartitionIndex:
    """The PI of one timestamp: a list of grid-indexed rectangles.

    Attributes
    ----------
    t:
        Timestamp the PI was built for (the earliest one when reused by TPI).
    grids:
        One :class:`~repro.index.grid.GridIndex` per rectangle.  The
        rectangles of one build are disjoint; those appended by a TPI
        insertion (:meth:`append_grids`) may overlap earlier ones.
    config:
        The index configuration the PI was built with.
    baseline_density:
        Rectangle densities at build time; the TPI compares current densities
        against these to compute the TRD dropping rate.
    """

    t: int
    grids: list[GridIndex] = field(default_factory=list)
    config: IndexConfig = field(default_factory=IndexConfig)
    baseline_density: list[float] = field(default_factory=list)
    # Cached (num_grids, 5) matrix of rectangle bounds + cell size, rebuilt
    # lazily when the grid list grows (rectangles themselves are immutable).
    _bounds: np.ndarray | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # building / updating
    # ------------------------------------------------------------------ #
    def insert(self, traj_ids: np.ndarray, points: np.ndarray,
               inside: np.ndarray | None = None) -> np.ndarray:
        """Insert points into the grids that cover them.

        ``inside`` is this PI's :meth:`_containment_matrix` of ``points``
        (``slack=None``) when the caller already has it; otherwise it is
        computed here.  Returns a boolean mask of the points that were
        covered by at least one rectangle (uncovered points are the ``T_uc``
        of Algorithm 4).
        """
        traj_ids = np.asarray(traj_ids, dtype=np.int64)
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if inside is None:
            inside = self._containment_matrix(points, slack=None)
        for gi in np.flatnonzero(inside.any(axis=1)).tolist():
            self.grids[gi].insert(traj_ids, points, inside[gi])
        return inside.any(axis=0)

    def append_grids(self, other: "PartitionIndex") -> None:
        """Append another PI's rectangles (the *insertion* case of TPI)."""
        self.grids.extend(other.grids)
        self.baseline_density.extend(other.baseline_density)

    def extend_with(self, traj_ids: np.ndarray, points: np.ndarray, seed: int = 0) -> int:
        """Index previously uncovered points by growing the rectangle set.

        This is the *insertion* step of Algorithm 4: the uncovered points are
        partitioned with the same ``eps_s`` criterion, covered with minimum
        bounding rectangles, and -- exactly as in Algorithm 3 -- the parts
        already covered by this PI's existing rectangles are removed so the
        rectangle set stays disjoint (every point is indexed by exactly one
        grid).  Returns the number of rectangles added.
        """
        traj_ids = np.asarray(traj_ids, dtype=np.int64)
        points = np.asarray(points, dtype=float)
        if len(points) == 0:
            return 0
        labels, _centroids, _rounds = partition_points(points, self.config.epsilon_s, seed=seed)
        existing = [grid.rect for grid in self.grids]
        padding = self.config.grid_cell * 0.5
        added = 0
        for label in np.unique(labels):
            members = points[labels == label]
            rect = minimum_bounding_rect(members, padding=padding)
            for piece in remove_overlap(rect, existing):
                grid = GridIndex(piece, self.config.grid_cell)
                self.grids.append(grid)
                existing.append(piece)
                self.baseline_density.append(0.0)
                added += 1
        self.insert(traj_ids, points)
        # Newly added rectangles take their current density as the baseline.
        for offset in range(len(self.grids) - added, len(self.grids)):
            self.baseline_density[offset] = self.grids[offset].density()
        return added

    def snapshot_density(self) -> None:
        """Record current rectangle densities as the TRD baseline."""
        self.baseline_density = [grid.density() for grid in self.grids]

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def lookup(self, x: float, y: float) -> list[int]:
        """Trajectory IDs whose indexed point shares the grid cell of (x, y)."""
        result: set[int] = set()
        for grid in self.grids:
            if grid.covers(x, y):
                result.update(grid.lookup(x, y))
        return sorted(result)

    def lookup_batch(self, points: np.ndarray) -> list[list[int]]:
        """Vectorised :meth:`lookup` for many query points at once.

        One pass is made over the grids: each grid tests every query point
        against its rectangle with a single vectorised containment check and
        resolves all matching queries' cells against its sorted encoded-cell
        table in one ``searchsorted``.  Entry ``i`` of the result is exactly
        ``self.lookup(points[i, 0], points[i, 1])``.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        found: list[set[int]] = [set() for _ in range(len(points))]
        if len(points) == 0:
            return []
        inside = self._containment_matrix(points, slack=None)
        for gi in np.nonzero(inside.any(axis=1))[0]:
            grid = self.grids[gi]
            queries = np.nonzero(inside[gi])[0]
            codes = encode_cells(grid.cells_of(points[queries]))
            self._scatter_postings(grid, codes, queries, found)
        return [sorted(ids) for ids in found]

    def lookup_local_batch(self, points: np.ndarray, radius: float) -> list[list[int]]:
        """Vectorised :meth:`lookup_local` for many query points at once.

        Same candidate semantics as the scalar version (entry ``i`` equals
        ``self.lookup_local(points[i, 0], points[i, 1], radius)``), but the
        rectangle slack test is broadcast over the whole batch and every
        query's candidate cells are matched against the grid's encoded-cell
        table with a single ``searchsorted`` per grid.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        found: list[set[int]] = [set() for _ in range(len(points))]
        if len(points) == 0:
            return []
        inside = self._containment_matrix(points, slack=max(radius, 0.0))
        for gi in np.nonzero(inside.any(axis=1))[0]:
            grid = self.grids[gi]
            queries = np.nonzero(inside[gi])[0]
            if radius > grid.cell_size:
                per_query_cells = [
                    cells_within_radius(
                        (points[qi, 0], points[qi, 1]), radius, (0.0, 0.0), grid.cell_size
                    )
                    for qi in queries
                ]
                lengths = [len(cells) for cells in per_query_cells]
                flat = [cell for cells in per_query_cells for cell in cells]
                codes = encode_cells(np.asarray(flat, dtype=np.int64).reshape(-1, 2))
                owners = np.repeat(queries, lengths)
            else:
                # 3x3 neighbourhood per query, broadcast in one shot.
                blocks = (grid.cells_of(points[queries])[:, None, :]
                          + _NEIGHBOR_OFFSETS[None, :, :])
                codes = encode_cells(blocks).ravel()
                owners = np.repeat(queries, _NEIGHBOR_OFFSETS.shape[0])
            self._scatter_postings(grid, codes, owners, found)
        return [sorted(ids) for ids in found]

    def _containment_matrix(self, points: np.ndarray, slack: float | None) -> np.ndarray:
        """Boolean (num_grids, num_points) rectangle-containment matrix.

        ``slack`` of ``None`` tests the rectangles as-is, with the same
        closed bounds as :meth:`Rect.contains_points`; otherwise each
        rectangle is expanded by ``slack + cell_size`` on every side, exactly
        like the scalar local-search lookup.  One broadcast replaces a
        Python-level rectangle test per (grid, point) pair.  Row sums are
        per-rectangle point counts, and ``any(axis=0)`` is the covered mask.
        """
        bounds = self._grid_bounds()
        if len(bounds) == 0:
            return np.zeros((0, len(points)), dtype=bool)
        margin = 0.0 if slack is None else slack + bounds[:, 4]
        min_x = bounds[:, 0] - margin
        min_y = bounds[:, 1] - margin
        max_x = bounds[:, 2] + margin
        max_y = bounds[:, 3] + margin
        xs = points[:, 0]
        ys = points[:, 1]
        return ((xs >= min_x[:, None]) & (xs <= max_x[:, None])
                & (ys >= min_y[:, None]) & (ys <= max_y[:, None]))

    def _grid_bounds(self) -> np.ndarray:
        """Cached per-grid ``(min_x, min_y, max_x, max_y, cell_size)`` rows."""
        if self._bounds is None or len(self._bounds) != len(self.grids):
            self._bounds = np.array(
                [[g.rect.min_x, g.rect.min_y, g.rect.max_x, g.rect.max_y, g.cell_size]
                 for g in self.grids], dtype=float,
            ).reshape(len(self.grids), 5)
        return self._bounds

    @staticmethod
    def _scatter_postings(grid: GridIndex, codes: np.ndarray, owners: np.ndarray,
                          found: list[set[int]]) -> None:
        """Union each matched cell's postings into its owning query's set.

        ``codes`` are encoded candidate cells, ``owners`` the parallel array
        of query indices.  Cells are matched against the grid's sorted table
        with one ``searchsorted``; only non-empty cells reach the Python
        loop.
        """
        table_codes, table_postings = grid.encoded_table()
        if len(table_codes) == 0 or len(codes) == 0:
            return
        positions = np.searchsorted(table_codes, codes)
        positions[positions == len(table_codes)] = 0
        hits = table_codes[positions] == codes
        for qi, pos in zip(owners[hits].tolist(), positions[hits].tolist()):
            found[qi].update(table_postings[pos])

    def lookup_local(self, x: float, y: float, radius: float) -> list[int]:
        """Local-search lookup (Section 5.2) around ``(x, y)``.

        When ``radius`` exceeds the grid cell size every cell intersecting the
        disc is scanned; otherwise the query cell and its neighbours are
        scanned.  Grids whose rectangle lies within ``radius + g_c`` of the
        query point participate even when the point itself falls just outside
        them (indexed reconstructions deviate from the true positions by up to
        the CQC bound).  The caller is responsible for any distance-based
        filtering of the returned candidates.
        """
        result: set[int] = set()
        for grid in self.grids:
            slack = max(radius, 0.0) + grid.cell_size
            if not grid.rect.expanded(slack).contains(x, y):
                continue
            if radius > grid.cell_size:
                cells = cells_within_radius((x, y), radius, (0.0, 0.0), grid.cell_size)
            else:
                cells = neighbor_cells(grid.cell_of(x, y))
            result.update(grid.lookup_cells(cells))
        return sorted(result)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def num_rectangles(self) -> int:
        return len(self.grids)

    @property
    def num_indexed_ids(self) -> int:
        return sum(grid.num_indexed_ids for grid in self.grids)

    def storage_bits(self) -> int:
        """Total storage footprint of the PI in bits."""
        return sum(grid.storage_bits() for grid in self.grids) + 64

    def densities(self) -> list[float]:
        """Current TRD of each rectangle."""
        return [grid.density() for grid in self.grids]


def build_partition_index(t: int, traj_ids: np.ndarray, points: np.ndarray,
                          config: IndexConfig, seed: int = 0) -> PartitionIndex:
    """Build the PI of one timestamp (Algorithm 3).

    Parameters
    ----------
    t:
        Timestamp being indexed.
    traj_ids, points:
        Aligned arrays of trajectory IDs and positions at ``t``.
    config:
        Index parameters (``epsilon_s``, ``grid_cell``).
    seed:
        Random seed for the partitioning step.
    """
    traj_ids = np.asarray(traj_ids, dtype=np.int64)
    points = np.asarray(points, dtype=float)
    pi = PartitionIndex(t=int(t), config=config)
    if len(points) == 0:
        return pi

    labels, _centroids, _rounds = partition_points(
        points, config.epsilon_s, seed=seed
    )
    region_list: list[Rect] = []
    grids: list[GridIndex] = []
    # Pad every rectangle by half a grid cell so that degenerate partitions
    # (a single point) still cover a full cell and nearby points inserted at
    # later timestamps remain covered.
    padding = config.grid_cell * 0.5
    for label in np.unique(labels):
        members = points[labels == label]
        rect = minimum_bounding_rect(members, padding=padding)
        pieces = remove_overlap(rect, region_list)
        for piece in pieces:
            region_list.append(piece)
            grids.append(GridIndex(piece, config.grid_cell))
    pi.grids = grids
    pi.insert(traj_ids, points)
    pi.snapshot_density()
    return pi
