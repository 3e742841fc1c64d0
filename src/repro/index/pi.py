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

Queries probe one cell table per PI (:class:`_CellTable`) that covers all of
its grids, so a batch of queries costs one ``searchsorted`` and a single
query is a batch of one.  An entry of the table counts for a query only when
one of its grids passes the rectangle test of the PI's containment matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import IndexConfig
from repro.core.partitioning import partition_points
from repro.cqc.local_search import cells_within_radius
from repro.index.grid import GridIndex, encode_cells
from repro.index.rectangles import Rect, minimum_bounding_rect, remove_overlap

#: Encoded offsets of the 3x3 local-search neighbourhood (``r <= g_c`` case):
#: a cell's code plus one of them is the code of that neighbour.
_NEIGHBOR_CODES = encode_cells(np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
                                        dtype=np.int64))


@dataclass(frozen=True)
class _CellTable:
    """Every distinct posting of a PI's grids, sorted by encoded cell.

    Entry ``k`` is the ID tuple ``lists[k]`` posted at cell ``codes[k]`` by
    the grids whose bits are set in ``holders[k]`` (bit ``g`` stands for
    grid ``g``).  A tuple that several overlapping grids post at one cell is
    one entry, holding the first grid's tuple object.  All grids share one
    cell size, ``cell_size``.
    """

    codes: np.ndarray
    lists: list[tuple[int, ...]]
    holders: list[int]
    cell_size: float

    @classmethod
    def build(cls, grids: list[GridIndex]) -> "_CellTable":
        cell_size = grids[0].cell_size
        if any(grid.cell_size != cell_size for grid in grids):
            raise ValueError("the grids of one partition index must share a cell size")
        codes, tuples, posters = [], [], []
        for gi, grid in enumerate(grids):
            postings = grid.postings()
            codes.append(encode_cells(np.array(list(postings), dtype=np.int64).reshape(-1, 2)))
            tuples.extend(postings.values())
            posters.extend([1 << gi] * len(postings))
        codes = np.concatenate(codes)
        order = np.argsort(codes, kind="stable")
        entry_codes, lists, holders = [], [], []
        previous, entries = None, {}
        for code, row in zip(codes[order].tolist(), order.tolist()):
            if code != previous:
                previous, entries = code, {}
            entry = entries.get(tuples[row])
            if entry is None:
                entry = entries[tuples[row]] = len(lists)
                entry_codes.append(code)
                lists.append(tuples[row])
                holders.append(0)
            holders[entry] |= posters[row]
        return cls(np.array(entry_codes, dtype=np.int64), lists, holders, cell_size)


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
    # Cached rectangle corners and cell sizes, rebuilt lazily when the grid
    # list grows (rectangles themselves are immutable).
    _bounds: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    # The cell table queries probe; every insert and append drops it.
    _table: _CellTable | None = field(default=None, repr=False, compare=False)

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
        self._table = None
        for gi in np.flatnonzero(inside.any(axis=1)).tolist():
            self.grids[gi].insert(traj_ids, points, inside[gi])
        return inside.any(axis=0)

    def append_grids(self, other: "PartitionIndex") -> None:
        """Append another PI's rectangles (the *insertion* case of TPI)."""
        self._table = None
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
    def lookup_batch(self, points: np.ndarray) -> list[list[int]]:
        """Trajectory IDs posted at each point's grid cell, one sorted list per point.

        Only the grids whose rectangle contains the point count.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if not self.grids:
            return [[] for _ in range(len(points))]
        return self._probe(self._cell_codes(points), range(len(points)),
                           self._containment_matrix(points, slack=None))

    def lookup_local_batch(self, points: np.ndarray, radius: float) -> list[list[int]]:
        """Local-search lookup (Section 5.2) around each point.

        When ``radius`` exceeds the grid cell size every cell intersecting the
        disc is probed; otherwise the point's cell and its eight neighbours
        are.  Grids whose rectangle lies within ``radius + g_c`` of the point
        count even when the point itself falls just outside them (indexed
        reconstructions deviate from the true positions by up to the CQC
        bound).  The caller does any distance-based filtering.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if not self.grids:
            return [[] for _ in range(len(points))]
        cell_size = self._probe_table().cell_size
        if radius > cell_size:
            per_query = [cells_within_radius((x, y), radius, (0.0, 0.0), cell_size)
                         for x, y in points.tolist()]
            codes = encode_cells(np.asarray(
                [cell for cells in per_query for cell in cells], dtype=np.int64).reshape(-1, 2))
            owners = [q for q, cells in enumerate(per_query) for _ in cells]
        else:
            codes = (self._cell_codes(points)[:, None] + _NEIGHBOR_CODES).ravel()
            owners = np.arange(len(points)).repeat(len(_NEIGHBOR_CODES)).tolist()
        return self._probe(codes, owners, self._containment_matrix(points, slack=max(radius, 0.0)))

    def _cell_codes(self, points: np.ndarray) -> np.ndarray:
        """Encoded cell of each query point under the PI's one cell size."""
        return encode_cells(np.floor(points / self._probe_table().cell_size).astype(np.int64))

    def _probe(self, codes: np.ndarray, owners, inside: np.ndarray) -> list[list[int]]:
        """Union the postings of candidate cells into each query's answer.

        ``codes[k]`` is a candidate cell of query ``owners[k]`` (a query's
        cells are distinct); ``inside`` is the containment matrix of the
        queries.  One ``searchsorted`` finds every candidate's entries in
        the cell table, and an entry counts only when one of its grids
        contains the query.
        """
        table = self._probe_table()
        # Bit g of passing[q] is set when grid g contains query q.
        passing = [int.from_bytes(column.tobytes(), "little")
                   for column in np.packbits(inside, axis=0, bitorder="little").T]
        found: list[set[int]] = [set() for _ in passing]
        holders, lists = table.holders, table.lists
        for owner, first, last in zip(owners, table.codes.searchsorted(codes, "left").tolist(),
                                      table.codes.searchsorted(codes, "right").tolist()):
            for entry in range(first, last):
                if holders[entry] & passing[owner]:
                    found[owner].update(lists[entry])
        return [sorted(ids) for ids in found]

    def _containment_matrix(self, points: np.ndarray, slack: float | None) -> np.ndarray:
        """Boolean (num_grids, num_points) rectangle-containment matrix.

        ``slack`` of ``None`` tests the rectangles as-is, with the same
        closed bounds as :meth:`Rect.contains_points`; otherwise each
        rectangle is expanded by ``slack + cell_size`` on every side (the
        local-search test).  Row sums are per-rectangle point counts, and
        ``any(axis=0)`` is the covered mask.
        """
        lower, upper, cell_size = self._grid_bounds()
        if slack is not None:
            margin = slack + cell_size
            lower, upper = lower - margin, upper + margin
        inside = (points >= lower) & (points <= upper)
        return inside[..., 0] & inside[..., 1]

    def _grid_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached rectangle corners ``(G, 1, 2)`` and cell sizes ``(G, 1, 1)``."""
        if self._bounds is None or len(self._bounds[0]) != len(self.grids):
            rows = np.array([[g.rect.min_x, g.rect.min_y, g.rect.max_x, g.rect.max_y, g.cell_size]
                             for g in self.grids], dtype=float).reshape(-1, 1, 5)
            self._bounds = (rows[..., :2].copy(), rows[..., 2:4].copy(), rows[..., 4:].copy())
        return self._bounds

    def _probe_table(self) -> _CellTable:
        """The cell table over all grids, built on first use after a change."""
        if self._table is None:
            self._table = _CellTable.build(self.grids)
        return self._table

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
