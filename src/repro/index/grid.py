"""Per-rectangle grid index with trajectory-ID posting lists.

Each rectangle of the partition index is covered by a uniform grid of cells
of side ``g_c`` (Algorithm 3, line 11).  Every trajectory point falling inside
the rectangle is mapped to its cell and its trajectory ID is added to the
cell's posting list, a sorted tuple of IDs.  The paper stores each list
delta+Huffman compressed (Section 5.1); here that is accounting only:
:meth:`GridIndex.storage_bits` charges every list at its
:mod:`repro.index.idcodec` size, while memory and the model artifact hold
the plain IDs.  A PI's rectangles start out disjoint, but those a TPI
insertion appends may overlap older ones
(:meth:`~repro.index.tpi.TemporalPartitionIndex.insert_slice`); a point
inside several rectangles is posted in each of their grids.

Cell boundaries are anchored at the coordinate origin (cell ``(i, j)`` covers
``[i*g_c, (i+1)*g_c) x [j*g_c, (j+1)*g_c)``), not at the rectangle corner, so
that "the grid cell that (x, y) is in" (Definition 5.2) means the same cell
for every rectangle, every method and the ground truth used in the
experiments.
"""

from __future__ import annotations

import math

import numpy as np

from repro.index.idcodec import compress_ids
from repro.index.rectangles import Rect

#: Paper bits of a one-ID posting list: a 1-bit code, a one-entry code table
#: and the 32-bit base ID and count (102 bits).  96-99.9% of cells hold one ID.
_ONE_ID_BITS = compress_ids((0,)).storage_bits


def encode_cells(cells: np.ndarray) -> np.ndarray:
    """Pack integer ``(cx, cy)`` cell indices into sortable int64 codes.

    The encoding ``(cx << 32) + cy`` is injective for cell indices below
    2^31 in magnitude (far beyond any geographic grid) and is shared by
    :meth:`GridIndex.encoded_table` and the batched PI lookups.
    """
    cells = np.asarray(cells, dtype=np.int64)
    return (cells[..., 0] << np.int64(32)) + cells[..., 1]


class GridIndex:
    """Uniform grid over one rectangle, mapping cells to trajectory-ID lists.

    Parameters
    ----------
    rect:
        The rectangle covered by this grid.
    cell_size:
        Grid cell side length ``g_c``.
    postings:
        Initial cell -> sorted ID tuple map (a restored index); it is kept,
        not copied.
    """

    def __init__(self, rect: Rect, cell_size: float,
                 postings: dict[tuple[int, int], tuple[int, ...]] | None = None) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        self.rect = rect
        self.cell_size = float(cell_size)
        self.num_cells_x = max(1, int(math.ceil(rect.width / self.cell_size)))
        self.num_cells_y = max(1, int(math.ceil(rect.height / self.cell_size)))
        # Cell -> sorted tuple of trajectory IDs.  Cells without points are absent.
        self._postings: dict[tuple[int, int], tuple[int, ...]] = (
            {} if postings is None else postings)
        # Sorted encoded-cell lookup table for the batched query path
        # (built lazily by encoded_table, invalidated on insert).
        self._table: tuple[np.ndarray, list[tuple[int, ...]]] | None = None

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #
    def insert(self, traj_ids: np.ndarray, points: np.ndarray,
               inside: np.ndarray | None = None) -> int:
        """Insert points (with their trajectory IDs) that fall inside the rect.

        Points outside the rectangle are ignored (they belong to a different
        rectangle of the partition index).  ``inside`` is the boolean mask of
        the points inside the rectangle when the caller already has it (a row
        of the PI's containment matrix); otherwise it is computed here.
        Returns the number of points actually inserted.
        """
        traj_ids = np.asarray(traj_ids, dtype=np.int64)
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(traj_ids) != len(points):
            raise ValueError("traj_ids and points must be aligned")
        if inside is None:
            inside = self.rect.contains_points(points)
        cells = self.cells_of(points[inside]).tolist()
        touched: dict[tuple[int, int], set[int]] = {}
        for tid, (cx, cy) in zip(traj_ids[inside].tolist(), cells):
            touched.setdefault((cx, cy), set()).add(tid)
        postings = self._postings
        for cell, ids in touched.items():
            ids.update(postings.get(cell, ()))
            postings[cell] = tuple(sorted(ids))
        if cells:
            self._table = None
        return len(cells)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Globally-anchored grid cell indices of a point."""
        return int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size))

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`cell_of` for an ``(n, 2)`` array of points.

        Returns an ``(n, 2)`` integer array of cell indices, identical row by
        row to calling :meth:`cell_of` on each point.
        """
        points = np.asarray(points, dtype=float)
        return np.floor(points / self.cell_size).astype(np.int64)

    def ids_in_cell(self, cell: tuple[int, int]) -> list[int]:
        """Trajectory IDs stored in one grid cell (empty list if none)."""
        return list(self._postings.get(cell, ()))

    def postings(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The cell -> sorted ID tuple map.

        Treat the returned mapping (and its tuples) as read-only; an insert
        replaces the tuple of every cell it touches.
        """
        return self._postings

    def encoded_table(self) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """Sorted encoded-cell table for batched lookups.

        Returns ``(codes, postings)`` where ``codes`` is a sorted int64 array
        of :func:`encode_cells`-encoded non-empty cells and ``postings[i]``
        is the ID tuple of ``codes[i]``.  Batched lookups resolve all
        candidate cells of all queries against this table with a single
        ``searchsorted`` per grid, instead of one dict probe per (query,
        cell) pair.  Rebuilt lazily after inserts.
        """
        if self._table is None:
            postings = self._postings
            cells = np.array(list(postings), dtype=np.int64).reshape(-1, 2)
            codes = encode_cells(cells)
            lists = list(postings.values())
            order = np.argsort(codes, kind="stable")
            self._table = (codes[order], [lists[i] for i in order.tolist()])
        return self._table

    def lookup(self, x: float, y: float) -> list[int]:
        """Trajectory IDs stored in the cell containing ``(x, y)``."""
        if not self.rect.contains(x, y):
            return []
        return self.ids_in_cell(self.cell_of(x, y))

    def lookup_cells(self, cells) -> set[int]:
        """Union of the ID lists of several cells."""
        result: set[int] = set()
        for cell in cells:
            result.update(self.ids_in_cell(cell))
        return result

    def covers(self, x: float, y: float) -> bool:
        """Whether the point falls inside this grid's rectangle."""
        return self.rect.contains(x, y)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def num_nonempty_cells(self) -> int:
        return len(self._postings)

    @property
    def num_indexed_ids(self) -> int:
        """Total number of (cell, trajectory) postings."""
        return sum(map(len, self._postings.values()))

    def storage_bits(self) -> int:
        """Paper footprint of the grid: cell keys + delta+Huffman posting lists.

        Computed on demand from the ID tuples; a list of several IDs is
        charged at :func:`~repro.index.idcodec.compress_ids`' size.
        """
        bits = 4 * 64 + 2 * 32  # rectangle bounds and grid metadata
        for ids in self._postings.values():
            bits += 2 * 32  # cell coordinates
            bits += _ONE_ID_BITS if len(ids) == 1 else compress_ids(ids).storage_bits
        return bits

    def density(self) -> float:
        """Trajectory region density (Definition 5.1): postings per unit area.

        ``|R_i,gc|`` is taken as the rectangle's area; degenerate (zero-area)
        rectangles fall back to counting postings directly.
        """
        area = self.rect.area
        if area <= 0:
            return float(self.num_indexed_ids)
        return self.num_indexed_ids / area
