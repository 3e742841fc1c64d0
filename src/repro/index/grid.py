"""Per-rectangle grid index with compressed trajectory-ID posting lists.

Each rectangle of the partition index is covered by a uniform grid of cells
of side ``g_c`` (Algorithm 3, line 11).  Every trajectory point falling inside
the rectangle is mapped to its cell and its trajectory ID is appended to the
cell's posting list, which is stored delta+Huffman compressed
(:mod:`repro.index.idcodec`).  A PI's rectangles start out disjoint, but
those a TPI insertion appends may overlap older ones
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

from repro.index.idcodec import CompressedIdList, compress_ids, decompress_ids
from repro.index.rectangles import Rect


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
    """

    def __init__(self, rect: Rect, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        self.rect = rect
        self.cell_size = float(cell_size)
        self.num_cells_x = max(1, int(math.ceil(rect.width / self.cell_size)))
        self.num_cells_y = max(1, int(math.ceil(rect.height / self.cell_size)))
        # Cell -> compressed posting list.  Cells without points are absent.
        self._cells: dict[tuple[int, int], CompressedIdList] = {}
        # Staging area used while the index is being populated.
        self._staging: dict[tuple[int, int], set[int]] = {}
        # Lazily decoded posting lists (cell -> tuple of IDs).  Queries pay
        # the Huffman decode of a cell at most once between inserts; the
        # cache is derivable from the compressed lists, so it is not charged
        # to the index's storage accounting.
        self._decoded: dict[tuple[int, int], tuple[int, ...]] = {}
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
        for tid, (cx, cy) in zip(traj_ids[inside].tolist(), cells):
            self._staging.setdefault((cx, cy), set()).add(tid)
        if cells:
            self._flush()
        return len(cells)

    def _flush(self) -> None:
        """Re-compress the posting lists of cells touched since the last flush."""
        for cell, ids in self._staging.items():
            existing = self._cells.get(cell)
            if existing is not None:
                ids.update(decompress_ids(existing))
            self._cells[cell] = compress_ids(ids)
            self._decoded.pop(cell, None)
        self._table = None
        self._staging.clear()

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
        """Trajectory IDs stored in one grid cell (empty list if none).

        A posting list that does not decode raises what the codec raises
        (``ValueError`` or ``EOFError``).
        """
        decoded = self._decoded.get(cell)
        if decoded is None:
            compressed = self._cells.get(cell)
            if compressed is None:
                return []
            self._decoded[cell] = decoded = tuple(decompress_ids(compressed))
        return list(decoded)

    def decoded_postings(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Decode every posting list once and return the cell -> IDs map.

        The batched lookups read this map directly, turning per-query
        posting-list decompression into one decode per cell per index
        lifetime.  Treat the returned mapping (and its tuples) as read-only;
        it is invalidated cell by cell on insert.
        """
        if len(self._decoded) < len(self._cells):
            for cell, compressed in self._cells.items():
                if cell not in self._decoded:
                    self._decoded[cell] = tuple(decompress_ids(compressed))
        return self._decoded

    def encoded_table(self) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """Sorted encoded-cell table for batched lookups.

        Returns ``(codes, postings)`` where ``codes`` is a sorted int64 array
        of :func:`encode_cells`-encoded non-empty cells and ``postings[i]``
        is the decoded ID tuple of ``codes[i]``.  Batched lookups resolve all
        candidate cells of all queries against this table with a single
        ``searchsorted`` per grid, instead of one dict probe per (query,
        cell) pair.  Rebuilt lazily after inserts.
        """
        if self._table is None:
            postings = self.decoded_postings()
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
        return len(self._cells)

    @property
    def num_indexed_ids(self) -> int:
        """Total number of (cell, trajectory) postings."""
        return sum(cl.count for cl in self._cells.values())

    def storage_bits(self) -> int:
        """Storage footprint of the grid: cell keys + compressed posting lists."""
        bits = 0
        for compressed in self._cells.values():
            bits += 2 * 32  # cell coordinates
            bits += compressed.storage_bits
        # Rectangle bounds and grid metadata.
        bits += 4 * 64 + 2 * 32
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
