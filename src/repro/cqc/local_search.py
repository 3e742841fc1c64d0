"""Local-search helpers for exact query answering (Section 5.2).

CQC bounds the deviation between a true point and its refined reconstruction
by ``r = √2/2 · g_s`` (Lemma 3).  When the summary is used as an index, the
query point's grid cell alone may therefore miss trajectories whose true
position is near a cell border; the local search widens the candidate space:

* when ``r > g_c`` every index cell intersected by the radius-``r`` disc
  around the query point must be scanned;
* when ``r <= g_c`` (the common case, because ``g_s`` is chosen smaller than
  ``g_c``) scanning the query cell and its adjacent cells and keeping only
  reconstructions within ``r`` of the query point is sufficient.

:func:`cells_within_radius` enumerates the disc's cells; the 3x3 block is
built by the partition index's probe, and the filtering happens in
:func:`repro.queries.batch.batch_exact`.
"""

from __future__ import annotations

import math

import numpy as np


def search_radius(grid_size: float) -> float:
    """Lemma 3 deviation bound ``√2/2 · g_s`` for a CQC grid size."""
    return math.sqrt(2.0) / 2.0 * float(grid_size)


def within_radius_mask(points: np.ndarray, center: tuple[float, float],
                       radius: float) -> np.ndarray:
    """Broadcast distance filter: which ``points`` lie within ``radius``.

    Vectorised replacement for per-point ``norm(p - center) <= radius``
    checks; :func:`cells_within_radius` uses it to test every candidate
    cell's nearest point against the disc in one NumPy operation.  Boundary
    points (distance exactly ``radius``) are kept (closed disc).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    delta = points - np.asarray(center, dtype=float)
    return np.einsum("ij,ij->i", delta, delta) <= float(radius) ** 2


def cells_within_radius(point: tuple[float, float], radius: float, origin: tuple[float, float],
                        cell_size: float) -> list[tuple[int, int]]:
    """All grid cells intersecting the disc of ``radius`` around ``point``.

    Parameters
    ----------
    point:
        Query location ``(x, y)``.
    radius:
        Search radius (``√2/2 · g_s`` for the ``r > g_c`` case).
    origin:
        Lower-left corner of the grid.
    cell_size:
        Grid cell side length ``g_c``.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be > 0")
    px, py = point
    ox, oy = origin
    min_ix = math.floor((px - radius - ox) / cell_size)
    max_ix = math.floor((px + radius - ox) / cell_size)
    min_iy = math.floor((py - radius - oy) / cell_size)
    max_iy = math.floor((py + radius - oy) / cell_size)
    # Broadcast the disc/rectangle intersection test over the whole candidate
    # block: a cell intersects the disc iff its nearest point to the query is
    # within the radius.
    ix, iy = np.meshgrid(np.arange(min_ix, max_ix + 1), np.arange(min_iy, max_iy + 1),
                         indexing="ij")
    cell_min_x = ox + ix * cell_size
    cell_min_y = oy + iy * cell_size
    nearest = np.stack(
        [np.clip(px, cell_min_x, cell_min_x + cell_size),
         np.clip(py, cell_min_y, cell_min_y + cell_size)], axis=-1,
    )
    mask = within_radius_mask(nearest.reshape(-1, 2), (px, py), radius).reshape(ix.shape)
    return [(int(cx), int(cy)) for cx, cy in zip(ix[mask], iy[mask])]
