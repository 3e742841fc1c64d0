"""Brute-force reference answers for index lookups and queries.

Plain Python over the public index structures -- each period's bounds,
each grid's rectangle and :meth:`~repro.index.grid.GridIndex.postings` --
with none of the library's lookup code: a linear period search, then the
union of the IDs posted in the query's cells over the grids that qualify
(Section 5.2).  Tests compare the library's one query path against it.
"""

from __future__ import annotations

import math

import numpy as np


def period_index(periods, t: int) -> int:
    """Position of the period covering ``t`` (linear scan), or ``-1``."""
    for position, period in enumerate(periods):
        if period.start <= t <= period.end:
            return position
    return -1


def query_cells(x: float, y: float, cell_size: float,
                radius: float | None) -> set[tuple[int, int]]:
    """The cells a lookup probes: the point's cell, its 3x3 block, or the disc."""
    cx, cy = math.floor(x / cell_size), math.floor(y / cell_size)
    if radius is None:
        return {(cx, cy)}
    if radius <= cell_size:
        return {(cx + dx, cy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
    cells = set()
    for i in range(math.floor((x - radius) / cell_size), math.floor((x + radius) / cell_size) + 1):
        for j in range(math.floor((y - radius) / cell_size),
                       math.floor((y + radius) / cell_size) + 1):
            low_x, low_y = i * cell_size, j * cell_size
            dx = min(max(x, low_x), low_x + cell_size) - x
            dy = min(max(y, low_y), low_y + cell_size) - y
            if dx * dx + dy * dy <= radius * radius:
                cells.add((i, j))
    return cells


def pi_candidates(pi, x: float, y: float, radius: float | None = None) -> list[int]:
    """IDs a PI returns for ``(x, y)``: plain lookup, or local search within ``radius``.

    A grid qualifies when its rectangle contains the point (plain) or when
    the rectangle grown by ``radius + g_c`` does (local search).
    """
    found: set[int] = set()
    for grid in pi.grids:
        rect = grid.rect
        margin = 0.0 if radius is None else max(radius, 0.0) + grid.cell_size
        if not (rect.min_x - margin <= x <= rect.max_x + margin
                and rect.min_y - margin <= y <= rect.max_y + margin):
            continue
        postings = grid.postings()
        for cell in query_cells(x, y, grid.cell_size, radius):
            found.update(postings.get(cell, ()))
    return sorted(found)


def tpi_candidates(tpi, x: float, y: float, t: int, radius: float | None = None) -> list[int]:
    """IDs the TPI returns for ``(x, y, t)``; see :func:`pi_candidates`."""
    position = period_index(tpi.periods, t)
    if position < 0:
        return []
    return pi_candidates(tpi.periods[position].index, x, y, radius)


def exact_answer(tpi, summary, dataset, x: float, y: float, t: int,
                 cell_size: float, radius: float | None) -> tuple[list[int], list[int]]:
    """``(candidates, matches)`` of an exact-match query.

    Candidates are the index candidates whose refined reconstruction at
    ``t`` lies in the query's cell grown by ``radius`` (0 without CQC);
    matches are the candidates whose raw point at ``t`` lies in the cell.
    """
    cell_x, cell_y = math.floor(x / cell_size), math.floor(y / cell_size)
    slack = 0.0 if radius is None else radius
    candidates = []
    for tid in tpi_candidates(tpi, x, y, t, radius):
        point = summary.reconstruct_point(tid, t)
        if point is None:
            continue
        if (cell_x * cell_size - slack <= point[0] <= (cell_x + 1) * cell_size + slack
                and cell_y * cell_size - slack <= point[1] <= (cell_y + 1) * cell_size + slack):
            candidates.append(tid)
    matches = []
    for tid in candidates:
        raw = dataset.get(tid).point_at(t) if tid in dataset else None
        if raw is None:
            continue
        if (math.floor(raw[0] / cell_size), math.floor(raw[1] / cell_size)) == (cell_x, cell_y):
            matches.append(tid)
    return candidates, matches


def random_probes(dataset, num: int, seed: int, jitter: float = 0.0) -> list[tuple]:
    """Random ``(x, y, t)`` probes on (or, with ``jitter``, near) trajectory points."""
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(num):
        traj = dataset.get(int(rng.choice(dataset.trajectory_ids)))
        row = int(rng.integers(0, len(traj)))
        x, y = traj.points[row] + rng.normal(0.0, jitter, 2)
        probes.append((float(x), float(y), int(traj.timestamps[row])))
    return probes
