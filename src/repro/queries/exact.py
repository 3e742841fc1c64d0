"""Exact-match query filtering using the summary as an index (Section 6.2.3).

When exact answers are required, the summary acts as a filter: the local
search around the query point produces a small candidate list (guaranteed to
contain every true match thanks to Lemma 3), and only those candidates'
original trajectories are accessed for verification.  The fraction of
trajectories visited in the second step is the efficiency measure of Table 4.

A single exact-match query is a batch of one: :func:`exact_match_query`
wraps :func:`~repro.queries.batch.batch_exact`, the one implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.summary import TrajectorySummary
from repro.data.trajectory import TrajectoryDataset
from repro.index.tpi import TemporalPartitionIndex
from repro.queries.batch import (
    ExactQueryResult,
    batch_exact,
    could_match_mask,
    verify_against_raw,
)

__all__ = ["ExactQueryResult", "exact_match_query", "verify_against_raw",
           "ground_truth_cell_members", "could_match_mask"]


def exact_match_query(index: TemporalPartitionIndex, summary: TrajectorySummary,
                      dataset: TrajectoryDataset, x: float, y: float, t: int,
                      cell_size: float) -> ExactQueryResult:
    """Exact STRQ: filter with the summary, verify against the raw data.

    ``cell_size`` is the query grid cell ``g_c``; a raw point matches when it
    falls into the same ``g_c`` cell as ``(x, y)``.
    """
    return batch_exact(index, summary, dataset, [(x, y, t)], cell_size=cell_size)[0]


def ground_truth_cell_members(dataset: TrajectoryDataset, x: float, y: float, t: int,
                              cell_size: float) -> list[int]:
    """Trajectory IDs whose raw point at ``t`` shares the ``g_c`` cell of (x, y)."""
    slice_ = dataset.time_slice(int(t))
    if len(slice_) == 0:
        return []
    cell_x = np.floor(x / cell_size)
    cell_y = np.floor(y / cell_size)
    cells = np.floor(slice_.points / cell_size)
    mask = (cells[:, 0] == cell_x) & (cells[:, 1] == cell_y)
    return sorted(int(tid) for tid in slice_.traj_ids[mask])
