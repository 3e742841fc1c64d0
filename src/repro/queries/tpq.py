"""Trajectory path query (TPQ), Definition 5.3 of the paper.

Given ``(x, y, t)`` and a path duration ``l``, the TPQ first answers the STRQ
at ``(x, y, t)`` and then reproduces, directly from the indexed summary, the
next ``l`` positions of every retrieved trajectory -- without touching the
raw data and without reconstructing whole trajectories.

A single TPQ is a batch of one: :func:`trajectory_path_query` wraps
:func:`~repro.queries.batch.batch_tpq`, the one implementation.
"""

from __future__ import annotations

from repro.core.summary import TrajectorySummary
from repro.index.tpi import TemporalPartitionIndex
from repro.queries.batch import TPQResult, batch_tpq

__all__ = ["TPQResult", "trajectory_path_query"]


def trajectory_path_query(index: TemporalPartitionIndex, summary: TrajectorySummary,
                          x: float, y: float, t: int, length: int,
                          local_search_radius: float | None = None) -> TPQResult:
    """Answer one TPQ: STRQ at ``(x, y, t)`` followed by path reconstruction."""
    return batch_tpq(index, summary, [(x, y, t, length)],
                     local_search_radius=local_search_radius)[0]
