"""Spatio-temporal range query (STRQ), Definition 5.2 of the paper.

Given a location ``(x, y)`` and a timestamp ``t``, the STRQ returns the
trajectories that are located in the grid cell containing ``(x, y)`` at time
``t``.  With a TPI the candidate list comes straight from the index; the
approximate answer can optionally be refined against the summary's
reconstructed points (the precision/recall measured in Table 2 compares this
approximate answer to the ground truth computed from the raw data).

A single STRQ is a batch of one: :func:`spatio_temporal_range_query` wraps
:func:`~repro.queries.batch.batch_strq`, the one implementation.
"""

from __future__ import annotations

from repro.core.summary import TrajectorySummary
from repro.index.tpi import TemporalPartitionIndex
from repro.queries.batch import STRQResult, batch_strq

__all__ = ["STRQResult", "spatio_temporal_range_query"]


def spatio_temporal_range_query(index: TemporalPartitionIndex, x: float, y: float, t: int,
                                summary: TrajectorySummary | None = None,
                                local_search_radius: float | None = None) -> STRQResult:
    """Answer one STRQ; the arguments are those of :func:`~repro.queries.batch.batch_strq`."""
    return batch_strq(index, [(x, y, t)], summary=summary,
                      local_search_radius=local_search_radius)[0]
