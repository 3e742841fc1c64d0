"""Spatio-temporal query processing over quantized trajectories (Section 5.2).

* :mod:`repro.queries.strq` -- spatio-temporal range queries (Definition 5.2).
* :mod:`repro.queries.tpq` -- trajectory path queries (Definition 5.3).
* :mod:`repro.queries.exact` -- exact-match filtering with the CQC-driven
  local-search strategy.
* :mod:`repro.queries.batch` -- batched execution of mixed workloads with
  vectorised index scans and cached slice reconstructions.
* :mod:`repro.queries.engine` -- :class:`QueryEngine`, a convenience object
  tying a summary and a TPI together and exposing all query types, and
  :class:`QueryError`, the result slot of a query that failed inside an
  isolated batch.
"""

from repro.queries.strq import STRQResult, spatio_temporal_range_query
from repro.queries.tpq import TPQResult, trajectory_path_query
from repro.queries.exact import ExactQueryResult, exact_match_query
from repro.queries.batch import (
    QuerySpec,
    Workload,
    WorkloadError,
    batch_exact,
    batch_strq,
    batch_tpq,
)
from repro.queries.engine import QueryEngine, QueryError

__all__ = [
    "STRQResult",
    "spatio_temporal_range_query",
    "TPQResult",
    "trajectory_path_query",
    "ExactQueryResult",
    "exact_match_query",
    "QuerySpec",
    "Workload",
    "WorkloadError",
    "batch_strq",
    "batch_tpq",
    "batch_exact",
    "QueryEngine",
    "QueryError",
]
