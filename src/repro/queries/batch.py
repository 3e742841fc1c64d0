"""Batched query execution: answer many queries with shared index scans.

The scalar query functions (:mod:`repro.queries.strq`, :mod:`~.tpq`,
:mod:`~.exact`) reconstruct and scan per call.  This module amortises that
work across a whole workload:

* candidate generation is pushed down into the vectorised TPI/PI lookups
  (:meth:`TemporalPartitionIndex.lookup_batch` and friends), which group
  queries by time period and scan each period's rectangles once;
* reconstructions are served from the summary's LRU slice cache
  (:meth:`TrajectorySummary.reconstruct_slice`), so a timestamp touched by
  many queries is reconstructed once per batch;
* mixed workloads (STRQ + TPQ + exact-match) are described by
  :class:`QuerySpec` / :class:`Workload` and executed in one call through
  :meth:`repro.queries.engine.QueryEngine.run_batch`.

Results are guaranteed to be identical, query by query, to running the
scalar functions in a loop -- the equivalence tests in
``tests/test_queries_batch.py`` enforce this on randomized workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.core.summary import TrajectorySummary
from repro.cqc.local_search import search_radius
from repro.data.trajectory import TrajectoryDataset
from repro.index.tpi import TemporalPartitionIndex
from repro.queries.exact import ExactQueryResult, could_match_mask, verify_against_raw
from repro.queries.strq import STRQResult
from repro.queries.tpq import TPQResult

QUERY_KINDS = ("strq", "tpq", "exact")


class WorkloadError(ValueError):
    """A workload file or object cannot be parsed into query specs.

    Raised (instead of raw ``KeyError``/``TypeError``/``AttributeError``
    leaks from malformed JSON) by :meth:`QuerySpec.from_dict`,
    :meth:`Workload.from_obj` and :meth:`Workload.from_file`, with the
    offending entry identified in the message.  The CLI maps it to exit
    code 4 (``EXIT_WORKLOAD``).
    """


@dataclass(frozen=True)
class QuerySpec:
    """One query of a batch workload.

    Attributes
    ----------
    kind:
        ``"strq"``, ``"tpq"`` or ``"exact"``.
    x, y, t:
        Query location and timestamp (shared by all three kinds).
    length:
        Path length; required (``>= 1``) for TPQ, ignored otherwise.
    """

    kind: str
    x: float
    y: float
    t: int
    length: int = 0

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"kind must be one of {QUERY_KINDS}, got {self.kind!r}")
        if self.kind == "tpq" and self.length < 1:
            raise ValueError("tpq queries need length >= 1")

    @classmethod
    def from_dict(cls, obj: dict) -> "QuerySpec":
        """Build a spec from a workload-file entry (``type`` aliases ``kind``).

        Raises
        ------
        WorkloadError
            When the entry is not a mapping, names an unknown kind, misses a
            required field or holds a non-numeric value -- never a raw
            ``KeyError``/``TypeError``.
        """
        if not isinstance(obj, dict):
            raise WorkloadError(
                f"query entry must be an object, got {type(obj).__name__}: {obj!r}"
            )
        kind = obj.get("kind", obj.get("type"))
        if kind is None:
            raise WorkloadError(f"query entry needs a 'type' (or 'kind') field: {obj!r}")
        fields = {}
        for name, convert in (("x", float), ("y", float), ("t", int)):
            if name not in obj:
                raise WorkloadError(f"query entry is missing the {name!r} field: {obj!r}")
            try:
                fields[name] = convert(obj[name])
            except (TypeError, ValueError) as exc:
                raise WorkloadError(
                    f"query entry has a non-numeric {name!r} field ({obj[name]!r}): {exc}"
                ) from exc
        try:
            length = int(obj.get("length", 0))
        except (TypeError, ValueError) as exc:
            raise WorkloadError(
                f"query entry has a non-integer 'length' field ({obj.get('length')!r})"
            ) from exc
        try:
            return cls(kind=str(kind), length=length, **fields)
        except ValueError as exc:
            raise WorkloadError(str(exc)) from exc


@dataclass
class Workload:
    """An ordered collection of :class:`QuerySpec` entries.

    The on-disk format is JSON: either a bare list of query objects or an
    object with a ``"queries"`` list, each entry like::

        {"type": "strq", "x": -8.62, "y": 41.16, "t": 20}
        {"type": "tpq",  "x": -8.62, "y": 41.16, "t": 20, "length": 10}
        {"type": "exact", "x": -8.62, "y": 41.16, "t": 20}
    """

    queries: list[QuerySpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[QuerySpec]:
        return iter(self.queries)

    def counts(self) -> dict[str, int]:
        """Number of queries per kind (zero entries included)."""
        counts = {kind: 0 for kind in QUERY_KINDS}
        for spec in self.queries:
            counts[spec.kind] += 1
        return counts

    @classmethod
    def from_obj(cls, obj) -> "Workload":
        """Parse a decoded JSON object (bare list or ``{"queries": [...]}``).

        An empty list is a valid (empty) workload.  Anything malformed --
        wrong top-level shape, or a bad entry -- raises
        :class:`WorkloadError` naming the entry position.
        """
        if isinstance(obj, dict):
            obj = obj.get("queries")
        if not isinstance(obj, list):
            raise WorkloadError(
                "workload must be a list of queries or {'queries': [...]}, "
                f"got {type(obj).__name__}"
            )
        queries = []
        for position, entry in enumerate(obj):
            try:
                queries.append(QuerySpec.from_dict(entry))
            except WorkloadError as exc:
                raise WorkloadError(f"query #{position}: {exc}") from exc
        return cls(queries=queries)

    @classmethod
    def from_file(cls, path: str | Path) -> "Workload":
        """Load a workload from a JSON file.

        Raises
        ------
        OSError
            When the file cannot be read.
        WorkloadError
            When the file is not valid JSON or not a valid workload.
        """
        with open(path, encoding="utf-8") as handle:
            try:
                obj = json.load(handle)
            except json.JSONDecodeError as exc:
                raise WorkloadError(f"workload file is not valid JSON: {exc}") from exc
        return cls.from_obj(obj)


# ---------------------------------------------------------------------- #
# batched query functions
# ---------------------------------------------------------------------- #
def batch_strq(index: TemporalPartitionIndex, queries: Sequence,
               summary: TrajectorySummary | None = None,
               local_search_radius: float | None = None) -> list[STRQResult]:
    """Answer many STRQs with one vectorised index pass.

    Parameters
    ----------
    index:
        The TPI over (reconstructed or raw) points.
    queries:
        Sequence of ``(x, y, t)`` triples (extra trailing elements, e.g. the
        ``traj_id`` of benchmark probes, are ignored).
    summary:
        Optional summary used to attach reconstructed positions, exactly as
        in :func:`~repro.queries.strq.spatio_temporal_range_query`.
    local_search_radius:
        When given, local-search candidate generation is used (Section 5.2).

    Entry ``i`` of the result is identical to the scalar call on query ``i``.
    """
    xs, ys, ts = _query_columns(queries)
    if local_search_radius is not None:
        candidate_lists = index.lookup_local_batch(xs, ys, ts, radius=local_search_radius)
    else:
        candidate_lists = index.lookup_batch(xs, ys, ts)
    results = []
    for x, y, t, candidates in zip(xs, ys, ts, candidate_lists):
        result = STRQResult(x=float(x), y=float(y), t=int(t), candidates=list(candidates))
        if summary is not None:
            for tid in candidates:
                point = summary.reconstruct_point_cached(tid, int(t))
                if point is not None:
                    result.reconstructed[tid] = point
        results.append(result)
    return results


def batch_tpq(index: TemporalPartitionIndex, summary: TrajectorySummary,
              queries: Sequence, local_search_radius: float | None = None) -> list[TPQResult]:
    """Answer many TPQs, sharing candidate scans and slice reconstructions.

    ``queries`` is a sequence of ``(x, y, t, length)`` tuples.  Candidate
    generation is one batched STRQ pass; path reconstruction walks the
    summary's cached slices so overlapping path windows across queries are
    reconstructed once.
    """
    xs, ys, ts, lengths = _query_columns_tpq(queries)
    if local_search_radius is not None:
        candidate_lists = index.lookup_local_batch(xs, ys, ts, radius=local_search_radius)
    else:
        candidate_lists = index.lookup_batch(xs, ys, ts)
    results = []
    for x, y, t, length, candidates in zip(xs, ys, ts, lengths, candidate_lists):
        result = TPQResult(x=float(x), y=float(y), t=int(t), length=int(length))
        for tid in candidates:
            path = summary.reconstruct_path(tid, int(t), int(length), cached=True)
            if len(path):
                result.paths[tid] = path
        results.append(result)
    return results


def batch_exact(index: TemporalPartitionIndex, summary: TrajectorySummary,
                dataset: TrajectoryDataset, queries: Sequence,
                cell_size: float) -> list[ExactQueryResult]:
    """Answer many exact-match queries with shared scans and broadcast filters.

    Mirrors :func:`~repro.queries.exact.exact_match_query` query by query:
    batched local-search candidate generation, a broadcast reconstruction
    pre-filter (one :func:`could_match_mask` call per query instead of a
    Python loop over candidates) and raw-data verification of the survivors.
    """
    xs, ys, ts = _query_columns(queries)
    radius = None
    if summary.cqc_coder is not None:
        radius = search_radius(summary.cqc_coder.grid_size)
    if radius is not None:
        candidate_lists = index.lookup_local_batch(xs, ys, ts, radius=radius)
    else:
        candidate_lists = index.lookup_batch(xs, ys, ts)
    slack = radius if radius is not None else 0.0
    active_at: dict[int, int] = {}
    results = []
    for x, y, t, candidates in zip(xs, ys, ts, candidate_lists):
        t = int(t)
        cell_x = np.floor(x / cell_size)
        cell_y = np.floor(y / cell_size)
        present = []
        reconstructed = []
        for tid in candidates:
            point = summary.reconstruct_point_cached(tid, t)
            if point is not None:
                present.append(tid)
                reconstructed.append(point)
        if present:
            mask = could_match_mask(np.vstack(reconstructed), cell_x, cell_y, cell_size, slack)
            filtered = [tid for tid, ok in zip(present, mask) if ok]
        else:
            filtered = []
        matches = verify_against_raw(dataset, filtered, t, cell_x, cell_y, cell_size)
        if t not in active_at:
            active_at[t] = len(dataset.time_slice(t))
        active = active_at[t]
        results.append(ExactQueryResult(
            x=float(x), y=float(y), t=t,
            candidates=filtered, matches=matches,
            visited_ratio=len(filtered) / active if active else 0.0,
        ))
    return results


# ---------------------------------------------------------------------- #
# internals
# ---------------------------------------------------------------------- #
def _query_columns(queries: Iterable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``(x, y, t, ...)`` tuples or specs into aligned column arrays."""
    xs, ys, ts = [], [], []
    for query in queries:
        if isinstance(query, QuerySpec):
            x, y, t = query.x, query.y, query.t
        else:
            x, y, t = query[0], query[1], query[2]
        xs.append(float(x))
        ys.append(float(y))
        ts.append(int(t))
    return (np.asarray(xs, dtype=float), np.asarray(ys, dtype=float),
            np.asarray(ts, dtype=np.int64))


def _query_columns_tpq(queries: Iterable) -> tuple[np.ndarray, ...]:
    """Column arrays for TPQ queries, validating each path length."""
    xs, ys, ts, lengths = [], [], [], []
    for query in queries:
        if isinstance(query, QuerySpec):
            x, y, t, length = query.x, query.y, query.t, query.length
        else:
            x, y, t, length = query[0], query[1], query[2], query[3]
        if int(length) < 1:
            raise ValueError("length must be >= 1")
        xs.append(float(x))
        ys.append(float(y))
        ts.append(int(t))
        lengths.append(int(length))
    return (np.asarray(xs, dtype=float), np.asarray(ys, dtype=float),
            np.asarray(ts, dtype=np.int64), np.asarray(lengths, dtype=np.int64))
