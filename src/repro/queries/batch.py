"""The one query implementation: STRQ, TPQ and exact-match over many queries.

Every query runs here.  The scalar functions (:mod:`repro.queries.strq`,
:mod:`~.tpq`, :mod:`~.exact`) and the :class:`~repro.queries.engine.QueryEngine`
methods each answer a batch of one, so there is one candidate-generation
path (Section 5.2): the TPI groups queries by time period
(:meth:`TemporalPartitionIndex.lookup_batch` and
:meth:`~TemporalPartitionIndex.lookup_local_batch`), and each period's PI
probes its one cell table for all of its queries.  STRQ and exact-match
reconstructions come from the summary's LRU slice cache
(:meth:`TrajectorySummary.reconstruct_point_cached`); TPQ paths are read
straight from the summary.  Mixed workloads (STRQ + TPQ + exact-match) are
described by :class:`QuerySpec` / :class:`Workload` and run in one call
through :meth:`repro.queries.engine.QueryEngine.run_batch`.

The brute-force oracle tests in ``tests/test_queries_batch.py`` check the
answers against a plain-Python scan of every grid's postings.
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

QUERY_KINDS = ("strq", "tpq", "exact")


@dataclass
class STRQResult:
    """Result of one spatio-temporal range query (Definition 5.2).

    Attributes
    ----------
    x, y, t:
        The query.
    candidates:
        Trajectory IDs returned by the index lookup (the approximate answer).
    reconstructed:
        Mapping trajectory ID -> reconstructed position, filled when a
        summary was supplied to refine/inspect the answer.
    """

    x: float
    y: float
    t: int
    candidates: list[int] = field(default_factory=list)
    reconstructed: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class TPQResult:
    """Result of one trajectory path query (Definition 5.3).

    Attributes
    ----------
    x, y, t, length:
        The query.
    paths:
        Mapping trajectory ID -> array of shape ``(m, 2)`` with the
        reconstructed positions for timestamps ``t .. t+length-1``
        (``m <= length`` if a trajectory ends early).
    """

    x: float
    y: float
    t: int
    length: int
    paths: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class ExactQueryResult:
    """Result of an exact-match query (Section 6.2.3).

    Attributes
    ----------
    x, y, t:
        The query (a grid-cell membership test at time ``t``).
    candidates:
        Trajectory IDs surviving the summary-based filter.
    matches:
        Trajectory IDs confirmed against the raw data.
    visited_ratio:
        ``len(candidates) / total active trajectories`` -- the fraction of
        trajectories whose raw data had to be accessed.
    """

    x: float
    y: float
    t: int
    candidates: list[int] = field(default_factory=list)
    matches: list[int] = field(default_factory=list)
    visited_ratio: float = 0.0


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
    """Answer STRQs (Definition 5.2), one result per query.

    Parameters
    ----------
    index:
        The TPI over (reconstructed or raw) points.
    queries:
        Sequence of ``(x, y, t)`` triples or :class:`QuerySpec` entries
        (extra trailing tuple elements, e.g. the ``traj_id`` of benchmark
        probes, are ignored).
    summary:
        Optional summary; each candidate's reconstructed position at ``t``
        is attached to its result.
    local_search_radius:
        When given, the local-search strategy of Section 5.2 is used: cells
        within this radius (``√2/2 · g_s``) are probed in addition to the
        query cell, which makes the candidate list a superset of the true
        answer (recall 1).
    """
    xs, ys, ts = _query_columns(queries)
    candidate_lists = _candidates(index, xs, ys, ts, local_search_radius)
    results = []
    for x, y, t, candidates in zip(xs.tolist(), ys.tolist(), ts.tolist(), candidate_lists):
        result = STRQResult(x=x, y=y, t=t, candidates=candidates)
        if summary is not None:
            for tid in candidates:
                point = summary.reconstruct_point_cached(tid, t)
                if point is not None:
                    result.reconstructed[tid] = point
        results.append(result)
    return results


def batch_tpq(index: TemporalPartitionIndex, summary: TrajectorySummary,
              queries: Sequence, local_search_radius: float | None = None) -> list[TPQResult]:
    """Answer TPQs (Definition 5.3): the STRQ candidates' next positions.

    ``queries`` is a sequence of ``(x, y, t, length)`` tuples or
    :class:`QuerySpec` entries.  Each candidate's path over ``t ..
    t+length-1`` is reconstructed from the summary, without the raw data.
    """
    xs, ys, ts, lengths = _query_columns_tpq(queries)
    candidate_lists = _candidates(index, xs, ys, ts, local_search_radius)
    results = []
    for x, y, t, length, candidates in zip(xs.tolist(), ys.tolist(), ts.tolist(),
                                           lengths.tolist(), candidate_lists):
        result = TPQResult(x=x, y=y, t=t, length=length)
        for tid in candidates:
            path = summary.reconstruct_path(tid, t, length)
            if len(path):
                result.paths[tid] = path
        results.append(result)
    return results


def batch_exact(index: TemporalPartitionIndex, summary: TrajectorySummary,
                dataset: TrajectoryDataset | None, queries: Sequence,
                cell_size: float) -> list[ExactQueryResult]:
    """Exact STRQs (Section 6.2.3): filter with the summary, verify on raw data.

    Local-search candidates (plain lookup without CQC) whose refined
    reconstruction at ``t`` cannot lie in the query's ``g_c`` cell
    (:func:`could_match_mask`) are dropped; the raw points of the rest are
    checked (:func:`verify_against_raw`).  A raw point matches when it falls
    into the same ``cell_size`` cell as the query.

    Raises
    ------
    RuntimeError
        When ``dataset`` is ``None``.
    """
    if dataset is None:
        raise RuntimeError("exact queries require the raw dataset")
    xs, ys, ts = _query_columns(queries)
    radius = None
    if summary.cqc_coder is not None:
        radius = search_radius(summary.cqc_coder.grid_size)
    candidate_lists = _candidates(index, xs, ys, ts, radius)
    slack = radius if radius is not None else 0.0
    active_at: dict[int, int] = {}
    results = []
    for x, y, t, candidates in zip(xs.tolist(), ys.tolist(), ts.tolist(), candidate_lists):
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
            x=x, y=y, t=t,
            candidates=filtered, matches=matches,
            visited_ratio=len(filtered) / active if active else 0.0,
        ))
    return results


def verify_against_raw(dataset: TrajectoryDataset, candidates, t: int, cell_x: float,
                       cell_y: float, cell_size: float) -> list[int]:
    """Confirm candidates whose raw point at ``t`` falls in the query cell."""
    matches = []
    for tid in candidates:
        if tid not in dataset:
            continue
        raw = dataset.get(tid).point_at(int(t))
        if raw is None:
            continue
        if np.floor(raw[0] / cell_size) == cell_x and np.floor(raw[1] / cell_size) == cell_y:
            matches.append(tid)
    return matches


def could_match_mask(points: np.ndarray, cell_x: float, cell_y: float, cell_size: float,
                     slack: float) -> np.ndarray:
    """Vectorised pre-filter: which reconstructed points could match the cell.

    A reconstructed point can correspond to a raw point inside the query's
    ``g_c`` cell only if it lies within the cell expanded by ``slack`` (the
    CQC deviation bound) on every side.  Broadcasts over an ``(n, 2)`` array.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    min_x = cell_x * cell_size - slack
    max_x = (cell_x + 1) * cell_size + slack
    min_y = cell_y * cell_size - slack
    max_y = (cell_y + 1) * cell_size + slack
    return ((points[:, 0] >= min_x) & (points[:, 0] <= max_x)
            & (points[:, 1] >= min_y) & (points[:, 1] <= max_y))


# ---------------------------------------------------------------------- #
# internals
# ---------------------------------------------------------------------- #
def _candidates(index: TemporalPartitionIndex, xs: np.ndarray, ys: np.ndarray,
                ts: np.ndarray, radius: float | None) -> list[list[int]]:
    """Index candidates per query: local search with a radius, else the plain cell."""
    if radius is not None:
        return index.lookup_local_batch(xs, ys, ts, radius=radius)
    return index.lookup_batch(xs, ys, ts)


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
