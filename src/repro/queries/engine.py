"""Convenience query engine tying a summary and a TPI together.

The engine is what applications interact with after compressing a repository:
it owns the summary, builds (or accepts) a TPI over the reconstructed points
and exposes STRQ / TPQ / exact-match queries with the paper's local-search
defaults applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import IndexConfig
from repro.core.prediction import lag_history
from repro.core.summary import TrajectorySummary
from repro.cqc.local_search import search_radius
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.index.tpi import TemporalPartitionIndex
from repro.queries.batch import QuerySpec, Workload, batch_exact, batch_strq, batch_tpq
from repro.queries.exact import ExactQueryResult, exact_match_query
from repro.queries.strq import STRQResult, spatio_temporal_range_query
from repro.queries.tpq import TPQResult, trajectory_path_query


@dataclass(frozen=True)
class QueryError:
    """Structured failure record for one query of an isolated batch.

    Appears in the corresponding result slot of
    ``QueryEngine.run_batch(..., isolate=True)`` so callers can correlate
    failures with workload positions without parsing tracebacks.
    """

    index: int
    kind: str
    error_type: str
    message: str

    @classmethod
    def from_exception(cls, index: int, kind: str, error: BaseException) -> "QueryError":
        return cls(index=index, kind=kind, error_type=type(error).__name__,
                   message=str(error))


class QueryEngine:
    """Answer spatio-temporal queries over a quantized trajectory repository.

    Parameters
    ----------
    summary:
        The trajectory summary produced by a quantizer.
    index_config:
        Parameters for the TPI built over the summary's reconstructed points.
    raw_dataset:
        Optional raw dataset; only needed for exact-match verification.
    index:
        Optional pre-built TPI.  When given (e.g. restored from a model
        artifact by :func:`repro.storage.load_model`), it is used as-is and
        no index is built from the summary.
    """

    #: Always empty.  The benchmark ledger reads its length as the
    #: ``reliability.quarantined`` metric; it goes when that metric does.
    quarantined: tuple = ()

    def __init__(self, summary: TrajectorySummary, index_config: IndexConfig | None = None,
                 raw_dataset: TrajectoryDataset | None = None,
                 index: TemporalPartitionIndex | None = None) -> None:
        self.summary = summary
        self.index_config = index_config or IndexConfig()
        self.raw_dataset = raw_dataset
        self.index = index if index is not None else self._build_index()

    # ------------------------------------------------------------------ #
    # index construction
    # ------------------------------------------------------------------ #
    def _build_index(self) -> TemporalPartitionIndex:
        """Build a TPI over the summary's reconstructed points."""
        reconstructed = self._reconstructed_dataset()
        tpi = TemporalPartitionIndex(self.index_config)
        tpi.build(reconstructed)
        return tpi

    def _reconstructed_dataset(self) -> TrajectoryDataset:
        """Materialise the reconstructed points as a dataset for indexing."""
        per_traj: dict[int, list[tuple[int, np.ndarray]]] = {}
        for t in self.summary.timestamps:
            for tid, point in self.summary.reconstruct_slice(t).items():
                per_traj.setdefault(tid, []).append((t, point))
        trajectories = []
        for tid, entries in per_traj.items():
            entries.sort(key=lambda item: item[0])
            timestamps = np.asarray([t for t, _ in entries], dtype=np.int64)
            points = np.vstack([p for _, p in entries])
            trajectories.append(Trajectory(traj_id=tid, points=points, timestamps=timestamps))
        return TrajectoryDataset(trajectories)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def local_search_radius(self) -> float | None:
        """The ``√2/2 · g_s`` radius, or ``None`` when CQC is disabled."""
        if self.summary.cqc_coder is None:
            return None
        return search_radius(self.summary.cqc_coder.grid_size)

    def strq(self, x: float, y: float, t: int, local_search: bool = True) -> STRQResult:
        """Spatio-temporal range query (Definition 5.2)."""
        radius = self.local_search_radius if local_search else None
        return spatio_temporal_range_query(
            self.index, x, y, t, summary=self.summary, local_search_radius=radius
        )

    def tpq(self, x: float, y: float, t: int, length: int,
            local_search: bool = True) -> TPQResult:
        """Trajectory path query (Definition 5.3)."""
        radius = self.local_search_radius if local_search else None
        return trajectory_path_query(
            self.index, self.summary, x, y, t, length, local_search_radius=radius
        )

    def exact(self, x: float, y: float, t: int) -> ExactQueryResult:
        """Exact-match query; requires the raw dataset for verification."""
        if self.raw_dataset is None:
            raise RuntimeError("exact queries require the raw dataset")
        return exact_match_query(
            self.index, self.summary, self.raw_dataset, x, y, t,
            cell_size=self.index_config.grid_cell,
        )

    def run_batch(self, workload, isolate: bool = False
                  ) -> list[STRQResult | TPQResult | ExactQueryResult | QueryError]:
        """Execute a mixed STRQ/TPQ/exact workload with shared scans.

        Queries are grouped by kind and answered through the batched
        functions of :mod:`repro.queries.batch`: candidate generation is one
        vectorised TPI pass per kind, and reconstructions are shared through
        the summary's LRU slice cache.  Results come back in workload order
        and are identical to running each query through :meth:`strq`,
        :meth:`tpq` or :meth:`exact` individually.

        Parameters
        ----------
        workload:
            A :class:`~repro.queries.batch.Workload`, or any iterable of
            :class:`~repro.queries.batch.QuerySpec` / dict entries (dicts use
            the workload-file schema: ``type``, ``x``, ``y``, ``t`` and, for
            TPQ, ``length``).
        isolate:
            With ``isolate=True`` one failing query cannot abort the
            workload: if a kind's batched pass raises, its queries are
            re-run individually and each failure is returned as a
            structured :class:`QueryError` in that query's result slot
            (successes keep their normal result objects).  The default
            re-raises the first error.

        Examples
        --------
        ::

            workload = Workload.from_obj([
                {"type": "strq", "x": -8.62, "y": 41.16, "t": 20},
                {"type": "tpq", "x": -8.62, "y": 41.16, "t": 20, "length": 10},
                {"type": "exact", "x": -8.60, "y": 41.15, "t": 35},
            ])
            results = engine.run_batch(workload)
            strq_result, tpq_result, exact_result = results
        """
        specs = self._normalize_workload(workload)
        radius = self.local_search_radius
        by_kind: dict[str, list[int]] = {"strq": [], "tpq": [], "exact": []}
        for position, spec in enumerate(specs):
            by_kind[spec.kind].append(position)
        if by_kind["exact"] and self.raw_dataset is None and not isolate:
            raise RuntimeError("exact queries require the raw dataset")

        results: list = [None] * len(specs)
        batches = {
            "strq": lambda positions: batch_strq(
                self.index, [specs[i] for i in positions],
                summary=self.summary, local_search_radius=radius,
            ),
            "tpq": lambda positions: batch_tpq(
                self.index, self.summary, [specs[i] for i in positions],
                local_search_radius=radius,
            ),
            "exact": lambda positions: batch_exact(
                self.index, self.summary, self.raw_dataset,
                [specs[i] for i in positions],
                cell_size=self.index_config.grid_cell,
            ),
        }
        for kind, positions in by_kind.items():
            if not positions:
                continue
            if kind == "exact" and self.raw_dataset is None:
                # Only reachable with isolate=True (checked above).
                error = RuntimeError("exact queries require the raw dataset")
                for position in positions:
                    results[position] = QueryError.from_exception(position, kind, error)
                continue
            try:
                answers = batches[kind](positions)
            except Exception:
                if not isolate:
                    raise
                self._run_isolated(specs, positions, results)
            else:
                for position, answer in zip(positions, answers):
                    results[position] = answer
        return results

    def _run_isolated(self, specs: list[QuerySpec], positions: list[int],
                      results: list) -> None:
        """Scalar fallback for one kind's batch: per-query error isolation."""
        for position in positions:
            spec = specs[position]
            try:
                results[position] = self._run_scalar(spec)
            except Exception as exc:  # noqa: BLE001 - converted to a record
                results[position] = QueryError.from_exception(position, spec.kind, exc)

    def _run_scalar(self, spec: QuerySpec):
        """Answer one query spec through the scalar methods."""
        if spec.kind == "strq":
            return self.strq(spec.x, spec.y, spec.t)
        if spec.kind == "tpq":
            return self.tpq(spec.x, spec.y, spec.t, spec.length)
        return self.exact(spec.x, spec.y, spec.t)

    @staticmethod
    def _normalize_workload(workload) -> list[QuerySpec]:
        """Coerce a workload argument into a list of :class:`QuerySpec`."""
        if isinstance(workload, Workload):
            return list(workload.queries)
        specs = []
        for entry in workload:
            if isinstance(entry, QuerySpec):
                specs.append(entry)
            elif isinstance(entry, dict):
                specs.append(QuerySpec.from_dict(entry))
            else:
                raise TypeError(f"unsupported workload entry: {entry!r}")
        return specs

    def predict_next_positions(self, traj_id: int, t: int, horizon: int = 5) -> np.ndarray:
        """Forecast future positions of a trajectory from the summary.

        Starts from the trajectory's CQC-refined points at ``t`` and its
        previous appearances (:func:`~repro.core.prediction.lag_history`),
        and rolls the linear model of its partition at ``t`` forward
        ``horizon`` steps -- the "predicting future positions of entities"
        analytics task mentioned in the paper's introduction.  Returns shape
        ``(horizon, 2)``, or ``(0, 2)`` when ``horizon`` is 0 or the
        trajectory has no point at ``t``.
        """
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        traj_id, t = int(traj_id), int(t)
        appearances = self.summary.appearances(traj_id)
        if horizon == 0 or t not in appearances:
            return np.empty((0, 2), dtype=float)
        recent = (self.summary.reconstruct_point(traj_id, s)
                  for s in reversed(appearances) if s <= t)
        history, _ = lag_history([recent], self.summary.config.prediction_order)
        window = history[0]
        record = self.summary.records[t]
        coefficients = record.coefficients[record.partition_of[traj_id]]
        forecast = np.empty((horizon, 2), dtype=float)
        for step in range(horizon):
            forecast[step] = np.einsum("k,kd->d", coefficients, window)
            window = np.vstack([forecast[step], window[:-1]])
        return forecast
