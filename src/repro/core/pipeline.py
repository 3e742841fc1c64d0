"""``PPQTrajectory`` -- the public facade of the reproduction.

Ties together the three parts of the system exactly as Figure 1 of the paper
does: the partition-wise predictive quantizer produces an error-bounded
summary, CQC refines it for accurate reconstruction, and the temporal
partition-based index organises the quantized data for online querying.

Typical usage::

    from repro import PPQTrajectory
    from repro.data import generate_porto_like

    dataset = generate_porto_like(num_trajectories=100)
    system = PPQTrajectory()                     # paper defaults
    system.fit(dataset)                          # build summary + index
    result = system.strq(x, y, t)                # who was here at time t?
    paths = system.tpq(x, y, t, length=20)       # ... and where did they go?

    system.save("model.ppq")                     # persist the fitted model
    served = PPQTrajectory.load("model.ppq")     # serve it elsewhere, no refit
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CQCConfig, IndexConfig, PartitionCriterion, PPQConfig
from repro.core.epq import ErrorBoundedPredictiveQuantizer
from repro.core.ppq import PartitionwisePredictiveQuantizer
from repro.core.summary import TrajectorySummary
from repro.data.trajectory import TrajectoryDataset
from repro.queries.engine import QueryEngine


class PPQTrajectory:
    """End-to-end PPQ-trajectory system: compress, index and query.

    Parameters
    ----------
    ppq_config:
        Quantizer parameters; defaults follow Section 6.1 of the paper.
    cqc_config:
        CQC parameters (``enabled=False`` gives the ``-basic`` variant).
    index_config:
        TPI parameters.
    variant:
        ``"ppq"`` (partition-wise, the full system) or ``"epq"``
        (single-partition ablation).
    """

    def __init__(self, ppq_config: PPQConfig | None = None,
                 cqc_config: CQCConfig | None = None,
                 index_config: IndexConfig | None = None,
                 variant: str = "ppq") -> None:
        if variant not in ("ppq", "epq"):
            raise ValueError(f"variant must be 'ppq' or 'epq', got {variant!r}")
        self.ppq_config = ppq_config or PPQConfig()
        self.cqc_config = cqc_config or CQCConfig()
        self.index_config = index_config or IndexConfig()
        self.variant = variant
        self.quantizer = self._build_quantizer()
        self.summary: TrajectorySummary | None = None
        self.engine: QueryEngine | None = None
        self._dataset: TrajectoryDataset | None = None
        # Set by the storage layer when the system is restored from an
        # artifact (a LoadReport); None for freshly fitted systems.
        self.load_report = None

    @classmethod
    def ppq_a(cls, **kwargs) -> "PPQTrajectory":
        """The PPQ-A configuration (autocorrelation partitioning, CQC on)."""
        config = kwargs.pop("ppq_config", None) or PPQConfig(
            criterion=PartitionCriterion.AUTOCORRELATION, epsilon_p=0.01
        )
        return cls(ppq_config=config, **kwargs)

    @classmethod
    def ppq_s(cls, **kwargs) -> "PPQTrajectory":
        """The PPQ-S configuration (spatial partitioning, CQC on)."""
        config = kwargs.pop("ppq_config", None) or PPQConfig(
            criterion=PartitionCriterion.SPATIAL, epsilon_p=0.1
        )
        return cls(ppq_config=config, **kwargs)

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def _build_quantizer(self) -> PartitionwisePredictiveQuantizer:
        if self.variant == "epq":
            return ErrorBoundedPredictiveQuantizer(self.ppq_config, self.cqc_config)
        return PartitionwisePredictiveQuantizer(self.ppq_config, self.cqc_config)

    def fit(self, dataset: TrajectoryDataset, t_max: int | None = None,
            build_index: bool = True) -> "PPQTrajectory":
        """Summarise ``dataset`` and (optionally) build the query index.

        Raises ``ValueError`` when the dataset holds no point at or before
        ``t_max`` (no point at all when ``t_max`` is ``None``).
        """
        timestamps = dataset.timestamps
        if not timestamps or (t_max is not None and timestamps[0] > t_max):
            bound = "" if t_max is None else f" at or before t_max={t_max}"
            raise ValueError(f"cannot fit a dataset with no points{bound}")
        self._dataset = dataset
        self.summary = self.quantizer.summarize(dataset, t_max=t_max)
        if build_index:
            self.engine = QueryEngine(self.summary, self.index_config, raw_dataset=dataset)
        return self

    # ------------------------------------------------------------------ #
    # queries (thin delegation to the engine)
    # ------------------------------------------------------------------ #
    def strq(self, x: float, y: float, t: int, local_search: bool = True):
        """Spatio-temporal range query; see :meth:`QueryEngine.strq`."""
        return self._require_engine().strq(x, y, t, local_search=local_search)

    def tpq(self, x: float, y: float, t: int, length: int, local_search: bool = True):
        """Trajectory path query; see :meth:`QueryEngine.tpq`."""
        return self._require_engine().tpq(x, y, t, length, local_search=local_search)

    def exact(self, x: float, y: float, t: int):
        """Exact-match query; see :meth:`QueryEngine.exact`."""
        return self._require_engine().exact(x, y, t)

    def run_batch(self, workload, isolate: bool = False):
        """Batched mixed workload; see :meth:`QueryEngine.run_batch`."""
        return self._require_engine().run_batch(workload, isolate=isolate)

    def predict_next_positions(self, traj_id: int, t: int, horizon: int = 5) -> np.ndarray:
        """Forecast the next positions of a trajectory from the summary."""
        return self._require_engine().predict_next_positions(traj_id, t, horizon=horizon)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path, include_raw: bool = True):
        """Serialize the fitted system to a versioned model artifact.

        The artifact contains everything a serving process needs to answer
        queries without refitting: configuration, codebook, summary records
        (coefficients, codeword indices, CQC bit streams), cached
        reconstructions and the full TPI.  See
        :func:`repro.storage.save_model` for details and
        ``docs/ARTIFACT_FORMAT.md`` for the on-disk layout.

        Parameters
        ----------
        path:
            Destination file (conventionally ``*.ppq``).
        include_raw:
            Embed the raw trajectories so exact-match queries keep working
            after a load; pass ``False`` for a smaller STRQ/TPQ-only
            artifact.

        Returns
        -------
        pathlib.Path
            The path written.

        Raises
        ------
        RuntimeError
            If the system is not fitted (``fit(build_index=True)`` first).
        OSError
            If the file cannot be written.
        """
        from repro.storage.io import save_model

        return save_model(self, path, include_raw=include_raw)

    @classmethod
    def load(cls, path, strict: bool = True) -> "PPQTrajectory":
        """Restore a query-ready system from a model artifact.

        The loaded system answers STRQ/TPQ/exact workloads identically --
        byte for byte -- to the instance that was saved; only quantizer
        fitting state (timings, partition history) is not restored.

        Parameters
        ----------
        path:
            An artifact written by :meth:`save`; every section's CRC32 is
            checked before it is decoded.
        strict:
            With ``strict=False`` a damaged artifact is salvaged where
            possible -- derivable sections (reconstructions, index)
            are rebuilt and a damaged raw-data section is dropped -- and
            the outcome is recorded in the returned system's
            ``load_report``.  See :func:`repro.storage.load_model`.

        Returns
        -------
        PPQTrajectory
            The restored, query-ready system.

        Raises
        ------
        OSError
            If the file cannot be read.
        repro.storage.ArtifactError
            If the file is malformed, from a newer format version, or
            fails checksum verification (in non-strict mode, only when a
            non-derivable section is damaged).
        """
        from repro.storage.io import load_model

        return load_model(path, strict=strict)

    # ------------------------------------------------------------------ #
    # reconstruction and reporting
    # ------------------------------------------------------------------ #
    def reconstruct(self, traj_id: int, t: int, use_cqc: bool = True) -> np.ndarray | None:
        """Reconstruct a single point from the summary."""
        return self._require_summary().reconstruct_point(traj_id, t, use_cqc=use_cqc)

    def compression_ratio(self) -> float:
        """Raw size divided by summary size."""
        return self._require_summary().compression_ratio()

    def num_codewords(self) -> int:
        """Size of the error-bounded codebook."""
        return self._require_summary().num_codewords

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _require_summary(self) -> TrajectorySummary:
        if self.summary is None:
            raise RuntimeError("call fit() before using the summary")
        return self.summary

    def _require_engine(self) -> QueryEngine:
        if self.engine is None:
            raise RuntimeError("call fit(build_index=True) before querying")
        return self.engine
