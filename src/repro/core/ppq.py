"""Partition-wise predictive quantization (PPQ), Section 3.2 of the paper.

The quantizer processes a :class:`~repro.data.trajectory.TrajectoryDataset`
one timestamp at a time:

1. the active trajectory points are partitioned by spatial proximity (PPQ-S)
   or by AR(k) autocorrelation similarity (PPQ-A), maintained incrementally
   across timestamps by :class:`~repro.core.partitioning.IncrementalPartitioner`;
2. each partition fits its own linear predictor over the previous ``k``
   *reconstructed* points of its member trajectories (Equation 6), read from
   the summary's reconstruction store (the previous ``k`` appearances, see
   :func:`~repro.core.prediction.lag_history`);
3. the per-point prediction errors are quantized by the shared error-bounded
   incremental codebook (Equation 3);
4. optionally, the residual deviation between the true point and its
   reconstruction is CQC-encoded for accurate reconstruction (Section 4).

The result is a :class:`~repro.core.summary.TrajectorySummary`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.codebook import Codebook
from repro.core.config import CQCConfig, PartitionCriterion, PPQConfig
from repro.core.partitioning import IncrementalPartitioner
from repro.core.prediction import LinearPredictor, estimate_ar_coefficients
from repro.core.quantizer import IncrementalQuantizer
from repro.core.summary import TimestepRecord, TrajectorySummary
from repro.cqc.coding import CQCCoder
from repro.data.trajectory import TimeSlice, TrajectoryDataset


class PartitionwisePredictiveQuantizer:
    """PPQ: error-bounded predictive quantization with partition-wise models.

    Parameters
    ----------
    config:
        Quantizer parameters (``epsilon1``, ``epsilon_p``, criterion, ...).
    cqc_config:
        CQC parameters; pass ``enabled=False`` for the ``-basic`` variants.

    Examples
    --------
    >>> from repro.data import generate_porto_like
    >>> from repro.core import PPQConfig, CQCConfig
    >>> dataset = generate_porto_like(num_trajectories=20, max_length=60)
    >>> ppq = PartitionwisePredictiveQuantizer(PPQConfig(), CQCConfig())
    >>> summary = ppq.summarize(dataset)
    >>> summary.num_points == dataset.num_points
    True
    """

    def __init__(self, config: PPQConfig | None = None,
                 cqc_config: CQCConfig | None = None) -> None:
        self.config = config or PPQConfig()
        self.cqc_config = cqc_config or CQCConfig()
        #: Wall-clock statistics filled by :meth:`summarize` (seconds).
        self.timings = {"total": 0.0, "partitioning": 0.0, "prediction": 0.0,
                        "quantization": 0.0, "cqc": 0.0}
        #: Number of partitions after each processed timestamp (Figure 8).
        self.partition_history: list[int] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def summarize(self, dataset: TrajectoryDataset, t_max: int | None = None) -> TrajectorySummary:
        """Summarise ``dataset`` online and return the trajectory summary."""
        codebook = Codebook()
        quantizer = IncrementalQuantizer(
            epsilon=self.config.epsilon1,
            kmeans_iterations=self.config.kmeans_iterations,
            max_new_codewords_per_step=self.config.max_codewords_per_step,
            seed=self.config.seed,
        )
        cqc_coder = self._build_cqc_coder()
        summary = TrajectorySummary(self.config, self.cqc_config, codebook, cqc_coder)
        partitioner = self._build_partitioner()
        predictors: dict[int, LinearPredictor] = {}

        start_total = time.perf_counter()
        for slice_ in dataset.iter_time_slices(t_max=t_max):
            if len(slice_) == 0:
                continue
            self._process_slice(slice_, summary, codebook, quantizer, cqc_coder,
                                partitioner, predictors)
            self.partition_history.append(self._partition_count(partitioner))
        self.timings["total"] = time.perf_counter() - start_total
        return summary

    # ------------------------------------------------------------------ #
    # per-timestamp processing
    # ------------------------------------------------------------------ #
    def _process_slice(self, slice_: TimeSlice, summary: TrajectorySummary,
                       codebook: Codebook, quantizer: IncrementalQuantizer,
                       cqc_coder: CQCCoder | None,
                       partitioner: IncrementalPartitioner | None,
                       predictors: dict[int, LinearPredictor]) -> None:
        traj_ids = slice_.traj_ids
        points = slice_.points
        order = self.config.prediction_order

        histories, complete = summary.recent_history(traj_ids)

        # --- partitioning -------------------------------------------------
        start = time.perf_counter()
        groups = self._partition_slice(partitioner, traj_ids, points, histories)
        groups = {pid: rows for pid, rows in groups.items() if len(rows)}
        self.timings["partitioning"] += time.perf_counter() - start

        record = TimestepRecord(t=slice_.t)

        # --- prediction ----------------------------------------------------
        start = time.perf_counter()
        for pid, rows in groups.items():
            coeffs = np.zeros(order, dtype=float)
            if self.config.use_prediction:
                predictor = predictors.setdefault(pid, LinearPredictor(order=order))
                fit_rows = rows[complete[rows]]
                if len(fit_rows):
                    predictor.fit(histories[fit_rows], points[fit_rows])
                if predictor.coefficients is not None:
                    coeffs = predictor.coefficients.copy()
            record.coefficients[pid] = coeffs
            for row in rows:
                record.partition_of[int(traj_ids[row])] = pid
        predictions = summary.predict_slice(record, traj_ids, histories)
        self.timings["prediction"] += time.perf_counter() - start

        # --- quantization of prediction errors -----------------------------
        start = time.perf_counter()
        indices = quantizer.quantize(points - predictions, codebook)
        record.codeword_index = dict(zip(traj_ids.tolist(), indices.tolist()))
        reconstructions = summary.add_slice(record, traj_ids, predictions)
        self.timings["quantization"] += time.perf_counter() - start

        # --- CQC encoding ---------------------------------------------------
        start = time.perf_counter()
        if cqc_coder is not None:
            offsets = points - reconstructions
            for row, tid in enumerate(traj_ids):
                record.cqc_codes[int(tid)] = cqc_coder.encode_offset(offsets[row])
        self.timings["cqc"] += time.perf_counter() - start

    # ------------------------------------------------------------------ #
    # hooks overridden by E-PQ
    # ------------------------------------------------------------------ #
    def _build_partitioner(self) -> IncrementalPartitioner | None:
        return IncrementalPartitioner(self.config)

    def _build_cqc_coder(self) -> CQCCoder | None:
        if not self.cqc_config.enabled:
            return None
        return CQCCoder(epsilon=self.config.epsilon1, grid_size=self.cqc_config.grid_size)

    def _partition_slice(self, partitioner: IncrementalPartitioner | None,
                         traj_ids: np.ndarray, points: np.ndarray,
                         histories: np.ndarray) -> dict[int, np.ndarray]:
        """Return a mapping partition id -> row indices for this slice."""
        if partitioner is None:
            return {0: np.arange(len(traj_ids), dtype=np.int64)}
        features = self._partition_features(points, histories)
        return partitioner.update(traj_ids, features)

    def _partition_features(self, points: np.ndarray,
                            histories: np.ndarray) -> np.ndarray:
        """Feature vectors driving the partitioning criterion."""
        if self.config.criterion is PartitionCriterion.SPATIAL:
            return points
        return estimate_ar_coefficients(histories, points)

    def _partition_count(self, partitioner: IncrementalPartitioner | None) -> int:
        return 1 if partitioner is None else partitioner.num_partitions
