"""Partition-wise predictive quantization (PPQ), Section 3.2 of the paper.

The quantizer processes a :class:`~repro.data.trajectory.TrajectoryDataset`
one timestamp at a time:

1. the active trajectory points are partitioned by spatial proximity (PPQ-S)
   or by AR(k) autocorrelation similarity (PPQ-A), maintained incrementally
   across timestamps by :class:`~repro.core.partitioning.IncrementalPartitioner`;
2. each partition fits its own linear predictor over the previous ``k``
   *reconstructed* points of its member trajectories (Equation 6);
3. the per-point prediction errors are quantized by the shared error-bounded
   incremental codebook (Equation 3);
4. optionally, the residual deviation between the true point and its
   reconstruction is CQC-encoded for accurate reconstruction (Section 4).

The result is a :class:`~repro.core.summary.TrajectorySummary`.
"""

from __future__ import annotations

import time
from collections import deque

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
        history: dict[int, deque[np.ndarray]] = {}
        predictors: dict[int, LinearPredictor] = {}

        start_total = time.perf_counter()
        for slice_ in dataset.iter_time_slices(t_max=t_max):
            if len(slice_) == 0:
                continue
            self._process_slice(slice_, summary, codebook, quantizer, cqc_coder,
                                partitioner, history, predictors)
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
                       history: dict[int, deque[np.ndarray]],
                       predictors: dict[int, LinearPredictor]) -> None:
        traj_ids = slice_.traj_ids
        points = slice_.points
        order = self.config.prediction_order

        histories = self._history_tensor(traj_ids, history, order)

        # --- partitioning -------------------------------------------------
        start = time.perf_counter()
        groups = self._partition_slice(partitioner, traj_ids, points, histories)
        self.timings["partitioning"] += time.perf_counter() - start

        record = TimestepRecord(t=slice_.t)
        predictions = np.zeros_like(points)

        # --- prediction ----------------------------------------------------
        start = time.perf_counter()
        for pid, rows in groups.items():
            if len(rows) == 0:
                continue
            predictor = predictors.setdefault(pid, LinearPredictor(order=order))
            group_history = histories[rows] if histories is not None else None
            if self.config.use_prediction and group_history is not None:
                valid = ~np.isnan(group_history).any(axis=(1, 2))
                if np.any(valid):
                    predictor.fit(group_history[valid], points[rows][valid])
                coeffs = predictor.coefficients
                if coeffs is None:
                    coeffs = np.zeros(order, dtype=float)
                filled = _replace_nan_history(group_history)
                predictions[rows] = np.einsum("k,nkd->nd", coeffs, filled)
                record.coefficients[pid] = coeffs.copy()
            else:
                record.coefficients[pid] = np.zeros(order, dtype=float)
            for row in rows:
                record.partition_of[int(traj_ids[row])] = pid
        self.timings["prediction"] += time.perf_counter() - start

        # --- quantization of prediction errors -----------------------------
        start = time.perf_counter()
        errors = points - predictions
        indices = quantizer.quantize(errors, codebook)
        reconstructions = predictions + codebook.reconstruct(indices)
        self.timings["quantization"] += time.perf_counter() - start

        # --- CQC encoding ---------------------------------------------------
        start = time.perf_counter()
        if cqc_coder is not None:
            offsets = points - reconstructions
            for row, tid in enumerate(traj_ids):
                record.cqc_codes[int(tid)] = cqc_coder.encode_offset(offsets[row])
        self.timings["cqc"] += time.perf_counter() - start

        # --- bookkeeping ------------------------------------------------------
        for row, tid in enumerate(traj_ids):
            tid = int(tid)
            record.codeword_index[tid] = int(indices[row])
            summary.cache_reconstruction(tid, slice_.t, reconstructions[row])
            queue = history.setdefault(tid, deque(maxlen=self.config.prediction_order))
            queue.appendleft(reconstructions[row])
        summary.add_record(record)

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
                         histories: np.ndarray | None) -> dict[int, np.ndarray]:
        """Return a mapping partition id -> row indices for this slice."""
        if partitioner is None:
            return {0: np.arange(len(traj_ids), dtype=np.int64)}
        features = self._partition_features(points, histories)
        return partitioner.update(traj_ids, features)

    def _partition_features(self, points: np.ndarray,
                            histories: np.ndarray | None) -> np.ndarray:
        """Feature vectors driving the partitioning criterion."""
        if self.config.criterion is PartitionCriterion.SPATIAL or histories is None:
            return points
        filled = _replace_nan_history(histories)
        return estimate_ar_coefficients(filled, points)

    def _partition_count(self, partitioner: IncrementalPartitioner | None) -> int:
        return 1 if partitioner is None else partitioner.num_partitions

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _history_tensor(self, traj_ids: np.ndarray,
                        history: dict[int, deque[np.ndarray]],
                        order: int) -> np.ndarray | None:
        """Previous ``order`` reconstructions per active trajectory.

        Shape ``(n, order, 2)``.  Missing lags are NaN; completely new
        trajectories therefore have an all-NaN history, which downstream code
        treats as "predict zero" (the paper sets ``P_j[t] = 0`` for ``t <= k``).
        """
        n = len(traj_ids)
        if n == 0:
            return None
        tensor = np.full((n, order, 2), np.nan, dtype=float)
        for row, tid in enumerate(traj_ids):
            queue = history.get(int(tid))
            if not queue:
                continue
            for lag, point in enumerate(queue):
                if lag >= order:
                    break
                tensor[row, lag] = point
        return tensor


def _replace_nan_history(histories: np.ndarray) -> np.ndarray:
    """Replace missing lags by the nearest available one (or zero).

    Keeps prediction well-defined for points with a short history: the most
    recent available reconstruction is repeated for older missing lags, and a
    fully missing history becomes zeros so the prediction collapses to the
    codeword alone, as in the paper's ``t <= k`` bootstrap.
    """
    n, order, _ = histories.shape
    present = ~np.isnan(histories).any(axis=2)
    # Lag index 0 is the most recent.  A missing lag repeats the nearest
    # more recent present lag; missing lags more recent than every present
    # one repeat the most recent present lag.
    source = np.maximum.accumulate(np.where(present, np.arange(order), -1), axis=1)
    source = np.where(source < 0, present.argmax(axis=1)[:, None], source)
    filled = histories[np.arange(n)[:, None], source]
    filled[~present.any(axis=1)] = 0.0
    return filled
