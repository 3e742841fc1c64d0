"""E-PQ: error-bounded predictive quantization without partitioning.

Algorithm 1 of the paper applied with a single, global prediction model
(``q = 1``).  Used both as an ablation baseline in the experiments and as the
building block that PPQ applies per partition.
"""

from __future__ import annotations

from repro.core.partitioning import IncrementalPartitioner
from repro.core.ppq import PartitionwisePredictiveQuantizer


class ErrorBoundedPredictiveQuantizer(PartitionwisePredictiveQuantizer):
    """Single-partition predictive quantizer (the paper's E-PQ baseline).

    Behaves exactly like :class:`PartitionwisePredictiveQuantizer` but keeps
    all trajectory points in one partition with one shared predictor, so the
    ``epsilon_p`` / criterion parameters of the config are ignored.
    """

    def _build_partitioner(self) -> IncrementalPartitioner | None:
        # A ``None`` partitioner short-circuits partitioning: every slice is
        # a single group with partition id 0.
        return None
