"""PPQ-Trajectory: spatio-temporal quantization for querying large trajectory
repositories.

A from-scratch Python reproduction of Wang & Ferhatosmanoglu, PVLDB 14(2),
2021 (VLDB 2020).  The package provides:

* :class:`repro.PPQTrajectory` -- the end-to-end system (quantize + CQC +
  temporal partition-based index + queries);
* :mod:`repro.core` -- the partition-wise predictive quantizer and its
  building blocks;
* :mod:`repro.cqc` -- coordinate quadtree coding;
* :mod:`repro.index` -- partition-based / temporal partition-based indexes
  and the simulated disk layout;
* :mod:`repro.queries` -- STRQ, TPQ and exact-match query processing;
* :mod:`repro.baselines` -- product quantization, residual quantization,
  Q-trajectory, TrajStore and REST, re-implemented for the comparative
  experiments;
* :mod:`repro.data` -- the trajectory data model, synthetic Porto/GeoLife-like
  generators and loaders for the real datasets;
* :mod:`repro.metrics` -- MAE, precision/recall, compression-ratio and timing
  utilities used by the benchmark harness;
* :mod:`repro.storage` -- versioned on-disk model artifacts
  (:func:`save_model` / :func:`load_model`) for the build-once/serve-many
  deployment split, with a CRC32 per section and salvage loads that rebuild
  the derivable sections of a damaged artifact (:class:`LoadReport`).
"""

from repro.core.config import CQCConfig, IndexConfig, PPQConfig, PartitionCriterion
from repro.core.epq import ErrorBoundedPredictiveQuantizer
from repro.core.pipeline import PPQTrajectory
from repro.core.ppq import PartitionwisePredictiveQuantizer
from repro.core.summary import TrajectorySummary
from repro.queries.engine import QueryEngine, QueryError

__version__ = "4.0.0"

from repro.storage import LoadReport, inspect_model, load_model, save_model  # noqa: E402

__all__ = [
    "PPQTrajectory",
    "PPQConfig",
    "CQCConfig",
    "IndexConfig",
    "PartitionCriterion",
    "PartitionwisePredictiveQuantizer",
    "ErrorBoundedPredictiveQuantizer",
    "TrajectorySummary",
    "QueryEngine",
    "LoadReport",
    "QueryError",
    "save_model",
    "load_model",
    "inspect_model",
    "__version__",
]
