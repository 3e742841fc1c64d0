"""Persistent model artifacts: versioned save/load for fitted pipelines.

The storage subpackage turns a fitted :class:`~repro.core.pipeline.PPQTrajectory`
into a single self-describing file and back, enabling the build-once /
serve-many split: one process fits and saves, any number of serving
processes load and answer queries with bit-identical results.

* :mod:`repro.storage.format` -- the binary container: magic, format
  version, CRC-checked section table, typed little-endian primitives.
* :mod:`repro.storage.io` -- per-component serializers plus the public
  :func:`save_model` / :func:`load_model` / :func:`inspect_model` entry
  points, and the :class:`LoadReport` a load attaches to the system it
  returns (what a salvage load rebuilt or dropped).

The on-disk layout is specified in ``docs/ARTIFACT_FORMAT.md``; no pickle
is used anywhere.
"""

from repro.storage.format import (
    FORMAT_VERSION,
    MAGIC,
    ArtifactChecksumError,
    ArtifactError,
    ArtifactFormatError,
    ArtifactVersionError,
    SectionInfo,
)
from repro.storage.io import (
    ArtifactInfo,
    LoadReport,
    SectionOutcome,
    inspect_model,
    load_model,
    save_model,
)

__all__ = [
    "save_model",
    "load_model",
    "inspect_model",
    "ArtifactInfo",
    "LoadReport",
    "SectionOutcome",
    "SectionInfo",
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactVersionError",
    "ArtifactChecksumError",
    "FORMAT_VERSION",
    "MAGIC",
]
