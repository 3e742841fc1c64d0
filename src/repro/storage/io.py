"""Save and load fitted PPQ-trajectory models as versioned artifacts.

:func:`save_model` serializes everything a serving process needs to answer
queries without re-running ``fit()``:

* ``CONFIG``  -- the quantizer/CQC/index configuration and variant (JSON);
* ``CODEBOOK`` -- the error-bounded codebook as a raw float64 buffer;
* ``RECORDS`` -- the per-timestamp summary records: prediction coefficients,
  partition assignments, codeword indices and the CQC bit streams (packed
  through :mod:`repro.utils.bitio`);
* ``RECON``   -- the ε₁-bounded reconstructions of every point, so that a
  load need not replay them from the records (the replay gives the same
  bits);
* ``INDEX``   -- the TPI as seven whole-index arrays: time periods, grid
  rectangles, non-empty cells and their sorted trajectory IDs, linked by
  offset arrays (the delta+Huffman list sizes the paper charges are
  accounting only, see :meth:`~repro.index.grid.GridIndex.storage_bits`);
* ``RAWDATA`` -- optionally, the raw trajectories, which exact-match
  queries verify against.

:func:`load_model` restores a query-ready :class:`~repro.core.pipeline.PPQTrajectory`
(with its :class:`~repro.queries.engine.QueryEngine` wired to the stored
index) and :func:`inspect_model` reports an artifact's layout and checksum
status without constructing the model.  The container layout itself lives
in :mod:`repro.storage.format` and is specified in ``docs/ARTIFACT_FORMAT.md``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.codebook import Codebook
from repro.core.config import CQCConfig, IndexConfig, PPQConfig
from repro.core.summary import TimestepRecord, TrajectorySummary
from repro.cqc.coding import CQCCoder
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.index.grid import GridIndex
from repro.index.pi import PartitionIndex
from repro.index.rectangles import Rect
from repro.index.tpi import TemporalPartitionIndex, TimePeriod
from repro.storage.format import (
    FORMAT_VERSION,
    ArtifactChecksumError,
    ArtifactFormatError,
    ByteReader,
    ByteWriter,
    SectionInfo,
    inspect_artifact,
    unpack_artifact,
    write_artifact_file,
)
from repro.utils.bitio import BitReader, BitWriter

#: Section names, in the order they are written.
SECTION_CONFIG = "CONFIG"
SECTION_CODEBOOK = "CODEBOOK"
SECTION_RECORDS = "RECORDS"
SECTION_RECON = "RECON"
SECTION_INDEX = "INDEX"
SECTION_RAWDATA = "RAWDATA"

_REQUIRED_SECTIONS = (SECTION_CONFIG, SECTION_CODEBOOK, SECTION_RECORDS,
                      SECTION_RECON, SECTION_INDEX)

#: Oldest format version whose INDEX layout this reader decodes.  Older
#: files load only with ``strict=False``, which rebuilds the index.
_INDEX_SINCE_VERSION = 2


# ---------------------------------------------------------------------- #
# CONFIG section
# ---------------------------------------------------------------------- #
def _encode_config(system) -> bytes:
    from repro import __version__

    config = {
        "library_version": __version__,
        "variant": system.variant,
        "ppq": {
            "epsilon1": system.ppq_config.epsilon1,
            "epsilon_p": system.ppq_config.epsilon_p,
            "criterion": system.ppq_config.criterion.value,
            "prediction_order": system.ppq_config.prediction_order,
            "max_partitions": system.ppq_config.max_partitions,
            "partition_growth": system.ppq_config.partition_growth,
            "kmeans_iterations": system.ppq_config.kmeans_iterations,
            "max_codewords_per_step": system.ppq_config.max_codewords_per_step,
            "use_prediction": system.ppq_config.use_prediction,
            "seed": system.ppq_config.seed,
        },
        "cqc": {
            "grid_size": system.cqc_config.grid_size,
            "enabled": system.cqc_config.enabled,
        },
        "index": {
            "epsilon_s": system.index_config.epsilon_s,
            "grid_cell": system.index_config.grid_cell,
            "epsilon_c": system.index_config.epsilon_c,
            "epsilon_d": system.index_config.epsilon_d,
            "page_size_bytes": system.index_config.page_size_bytes,
        },
    }
    return json.dumps(config, sort_keys=True).encode("utf-8")


def _decode_config(payload: bytes) -> dict:
    try:
        config = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactFormatError(f"CONFIG section is not valid JSON: {exc}") from exc
    for key in ("variant", "ppq", "cqc", "index"):
        if key not in config:
            raise ArtifactFormatError(f"CONFIG section is missing the {key!r} entry")
    return config


# ---------------------------------------------------------------------- #
# RECORDS section (summary)
# ---------------------------------------------------------------------- #
def _encode_records(summary: TrajectorySummary) -> bytes:
    writer = ByteWriter()
    timestamps = summary.timestamps
    writer.u64(len(timestamps))
    for t in timestamps:
        record = summary.records[t]
        writer.i64(int(t))

        partitions = sorted(record.coefficients)
        writer.u64(len(partitions))
        for pid in partitions:
            writer.i64(int(pid))
            writer.array(np.asarray(record.coefficients[pid], dtype=np.float64))

        tids = np.asarray(sorted(record.partition_of), dtype=np.int64)
        writer.array(tids)
        writer.array(np.asarray([record.partition_of[int(tid)] for tid in tids],
                                dtype=np.int64))

        tids = np.asarray(sorted(record.codeword_index), dtype=np.int64)
        writer.array(tids)
        writer.array(np.asarray([record.codeword_index[int(tid)] for tid in tids],
                                dtype=np.int64))

        cqc_tids = np.asarray(sorted(record.cqc_codes), dtype=np.int64)
        writer.array(cqc_tids)
        lengths = np.asarray([len(record.cqc_codes[int(tid)]) for tid in cqc_tids],
                             dtype=np.int64)
        writer.array(lengths)
        bits = BitWriter()
        for tid in cqc_tids:
            bits.write_code(record.cqc_codes[int(tid)])
        writer.blob(bits.to_bytes())
    return writer.getvalue()


def _decode_records(payload: bytes, summary: TrajectorySummary) -> None:
    reader = ByteReader(payload)
    for _ in range(reader.u64()):
        record = TimestepRecord(t=reader.i64())

        for _ in range(reader.u64()):
            pid = reader.i64()
            record.coefficients[pid] = reader.array()

        tids = reader.array()
        pids = reader.array()
        record.partition_of = {int(tid): int(pid) for tid, pid in zip(tids, pids)}

        tids = reader.array()
        indices = reader.array()
        record.codeword_index = {int(tid): int(idx) for tid, idx in zip(tids, indices)}
        if record.partition_of.keys() != record.codeword_index.keys():
            raise ArtifactFormatError(f"RECORDS at t={record.t}: partition and codeword "
                                      "entries name different trajectories")

        cqc_tids = reader.array()
        lengths = reader.array()
        bits = BitReader(reader.blob())
        for tid, width in zip(cqc_tids, lengths):
            try:
                record.cqc_codes[int(tid)] = bits.read_bitstring(int(width))
            except EOFError as exc:
                raise ArtifactFormatError("truncated CQC bit stream") from exc
        summary.records[record.t] = record


# ---------------------------------------------------------------------- #
# RECON section (reconstruction store)
# ---------------------------------------------------------------------- #
def _encode_reconstructions(summary: TrajectorySummary) -> bytes:
    entries: list[tuple[int, int]] = []
    for tid in sorted(summary._reconstructions):
        for t in sorted(summary._reconstructions[tid]):
            entries.append((tid, t))
    writer = ByteWriter()
    writer.u64(len(entries))
    if entries:
        tids = np.asarray([tid for tid, _ in entries], dtype=np.int64)
        ts = np.asarray([t for _, t in entries], dtype=np.int64)
        points = np.asarray(
            [summary._reconstructions[tid][t] for tid, t in entries], dtype=np.float64
        )
        writer.array(tids)
        writer.array(ts)
        writer.array(points)
    return writer.getvalue()


def _decode_reconstructions(payload: bytes, summary: TrajectorySummary) -> None:
    reader = ByteReader(payload)
    count = reader.u64()
    if count != summary.num_points:
        raise ArtifactFormatError(f"RECON holds {count} reconstructions for "
                                  f"{summary.num_points} summarised points")
    if count == 0:
        return
    tids = reader.array()
    ts = reader.array()
    points = reader.array()
    if not (len(tids) == len(ts) == len(points) == count):
        raise ArtifactFormatError("RECON arrays are not aligned")
    for tid, t, point in zip(tids, ts, points):
        summary._reconstructions.setdefault(int(tid), {})[int(t)] = point


# ---------------------------------------------------------------------- #
# INDEX section (TPI)
# ---------------------------------------------------------------------- #
#: INDEX arrays in file order: name, dtype, and columns (``None``: 1-D).
_INDEX_ARRAYS = (("periods", np.int64, 3), ("grid_offsets", np.int64, None),
                 ("grids", np.float64, 6), ("cell_offsets", np.int64, None),
                 ("cells", np.int64, 2), ("id_offsets", np.int64, None),
                 ("ids", np.int64, None))


def _encode_index(index: TemporalPartitionIndex) -> bytes:
    periods, grids, cells, ids = [], [], [], []
    grid_offsets, cell_offsets, id_offsets = [0], [0], [0]
    for period in index.periods:
        pi = period.index
        periods.append((period.start, period.end, pi.t))
        baselines = pi.baseline_density or [0.0] * len(pi.grids)
        for grid, baseline in zip(pi.grids, baselines):
            rect, postings = grid.rect, grid.postings()
            grids.append((rect.min_x, rect.min_y, rect.max_x, rect.max_y,
                          grid.cell_size, baseline))
            for cell in sorted(postings):
                cells.append(cell)
                ids.extend(postings[cell])
                id_offsets.append(len(ids))
            cell_offsets.append(len(cells))
        grid_offsets.append(len(grids))
    writer = ByteWriter()
    writer.i64(index.seed)
    writer.u64(index.stats.num_rebuilds)
    writer.u64(index.stats.num_insertions)
    arrays = (periods, grid_offsets, grids, cell_offsets, cells, id_offsets, ids)
    for (_name, dtype, columns), values in zip(_INDEX_ARRAYS, arrays):
        shape = (-1,) if columns is None else (-1, columns)
        writer.array(np.asarray(values, dtype=dtype).reshape(shape))
    return writer.getvalue()


def _check_offsets(name: str, offsets: np.ndarray, runs: int, entries: int,
                   allow_empty: bool) -> None:
    """``offsets`` must split ``entries`` entries into ``runs`` consecutive runs."""
    if (len(offsets) != runs + 1 or offsets[0] != 0 or offsets[-1] != entries
            or np.any(offsets[1:] < offsets[:-1])):
        raise ArtifactFormatError(f"INDEX {name} do not split {entries} entries into "
                                  f"{runs} runs")
    if not allow_empty and np.any(offsets[1:] == offsets[:-1]):
        raise ArtifactFormatError(f"INDEX {name} leave a cell empty")


def _check_ascending(name: str, ascending: np.ndarray, offsets: np.ndarray) -> None:
    """``ascending[i]`` says entry ``i + 1`` follows entry ``i``; run starts are exempt."""
    ascending = ascending.copy()
    starts = offsets[1:-1]
    ascending[starts[(starts > 0) & (starts <= len(ascending))] - 1] = True
    if not ascending.all():
        raise ArtifactFormatError(f"INDEX {name} are not strictly ascending within a run")


def _decode_index(payload: bytes, config: IndexConfig) -> TemporalPartitionIndex:
    reader = ByteReader(payload)
    index = TemporalPartitionIndex(config, seed=reader.i64())
    index.stats.num_rebuilds = reader.u64()
    index.stats.num_insertions = reader.u64()
    arrays = []
    for name, dtype, columns in _INDEX_ARRAYS:
        array = reader.array()
        if (array.dtype != dtype or array.ndim == 0
                or array.shape[1:] != (() if columns is None else (columns,))):
            raise ArtifactFormatError(f"INDEX {name} has dtype {array.dtype} and shape "
                                      f"{array.shape}")
        arrays.append(array)
    if reader.remaining:
        raise ArtifactFormatError(f"INDEX has {reader.remaining} trailing bytes")
    periods, grid_offsets, grids, cell_offsets, cells, id_offsets, ids = arrays

    _check_offsets("grid_offsets", grid_offsets, len(periods), len(grids), allow_empty=True)
    _check_offsets("cell_offsets", cell_offsets, len(grids), len(cells), allow_empty=True)
    _check_offsets("id_offsets", id_offsets, len(cells), len(ids), allow_empty=False)
    before, after = cells[:-1], cells[1:]
    _check_ascending("cells", (after[:, 0] > before[:, 0])
                     | ((after[:, 0] == before[:, 0]) & (after[:, 1] > before[:, 1])),
                     cell_offsets)
    _check_ascending("ids", ids[1:] > ids[:-1], id_offsets)
    if not (np.isfinite(grids).all() and np.all(grids[:, 0] <= grids[:, 2])
            and np.all(grids[:, 1] <= grids[:, 3]) and np.all(grids[:, 4] > 0)):
        raise ArtifactFormatError("INDEX holds a non-finite value, a degenerate rectangle "
                                  "or a non-positive cell size")

    cell_keys = list(zip(cells[:, 0].tolist(), cells[:, 1].tolist()))
    id_list, id_bounds = ids.tolist(), id_offsets.tolist()
    lists = [tuple(id_list[a:b]) for a, b in zip(id_bounds, id_bounds[1:])]
    rows, cell_bounds, grid_bounds = grids.tolist(), cell_offsets.tolist(), grid_offsets.tolist()
    for (start, end, t), first, stop in zip(periods.tolist(), grid_bounds, grid_bounds[1:]):
        pi = PartitionIndex(t=t, config=config)
        for g in range(first, stop):
            min_x, min_y, max_x, max_y, cell_size, baseline = rows[g]
            a, b = cell_bounds[g], cell_bounds[g + 1]
            try:
                grid = GridIndex(Rect(min_x, min_y, max_x, max_y), cell_size,
                                 postings=dict(zip(cell_keys[a:b], lists[a:b])))
            except OverflowError as exc:  # finite bounds, but too many cells to count
                raise ArtifactFormatError(f"INDEX grid {g} is unusable: {exc}") from exc
            pi.grids.append(grid)
            pi.baseline_density.append(baseline)
        index.periods.append(TimePeriod(start=start, end=end, index=pi))
    return index


# ---------------------------------------------------------------------- #
# RAWDATA section
# ---------------------------------------------------------------------- #
def _encode_dataset(dataset: TrajectoryDataset) -> bytes:
    writer = ByteWriter()
    traj_ids = dataset.trajectory_ids
    writer.u64(len(traj_ids))
    for tid in traj_ids:
        traj = dataset.get(tid)
        writer.i64(int(tid))
        writer.array(np.asarray(traj.timestamps, dtype=np.int64))
        writer.array(np.asarray(traj.points, dtype=np.float64))
    return writer.getvalue()


def _decode_dataset(payload: bytes) -> TrajectoryDataset:
    reader = ByteReader(payload)
    trajectories = []
    try:
        for _ in range(reader.u64()):
            tid = reader.i64()
            timestamps = reader.array()
            points = reader.array()
            trajectories.append(Trajectory(traj_id=tid, points=points, timestamps=timestamps))
        return TrajectoryDataset(trajectories)
    except ValueError as exc:
        raise ArtifactFormatError(f"RAWDATA holds an invalid trajectory: {exc}") from exc


# ---------------------------------------------------------------------- #
# public API
# ---------------------------------------------------------------------- #
def save_model(system, path: str | Path, include_raw: bool = True) -> Path:
    """Serialize a fitted PPQ-trajectory system to a versioned artifact file.

    Parameters
    ----------
    system:
        A fitted :class:`~repro.core.pipeline.PPQTrajectory` (``fit()`` must
        have been called with ``build_index=True``).
    path:
        Destination file; written atomically (temp file + rename).
    include_raw:
        Whether to embed the raw trajectories in a ``RAWDATA`` section.
        Exact-match queries verify candidates against the raw data, so a
        model saved with ``include_raw=False`` loads without exact-query
        support (STRQ/TPQ are unaffected) and is correspondingly smaller.

    Returns
    -------
    pathlib.Path
        The path written.

    Raises
    ------
    RuntimeError
        If the system has no summary or no query engine (not fitted).
    OSError
        If the file cannot be written.
    """
    if system.summary is None:
        raise RuntimeError("cannot save an unfitted model: call fit() first")
    if system.engine is None:
        raise RuntimeError("cannot save a model without an index: "
                           "call fit(build_index=True) first")
    sections = [
        (SECTION_CONFIG, _encode_config(system)),
        (SECTION_CODEBOOK, _encode_codebook(system.summary.codebook)),
        (SECTION_RECORDS, _encode_records(system.summary)),
        (SECTION_RECON, _encode_reconstructions(system.summary)),
        (SECTION_INDEX, _encode_index(system.engine.index)),
    ]
    if include_raw and system.engine.raw_dataset is not None:
        sections.append((SECTION_RAWDATA, _encode_dataset(system.engine.raw_dataset)))
    return write_artifact_file(path, sections)


def _encode_codebook(codebook: Codebook) -> bytes:
    writer = ByteWriter()
    writer.array(np.asarray(codebook.codewords, dtype=np.float64))
    return writer.getvalue()


def _decode_codebook(payload: bytes) -> Codebook:
    codewords = ByteReader(payload).array()
    codebook = Codebook(initial_capacity=max(64, len(codewords)))
    codebook.extend(codewords)
    return codebook


#: Sections that cannot be rebuilt from other sections.  When one of these
#: is damaged there is no model, so even ``strict=False`` loads raise.
_NON_DERIVABLE_SECTIONS = (SECTION_CONFIG, SECTION_CODEBOOK, SECTION_RECORDS)


@dataclass(frozen=True)
class SectionOutcome:
    """Fate of one artifact section during a load.

    ``status`` is ``ok`` (decoded normally), ``rebuilt`` (the stored copy
    was unusable but the section is derivable, so nothing was lost) or
    ``dropped`` (non-derivable and damaged: the raw-data section).
    """

    name: str
    status: str
    detail: str = ""


@dataclass
class LoadReport:
    """What a load found, rebuilt and lost.

    Attributes
    ----------
    path:
        Artifact file the report describes.
    strict:
        Whether the load ran in strict mode (a strict load that succeeds
        reports every section ``ok``).
    sections:
        Per-section outcomes in artifact order.
    lost:
        Capabilities that are unavailable after the load (e.g.
        ``"exact queries"`` when the raw-data section was dropped).
    """

    path: str
    strict: bool = True
    sections: list[SectionOutcome] = field(default_factory=list)
    lost: list[str] = field(default_factory=list)

    def record(self, name: str, status: str, detail: str = "") -> None:
        """Append one section outcome."""
        self.sections.append(SectionOutcome(name=name, status=status, detail=detail))

    def mark_lost(self, capability: str) -> None:
        """Register a capability as unavailable after this load."""
        if capability not in self.lost:
            self.lost.append(capability)

    @property
    def clean(self) -> bool:
        """True when every section decoded normally and nothing was lost."""
        return not self.lost and all(s.status == "ok" for s in self.sections)

    @property
    def rebuilt(self) -> list[str]:
        """Names of sections that were rebuilt from derivable state."""
        return [s.name for s in self.sections if s.status == "rebuilt"]

    @property
    def dropped(self) -> list[str]:
        """Names of sections that were dropped."""
        return [s.name for s in self.sections if s.status == "dropped"]

    def lines(self) -> list[str]:
        """Human-readable one-line-per-section summary (CLI output)."""
        out = []
        for section in self.sections:
            line = f"{section.name}: {section.status}"
            if section.detail:
                line += f" ({section.detail})"
            out.append(line)
        if self.lost:
            out.append("lost capabilities: " + ", ".join(self.lost))
        return out


def load_model(path: str | Path, strict: bool = True):
    """Load a model artifact into a query-ready ``PPQTrajectory``.

    The returned system answers STRQ/TPQ (and, when the artifact has a
    ``RAWDATA`` section, exact-match) queries -- scalar or batched --
    identically to the system that was saved, without refitting: the
    summary, codebook, reconstructions and the full TPI are restored from
    the artifact.  Every section's CRC32 is checked before it is decoded.

    Parameters
    ----------
    path:
        An artifact produced by :func:`save_model`.
    strict:
        When true (the default), any damage raises.  With ``strict=False``
        the loader salvages what it can: the config, codebook and summary
        records must be intact (they are not derivable), but damaged or
        truncated reconstructions are recomputed at load by replaying the
        records (:meth:`~repro.core.summary.TrajectorySummary.replay`), a
        damaged index is rebuilt from the summary's reconstructions, and a
        damaged raw-data section is dropped with a ``RuntimeWarning``
        (disabling exact-match queries).  An artifact older than format
        version 2 loads only this way: its INDEX layout is no longer read,
        so the index is rebuilt.  The resulting system's
        ``load_report`` (a :class:`LoadReport`) lists every section's fate;
        rebuilt sections are bit-identical to the originals because both
        are deterministic functions of the summary.

    Returns
    -------
    PPQTrajectory
        The restored system (its ``engine`` uses the stored index), with a
        ``load_report`` attribute describing per-section outcomes.

    Raises
    ------
    OSError
        If the file cannot be read.
    ArtifactFormatError
        If the file is not a well-formed artifact, a non-salvageable
        section is missing, or (strict loads) a section fails its checks
        or the file predates format version 2.
    ArtifactVersionError
        If the artifact was written by a newer format version.
    ArtifactChecksumError
        If a checksum mismatch affects a section the load cannot proceed
        without (any section in strict mode; the config/codebook/records
        sections in non-strict mode).
    """
    from repro.core.pipeline import PPQTrajectory
    from repro.queries.engine import QueryEngine

    path = Path(path)
    blob = path.read_bytes()
    report = LoadReport(path=str(path), strict=strict)

    if strict:
        version, payloads = unpack_artifact(blob)
        missing = [name for name in _REQUIRED_SECTIONS if name not in payloads]
        if missing:
            raise ArtifactFormatError(
                f"artifact is missing required section(s): {', '.join(missing)}"
            )
        if version < _INDEX_SINCE_VERSION:
            raise ArtifactFormatError(
                f"artifact format version {version} stores INDEX in a layout this "
                "library no longer reads; load it with strict=False to rebuild "
                "the index from the summary"
            )
    else:
        version, infos = inspect_artifact(blob, strict=False)
        payloads = {info.name: blob[info.offset:info.offset + info.length] for info in infos}
        crc_ok = {info.name: info.crc_ok for info in infos}
        missing = [name for name in _NON_DERIVABLE_SECTIONS if name not in payloads]
        if missing:
            raise ArtifactFormatError(
                f"artifact is missing non-derivable section(s): {', '.join(missing)}"
            )
        damaged = [name for name in _NON_DERIVABLE_SECTIONS if not crc_ok[name]]
        if damaged:
            raise ArtifactChecksumError(
                f"section(s) {', '.join(damaged)} are corrupt and cannot be "
                "rebuilt from other sections"
            )

    config = _decode_config(payloads[SECTION_CONFIG])
    ppq_config = PPQConfig(**config["ppq"])
    cqc_config = CQCConfig(**config["cqc"])
    index_config = IndexConfig(**config["index"])
    system = PPQTrajectory(ppq_config=ppq_config, cqc_config=cqc_config,
                           index_config=index_config, variant=config["variant"])
    report.record(SECTION_CONFIG, "ok")

    codebook = _decode_codebook(payloads[SECTION_CODEBOOK])
    report.record(SECTION_CODEBOOK, "ok")
    cqc_coder = None
    if cqc_config.enabled:
        cqc_coder = CQCCoder(epsilon=ppq_config.epsilon1, grid_size=cqc_config.grid_size)
    summary = TrajectorySummary(ppq_config, cqc_config, codebook, cqc_coder)
    _decode_records(payloads[SECTION_RECORDS], summary)
    report.record(SECTION_RECORDS, "ok")

    if strict:
        _decode_reconstructions(payloads[SECTION_RECON], summary)
        report.record(SECTION_RECON, "ok")
        index = _decode_index(payloads[SECTION_INDEX], index_config)
        report.record(SECTION_INDEX, "ok")
        raw_dataset = None
        if SECTION_RAWDATA in payloads:
            raw_dataset = _decode_dataset(payloads[SECTION_RAWDATA])
            report.record(SECTION_RAWDATA, "ok")
    else:
        index, raw_dataset = _salvage_sections(
            payloads, crc_ok, version, summary, index_config, report
        )

    system.summary = summary
    system._dataset = raw_dataset
    system.engine = QueryEngine(summary, index_config, raw_dataset=raw_dataset, index=index)
    system.load_report = report
    return system


def _salvage_sections(payloads: dict[str, bytes], crc_ok: dict[str, bool], version: int,
                      summary: TrajectorySummary, index_config: IndexConfig,
                      report: LoadReport):
    """Decode the derivable sections of a damaged artifact, rebuilding as needed.

    Returns ``(index, raw_dataset)`` where ``index`` is ``None`` when the
    stored TPI was unusable (the caller's ``QueryEngine`` then rebuilds it
    deterministically from the summary's reconstructions -- the same
    seed-0 build that produced the original at fit time, so the rebuilt
    index is bit-identical) and ``raw_dataset`` is ``None`` when the
    raw-data section was damaged or absent.
    """
    if SECTION_RECON in payloads and crc_ok[SECTION_RECON]:
        try:
            _decode_reconstructions(payloads[SECTION_RECON], summary)
            report.record(SECTION_RECON, "ok")
        except Exception as exc:  # noqa: BLE001 - any decode failure is salvageable
            summary.replay()
            report.record(SECTION_RECON, "rebuilt",
                          f"decode failed ({exc}); replayed from records")
    else:
        summary.replay()
        detail = "missing" if SECTION_RECON not in payloads else "checksum mismatch"
        report.record(SECTION_RECON, "rebuilt", f"{detail}; replayed from records")

    index = None
    if SECTION_INDEX not in payloads:
        detail = "missing"
    elif not crc_ok[SECTION_INDEX]:
        detail = "checksum mismatch"
    elif version < _INDEX_SINCE_VERSION:
        detail = f"format version {version} layout"
    else:
        try:
            index = _decode_index(payloads[SECTION_INDEX], index_config)
        except Exception as exc:  # noqa: BLE001 - any decode failure is salvageable
            detail = f"decode failed ({exc})"
    if index is None:
        report.record(SECTION_INDEX, "rebuilt",
                      f"{detail}; rebuilt from summary reconstructions")
    else:
        report.record(SECTION_INDEX, "ok")

    raw_dataset = None
    if SECTION_RAWDATA in payloads:
        if crc_ok[SECTION_RAWDATA]:
            try:
                raw_dataset = _decode_dataset(payloads[SECTION_RAWDATA])
                report.record(SECTION_RAWDATA, "ok")
            except Exception as exc:  # noqa: BLE001 - dropping raw data is safe
                report.record(SECTION_RAWDATA, "dropped", f"decode failed ({exc})")
        else:
            report.record(SECTION_RAWDATA, "dropped", "checksum mismatch")
        if raw_dataset is None:
            report.mark_lost("exact queries")
            warnings.warn(
                "RAWDATA section of the artifact is damaged; raw trajectories "
                "were dropped and exact-match queries are disabled",
                RuntimeWarning, stacklevel=3,
            )
    return index, raw_dataset


@dataclass(frozen=True)
class ArtifactInfo:
    """What ``repro info`` reports about an artifact without loading it.

    Attributes
    ----------
    path:
        The inspected file.
    file_size:
        Total size in bytes.
    format_version:
        The artifact's format version.
    sections:
        Per-section :class:`~repro.storage.format.SectionInfo` rows (name,
        offset, length, checksum status).
    config:
        The decoded ``CONFIG`` section, or ``None`` when it is corrupt.
    """

    path: Path
    file_size: int
    format_version: int
    sections: list[SectionInfo]
    config: dict | None

    @property
    def checksums_ok(self) -> bool:
        """Whether every section's payload matches its stored CRC32."""
        return all(info.crc_ok for info in self.sections)


def inspect_model(path: str | Path) -> ArtifactInfo:
    """Describe an artifact -- sections, sizes, checksums -- without loading it.

    Corrupt section payloads are reported via ``sections[i].crc_ok`` rather
    than raised, so damaged files can still be described; only structural
    damage (bad magic, truncated table) raises.

    Raises
    ------
    OSError
        If the file cannot be read.
    ArtifactFormatError, ArtifactVersionError, ArtifactChecksumError
        If the header or section table is unreadable.
    """
    path = Path(path)
    blob = path.read_bytes()
    version, sections = inspect_artifact(blob)
    config = None
    for info in sections:
        if info.name == SECTION_CONFIG and info.crc_ok:
            try:
                config = _decode_config(blob[info.offset:info.offset + info.length])
            except ArtifactFormatError:
                config = None
    return ArtifactInfo(path=path, file_size=len(blob), format_version=version,
                        sections=sections, config=config)


__all__ = [
    "save_model",
    "load_model",
    "inspect_model",
    "ArtifactInfo",
    "LoadReport",
    "SectionOutcome",
    "FORMAT_VERSION",
]
