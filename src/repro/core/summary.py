"""The trajectory summary produced by (partition-wise) predictive quantization.

The summary is exactly the set of parameters the paper lists as sufficient to
reproduce any trajectory: the per-timestamp, per-partition prediction
coefficients ``P_j[t]``, the error-bounded codebook ``C``, the per-point
codeword indices ``b_i^t`` and (optionally) the per-point CQC codes.  The
reconstructed points themselves are *derivable* from these parameters:
:meth:`TrajectorySummary.replay` recomputes them, bit for bit, through the
same per-slice step the quantizer uses.  The summary also keeps every one of
them in a reconstruction store, because the quantizer predicts from the
previous ``k`` reconstructions anyway and queries reuse them; the store is
excluded from storage accounting.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.codebook import Codebook
from repro.core.config import CQCConfig, PPQConfig
from repro.core.prediction import lag_history


class ReconstructionCache:
    """Bounded LRU cache for reconstructed timestamp slices.

    Batched queries touch the same timestamps over and over (every STRQ and
    exact-match query at ``t`` wants the reconstructions of candidates
    active at ``t``; TPQ paths bypass the cache).  Caching whole slices
    amortises the CQC offset decoding across all queries of a batch,
    while the LRU bound keeps memory proportional to the working set instead
    of the stream length.

    Attributes
    ----------
    capacity:
        Maximum number of slices kept; the least recently used slice is
        evicted first.  A capacity of zero (negative values are clamped to
        zero) disables the cache: lookups miss, stores are dropped, nothing
        is retained -- callers need no special casing and memory stays flat.
    hits, misses, evictions:
        Counters exposed for tests and benchmark reporting.  The summary's
        accessors count at point granularity (a hit means one reconstruction
        was served from cache), so reported hit rates reflect actual work
        saved.  Counters survive :meth:`clear` (and disablement), so
        ``hits + misses`` always equals the number of recorded lookups.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(0, int(capacity))
        self._entries: OrderedDict[tuple[int, bool], dict[int, np.ndarray | None]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def disabled(self) -> bool:
        """True when the capacity is zero (every lookup misses)."""
        return self.capacity == 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[int, bool]) -> bool:
        return key in self._entries

    def get(self, key: tuple[int, bool],
            record: bool = True) -> dict[int, np.ndarray | None] | None:
        """Return the cached slice for ``key`` or ``None``, updating recency.

        ``record=False`` skips the hit/miss counters (used by accessors that
        count at point granularity instead).
        """
        entry = self._entries.get(key)
        if entry is None:
            if record:
                self.misses += 1
            return None
        self._entries.move_to_end(key)
        if record:
            self.hits += 1
        return entry

    def put(self, key: tuple[int, bool], value: dict[int, np.ndarray | None]) -> None:
        """Store a slice, evicting the least recently used one when full.

        A disabled cache (capacity 0) drops the value without storing it --
        and without counting an eviction, since nothing cached was displaced.
        """
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached slice (counters are kept)."""
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counters as a plain dict (for logging / benchmark tables)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class TimestepRecord:
    """Everything the summary stores for one timestamp.

    Attributes
    ----------
    t:
        The timestamp.
    coefficients:
        Mapping partition ID -> prediction coefficient vector ``P_1..P_k``.
    partition_of:
        Mapping trajectory ID -> partition ID at this timestamp.
    codeword_index:
        Mapping trajectory ID -> index of the codeword representing the
        prediction error of this trajectory's point.
    cqc_codes:
        Mapping trajectory ID -> CQC bit string (empty when CQC is disabled).
    """

    t: int
    coefficients: dict[int, np.ndarray] = field(default_factory=dict)
    partition_of: dict[int, int] = field(default_factory=dict)
    codeword_index: dict[int, int] = field(default_factory=dict)
    cqc_codes: dict[int, str] = field(default_factory=dict)

    @property
    def num_points(self) -> int:
        """Number of trajectory points summarised at this timestamp."""
        return len(self.codeword_index)

    @property
    def num_partitions(self) -> int:
        """Number of partitions active at this timestamp."""
        return len(self.coefficients)


@dataclass
class SummaryStorage:
    """Bit-exact storage breakdown of a summary (used for compression ratio).

    All fields are in bits; :attr:`total_bits` and :attr:`total_bytes` sum
    them up.
    """

    codebook_bits: int = 0
    codeword_index_bits: int = 0
    coefficient_bits: int = 0
    partition_assignment_bits: int = 0
    cqc_bits: int = 0

    @property
    def total_bits(self) -> int:
        return (self.codebook_bits + self.codeword_index_bits + self.coefficient_bits
                + self.partition_assignment_bits + self.cqc_bits)

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8.0


class TrajectorySummary:
    """Summary of a trajectory repository built by E-PQ / PPQ.

    Parameters
    ----------
    config:
        The quantizer configuration used to build the summary.
    cqc_config:
        CQC configuration; when ``enabled`` is ``False`` codes are not stored.
    codebook:
        The shared error-bounded codebook.
    cqc_coder:
        The coordinate-quadtree coder used to decode CQC codes (``None`` when
        CQC is disabled).  Only the fixed template parameters of the coder
        matter for storage, not per-point state.
    slice_cache_capacity:
        Bound of the LRU slice cache shared by the batched query path;
        ``0`` (or any negative value) disables caching entirely -- results
        are unchanged, every lookup just recomputes.
    """

    def __init__(self, config: PPQConfig, cqc_config: CQCConfig,
                 codebook: Codebook, cqc_coder=None,
                 slice_cache_capacity: int = 256) -> None:
        self.config = config
        self.cqc_config = cqc_config
        self.codebook = codebook
        self.cqc_coder = cqc_coder
        self.records: dict[int, TimestepRecord] = {}
        # Reconstruction store: traj_id -> {t: reconstructed point (without
        # CQC refinement)} for every summarised point, in time order.
        # Derivable from the summary, so not charged to storage.
        self._reconstructions: dict[int, dict[int, np.ndarray]] = {}
        # LRU cache of fully refined per-timestamp slices, shared by the
        # batched query path (also derivable, so not charged to storage).
        self.slice_cache = ReconstructionCache(capacity=slice_cache_capacity)

    # ------------------------------------------------------------------ #
    # population: the per-slice step shared by the quantizers and replay
    # ------------------------------------------------------------------ #
    def add_record(self, record: TimestepRecord) -> None:
        """Store the record of one timestamp.

        Any cached slices are invalidated: a new record can change which
        trajectories are active (and their reconstructions) at ``record.t``.
        """
        self.records[record.t] = record
        self.slice_cache.clear()

    def recent_history(self, traj_ids) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~repro.core.prediction.lag_history` of the next slice's trajectories.

        Slices are stored in time order, so a trajectory's stored points are
        its previous appearances.
        """
        store = self._reconstructions
        return lag_history([reversed(store.get(int(tid), {}).values()) for tid in traj_ids],
                           self.config.prediction_order)

    def predict_slice(self, record: TimestepRecord, traj_ids,
                      histories: np.ndarray) -> np.ndarray:
        """Equation 1/2: each point's partition coefficients applied to its history."""
        predictions = np.zeros((len(traj_ids), 2), dtype=float)
        if self.config.use_prediction:
            partitions = np.array([record.partition_of[int(tid)] for tid in traj_ids])
            for pid, coefficients in record.coefficients.items():
                rows = np.flatnonzero(partitions == pid)
                predictions[rows] = np.einsum("k,nkd->nd", coefficients, histories[rows])
        return predictions

    def add_slice(self, record: TimestepRecord, traj_ids,
                  predictions: np.ndarray) -> np.ndarray:
        """Add ``record`` and store (and return) prediction plus codeword per point."""
        reconstructions = predictions + self.codebook.reconstruct(
            [record.codeword_index[int(tid)] for tid in traj_ids])
        for tid, point in zip(traj_ids, reconstructions):
            self._reconstructions.setdefault(int(tid), {})[record.t] = point
        self.add_record(record)
        return reconstructions

    def replay(self) -> None:
        """Recompute every ε₁-bounded reconstruction from the records and codebook.

        The slices go through the quantizer's own per-slice step in time
        order, so the store ends up bit-identical to fitting's, gaps included.
        """
        self._reconstructions = {}
        for t in sorted(self.records):
            record = self.records[t]
            traj_ids = list(record.codeword_index)
            histories, _ = self.recent_history(traj_ids)
            self.add_slice(record, traj_ids, self.predict_slice(record, traj_ids, histories))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def timestamps(self) -> list[int]:
        """Sorted list of summarised timestamps."""
        return sorted(self.records)

    @property
    def num_points(self) -> int:
        """Total number of summarised trajectory points."""
        return sum(record.num_points for record in self.records.values())

    @property
    def num_codewords(self) -> int:
        """Size of the shared codebook."""
        return len(self.codebook)

    def trajectories_at(self, t: int) -> list[int]:
        """Trajectory IDs summarised at timestamp ``t``."""
        record = self.records.get(int(t))
        return sorted(record.codeword_index) if record else []

    def appearances(self, traj_id: int):
        """Timestamps at which ``traj_id`` was summarised, in increasing order."""
        return self._reconstructions.get(int(traj_id), {}).keys()

    def max_partitions(self) -> int:
        """Largest number of partitions used at any timestamp."""
        if not self.records:
            return 0
        return max(record.num_partitions for record in self.records.values())

    # ------------------------------------------------------------------ #
    # reconstruction
    # ------------------------------------------------------------------ #
    def reconstruct_point(self, traj_id: int, t: int, use_cqc: bool = True) -> np.ndarray | None:
        """Reconstruct the position of ``traj_id`` at ``t`` from the summary.

        Returns the CQC-refined point ``(x̂', ŷ')`` when ``use_cqc`` is true
        and a CQC code was stored, otherwise the ε₁-bounded reconstruction
        ``(x̂, ŷ)``.  ``None`` when the trajectory was not summarised at ``t``.
        """
        base = self._reconstructions.get(int(traj_id), {}).get(int(t))
        if base is None:
            return None
        if not use_cqc or self.cqc_coder is None:
            return base
        code = self.records[int(t)].cqc_codes.get(int(traj_id))
        if not code:
            return base
        offset = self.cqc_coder.decode_offset(code)
        return base + offset

    def reconstruct_path(self, traj_id: int, t_start: int, length: int,
                         use_cqc: bool = True) -> np.ndarray:
        """Reconstruct up to ``length`` consecutive points starting at ``t_start``.

        Missing timestamps terminate the path early; the result has shape
        ``(m, 2)`` with ``m <= length``.
        """
        points = []
        for t in range(int(t_start), int(t_start) + int(length)):
            point = self.reconstruct_point(traj_id, t, use_cqc=use_cqc)
            if point is None:
                break
            points.append(point)
        if not points:
            return np.empty((0, 2), dtype=float)
        return np.vstack(points)

    def reconstruct_point_cached(self, traj_id: int, t: int,
                                 use_cqc: bool = True) -> np.ndarray | None:
        """Like :meth:`reconstruct_point`, served from the LRU slice cache.

        The cache groups refined reconstructions by timestamp, so any batch
        of queries touching the same ``(traj_id, t)`` pair -- different
        STRQs sharing candidates, exact-match pre-filters -- pays the CQC
        decoding once.  Absent pairs are cached negatively.  Returned arrays
        are shared with the cache: treat them as read-only.
        """
        entry = self._slice_entry(int(t), bool(use_cqc))
        traj_id = int(traj_id)
        if traj_id in entry:
            self.slice_cache.hits += 1
            return entry[traj_id]
        self.slice_cache.misses += 1
        point = self.reconstruct_point(traj_id, int(t), use_cqc=use_cqc)
        entry[traj_id] = point
        return point

    def reconstruct_slice(self, t: int, use_cqc: bool = True) -> dict[int, np.ndarray]:
        """Reconstruct every trajectory active at ``t``, with LRU caching.

        Returns a mapping trajectory ID -> reconstructed position, identical
        point-for-point to calling :meth:`reconstruct_point` for each ID in
        :meth:`trajectories_at`.  The underlying per-timestamp cache entry is
        shared with :meth:`reconstruct_point_cached`, so slices already
        touched by batched queries complete in cache hits (and vice versa).
        """
        entry = self._slice_entry(int(t), bool(use_cqc))
        for traj_id in self.trajectories_at(t):
            if traj_id in entry:
                self.slice_cache.hits += 1
            else:
                self.slice_cache.misses += 1
                entry[traj_id] = self.reconstruct_point(traj_id, int(t), use_cqc=use_cqc)
        return {tid: point for tid, point in entry.items() if point is not None}

    def _slice_entry(self, t: int, use_cqc: bool) -> dict[int, np.ndarray | None]:
        """The (lazily filled) cache entry for one ``(t, use_cqc)`` key.

        Hit/miss counters are the caller's job: they track whether individual
        *points* were served from cache, not whether the entry dict existed.
        """
        key = (t, use_cqc)
        entry = self.slice_cache.get(key, record=False)
        if entry is None:
            entry = {}
            self.slice_cache.put(key, entry)
        return entry

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #
    def storage(self, coordinate_bytes: int = 8, coefficient_bytes: int = 8) -> SummaryStorage:
        """Bit-exact storage cost of the summary.

        Parameters
        ----------
        coordinate_bytes:
            Bytes per stored coordinate value (codewords).
        coefficient_bytes:
            Bytes per stored prediction coefficient.
        """
        storage = SummaryStorage()
        storage.codebook_bits = len(self.codebook) * 2 * coordinate_bytes * 8
        index_bits = self.codebook.index_bits()
        for record in self.records.values():
            storage.codeword_index_bits += record.num_points * index_bits
            storage.coefficient_bits += (
                record.num_partitions * self.config.prediction_order * coefficient_bytes * 8
            )
            if record.num_partitions > 1:
                assignment_bits = max(1, int(np.ceil(np.log2(record.num_partitions))))
                storage.partition_assignment_bits += record.num_points * assignment_bits
            storage.cqc_bits += sum(len(code) for code in record.cqc_codes.values())
        return storage

    def compression_ratio(self, coordinate_bytes: int = 8) -> float:
        """Raw size divided by summary size (higher is better)."""
        raw_bits = self.num_points * 2 * coordinate_bytes * 8
        summary_bits = self.storage(coordinate_bytes=coordinate_bytes).total_bits
        if summary_bits == 0:
            return float("inf")
        return raw_bits / summary_bits

