"""Temporal partition-based index (TPI) -- Algorithm 4 of the paper.

A single PI is reused across consecutive timestamps as long as the spatial
distribution of points does not change too much.  The change measure is the
average dropping rate (ADR) of the trajectory region density (TRD) of the
PI's rectangles:

* for each rectangle the dropping rate of its density relative to the value
  recorded when the PI was built is computed (Equation 13);
* a rectangle whose density dropped by more than ``epsilon_c`` counts towards
  the ADR (Equation 14);
* when the ADR exceeds ``epsilon_d`` the current time period is closed and a
  fresh PI is built ("Re-build"); otherwise only the points not covered by
  the current PI are indexed by appending new rectangles ("Insertion").

The TPI therefore produces a sequence of time periods, each with one PI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import IndexConfig
from repro.data.trajectory import TrajectoryDataset
from repro.index.pi import PartitionIndex, build_partition_index


@dataclass
class TimePeriod:
    """One period of the TPI: a PI valid for timestamps ``[start, end]``."""

    start: int
    end: int
    index: PartitionIndex


@dataclass
class TPIStatistics:
    """Counters reported by the dynamic-organization experiments (Tables 7/8).

    ``build_seconds`` is measured by :meth:`TemporalPartitionIndex.build`;
    an index restored from an artifact reports 0.0.
    """

    num_rebuilds: int = 0
    num_insertions: int = 0
    build_seconds: float = 0.0


class TemporalPartitionIndex:
    """The TPI: time periods, each owning a partition-based index.

    Parameters
    ----------
    config:
        Index parameters; ``epsilon_c`` and ``epsilon_d`` control the
        re-build/insertion trade-off.
    seed:
        Seed forwarded to the per-period partitioning.
    """

    def __init__(self, config: IndexConfig | None = None, seed: int = 0) -> None:
        self.config = config or IndexConfig()
        self.seed = seed
        self.periods: list[TimePeriod] = []
        self.stats = TPIStatistics()

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def build(self, dataset: TrajectoryDataset,
              t_max: int | None = None) -> "TemporalPartitionIndex":
        """Consume the dataset timestamp by timestamp (Algorithm 4)."""
        import time as _time

        start_clock = _time.perf_counter()
        for slice_ in dataset.iter_time_slices(t_max=t_max):
            if len(slice_) == 0:
                continue
            self.insert_slice(slice_.t, slice_.traj_ids, slice_.points)
        self.stats.build_seconds = _time.perf_counter() - start_clock
        return self

    def insert_slice(self, t: int, traj_ids: np.ndarray, points: np.ndarray) -> str:
        """Index the points of one timestamp; returns the action taken.

        The return value is one of ``"initial"``, ``"rebuild"``, ``"insert"``
        or ``"reuse"`` (reuse means the current PI already covered every point
        and the densities did not drop enough to trigger a re-build).
        """
        traj_ids = np.asarray(traj_ids, dtype=np.int64)
        points = np.asarray(points, dtype=float)
        if not self.periods:
            pi = build_partition_index(t, traj_ids, points, self.config, seed=self.seed)
            self.periods.append(TimePeriod(start=int(t), end=int(t), index=pi))
            return "initial"

        period = self.periods[-1]
        pi = period.index
        # One containment pass serves the ADR counts, the covered mask and
        # every grid's insert mask.
        inside = pi._containment_matrix(points, slack=None)
        adr = self._average_dropping_rate(pi, inside.sum(axis=1))
        if adr > self.config.epsilon_d:
            # Close the current period and rebuild from scratch for this t.
            period.end = int(t) - 1 if int(t) > period.start else period.end
            new_pi = build_partition_index(t, traj_ids, points, self.config, seed=self.seed)
            self.periods.append(TimePeriod(start=int(t), end=int(t), index=new_pi))
            self.stats.num_rebuilds += 1
            return "rebuild"

        period.end = int(t)
        # Covered points are inserted into the existing grids.
        uncovered = ~pi.insert(traj_ids, points, inside)
        if np.any(uncovered):
            # Index the uncovered points with a fresh set of rectangles and
            # append them to the current PI (the "Insertion" case).  The new
            # rectangles may overlap older ones; queries union the posting
            # lists, so correctness is unaffected, and appending keeps the
            # per-timestamp update cost flat instead of re-shaping the whole
            # rectangle set online.
            addition = build_partition_index(
                t, traj_ids[uncovered], points[uncovered], self.config, seed=self.seed + 1
            )
            pi.append_grids(addition)
            self.stats.num_insertions += 1
            return "insert"
        return "reuse"

    def _average_dropping_rate(self, pi: PartitionIndex, counts: np.ndarray) -> float:
        """ADR of the PI's rectangles for the new point distribution (Eq. 12-14).

        ``counts[i]`` is how many of the new points rectangle ``i`` contains.
        """
        if not pi.grids:
            return 1.0
        dropped = 0
        for grid, base, count in zip(pi.grids, pi.baseline_density, counts.tolist()):
            if base <= 0:
                continue
            area = grid.rect.area
            density = count / area if area > 0 else float(count)
            rate = (density - base) / base
            if rate < 0 and abs(rate) > self.config.epsilon_c:
                dropped += 1
        return dropped / len(pi.grids)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def period_for(self, t: int) -> TimePeriod | None:
        """The time period containing timestamp ``t`` (binary search)."""
        lo, hi = 0, len(self.periods) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            period = self.periods[mid]
            if t < period.start:
                hi = mid - 1
            elif t > period.end:
                lo = mid + 1
            else:
                return period
        return None

    def lookup(self, x: float, y: float, t: int) -> list[int]:
        """Trajectory IDs indexed at the grid cell of ``(x, y)`` for time ``t``."""
        period = self.period_for(int(t))
        if period is None:
            return []
        return period.index.lookup(x, y)

    def lookup_local(self, x: float, y: float, t: int, radius: float) -> list[int]:
        """Local-search lookup within ``radius`` (Section 5.2)."""
        period = self.period_for(int(t))
        if period is None:
            return []
        return period.index.lookup_local(x, y, radius)

    # ------------------------------------------------------------------ #
    # batched lookup
    # ------------------------------------------------------------------ #
    def period_indices_for(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`period_for`: index into :attr:`periods` per query.

        Returns an integer array aligned with ``ts``; entries are ``-1`` for
        timestamps not covered by any period.  Periods are non-overlapping
        and sorted by start, so one ``searchsorted`` resolves every query.
        """
        ts = np.asarray(ts, dtype=np.int64)
        if not self.periods or len(ts) == 0:
            return np.full(len(ts), -1, dtype=np.int64)
        starts = np.asarray([p.start for p in self.periods], dtype=np.int64)
        ends = np.asarray([p.end for p in self.periods], dtype=np.int64)
        idx = np.searchsorted(starts, ts, side="right") - 1
        clipped = np.clip(idx, 0, len(self.periods) - 1)
        valid = (idx >= 0) & (ts <= ends[clipped])
        return np.where(valid, clipped, -1)

    def lookup_batch(self, xs: np.ndarray, ys: np.ndarray, ts: np.ndarray) -> list[list[int]]:
        """Batched :meth:`lookup`: one candidate list per ``(x, y, t)`` query.

        Queries are grouped by the time period covering their timestamp and
        each period's PI is scanned once for all of its queries, so the cost
        of iterating rectangles is paid per period instead of per query.
        Entry ``i`` equals ``self.lookup(xs[i], ys[i], ts[i])``.
        """
        return self._dispatch_batch(xs, ys, ts, radius=None)

    def lookup_local_batch(self, xs: np.ndarray, ys: np.ndarray, ts: np.ndarray,
                           radius: float) -> list[list[int]]:
        """Batched :meth:`lookup_local`; entry ``i`` matches the scalar call."""
        return self._dispatch_batch(xs, ys, ts, radius=radius)

    def _dispatch_batch(self, xs: np.ndarray, ys: np.ndarray, ts: np.ndarray,
                        radius: float | None) -> list[list[int]]:
        """Group queries by period and fan them out to the per-period PIs."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ts = np.asarray(ts, dtype=np.int64)
        if not (len(xs) == len(ys) == len(ts)):
            raise ValueError("xs, ys and ts must be aligned")
        results: list[list[int]] = [[] for _ in range(len(ts))]
        period_idx = self.period_indices_for(ts)
        points = np.column_stack([xs, ys]) if len(ts) else np.empty((0, 2))
        for pidx in np.unique(period_idx):
            if pidx < 0:
                continue
            queries = np.nonzero(period_idx == pidx)[0]
            pi = self.periods[int(pidx)].index
            if radius is None:
                answers = pi.lookup_batch(points[queries])
            else:
                answers = pi.lookup_local_batch(points[queries], radius)
            for qi, ids in zip(queries, answers):
                results[int(qi)] = ids
        return results

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def num_periods(self) -> int:
        return len(self.periods)

    def storage_bits(self) -> int:
        """Paper-accounted index size in bits across all periods (on demand)."""
        bits = 0
        for period in self.periods:
            bits += period.index.storage_bits()
            bits += 2 * 64  # period boundaries
        return bits

    def storage_megabytes(self) -> float:
        return self.storage_bits() / 8.0 / (1 << 20)
