"""Core data model: trajectories and timestamp-aligned datasets.

The paper's online algorithms (Algorithm 1, 3, 4) consume the data one
*timestamp* at a time: at step ``t`` they see the set of points ``{T_i^t}`` of
every trajectory that is active at ``t``.  :class:`TrajectoryDataset` stores a
set of :class:`Trajectory` objects and serves those per-timestamp
:class:`TimeSlice` views efficiently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.utils.validation import ensure_points_array


@dataclass
class Trajectory:
    """A single trajectory: a time-ordered sequence of 2-D positions.

    Attributes
    ----------
    traj_id:
        Integer identifier, unique within a dataset.
    points:
        Array of shape ``(n, 2)`` with ``(x, y)`` coordinates.
    timestamps:
        Array of shape ``(n,)`` of strictly increasing integer timestamps: a
        trajectory has at most one point per timestamp.  Gaps are allowed.
        If not supplied, timestamps ``0..n-1`` are assumed (regular
        sampling), which matches how the paper aligns points across
        trajectories.
    """

    traj_id: int
    points: np.ndarray
    timestamps: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.points = ensure_points_array(self.points, name="points", allow_empty=True)
        if self.timestamps is None:
            self.timestamps = np.arange(len(self.points), dtype=np.int64)
        else:
            self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if len(self.timestamps) != len(self.points):
            raise ValueError(
                f"trajectory {self.traj_id}: {len(self.points)} points but "
                f"{len(self.timestamps)} timestamps"
            )
        backwards = np.diff(self.timestamps) <= 0
        if np.any(backwards):
            row = int(np.argmax(backwards))
            raise ValueError(
                f"trajectory {self.traj_id}: timestamps must be strictly increasing, "
                f"but {self.timestamps[row + 1]} follows {self.timestamps[row]}"
            )

    def __len__(self) -> int:
        return len(self.points)

    def point_at(self, t: int) -> np.ndarray | None:
        """Return the position at timestamp ``t`` or ``None`` if absent."""
        idx = np.searchsorted(self.timestamps, t)
        if idx < len(self.timestamps) and self.timestamps[idx] == t:
            return self.points[idx]
        return None

    def segment(self, t_start: int, t_end: int) -> np.ndarray:
        """Points with timestamps in the closed interval ``[t_start, t_end]``."""
        mask = (self.timestamps >= t_start) & (self.timestamps <= t_end)
        return self.points[mask]

    @property
    def duration(self) -> int:
        """Span between the first and last timestamp."""
        if len(self.timestamps) == 0:
            return 0
        return int(self.timestamps[-1] - self.timestamps[0])

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``."""
        return (
            float(self.points[:, 0].min()),
            float(self.points[:, 1].min()),
            float(self.points[:, 0].max()),
            float(self.points[:, 1].max()),
        )


@dataclass(frozen=True)
class TimeSlice:
    """All trajectory points observed at one timestamp.

    Attributes
    ----------
    t:
        The timestamp.
    traj_ids:
        Integer array of shape ``(m,)`` -- which trajectories are active.
    points:
        Float array of shape ``(m, 2)`` -- their positions, row-aligned with
        ``traj_ids``.
    """

    t: int
    traj_ids: np.ndarray
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.traj_ids)


class TrajectoryDataset:
    """A collection of trajectories indexed both by ID and by timestamp.

    The dataset pre-computes, for every trajectory, the offset of each
    timestamp so that :meth:`time_slice` and :meth:`iter_time_slices` run in
    time proportional to the number of active trajectories, not the dataset
    size.  This mirrors the streaming access pattern of the paper: points
    arrive timestamp by timestamp.
    """

    def __init__(self, trajectories: Iterable[Trajectory]) -> None:
        self._trajectories: dict[int, Trajectory] = {}
        for traj in trajectories:
            if traj.traj_id in self._trajectories:
                raise ValueError(f"duplicate trajectory id {traj.traj_id}")
            self._trajectories[traj.traj_id] = traj
        self._build_time_index()

    def _build_time_index(self) -> None:
        """Map every timestamp to the (traj_id, row) pairs active at it."""
        index: dict[int, list[tuple[int, int]]] = {}
        for traj_id, traj in self._trajectories.items():
            for row, t in enumerate(traj.timestamps):
                index.setdefault(int(t), []).append((traj_id, row))
        self._time_index = index
        self._timestamps = sorted(index)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]) -> "TrajectoryDataset":
        """Build a dataset from a sequence of ``(n_i, 2)`` coordinate arrays.

        Timestamps are assigned ``0..n_i-1`` per trajectory, i.e. all
        trajectories are assumed to start simultaneously with regular
        sampling -- the alignment used throughout the paper's experiments.
        """
        return cls(Trajectory(traj_id=i, points=arr) for i, arr in enumerate(arrays))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self._trajectories.values())

    def __contains__(self, traj_id: int) -> bool:
        return traj_id in self._trajectories

    def get(self, traj_id: int) -> Trajectory:
        """Return the trajectory with the given id (raises ``KeyError``)."""
        return self._trajectories[traj_id]

    @property
    def trajectory_ids(self) -> list[int]:
        """Sorted list of trajectory identifiers."""
        return sorted(self._trajectories)

    @property
    def timestamps(self) -> list[int]:
        """Sorted list of timestamps at which at least one point exists."""
        return list(self._timestamps)

    @property
    def num_points(self) -> int:
        """Total number of trajectory points in the dataset."""
        return sum(len(traj) for traj in self._trajectories.values())

    @property
    def max_length(self) -> int:
        """Length of the longest trajectory."""
        if not self._trajectories:
            return 0
        return max(len(traj) for traj in self._trajectories.values())

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Bounding box over all points of all trajectories."""
        boxes = [traj.bounding_box() for traj in self._trajectories.values() if len(traj)]
        if not boxes:
            raise ValueError("dataset contains no points")
        arr = np.asarray(boxes)
        return (
            float(arr[:, 0].min()),
            float(arr[:, 1].min()),
            float(arr[:, 2].max()),
            float(arr[:, 3].max()),
        )

    # ------------------------------------------------------------------ #
    # Time-sliced access (the unit of the online algorithms)
    # ------------------------------------------------------------------ #
    def time_slice(self, t: int) -> TimeSlice:
        """Return the :class:`TimeSlice` of all points at timestamp ``t``."""
        entries = self._time_index.get(int(t), [])
        if not entries:
            return TimeSlice(t=int(t), traj_ids=np.empty(0, dtype=np.int64),
                             points=np.empty((0, 2), dtype=float))
        traj_ids = np.fromiter((tid for tid, _ in entries), dtype=np.int64, count=len(entries))
        points = np.empty((len(entries), 2), dtype=float)
        for row, (tid, offset) in enumerate(entries):
            points[row] = self._trajectories[tid].points[offset]
        return TimeSlice(t=int(t), traj_ids=traj_ids, points=points)

    def iter_time_slices(self, t_max: int | None = None) -> Iterator[TimeSlice]:
        """Yield time slices in increasing timestamp order.

        Parameters
        ----------
        t_max:
            If given, stop after timestamp ``t_max`` (inclusive).  Benchmarks
            use this to bound experiment duration.
        """
        for t in self._timestamps:
            if t_max is not None and t > t_max:
                break
            yield self.time_slice(t)

    def restrict(self, traj_ids: Iterable[int]) -> "TrajectoryDataset":
        """New dataset containing only the given trajectory ids."""
        wanted = set(traj_ids)
        return TrajectoryDataset(
            traj for tid, traj in self._trajectories.items() if tid in wanted
        )

    def truncate(self, max_timestamp: int) -> "TrajectoryDataset":
        """New dataset with every trajectory cut at ``max_timestamp``."""
        truncated = []
        for traj in self._trajectories.values():
            mask = traj.timestamps <= max_timestamp
            if not np.any(mask):
                continue
            truncated.append(
                Trajectory(
                    traj_id=traj.traj_id,
                    points=traj.points[mask],
                    timestamps=traj.timestamps[mask],
                )
            )
        return TrajectoryDataset(truncated)
