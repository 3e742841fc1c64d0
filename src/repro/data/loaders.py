"""Loaders for the real public datasets used by the paper.

These parsers read the on-disk formats of the Porto taxi challenge CSV
(polyline column of ``[[lon, lat], ...]`` lists) and the GeoLife ``.plt``
files.  They are provided so that the real datasets can be dropped into the
benchmark harness unchanged; the offline test suite exercises them through
small fixture files written by the tests themselves.
"""

from __future__ import annotations

import ast
import csv
import os
from collections.abc import Iterable

import numpy as np

from repro.data.trajectory import Trajectory, TrajectoryDataset


def load_porto_csv(path: str, min_length: int = 30,
                   max_trajectories: int | None = None) -> TrajectoryDataset:
    """Load the Porto taxi CSV (ECML-PKDD 2015 challenge format).

    Parameters
    ----------
    path:
        Path to ``train.csv`` (or a subset with the same columns).  The
        only column used is ``POLYLINE``, a JSON-style list of
        ``[longitude, latitude]`` pairs sampled every 15 seconds.
    min_length:
        Trajectories shorter than this are dropped -- the paper keeps only
        trajectories with at least 30 points.
    max_trajectories:
        Optional cap on the number of trajectories loaded.

    Returns
    -------
    TrajectoryDataset
    """
    trajectories: list[Trajectory] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "POLYLINE" not in reader.fieldnames:
            raise ValueError(f"{path} does not look like a Porto CSV (no POLYLINE column)")
        for row in reader:
            polyline = _parse_polyline(row["POLYLINE"])
            if len(polyline) < min_length:
                continue
            trajectories.append(Trajectory(traj_id=len(trajectories), points=polyline))
            if max_trajectories is not None and len(trajectories) >= max_trajectories:
                break
    return TrajectoryDataset(trajectories)


def load_plt_directory(root: str, min_length: int = 30,
                       max_trajectories: int | None = None) -> TrajectoryDataset:
    """Load GeoLife ``.plt`` files found anywhere below ``root``.

    Each ``.plt`` file becomes one trajectory; the six header lines of the
    GeoLife format are skipped and the ``latitude, longitude`` columns are
    stored as ``(x=longitude, y=latitude)``.

    Raises
    ------
    FileNotFoundError
        If ``root`` does not exist.
    NotADirectoryError
        If ``root`` exists but is not a directory.
    """
    if not os.path.isdir(root):
        if os.path.exists(root):
            raise NotADirectoryError(f"{root} is not a directory")
        raise FileNotFoundError(f"{root} does not exist")
    trajectories: list[Trajectory] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for filename in sorted(filenames):
            if not filename.lower().endswith(".plt"):
                continue
            points = _parse_plt(os.path.join(dirpath, filename))
            if len(points) < min_length:
                continue
            trajectories.append(Trajectory(traj_id=len(trajectories), points=points))
            if max_trajectories is not None and len(trajectories) >= max_trajectories:
                return TrajectoryDataset(trajectories)
    return TrajectoryDataset(trajectories)


def _parse_polyline(raw: str) -> np.ndarray:
    """Parse the POLYLINE column into an ``(n, 2)`` array of (lon, lat)."""
    raw = raw.strip()
    if not raw or raw == "[]":
        return np.empty((0, 2), dtype=float)
    try:
        pairs = ast.literal_eval(raw)
    except (ValueError, SyntaxError) as exc:
        raise ValueError(f"malformed POLYLINE value: {raw[:60]!r}...") from exc
    return np.asarray(pairs, dtype=float).reshape(-1, 2)


def _parse_plt(path: str) -> np.ndarray:
    """Parse one GeoLife ``.plt`` file into an ``(n, 2)`` array of (lon, lat)."""
    points: list[tuple[float, float]] = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    for line in lines[6:]:
        parts = line.strip().split(",")
        if len(parts) < 2:
            continue
        try:
            lat = float(parts[0])
            lon = float(parts[1])
        except ValueError:
            continue
        points.append((lon, lat))
    return np.asarray(points, dtype=float).reshape(-1, 2)


def iter_dataset_chunks(dataset: TrajectoryDataset,
                        chunk_size: int) -> Iterable[TrajectoryDataset]:
    """Split a dataset into chunks of at most ``chunk_size`` trajectories.

    Useful for processing very large repositories incrementally in examples
    and benchmarks without holding all summaries in memory at once.
    """
    ids = dataset.trajectory_ids
    for start in range(0, len(ids), chunk_size):
        yield dataset.restrict(ids[start:start + chunk_size])
