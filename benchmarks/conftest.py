"""Shared fixtures for the benchmark harness.

Each benchmark module reproduces one table or figure of the paper (see the
"Benchmarks" section of README.md).  The workloads are synthetic stand-ins
for Porto and GeoLife (see ``repro.data.synthetic``), sized so the whole
harness finishes in minutes on a laptop; the *shape* of the results -- which
method wins, by roughly what factor, how quantities move along each sweep --
is what is being reproduced, not the absolute numbers of the paper's testbed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
for path in (str(_ROOT), str(_SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.data import generate_geolife_like, generate_porto_like  # noqa: E402
from repro.data.trajectory import Trajectory, TrajectoryDataset  # noqa: E402


@pytest.fixture(scope="session")
def porto_bench():
    """Porto-like benchmark workload (dense urban taxi traces)."""
    return generate_porto_like(num_trajectories=80, max_length=120, seed=101)


@pytest.fixture(scope="session")
def porto_staggered_bench():
    """Porto-like workload with staggered trip start times.

    Taxi trips start and end throughout the observation window (as in the
    real Porto data), which makes the per-timestamp point distribution drift
    over time -- the regime the temporal partition-based index is designed
    for.  Used by the TPI / disk experiments (Tables 7-9).
    """
    base = generate_porto_like(num_trajectories=150, max_length=120, seed=101)
    rng = np.random.default_rng(5)
    shifted = []
    for traj in base:
        offset = int(rng.integers(0, 400))
        shifted.append(Trajectory(traj.traj_id, traj.points, traj.timestamps + offset))
    return TrajectoryDataset(shifted)


@pytest.fixture(scope="session")
def geolife_bench():
    """GeoLife-like benchmark workload (large extent, mixed speeds)."""
    return generate_geolife_like(num_trajectories=30, max_length=160, seed=202)


@pytest.fixture(scope="session")
def bench_queries(porto_bench):
    """Random (x, y, t) STRQ probes drawn from the Porto-like workload."""
    return make_queries(porto_bench, num_queries=150, seed=7)


def make_queries(dataset, num_queries: int, seed: int = 0):
    """Random (x, y, t, traj_id) probes located on true trajectory points."""
    rng = np.random.default_rng(seed)
    queries = []
    ids = dataset.trajectory_ids
    for _ in range(num_queries):
        tid = int(rng.choice(ids))
        traj = dataset.get(tid)
        t = int(rng.integers(0, len(traj)))
        x, y = traj.points[t]
        queries.append((float(x), float(y), int(t), tid))
    return queries


def print_table(title: str, header: list[str], rows: list[list], widths: list[int] | None = None):
    """Print one paper-style results table to stdout."""
    if widths is None:
        widths = [max(14, len(h) + 2) for h in header]
    line = "".join(f"{h:>{w}}" for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        cells = []
        for value, width in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:>{width}.3f}")
            else:
                cells.append(f"{str(value):>{width}}")
        print("".join(cells))
