"""Synthetic trajectory workload generators.

The paper evaluates on the public Porto taxi and GeoLife datasets.  Neither is
available in this offline environment, so we generate synthetic workloads
whose *statistical properties relevant to the algorithms* match the real data:

* smooth, autocorrelated motion (so that linear prediction narrows the error
  dynamic range -- the property PPQ exploits);
* heterogeneous movement regimes (walk / bike / drive), so autocorrelation-
  based partitioning has structure to discover;
* a dense, city-scale spatial extent for the Porto-like workload and a much
  larger, sparse extent for the GeoLife-like workload (which in the paper is
  what blows up the MAE of non-predictive quantizers);
* trajectories of widely different lengths with a minimum of 30 points.

Loaders for the real CSV/PLT formats live in :mod:`repro.data.loaders`; any
experiment accepts a :class:`~repro.data.trajectory.TrajectoryDataset`, so the
real datasets can be substituted without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.utils.geo import DEGREE_TO_METERS


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic workload generator.

    Attributes
    ----------
    num_trajectories:
        Number of trajectories to generate.
    min_length, max_length:
        Bounds (inclusive) on the number of points per trajectory.
    center:
        ``(x, y)`` centre of the region, in degrees.
    extent:
        Half-width of the region in degrees; starting points are drawn from
        a mixture of hot-spot clusters inside ``center +- extent``.
    mean_speed_mps:
        Average movement speed in metres per second.
    speed_mix:
        Tuple of per-regime speed multipliers; each trajectory samples one
        regime (e.g. pedestrian / bicycle / car for GeoLife).
    sampling_interval_s:
        Seconds between consecutive points (15 s for Porto-like data).
    turn_std:
        Standard deviation (radians) of the per-step heading change; small
        values give smooth, highly autocorrelated motion.
    noise_std_m:
        GPS noise standard deviation in metres.
    num_hotspots:
        Number of spatial clusters from which trajectories start.
    seed:
        Seed of the random generator (every generator call is deterministic
        given the config).
    """

    num_trajectories: int = 200
    min_length: int = 30
    max_length: int = 200
    center: tuple[float, float] = (-8.62, 41.16)
    extent: float = 0.08
    mean_speed_mps: float = 8.0
    speed_mix: tuple[float, ...] = (1.0,)
    sampling_interval_s: float = 15.0
    turn_std: float = 0.25
    noise_std_m: float = 3.0
    num_hotspots: int = 8
    seed: int = 7


#: Porto-like default: dense urban taxi traces, one movement regime,
#: 15-second sampling inside a city-sized box.
PORTO_LIKE = SyntheticConfig(
    num_trajectories=200,
    min_length=30,
    max_length=300,
    center=(-8.62, 41.16),
    extent=0.075,
    mean_speed_mps=9.0,
    speed_mix=(1.0,),
    sampling_interval_s=15.0,
    turn_std=0.22,
    noise_std_m=4.0,
    num_hotspots=10,
    seed=13,
)

#: GeoLife-like default: multi-modal movement (walk / bike / drive), a much
#: larger region and much longer trajectories.
GEOLIFE_LIKE = SyntheticConfig(
    num_trajectories=80,
    min_length=60,
    max_length=900,
    center=(116.35, 39.95),
    extent=0.9,
    mean_speed_mps=4.0,
    speed_mix=(0.35, 1.0, 4.0),
    sampling_interval_s=5.0,
    turn_std=0.18,
    noise_std_m=5.0,
    num_hotspots=6,
    seed=29,
)


def generate_dataset(config: SyntheticConfig) -> TrajectoryDataset:
    """Generate a synthetic :class:`TrajectoryDataset` from ``config``.

    Each trajectory is a correlated random walk: the heading evolves as a
    bounded random walk (small ``turn_std`` means smooth paths), the speed is
    an AR(1) process around the regime's mean speed, and i.i.d. GPS noise is
    added to the resulting positions.  All trajectories share timestamp 0 as
    their start so that per-timestamp slices contain many concurrent points,
    matching the alignment used by the paper's online algorithms.
    """
    if config.min_length > config.max_length:
        raise ValueError(f"min_length ({config.min_length}) exceeds "
                         f"max_length ({config.max_length})")
    rng = np.random.default_rng(config.seed)
    hotspots = _hotspots(rng, config)
    trajectories = []
    for traj_id in range(config.num_trajectories):
        length = int(rng.integers(config.min_length, config.max_length + 1))
        regime = config.speed_mix[int(rng.integers(len(config.speed_mix)))]
        points = _correlated_walk(rng, config, hotspots, length, regime)
        trajectories.append(Trajectory(traj_id=traj_id, points=points))
    return TrajectoryDataset(trajectories)


def generate_porto_like(num_trajectories: int = 200, max_length: int = 300,
                        seed: int = 13) -> TrajectoryDataset:
    """Porto-like workload (dense urban taxi traces), at most ``max_length`` points each."""
    return generate_dataset(replace(
        PORTO_LIKE, num_trajectories=num_trajectories, max_length=max_length,
        min_length=min(PORTO_LIKE.min_length, max_length), seed=seed))


def generate_geolife_like(num_trajectories: int = 80, max_length: int = 900,
                          seed: int = 29) -> TrajectoryDataset:
    """GeoLife-like workload (multi-modal, wide span), at most ``max_length`` points each."""
    return generate_dataset(replace(
        GEOLIFE_LIKE, num_trajectories=num_trajectories, max_length=max_length,
        min_length=min(GEOLIFE_LIKE.min_length, max_length), seed=seed))


# --------------------------------------------------------------------------- #
# internals
# --------------------------------------------------------------------------- #
def _hotspots(rng: np.random.Generator, config: SyntheticConfig) -> np.ndarray:
    """Cluster centres from which trajectories depart."""
    cx, cy = config.center
    offsets = rng.uniform(-config.extent, config.extent, size=(config.num_hotspots, 2))
    return np.asarray([cx, cy]) + offsets * 0.8


def _correlated_walk(rng: np.random.Generator, config: SyntheticConfig,
                     hotspots: np.ndarray, length: int, regime: float) -> np.ndarray:
    """Generate one smooth trajectory of ``length`` points."""
    step_degrees = (
        config.mean_speed_mps * regime * config.sampling_interval_s / DEGREE_TO_METERS
    )
    noise_degrees = config.noise_std_m / DEGREE_TO_METERS

    start = hotspots[int(rng.integers(len(hotspots)))]
    start = start + rng.normal(scale=config.extent * 0.05, size=2)

    heading = rng.uniform(0.0, 2.0 * np.pi)
    speed_factor = 1.0
    cx, cy = config.center

    points = np.empty((length, 2), dtype=float)
    position = np.array(start, dtype=float)
    for i in range(length):
        points[i] = position
        heading += rng.normal(scale=config.turn_std)
        # AR(1) speed fluctuation keeps consecutive displacements correlated.
        speed_factor = 0.9 * speed_factor + 0.1 + rng.normal(scale=0.05)
        speed_factor = float(np.clip(speed_factor, 0.2, 2.5))
        step = step_degrees * speed_factor
        position = position + step * np.array([np.cos(heading), np.sin(heading)])
        # Soft pull back towards the region centre so trajectories stay in
        # a realistic extent instead of drifting unboundedly.
        position[0] += 0.002 * (cx - position[0])
        position[1] += 0.002 * (cy - position[1])
    points += rng.normal(scale=noise_degrees, size=points.shape)
    return points
