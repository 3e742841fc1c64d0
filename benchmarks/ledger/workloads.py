"""The ledger's four workloads: datasets, system configurations and queries.

Each workload fixes its dataset: shape and generator seed are part of the
workload's definition, so size and compression metrics stay comparable
between runs.  The run's ``--seed`` draws the timed query set.  The
accuracy metrics come from a separate accuracy set of every query kind,
drawn from the data seed, so they too repeat exactly from run to run.
Every query sits on a raw trajectory point, so each one has at least one
true answer.

Why each workload exists (``BENCHMARK.json`` gives each reason in one line):

* ``ingest`` -- the write path.  Staggered Porto-like trips make the point
  distribution drift, which drives TPI rebuilds, insertions and posting
  recompression, so the index build dominates set-up; queries are cheap
  here.
* ``serve_point`` -- point lookups on data whose 120 timestamps fit the
  summary's 256-slice cache, so candidate generation dominates.
* ``serve_path`` -- long path queries over ~900 timestamps, 3.5x the slice
  cache, so summary reconstruction and CQC decode dominate.
* ``geolife_mixed`` -- sparse GeoLife-like data with PPQ-A: about one
  posting per index cell, and partition-index builds dominate set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

QUERY_KINDS = ("strq", "tpq", "exact")


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload of the ledger.

    Attributes
    ----------
    name, why:
        Identifier and one-line reason, as listed in ``BENCHMARK.json``.
    generator:
        ``"porto"`` or ``"geolife"`` (the library's synthetic generators).
    trajectories, max_length, data_seed:
        Arguments of the generator.
    start_spread:
        Trajectory start times are drawn uniformly from
        ``[0, start_spread)``; ``0`` starts every trajectory at ``t = 0``.
    config:
        ``"ppq_s"`` or ``"ppq_a"`` -- the :class:`PPQTrajectory` preset.
    rounds:
        Serving rounds (load, cold pass, save, closed loop and a share of
        the warm window); more rounds for workloads whose loads are cheap.
    num_queries:
        Size of the query set.
    cycle:
        Query kinds, repeated in order to fill the query set.
    tpq_length:
        Path length of every TPQ.
    check_fitted:
        Also require the fitted model's batch answers to equal the loaded
        model's, bit for bit.
    """

    name: str
    why: str
    generator: str
    trajectories: int
    max_length: int
    data_seed: int
    start_spread: int
    config: str
    rounds: int
    num_queries: int
    cycle: tuple[str, ...]
    tpq_length: int
    check_fitted: bool = False


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec(
            name="ingest",
            why="write path: staggered trips drift the point distribution, so the index "
                "build (TPI rebuilds, insertions, posting recompression) dominates set-up",
            generator="porto", trajectories=120, max_length=120, data_seed=11,
            start_spread=800, config="ppq_s", rounds=6, num_queries=2000,
            cycle=("strq", "strq", "tpq", "exact"), tpq_length=10, check_fitted=True,
        ),
        WorkloadSpec(
            name="serve_point",
            why="point lookups on 120 timestamps that fit the 256-slice cache, so "
                "candidate generation and posting decode dominate",
            generator="porto", trajectories=70, max_length=120, data_seed=21,
            start_spread=0, config="ppq_s", rounds=6, num_queries=4000,
            cycle=("strq", "exact"), tpq_length=10,
        ),
        WorkloadSpec(
            name="serve_path",
            why="length-40 path queries over ~900 timestamps, 3.5x the slice cache, "
                "so reconstruction and CQC decode dominate",
            generator="porto", trajectories=180, max_length=120, data_seed=31,
            start_spread=800, config="ppq_s", rounds=7, num_queries=2000,
            cycle=("tpq",), tpq_length=40,
        ),
        WorkloadSpec(
            name="geolife_mixed",
            why="sparse GeoLife-like data with PPQ-A: about one posting per index cell, "
                "and partition-index builds dominate set-up",
            generator="geolife", trajectories=45, max_length=600, data_seed=41,
            start_spread=0, config="ppq_a", rounds=9, num_queries=3000,
            cycle=("strq", "tpq", "exact"), tpq_length=20,
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    """How much of a workload one run executes."""

    fits: int
    accuracy_per_kind: int


FULL = Scale(fits=3, accuracy_per_kind=1000)
SMOKE = Scale(fits=1, accuracy_per_kind=16)


def smoke_spec(spec: WorkloadSpec) -> WorkloadSpec:
    """The same workload on tiny data with one round, for the smoke test."""
    return replace(spec, trajectories=12, max_length=min(spec.max_length, 70),
                   start_spread=min(spec.start_spread, 60), num_queries=40, rounds=1)


def build_dataset(spec: WorkloadSpec):
    """The workload's raw trajectories (a ``TrajectoryDataset``)."""
    from repro.data import generate_geolife_like, generate_porto_like
    from repro.data.trajectory import Trajectory, TrajectoryDataset

    generate = generate_porto_like if spec.generator == "porto" else generate_geolife_like
    base = generate(num_trajectories=spec.trajectories, max_length=spec.max_length,
                    seed=spec.data_seed)
    if spec.start_spread == 0:
        return base
    rng = np.random.default_rng([spec.data_seed, 1])
    return TrajectoryDataset(
        Trajectory(traj.traj_id, traj.points,
                   traj.timestamps + int(rng.integers(0, spec.start_spread)))
        for traj in base
    )


def make_system(spec: WorkloadSpec):
    """An unfitted :class:`PPQTrajectory` with the workload's preset."""
    from repro import PPQTrajectory

    return PPQTrajectory.ppq_s() if spec.config == "ppq_s" else PPQTrajectory.ppq_a()


def raw_columns(dataset) -> dict[str, np.ndarray]:
    """Every raw point as flat ``tid``/``t``/``x``/``y`` columns."""
    trajectories = list(dataset)
    return {
        "tid": np.concatenate([np.full(len(tr), tr.traj_id, dtype=np.int64)
                               for tr in trajectories]),
        "t": np.concatenate([tr.timestamps for tr in trajectories]).astype(np.int64),
        "x": np.concatenate([tr.points[:, 0] for tr in trajectories]),
        "y": np.concatenate([tr.points[:, 1] for tr in trajectories]),
    }


def _place(raw: dict[str, np.ndarray], kinds: list[str], tpq_length: int,
           rng: np.random.Generator) -> list[dict]:
    """Queries of the given kinds, each on a uniformly drawn raw point."""
    rows = rng.integers(0, len(raw["t"]), size=len(kinds))
    queries = []
    for kind, row in zip(kinds, rows.tolist()):
        query = {"type": kind, "x": float(raw["x"][row]), "y": float(raw["y"][row]),
                 "t": int(raw["t"][row])}
        if kind == "tpq":
            query["length"] = tpq_length
        queries.append(query)
    return queries


def build_queries(spec: WorkloadSpec, raw: dict[str, np.ndarray], seed: int,
                  scale: Scale) -> tuple[list[dict], list[dict]]:
    """``(timed, accuracy)`` query lists in the library's workload-file schema.

    The timed set follows the workload's kind cycle and comes from ``seed``;
    the accuracy set holds every kind and comes from the data seed.
    """
    kinds = [spec.cycle[i % len(spec.cycle)] for i in range(spec.num_queries)]
    timed = _place(raw, kinds, spec.tpq_length, np.random.default_rng([seed, 0]))
    kinds = [kind for kind in QUERY_KINDS for _ in range(scale.accuracy_per_kind)]
    accuracy = _place(raw, kinds, spec.tpq_length, np.random.default_rng([spec.data_seed, 2]))
    return timed, accuracy
