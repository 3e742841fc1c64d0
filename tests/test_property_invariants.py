"""Cross-module property-based tests of the paper's core invariants.

These complement the per-module unit tests by checking, on randomly generated
workloads, the guarantees the system's correctness rests on:

* the summary alone reproduces every point -- replaying the records gives
  every fitted reconstruction, bit for bit;
* Definition 3.2 / Equation 3 -- the base reconstruction error never exceeds
  ``epsilon1``;
* Lemma 3 -- the CQC-refined reconstruction error never exceeds
  ``sqrt(2)/2 * g_s``;
* Section 5.2 -- STRQ with local search has recall 1 against the ground truth
  of Definition 5.2;
* the TPI posts every reconstructed point, and only those: per time period,
  the union over the period's grids of each cell's posting list is the set of
  trajectories whose reconstruction at some timestamp of the period lies in
  that cell;
* Section 5.1 -- the index's reported size is every posting list charged at
  its delta+Huffman size.

Workloads are smooth random walks that all start at ``t = 0``, or the same
walks on adversarial timelines: time gaps, late starts, single-point
trajectories and timestamps at which no trajectory is active.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CQCConfig, IndexConfig, PPQConfig, PPQTrajectory, PartitionCriterion
from repro.core.ppq import PartitionwisePredictiveQuantizer
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.index.idcodec import compress_ids
from repro.metrics.accuracy import precision_recall, reconstruction_errors
from repro.queries.exact import ground_truth_cell_members


def random_walk_dataset(num_traj: int, length: int, step_scale: float,
                        seed: int) -> TrajectoryDataset:
    """Small random-walk workload used as the property-test input."""
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(num_traj):
        start = rng.uniform(-0.05, 0.05, size=2)
        steps = rng.normal(scale=step_scale, size=(length, 2))
        trajectories.append(Trajectory(traj_id=i, points=start + np.cumsum(steps, axis=0)))
    return TrajectoryDataset(trajectories)


def adversarial_dataset(num_traj: int, length: int, step_scale: float,
                        seed: int) -> TrajectoryDataset:
    """Random walks on adversarial timelines.

    Each trajectory starts 0-100 steps late, a fifth of them hold a single
    point, and about a third of the steps skip 1-5 timestamps.  Every
    timestamp from 40 on is shifted by 3, so no trajectory is active at
    40-42.
    """
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(num_traj):
        n = 1 if rng.random() < 0.2 else length
        start = rng.uniform(-0.05, 0.05, size=2)
        points = start + np.cumsum(rng.normal(scale=step_scale, size=(n, 2)), axis=0)
        steps = np.where(rng.random(n - 1) < 0.3, rng.integers(2, 7, size=n - 1), 1)
        timestamps = int(rng.integers(0, 101)) + np.concatenate([[0], np.cumsum(steps)])
        timestamps += 3 * (timestamps >= 40)
        trajectories.append(Trajectory(traj_id=i, points=points, timestamps=timestamps))
    return TrajectoryDataset(trajectories)


def _workload(build):
    return st.builds(
        build,
        num_traj=st.integers(min_value=2, max_value=8),
        length=st.integers(min_value=5, max_value=25),
        step_scale=st.floats(min_value=1e-5, max_value=5e-4),
        seed=st.integers(min_value=0, max_value=10_000),
    )


workload = st.one_of(_workload(random_walk_dataset), _workload(adversarial_dataset))

VARIANTS = {
    "PPQ-S": PPQTrajectory.ppq_s,
    "PPQ-A": PPQTrajectory.ppq_a,
    "PPQ-S-basic": lambda: PPQTrajectory.ppq_s(cqc_config=CQCConfig(enabled=False)),
    "PPQ-A-basic": lambda: PPQTrajectory.ppq_a(cqc_config=CQCConfig(enabled=False)),
    "E-PQ": lambda: PPQTrajectory(variant="epq"),
}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset=workload, variant=st.sampled_from(sorted(VARIANTS)))
def test_replay_reproduces_every_fitted_reconstruction(dataset, variant):
    """The summary alone reproduces every point: replaying the records gives
    the fitted reconstructions bit for bit."""
    summary = VARIANTS[variant]().fit(dataset, build_index=False).summary
    fitted = {(tid, t): point.tobytes()
              for tid, points in summary._reconstructions.items()
              for t, point in points.items()}
    assert len(fitted) == summary.num_points == dataset.num_points
    summary.replay()
    replayed = {(tid, t): point.tobytes()
                for tid, points in summary._reconstructions.items()
                for t, point in points.items()}
    assert replayed == fitted


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset=workload, epsilon=st.floats(min_value=2e-4, max_value=5e-3),
       criterion=st.sampled_from(list(PartitionCriterion)))
def test_base_reconstruction_error_bound(dataset, epsilon, criterion):
    """Equation 3: every point is reconstructed within epsilon1 (no CQC)."""
    eps_p = 0.01 if criterion is PartitionCriterion.AUTOCORRELATION else 0.05
    quantizer = PartitionwisePredictiveQuantizer(
        PPQConfig(epsilon1=epsilon, epsilon_p=eps_p, criterion=criterion),
        CQCConfig(enabled=False),
    )
    summary = quantizer.summarize(dataset)
    errors = reconstruction_errors(summary, dataset)
    assert len(errors) == dataset.num_points
    assert float(np.max(errors)) <= epsilon + 1e-9


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset=workload, grid_fraction=st.floats(min_value=0.1, max_value=0.9))
def test_cqc_refined_error_bound(dataset, grid_fraction):
    """Lemma 3: the CQC-refined error never exceeds sqrt(2)/2 * g_s."""
    epsilon = 0.001
    grid = epsilon * grid_fraction
    quantizer = PartitionwisePredictiveQuantizer(
        PPQConfig(epsilon1=epsilon), CQCConfig(grid_size=grid)
    )
    summary = quantizer.summarize(dataset)
    errors = reconstruction_errors(summary, dataset)
    assert float(np.max(errors)) <= np.sqrt(2.0) / 2.0 * grid + 1e-9


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset=workload, seed=st.integers(min_value=0, max_value=1_000))
def test_strq_local_search_recall_is_one(dataset, seed):
    """Section 5.2: local search never misses a true STRQ answer."""
    system = PPQTrajectory.ppq_s(cqc_config=CQCConfig(), index_config=IndexConfig())
    system.fit(dataset)
    rng = np.random.default_rng(seed)
    cell = system.index_config.grid_cell
    for _ in range(5):
        tid = int(rng.choice(dataset.trajectory_ids))
        traj = dataset.get(tid)
        row = int(rng.integers(0, len(traj)))
        x, y = traj.points[row]
        t = int(traj.timestamps[row])
        result = system.strq(x, y, t, local_search=True)
        truth = ground_truth_cell_members(dataset, x, y, t, cell)
        _, recall = precision_recall(result.candidates, truth)
        assert recall == pytest.approx(1.0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset=workload)
def test_period_postings_equal_brute_force_cells(dataset):
    """Per TPI period, the union over its grids of each cell's postings is the
    set of trajectories with a reconstruction in that cell during the period.

    A single grid can miss IDs: a rectangle appended mid-period also covers
    points of earlier timestamps that were never inserted into it.  So the
    invariant holds for the union, not grid by grid.
    """
    system = PPQTrajectory.ppq_s().fit(dataset)
    summary, cell_size = system.summary, system.index_config.grid_cell
    periods = system.engine.index.periods
    assert periods
    for period in periods:
        stored: dict[tuple[int, int], set[int]] = {}
        for grid in period.index.grids:
            assert grid.cell_size == cell_size
            for cell, ids in grid.postings().items():
                stored.setdefault(cell, set()).update(ids)
        expected: dict[tuple[int, int], set[int]] = {}
        for t in range(period.start, period.end + 1):
            points = summary.reconstruct_slice(t)
            if not points:
                continue
            cells = np.floor(np.vstack(list(points.values())) / cell_size).astype(np.int64)
            for tid, (cx, cy) in zip(points, cells.tolist()):
                expected.setdefault((cx, cy), set()).add(int(tid))
        assert stored == expected, (period.start, period.end)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset=workload)
def test_index_bits_charge_every_list_at_its_codec_size(dataset):
    """The TPI's paper size is the sum of Section 5.1's per-list costs: each
    period's boundaries, each PI's timestamp, each grid's rectangle and
    metadata, and per cell its key plus the compressed list."""
    index = PPQTrajectory.ppq_s().fit(dataset).engine.index
    expected = 0
    for period in index.periods:
        expected += 2 * 64 + 64
        for grid in period.index.grids:
            expected += 4 * 64 + 2 * 32
            expected += sum(64 + compress_ids(ids).storage_bits
                            for ids in grid.postings().values())
    assert index.storage_bits() == expected
