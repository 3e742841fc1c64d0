"""Batched vs. per-query throughput of the query subsystem.

Not a table of the paper: this benchmark covers the batch query subsystem
built on top of the reproduction.  There is one query implementation, and a
single query is a batch of one, so a 200-query STRQ workload (the size used
by the Table 2 protocol) is answered once as a Python loop of batches of one
(:func:`repro.queries.strq.spatio_temporal_range_query`) and once as one
batch through :func:`repro.queries.batch.batch_strq`; the single batch must
produce identical answers at >= 3x the throughput of the loop.  A mixed
STRQ/TPQ/exact workload through :meth:`QueryEngine.run_batch` is reported
alongside, against a loop of the engine's single-query methods.

Both paths are warmed once before timing so the comparison measures
steady-state serving cost (the partition indexes' lazily built cell tables
and the reconstruction cache are one-time costs a long-running service
amortises away).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import make_queries, print_table
from repro.core.config import CQCConfig, IndexConfig
from repro.core.pipeline import PPQTrajectory
from repro.queries.batch import QuerySpec, batch_strq
from repro.queries.strq import spatio_temporal_range_query

NUM_QUERIES = 200
# The >= 3x floor is the acceptance criterion on a quiet machine; shared CI
# runners use this benchmark as an import/API-rot canary and relax the floor
# through the environment to keep wall-clock noise from failing builds.
MIN_SPEEDUP = float(os.environ.get("BATCH_SPEEDUP_FLOOR", "3.0"))


@pytest.fixture(scope="module")
def fitted_system(porto_bench) -> PPQTrajectory:
    """PPQ-S system (CQC + TPI) fitted on the Porto-like benchmark workload."""
    system = PPQTrajectory.ppq_s(cqc_config=CQCConfig(), index_config=IndexConfig())
    system.fit(porto_bench)
    return system


def _strq_queries(dataset) -> list[tuple[float, float, int]]:
    return [(x, y, t) for x, y, t, _tid in
            make_queries(dataset, num_queries=NUM_QUERIES, seed=7)]


def test_batched_strq_meets_speedup_floor(fitted_system, porto_bench):
    """One STRQ batch: identical answers, >= 3x queries/sec vs. a loop of batches of one."""
    engine = fitted_system.engine
    queries = _strq_queries(porto_bench)
    radius = engine.local_search_radius

    def sequential():
        return [
            spatio_temporal_range_query(
                engine.index, x, y, t, summary=engine.summary, local_search_radius=radius
            )
            for x, y, t in queries
        ]

    def batched():
        return batch_strq(
            engine.index, queries, summary=engine.summary, local_search_radius=radius
        )

    sequential(), batched()  # warm the cell tables and caches

    start = time.perf_counter()
    sequential_results = sequential()
    sequential_s = time.perf_counter() - start
    start = time.perf_counter()
    batched_results = batched()
    batched_s = time.perf_counter() - start

    for scalar, batch in zip(sequential_results, batched_results):
        assert scalar.candidates == batch.candidates
        assert set(scalar.reconstructed) == set(batch.reconstructed)
        for tid in scalar.reconstructed:
            assert scalar.reconstructed[tid].tobytes() == batch.reconstructed[tid].tobytes()

    speedup = sequential_s / batched_s
    print_table(
        f"Batched STRQ throughput ({NUM_QUERIES} queries)",
        ["mode", "time (ms)", "queries/s"],
        [
            ["loop of batches of one", sequential_s * 1000, NUM_QUERIES / sequential_s],
            ["one batch", batched_s * 1000, NUM_QUERIES / batched_s],
            ["speedup", speedup, ""],
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched STRQ only {speedup:.2f}x faster than a loop of batches of one "
        f"(floor is {MIN_SPEEDUP}x)"
    )


def test_mixed_workload_run_batch(fitted_system, porto_bench):
    """Mixed STRQ/TPQ/exact workload through run_batch: faster, same answers."""
    engine = fitted_system.engine
    kinds = ["strq", "strq", "tpq", "exact"]
    specs = []
    for i, (x, y, t, _tid) in enumerate(make_queries(porto_bench, NUM_QUERIES, seed=13)):
        kind = kinds[i % len(kinds)]
        specs.append(QuerySpec(kind=kind, x=x, y=y, t=t,
                               length=10 if kind == "tpq" else 0))

    def sequential():
        results = []
        for spec in specs:
            if spec.kind == "strq":
                results.append(fitted_system.strq(spec.x, spec.y, spec.t))
            elif spec.kind == "tpq":
                results.append(fitted_system.tpq(spec.x, spec.y, spec.t, length=spec.length))
            else:
                results.append(fitted_system.exact(spec.x, spec.y, spec.t))
        return results

    sequential(), engine.run_batch(specs)  # warm

    start = time.perf_counter()
    sequential_results = sequential()
    sequential_s = time.perf_counter() - start
    start = time.perf_counter()
    batched_results = engine.run_batch(specs)
    batched_s = time.perf_counter() - start

    assert len(batched_results) == len(specs)
    for spec, scalar, batch in zip(specs, sequential_results, batched_results):
        assert type(scalar) is type(batch)
        if spec.kind == "strq":
            assert scalar.candidates == batch.candidates
        elif spec.kind == "tpq":
            assert set(scalar.paths) == set(batch.paths)
        else:
            assert scalar.matches == batch.matches

    cache = engine.summary.slice_cache.stats()
    print_table(
        f"Mixed workload throughput ({NUM_QUERIES} queries)",
        ["mode", "time (ms)", "queries/s"],
        [
            ["per-query loop", sequential_s * 1000, NUM_QUERIES / sequential_s],
            ["run_batch", batched_s * 1000, NUM_QUERIES / batched_s],
            ["speedup", sequential_s / batched_s, ""],
        ],
    )
    print(f"slice cache: {cache['hits']} hits, {cache['misses']} misses, "
          f"{cache['evictions']} evictions")
    # The batched path must never be slower in steady state (CI runners get
    # the same noise tolerance as the STRQ floor).
    tolerance = float(os.environ.get("BATCH_SLOWDOWN_TOLERANCE", "1.0"))
    assert batched_s < sequential_s * tolerance
