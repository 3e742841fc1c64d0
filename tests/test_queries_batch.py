"""Tests for the batch query subsystem.

The contract of :mod:`repro.queries.batch` is exact equivalence: a batched
call must return, query by query, the same results as running the scalar
query functions in a loop.  These tests enforce that on randomized
workloads (including off-trajectory probes and timestamps outside the
stream) and cover the workload spec parsing, per-query error isolation and
the LRU reconstruction cache.
"""

import json

import numpy as np
import pytest

from repro.core.summary import ReconstructionCache
from repro.queries.batch import (
    QuerySpec,
    Workload,
    WorkloadError,
    batch_exact,
    batch_strq,
    batch_tpq,
)
import repro.queries.engine as engine_module
from repro.queries.engine import QueryEngine, QueryError
from repro.queries.exact import exact_match_query
from repro.queries.strq import spatio_temporal_range_query
from repro.queries.tpq import TPQResult, trajectory_path_query


def random_probes(dataset, num, seed, jitter=0.0):
    """Random (x, y, t) probes on (or near, with jitter) trajectory points."""
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(num):
        tid = int(rng.choice(dataset.trajectory_ids))
        traj = dataset.get(tid)
        t = int(rng.integers(0, len(traj)))
        x, y = traj.points[t] + rng.normal(0.0, jitter, 2)
        probes.append((float(x), float(y), int(t)))
    return probes


@pytest.fixture(scope="module")
def engine(fitted_ppq_s) -> QueryEngine:
    return fitted_ppq_s.engine


class TestBatchSTRQ:
    def test_equivalent_to_sequential_with_local_search(self, engine, porto_small):
        probes = random_probes(porto_small, 30, seed=0, jitter=5e-4)
        radius = engine.local_search_radius
        batched = batch_strq(engine.index, probes, summary=engine.summary,
                             local_search_radius=radius)
        for (x, y, t), batch in zip(probes, batched):
            scalar = spatio_temporal_range_query(
                engine.index, x, y, t, summary=engine.summary, local_search_radius=radius
            )
            assert scalar.candidates == batch.candidates
            assert set(scalar.reconstructed) == set(batch.reconstructed)
            for tid in scalar.reconstructed:
                assert (scalar.reconstructed[tid].tobytes()
                        == batch.reconstructed[tid].tobytes())

    def test_equivalent_without_summary_or_local_search(self, engine, porto_small):
        probes = random_probes(porto_small, 20, seed=1)
        batched = batch_strq(engine.index, probes)
        for (x, y, t), batch in zip(probes, batched):
            scalar = spatio_temporal_range_query(engine.index, x, y, t)
            assert scalar.candidates == batch.candidates
            assert batch.reconstructed == {}

    def test_queries_outside_stream_return_empty(self, engine):
        batched = batch_strq(engine.index, [(0.0, 0.0, 99_999), (5.0, 5.0, -3)])
        assert [b.candidates for b in batched] == [[], []]

    def test_empty_batch(self, engine):
        assert batch_strq(engine.index, []) == []

    def test_accepts_query_specs(self, engine, porto_small):
        x, y, t = random_probes(porto_small, 1, seed=2)[0]
        spec = QuerySpec(kind="strq", x=x, y=y, t=t)
        batched = batch_strq(engine.index, [spec], summary=engine.summary,
                             local_search_radius=engine.local_search_radius)
        assert batched[0].candidates == engine.strq(x, y, t).candidates


class TestBatchTPQ:
    def test_equivalent_to_sequential(self, engine, porto_small):
        rng = np.random.default_rng(3)
        probes = [(x, y, t, int(rng.integers(1, 15)))
                  for x, y, t in random_probes(porto_small, 25, seed=3)]
        radius = engine.local_search_radius
        batched = batch_tpq(engine.index, engine.summary, probes,
                            local_search_radius=radius)
        for (x, y, t, length), batch in zip(probes, batched):
            scalar = trajectory_path_query(
                engine.index, engine.summary, x, y, t, length, local_search_radius=radius
            )
            assert set(scalar.paths) == set(batch.paths)
            for tid in scalar.paths:
                assert scalar.paths[tid].tobytes() == batch.paths[tid].tobytes()

    def test_paths_truncated_at_stream_end_match_sequential(self, engine, porto_small):
        t = max(porto_small.timestamps) - 2
        probes = [(x, y, t, 10) for x, y, _ in random_probes(porto_small, 5, seed=4)]
        radius = engine.local_search_radius
        batched = batch_tpq(engine.index, engine.summary, probes, local_search_radius=radius)
        for (x, y, t_q, length), batch in zip(probes, batched):
            scalar = trajectory_path_query(
                engine.index, engine.summary, x, y, t_q, length, local_search_radius=radius
            )
            assert set(scalar.paths) == set(batch.paths)
            for tid, path in batch.paths.items():
                assert len(path) <= 3

    def test_invalid_length_rejected(self, engine):
        with pytest.raises(ValueError):
            batch_tpq(engine.index, engine.summary, [(0.0, 0.0, 5, 0)])


class TestBatchExact:
    def test_equivalent_to_sequential(self, engine, porto_small):
        probes = random_probes(porto_small, 25, seed=5, jitter=3e-4)
        cell = engine.index_config.grid_cell
        batched = batch_exact(engine.index, engine.summary, porto_small, probes,
                              cell_size=cell)
        for (x, y, t), batch in zip(probes, batched):
            scalar = exact_match_query(
                engine.index, engine.summary, porto_small, x, y, t, cell_size=cell
            )
            assert scalar.candidates == batch.candidates
            assert scalar.matches == batch.matches
            assert scalar.visited_ratio == batch.visited_ratio


class TestRunBatch:
    def build_workload(self, dataset, num=24, seed=6):
        kinds = ["strq", "tpq", "exact"]
        specs = []
        for i, (x, y, t) in enumerate(random_probes(dataset, num, seed=seed)):
            kind = kinds[i % len(kinds)]
            specs.append(QuerySpec(kind=kind, x=x, y=y, t=t,
                                   length=8 if kind == "tpq" else 0))
        return specs

    def test_mixed_workload_order_and_equivalence(self, engine, porto_small):
        specs = self.build_workload(porto_small)
        results = engine.run_batch(specs)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert (result.x, result.y, result.t) == (spec.x, spec.y, spec.t)
            if spec.kind == "strq":
                assert result.candidates == engine.strq(spec.x, spec.y, spec.t).candidates
            elif spec.kind == "tpq":
                scalar = engine.tpq(spec.x, spec.y, spec.t, spec.length)
                assert set(result.paths) == set(scalar.paths)
            else:
                scalar = engine.exact(spec.x, spec.y, spec.t)
                assert result.matches == scalar.matches

    def test_accepts_workload_object_and_dicts(self, engine, porto_small):
        x, y, t = random_probes(porto_small, 1, seed=7)[0]
        as_dicts = [{"type": "strq", "x": x, "y": y, "t": t}]
        workload = Workload.from_obj(as_dicts)
        assert (engine.run_batch(workload)[0].candidates
                == engine.run_batch(as_dicts)[0].candidates)

    def test_exact_without_raw_dataset_rejected(self, engine):
        detached = QueryEngine(engine.summary, engine.index_config, raw_dataset=None)
        with pytest.raises(RuntimeError):
            detached.run_batch([QuerySpec(kind="exact", x=0.0, y=0.0, t=0)])

    def test_unsupported_entry_rejected(self, engine):
        with pytest.raises(TypeError):
            engine.run_batch([("strq", 0.0, 0.0, 0)])


class TestBatchIsolation:
    """``run_batch(isolate=True)``: a failing query gets a :class:`QueryError`
    in its own result slot and every other query is still answered."""

    def test_exact_without_raw_raises_unless_isolated(self, engine, porto_small):
        detached = QueryEngine(engine.summary, engine.index_config, raw_dataset=None,
                               index=engine.index)
        x, y, t = random_probes(porto_small, 1, seed=12)[0]
        workload = Workload.from_obj([
            {"type": "strq", "x": x, "y": y, "t": t},
            {"type": "exact", "x": x, "y": y, "t": t},
        ])
        with pytest.raises(RuntimeError, match="raw dataset"):
            detached.run_batch(workload)
        results = detached.run_batch(workload, isolate=True)
        assert not isinstance(results[0], QueryError)
        assert isinstance(results[1], QueryError)
        assert results[1].index == 1
        assert results[1].kind == "exact"
        assert results[1].error_type == "RuntimeError"
        assert "raw dataset" in results[1].message

    def test_isolated_errors_keep_positions_aligned(self, engine, porto_small, monkeypatch):
        """TPQs at chosen positions raise: their slots hold the errors, and
        the other TPQs and the STRQs answer as they do unpatched."""
        probes = random_probes(porto_small, 10, seed=13)
        assert len(set(probes)) == len(probes)
        workload = Workload.from_obj(
            [{"type": ("strq", "tpq")[i % 2], "x": x, "y": y, "t": t, "length": 6}
             for i, (x, y, t) in enumerate(probes)])
        expected = engine.run_batch(workload)
        failing = {3, 7}
        poisoned = {probes[i] for i in failing}

        def batch_fails(*_args, **_kwargs):
            raise ValueError("batched TPQ pass failed")

        scalar_tpq = engine_module.trajectory_path_query

        def scalar_fails_on_poisoned(index, summary, x, y, t, length, **kwargs):
            if (x, y, t) in poisoned:
                raise ValueError(f"poisoned TPQ at t={t}")
            return scalar_tpq(index, summary, x, y, t, length, **kwargs)

        monkeypatch.setattr(engine_module, "batch_tpq", batch_fails)
        monkeypatch.setattr(engine_module, "trajectory_path_query", scalar_fails_on_poisoned)
        with pytest.raises(ValueError, match="batched TPQ pass failed"):
            engine.run_batch(workload)
        results = engine.run_batch(workload, isolate=True)

        assert len(results) == len(probes)
        errors = [r for r in results if isinstance(r, QueryError)]
        assert {err.index for err in errors} == failing
        for position, (want, got) in enumerate(zip(expected, results)):
            if position in failing:
                assert got.kind == "tpq" and got.error_type == "ValueError"
                assert "poisoned TPQ" in got.message
            elif isinstance(want, TPQResult):
                assert sorted(got.paths) == sorted(want.paths)
                for tid, path in want.paths.items():
                    assert np.array_equal(got.paths[tid], path)
            else:
                assert got.candidates == want.candidates


class TestWorkloadSpec:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(kind="nearest", x=0.0, y=0.0, t=0)

    def test_tpq_requires_length(self):
        with pytest.raises(ValueError):
            QuerySpec(kind="tpq", x=0.0, y=0.0, t=0)

    def test_from_dict_type_alias_and_counts(self):
        workload = Workload.from_obj([
            {"type": "strq", "x": 1.0, "y": 2.0, "t": 3},
            {"kind": "tpq", "x": 1.0, "y": 2.0, "t": 3, "length": 4},
        ])
        assert workload.counts() == {"strq": 1, "tpq": 1, "exact": 0}
        assert workload.queries[1].length == 4

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec.from_dict({"x": 0.0, "y": 0.0, "t": 0})

    def test_non_list_workload_rejected(self):
        with pytest.raises(ValueError):
            Workload.from_obj({"not_queries": []})

    def test_load_workload_file_roundtrip(self, tmp_path):
        path = tmp_path / "workload.json"
        path.write_text(json.dumps({"queries": [
            {"type": "exact", "x": -8.6, "y": 41.1, "t": 12},
        ]}))
        workload = Workload.from_file(path)
        assert len(workload) == 1
        assert workload.queries[0] == QuerySpec(kind="exact", x=-8.6, y=41.1, t=12)


class TestMalformedWorkloads:
    """Malformed workload input must raise :class:`WorkloadError` (which the
    CLI maps to exit code 4), never a raw ``KeyError``/``AttributeError``.
    """

    @pytest.mark.parametrize("entry", [
        "strq",                                        # string, not a dict
        42,                                            # number, not a dict
        None,                                          # null entry
        ["strq", 0.0, 0.0, 0],                         # list, not a dict
        {},                                            # empty dict
        {"x": 0.0, "y": 0.0, "t": 0},                  # missing kind
        {"type": "nearest", "x": 0.0, "y": 0.0, "t": 0},   # unknown kind
        {"type": "strq", "y": 0.0, "t": 0},            # missing x
        {"type": "strq", "x": "west", "y": 0.0, "t": 0},   # non-numeric x
        {"type": "strq", "x": 0.0, "y": 0.0},          # missing t
        {"type": "strq", "x": 0.0, "y": 0.0, "t": "noon"},  # non-numeric t
        {"type": "tpq", "x": 0.0, "y": 0.0, "t": 0},   # tpq without length
        {"type": "tpq", "x": 0.0, "y": 0.0, "t": 0, "length": 0},  # length < 1
        {"type": "tpq", "x": 0.0, "y": 0.0, "t": 0, "length": "long"},
    ])
    def test_bad_entry_raises_workload_error(self, entry):
        with pytest.raises(WorkloadError):
            QuerySpec.from_dict(entry)
        # And through the workload parser, with the entry position named.
        with pytest.raises(WorkloadError, match="query #1"):
            Workload.from_obj([{"type": "strq", "x": 0.0, "y": 0.0, "t": 0},
                               entry])

    @pytest.mark.parametrize("obj", ["queries", 7, None, {"queries": "strq"},
                                     {"queries": 7}, {"wrong_key": []}])
    def test_non_list_workload_raises_workload_error(self, obj):
        with pytest.raises(WorkloadError):
            Workload.from_obj(obj)

    def test_workload_error_is_a_value_error(self):
        """Existing except ValueError handlers keep working."""
        assert issubclass(WorkloadError, ValueError)

    def test_bad_json_raises_workload_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(WorkloadError):
            Workload.from_file(path)

    def test_empty_workload_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"queries": []}))
        workload = Workload.from_file(path)
        assert len(workload) == 0
        assert workload.counts() == {"strq": 0, "tpq": 0, "exact": 0}


class TestPeriodBoundaryEquivalence:
    """Batch vs scalar equivalence at TPI partition boundaries (the
    ``searchsorted(..., side="right") - 1`` edge of the vectorised scan).
    """

    def _boundary_probes(self, engine, dataset):
        """Probes pinned to every period's exact start/end (and ±1)."""
        probes = []
        rng = np.random.default_rng(31)
        for period in engine.index.periods:
            for t in {period.start - 1, period.start, period.start + 1,
                      period.end - 1, period.end, period.end + 1}:
                tid = int(rng.choice(dataset.trajectory_ids))
                traj = dataset.get(tid)
                row = min(max(t, 0), len(traj) - 1)
                probes.append((float(traj.points[row, 0]),
                               float(traj.points[row, 1]), int(t)))
        return probes

    def test_strq_at_period_boundaries(self, engine, porto_small):
        probes = self._boundary_probes(engine, porto_small)
        radius = engine.local_search_radius
        batched = batch_strq(engine.index, probes, summary=engine.summary,
                             local_search_radius=radius)
        for (x, y, t), batch in zip(probes, batched):
            scalar = spatio_temporal_range_query(
                engine.index, x, y, t, summary=engine.summary,
                local_search_radius=radius)
            assert scalar.candidates == batch.candidates, f"t={t}"

    def test_tpq_at_period_boundaries(self, engine, porto_small):
        probes = [(x, y, t, 6) for x, y, t
                  in self._boundary_probes(engine, porto_small)]
        batched = batch_tpq(engine.index, engine.summary, probes)
        for (x, y, t, length), batch in zip(probes, batched):
            scalar = trajectory_path_query(engine.index, engine.summary,
                                           x, y, t, length)
            assert set(scalar.paths) == set(batch.paths), f"t={t}"
            for tid in scalar.paths:
                assert np.array_equal(scalar.paths[tid], batch.paths[tid])


class TestReconstructionCache:
    def test_hit_miss_counting(self):
        cache = ReconstructionCache(capacity=4)
        assert cache.get((0, True)) is None
        cache.put((0, True), {1: np.zeros(2)})
        assert cache.get((0, True)) is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = ReconstructionCache(capacity=2)
        cache.put((0, True), {})
        cache.put((1, True), {})
        cache.get((0, True))          # 0 becomes most recently used
        cache.put((2, True), {})      # evicts 1
        assert (1, True) not in cache
        assert (0, True) in cache and (2, True) in cache
        assert cache.evictions == 1

    @pytest.mark.parametrize("capacity", [0, -1, -100])
    def test_degenerate_capacity_disables_cache(self, capacity):
        """``capacity <= 0`` means "no caching" -- never a crash or growth."""
        cache = ReconstructionCache(capacity=capacity)
        assert cache.disabled
        assert cache.capacity == 0
        for t in range(50):
            cache.put((t, True), {1: np.zeros(2)})
            assert cache.get((t, True)) is None     # nothing is ever stored
        assert len(cache) == 0
        assert cache.evictions == 0                 # rejected puts are not evictions
        assert cache.hits == 0 and cache.misses == 50
        cache.clear()                               # must not KeyError
        assert cache.stats()["misses"] == 50

    def test_disabled_slice_cache_end_to_end(self, fitted_ppq_s, porto_small):
        """A summary serving with a disabled slice cache answers identically."""
        engine = fitted_ppq_s.engine
        summary = fitted_ppq_s.summary
        probes = random_probes(porto_small, 8, seed=12)
        want = [engine.strq(x, y, t).candidates for x, y, t in probes]
        original = summary.slice_cache
        summary.slice_cache = ReconstructionCache(capacity=0)
        try:
            got = [engine.strq(x, y, t).candidates for x, y, t in probes]
            assert len(summary.slice_cache) == 0
        finally:
            summary.slice_cache = original
        assert want == got

    def test_clear_keeps_counters(self):
        cache = ReconstructionCache(capacity=2)
        cache.put((0, True), {})
        cache.get((0, True))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    def test_counters_coherent_across_clear(self):
        """hits + misses keeps counting monotonically through clear()."""
        cache = ReconstructionCache(capacity=2)
        cache.put((0, True), {})
        cache.get((0, True))      # hit
        cache.get((1, True))      # miss
        cache.clear()
        cache.get((0, True))      # miss again: clear() emptied the store
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["hits"] + stats["misses"] == 3


class TestSummarySliceCache:
    def test_slice_matches_per_point_reconstruction(self, fitted_ppq_s):
        summary = fitted_ppq_s.summary
        t = summary.timestamps[5]
        slice_ = summary.reconstruct_slice(t)
        assert set(slice_) == set(summary.trajectories_at(t))
        for tid, point in slice_.items():
            assert point.tobytes() == summary.reconstruct_point(tid, t).tobytes()

    def test_repeated_access_hits_cache(self, fitted_ppq_s):
        summary = fitted_ppq_s.summary
        t = summary.timestamps[6]
        tid = summary.trajectories_at(t)[0]
        summary.reconstruct_point_cached(tid, t)
        hits_before = summary.slice_cache.hits
        first = summary.reconstruct_point_cached(tid, t)
        second = summary.reconstruct_point_cached(tid, t)
        assert summary.slice_cache.hits >= hits_before + 2
        assert first is second  # served from the same cached entry

    def test_negative_caching_for_absent_trajectories(self, fitted_ppq_s):
        summary = fitted_ppq_s.summary
        t = summary.timestamps[0]
        assert summary.reconstruct_point_cached(987_654, t) is None
        assert summary.reconstruct_point_cached(987_654, t) is None

    def test_add_record_invalidates(self, fitted_ppq_s):
        summary = fitted_ppq_s.summary
        t = summary.timestamps[1]
        summary.reconstruct_slice(t)
        assert len(summary.slice_cache) > 0
        summary.add_record(summary.records[t])  # re-adding still invalidates
        assert len(summary.slice_cache) == 0
