"""Batched query workloads: answer hundreds of queries in one engine call.

Run with::

    python examples/batch_workload.py

The script compresses a Porto-like synthetic repository, builds a mixed
STRQ/TPQ/exact workload (the kind a monitoring dashboard would fire every
refresh), writes it to the JSON workload format understood by
``python -m repro query --workload file.json``, and answers it twice: once
query by query through the single-query API (each call a batch of one) and
once through :meth:`QueryEngine.run_batch`.  The single batch shares index
scans across queries and serves repeated slice reconstructions from the
summary's LRU cache, so it is several times faster while returning
identical results.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import CQCConfig, IndexConfig, PPQTrajectory
from repro.data import generate_porto_like
from repro.queries import Workload


def build_workload_entries(dataset, num_queries: int = 200, seed: int = 11) -> list[dict]:
    """Random mixed workload probing true trajectory positions."""
    rng = np.random.default_rng(seed)
    kinds = ["strq", "strq", "tpq", "exact"]  # STRQ-heavy, as dashboards are
    entries = []
    for i in range(num_queries):
        tid = int(rng.choice(dataset.trajectory_ids))
        traj = dataset.get(tid)
        t = int(rng.integers(0, len(traj)))
        x, y = traj.points[t]
        entry = {"type": kinds[i % len(kinds)], "x": float(x), "y": float(y), "t": t}
        if entry["type"] == "tpq":
            entry["length"] = 10
        entries.append(entry)
    return entries


def run_sequentially(system: PPQTrajectory, workload) -> list:
    """One batch of one per query: what a single batch saves."""
    results = []
    for spec in workload:
        if spec.kind == "strq":
            results.append(system.strq(spec.x, spec.y, spec.t))
        elif spec.kind == "tpq":
            results.append(system.tpq(spec.x, spec.y, spec.t, length=spec.length))
        else:
            results.append(system.exact(spec.x, spec.y, spec.t))
    return results


def main() -> None:
    # 1. Compress and index a repository.
    dataset = generate_porto_like(num_trajectories=60, max_length=120, seed=3)
    system = PPQTrajectory.ppq_s(cqc_config=CQCConfig(), index_config=IndexConfig())
    system.fit(dataset)
    print(f"dataset: {len(dataset)} trajectories, {dataset.num_points} points")

    # 2. Write the workload in the JSON format the CLI accepts.
    entries = build_workload_entries(dataset)
    workload_path = Path(tempfile.gettempdir()) / "repro_batch_workload.json"
    workload_path.write_text(json.dumps({"queries": entries}, indent=2))
    workload = Workload.from_file(workload_path)
    counts = workload.counts()
    print(f"workload: {len(workload)} queries "
          f"({counts['strq']} strq, {counts['tpq']} tpq, {counts['exact']} exact)")
    print(f"workload file: {workload_path}")

    # 3. Answer it query by query, then in one batched call.  One untimed
    #    pass of each warms the one-time lazy structures (posting-list
    #    decode tables, reconstruction caches) so the comparison measures
    #    steady-state serving cost, as a long-running query service would.
    run_sequentially(system, workload)
    system.run_batch(workload)

    start = time.perf_counter()
    sequential = run_sequentially(system, workload)
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = system.run_batch(workload)
    batched_s = time.perf_counter() - start

    # 4. Same answers, fewer scans.
    for seq, bat in zip(sequential, batched):
        assert type(seq) is type(bat)
    print(f"\nsequential loop : {sequential_s * 1000:7.1f} ms "
          f"({len(workload) / sequential_s:6.0f} q/s)")
    print(f"batched         : {batched_s * 1000:7.1f} ms "
          f"({len(workload) / batched_s:6.0f} q/s)")
    print(f"speedup         : {sequential_s / batched_s:.1f}x")
    cache = system.summary.slice_cache.stats()
    print(f"slice cache     : {cache['hits']} hits, {cache['misses']} misses, "
          f"{cache['evictions']} evictions")


if __name__ == "__main__":
    main()
