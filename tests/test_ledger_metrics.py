"""The benchmark ledger still reads every per-layer metric from the library.

The ledger (``python -m benchmarks.ledger``) reaches into the library by
name: it wraps functions for its traced run and reads attributes of the
loaded model.  When one of those disappears it reports the metric as
``null`` with a reason and still exits 0, and its own smoke test accepts
that.  This test runs the traced ledger at smoke scale and fails on any
metric that is not a finite number, so a refactor that breaks what the
ledger reads fails tier-1 instead of the benchmark run.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.ledger.layers import PER_LAYER  # noqa: E402


def test_traced_ledger_reports_every_metric_as_a_finite_number():
    command = [sys.executable, "-m", "benchmarks.ledger", "--workload", "ingest",
               "--seed", "3", "--seconds", "0.2", "--smoke", "--trace", "1"]
    run = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    document = json.loads(run.stdout.strip().splitlines()[-1])
    metrics = document["metrics"]
    assert sorted(metrics) == sorted(name for name, _unit, _better in PER_LAYER)
    not_finite = {
        name: entry for name, entry in metrics.items()
        if isinstance(entry.get("value"), bool)
        or not isinstance(entry.get("value"), (int, float))
        or not math.isfinite(entry["value"])
    }
    assert not not_finite, not_finite
