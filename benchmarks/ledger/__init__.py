"""Seeded performance ledger of the PPQ-trajectory system.

``python -m benchmarks.ledger --workload <name> --seed <n>`` builds one
workload from its seed, drives the system through its public API (fit,
save, load, scalar queries, ``run_batch``), checks every answer against a
brute-force oracle over the raw points and prints the end-to-end metrics.
``--trace`` adds a traced run that reports per-layer metrics, and
``python -m benchmarks.ledger compare --base A*.json --change B*.json``
compares two sets of result files.  See ``README.md`` in this directory.

Importing this package has no side effects; the command line lives in
``__main__``.
"""

from __future__ import annotations

from pathlib import Path

#: Root of the source checkout the ledger measures.
ROOT = Path(__file__).resolve().parents[2]
#: The library sources the ledger imports ``repro`` from.
SRC = ROOT / "src"
