"""Compare two sets of ledger result files, workload by workload.

For every workload and end-to-end metric this prints both sides' medians
and quartiles, the metric's bound from ``BENCHMARK.json``, the ratio of the
medians with its base, and a verdict:

* ``better`` -- the change wins at least nine tenths of the run pairs (ties
  count for neither) and the medians differ by more than the base's
  interquartile distance;
* ``unresolved`` -- the base's spread (interquartile distance over median)
  is wider than the bound, unless every change run beats every base run;
* ``worse`` -- the change's median is worse than the base's by more than
  the bound;
* ``same`` -- otherwise.

A metric that some run did not measure is ``unresolved``.  Each workload
also gets an ``error_rate`` row, failed over attempted queries across its
runs: ``worse`` when a change run was incorrect or the change failed more
queries than the base, ``unresolved`` when a base run was incorrect, and
``same`` otherwise.  A gain does not count when more operations fail.

Runs are paired by seed order.  A warning is printed when the run
environment or settings differ between or within the two sets.  The exit
code is 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from . import ROOT

#: Run metadata that must agree for the two sets to be comparable.
ENVIRONMENT = ("python", "numpy", "nproc", "platform", "seconds", "smoke")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """Classify ``change`` against ``base`` (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_median, b_q3 = quartiles(base)
    c_median = quartiles(change)[1]
    scale = abs(b_median) or 1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_median - b_median) > b_q3 - b_q1:
        return "better"
    every_run_better = min(sign * c for c in change) > max(sign * b for b in base)
    if (b_q3 - b_q1) / scale > bound and not every_run_better:
        return "unresolved"
    if sign * (b_median - c_median) / scale > bound:
        return "worse"
    return "same"


def error_verdict(base: list[dict], change: list[dict]) -> tuple[str, float, float]:
    """``(verdict, base error rate, change error rate)`` over whole result sets."""
    rates = [sum(d["failed"] for d in side) / max(1, sum(d["attempted"] for d in side))
             for side in (base, change)]
    if not all(d["correct"] for d in change) or rates[1] > rates[0]:
        return "worse", rates[0], rates[1]
    if not all(d["correct"] for d in base):
        return "unresolved", rates[0], rates[1]
    return "same", rates[0], rates[1]


def _values(documents: list[dict], name: str) -> list[float] | None:
    """The metric's value in every document, or ``None`` if one lacks it."""
    values = [d["metrics"].get(name, {}).get("value") for d in documents]
    if any(not isinstance(value, (int, float)) for value in values):
        return None
    return values


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Result documents grouped by workload, each group sorted by seed."""
    groups: dict[str, list[dict]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        groups.setdefault(document["workload"], []).append(document)
    for documents in groups.values():
        documents.sort(key=lambda d: d["seed"])
    return groups


def _warnings(base: list[dict], change: list[dict]) -> list[str]:
    warnings = []
    for key in ENVIRONMENT:
        sides = [{json.dumps(d["meta"].get(key)) for d in side} for side in (base, change)]
        if len(sides[0] | sides[1]) > 1:
            warnings.append(f"{key} differs: base {sorted(sides[0])}, change {sorted(sides[1])}")
    for label, side in (("base", base), ("change", change)):
        commits = {d["meta"].get("commit") for d in side}
        if len(commits) > 1:
            warnings.append(f"{label} runs come from several commits: {sorted(map(str, commits))}")
    return warnings


def compare(base_paths: list[str], change_paths: list[str], benchmark: dict) -> int:
    """Print the comparison; returns the exit code."""
    base, change = load(base_paths), load(change_paths)
    metrics = benchmark["end_to_end"]
    flagged = 0
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"workload {workload}: only in {'base' if workload in base else 'change'}")
            flagged += 1
            continue
        b_docs, c_docs = base[workload], change[workload]
        commits = [sorted({str(d["meta"].get("commit")) for d in side})
                   for side in (b_docs, c_docs)]
        print(f"workload {workload}: base {len(b_docs)} runs {commits[0]}, "
              f"change {len(c_docs)} runs {commits[1]}")
        for warning in _warnings(b_docs, c_docs):
            print(f"  WARNING {warning}")
        print(f"  {'metric':<26}{'base median [q1, q3]':>34}{'change median [q1, q3]':>34}"
              f"{'bound':>8}{'ratio':>9}  verdict")
        result, b_rate, c_rate = error_verdict(b_docs, c_docs)
        flagged += result != "same"
        print(f"  {'error_rate':<26}{b_rate:>34.6g}{c_rate:>34.6g}{0:>8}{'':>9}  {result}")
        for metric in metrics:
            name = metric["name"]
            b, c = _values(b_docs, name), _values(c_docs, name)
            if b is None or c is None:
                flagged += 1
                print(f"  {name:<26}{'not measured in every run':>68}{metric['bound']:>8.3g}"
                      f"{'':>9}  unresolved")
                continue
            bq, cq = quartiles(b), quartiles(c)
            result = verdict(b, c, metric["better"], metric["bound"])
            flagged += result in ("worse", "unresolved")
            ratio = cq[1] / bq[1] if bq[1] else float("nan")
            print(f"  {name:<26}{bq[1]:>14.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"{cq[1]:>14.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                  f"{metric['bound']:>8.3g}{ratio:>9.4f}  {result}")
    return 1 if flagged else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger compare",
                                     description="Compare two sets of ledger result files.")
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return compare(args.base, args.change, benchmark)
