"""One ledger run: set up, serve in a child process, check, report.

The load comes from one process with one client in a closed loop.  The
set-up phase runs here: ``fit`` three times, then one ``save`` that writes
the artifact.  The serving phase runs in a fresh child process
(:mod:`.serve`) that receives only the artifact path and the query file.
End-to-end metrics always come from the untraced execution; ``--trace``
adds a second, shorter traced execution of the same inputs whose answers
must be identical and which yields the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ROOT, layers, oracle
from .serve import Phases, SpeedSampler, run_batch
from .trace import Tracer
from .workloads import FULL, SMOKE, WORKLOADS, build_dataset, build_queries, make_system
from .workloads import raw_columns, smoke_spec

#: The serving child is started as ``python -m <PACKAGE> _serve ...`` from ROOT.
PACKAGE = "benchmarks.ledger"
#: A run must finish within 180 s; the serving child gets most of that.
CHILD_TIMEOUT_S = 150

#: ``(name, unit, better)`` of every end-to-end metric, in report order.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("save_s", "s", "lower"),
    ("load_s", "s", "lower"),
    ("cold_pass_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
    ("batch_qps", "queries/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("artifact_bytes_per_point", "B/point", "lower"),
    ("compression_ratio", "x", "higher"),
    ("strq_recall", "fraction", "higher"),
    ("strq_precision", "fraction", "higher"),
    ("exact_visited_ratio", "fraction", "lower"),
    ("tpq_deviation_m", "m", "lower"),
)

#: Serving rounds of the traced execution.
TRACED_ROUNDS = 2
#: Phases whose amount of work is fixed; ``trace.overhead_frac`` compares them.
FIXED_WORK = ("setup.fit", "setup.save", "serve.load", "serve.cold_pass", "serve.save",
              "serve.query")
#: Phases whose per-repetition times the result document keeps.
SAMPLED = ("setup.fit", "serve.load", "serve.cold_pass", "serve.save", "serve.warm_pass")


class ServeFailed(RuntimeError):
    """The serving child exited abnormally."""


@dataclass
class Execution:
    """Measurements of one (untraced or traced) execution of a workload."""

    phases: dict[str, list[float]]
    scaled: dict[str, list[float]]
    serve: dict
    artifact_bytes: int
    fitted_digest: str | None
    layers: dict

    def wall(self) -> dict[str, float]:
        return {name: sum(times) for name, times in self.phases.items()}

    def unit_wall(self) -> float:
        """Mean wall time of one unit of each fixed-work phase, summed."""
        return sum(statistics.fmean(self.phases[name]) for name in FIXED_WORK)


def execute(spec, scale, dataset, workload, workdir: Path, seconds: float,
            trace: bool, spans_file: Path | None) -> Execution:
    """Fit (``scale.fits`` times) and save here, then serve in a child process."""
    artifact = workdir / "model.ppq"
    tracer = Tracer() if trace else None
    sampler = None if trace else SpeedSampler()
    phases = Phases(tracer, sampler)
    ledger = layers.Ledger()
    fitted_digest = None
    with (tracer if tracer is not None else nullcontext(),
          sampler if sampler is not None else nullcontext()):
        timings = []
        for _ in range(scale.fits):
            system = make_system(spec)
            gc.collect()
            with phases("setup.fit"):
                system.fit(dataset)
            timings.append(dict(getattr(system.quantizer, "timings", {})))
        with phases("setup.save"):
            system.save(artifact)
        if spec.check_fitted:
            with phases("setup.check"):
                answers = run_batch(system, workload)
            fitted_digest = oracle.combined([oracle.fingerprint(a) for a in answers])
            del answers
        if tracer is not None:
            layers.setup_layers(ledger, tracer, phases.count("setup.fit"), timings, system)
    del system
    gc.collect()

    result_file = workdir / "serve.json"
    command = [sys.executable, "-m", PACKAGE, "_serve",
               "--artifact", str(artifact), "--queries", str(workdir / "queries.json"),
               "--oracle", str(workdir / "oracle.npz"), "--result", str(result_file),
               "--seconds", repr(seconds), "--rounds", str(spec.rounds)]
    if tracer is not None:
        command.append("--trace")
        if spans_file is not None:
            command += ["--spans", str(workdir / "serve_spans.npz")]
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                                   timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise ServeFailed(f"serving process did not finish in {CHILD_TIMEOUT_S} s") from exc
    if completed.returncode != 0:
        raise ServeFailed(f"serving process exited with code {completed.returncode}")
    served = json.loads(result_file.read_text(encoding="utf-8"))
    phases.times.update(served["phases"])
    phases.scaled.update(served["scaled"])
    ledger.update(served.get("layers", {}))
    if tracer is not None:
        served["spans_dropped"] = {"setup": tracer.dropped, "serve": served["spans_dropped"]}
    if tracer is not None and spans_file is not None:
        with np.load(workdir / "serve_spans.npz") as child:
            columns = {f"serve_{key}": child[key] for key in child.files}
        columns.update({f"setup_{key}": value for key, value in tracer.spans().items()})
        np.savez_compressed(spans_file, **columns)
    return Execution(phases=phases.times, scaled=phases.scaled, serve=served,
                     artifact_bytes=artifact.stat().st_size, fitted_digest=fitted_digest,
                     layers=ledger.values)


def end_to_end(run: Execution, points: int) -> dict[str, float | None]:
    """The end-to-end metrics of an untraced execution.

    Every timing is in reference seconds (see :class:`.serve.SpeedSampler`):
    the shared host's speed changes by up to 1.6x within a run, and scaling
    each unit by the speed measured while it ran takes most of that out.

    * ``setup_s``, ``save_s``, ``load_s``, ``cold_pass_s``: the median fit,
      save, load and cold pass;
    * ``query_p50_ms``, ``query_p99_ms``: percentiles over the closed-loop
      latencies of all rounds;
    * ``batch_qps``: queries per pass over the mean warm pass.  A garbage
      collection lands in only some passes, and the mean keeps its cost.
    """
    times = run.scaled
    accuracy = run.serve["accuracy"]
    return {
        "setup_s": statistics.median(times["setup.fit"]),
        "save_s": statistics.median(times["serve.save"]),
        "load_s": statistics.median(times["serve.load"]),
        "cold_pass_s": statistics.median(times["serve.cold_pass"]),
        "query_p50_ms": run.serve["latency_ms"]["p50"],
        "query_p99_ms": run.serve["latency_ms"]["p99"],
        "batch_qps": run.serve["queries"] / statistics.fmean(times["serve.warm_pass"]),
        "peak_rss_mb": run.serve["peak_rss_mb"],
        "artifact_bytes_per_point": run.artifact_bytes / points,
        "compression_ratio": run.serve["compression_ratio"],
        "strq_recall": accuracy["strq_recall"],
        "strq_precision": accuracy["strq_precision"],
        "exact_visited_ratio": accuracy["exact_visited_ratio"],
        "tpq_deviation_m": accuracy["tpq_deviation_m"],
    }


def metadata() -> dict:
    """Run environment: commit, interpreter, numpy, CPUs, platform."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=False).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform()}


def run(args: argparse.Namespace) -> int:
    """Execute one workload run; returns the process exit code."""
    started = time.perf_counter()
    meta = {**metadata(), "loadavg_before": os.getloadavg(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "smoke": args.smoke,
            "trace": bool(args.trace)}
    spec = WORKLOADS[args.workload]
    spec, scale = (smoke_spec(spec), SMOKE) if args.smoke else (spec, FULL)

    from repro.queries import Workload

    dataset = build_dataset(spec)
    raw = raw_columns(dataset)
    timed, accuracy = build_queries(spec, raw, args.seed, scale)
    workload = Workload.from_obj(timed)
    out = Path(args.out) if args.out else None
    spans_file = out.with_name(out.stem + ".spans.npz") if out and args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix=".ledger-", dir=ROOT))
    try:
        queries = {"queries": timed, "accuracy": accuracy}
        (workdir / "queries.json").write_text(json.dumps(queries), encoding="utf-8")
        np.savez(workdir / "oracle.npz", **raw)
        plain = execute(spec, scale, dataset, workload, workdir, args.seconds, False, None)
        traced = None
        if args.trace:
            # Per-layer metrics are per unit of work and need no medians, so
            # the traced execution does one fit and fewer rounds.
            rounds = min(spec.rounds, TRACED_ROUNDS)
            traced = execute(replace(spec, rounds=rounds), replace(scale, fits=1), dataset,
                             workload, workdir, args.seconds * rounds / spec.rounds, True,
                             spans_file)
    except ServeFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = end_to_end(plain, len(raw["t"]))
    failures, problems, digests = _verdict(spec, plain, traced, metrics)
    attempted = plain.serve["attempted"]
    correct = not failures and not problems

    end_to_end_entries = _entries({name: (value, None) for name, value in metrics.items()},
                                  END_TO_END)
    per_layer_entries = None
    if traced is not None:
        overhead = traced.unit_wall() / plain.unit_wall() - 1.0
        per_layer_entries = _entries({**traced.layers, "trace.overhead_frac": (overhead, None)},
                                     layers.PER_LAYER)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {int(bool(args.trace))}  smoke {int(args.smoke)}")
    for name, item in {**end_to_end_entries, **(per_layer_entries or {})}.items():
        shown = item["value"] if item["value"] is not None else f"null ({item['reason']})"
        print(f"  {name:<32} {shown!s:>24} {item['unit']}")
    print(f"  error_rate {len(failures) / attempted} ({len(failures)} of {attempted} "
          "queries failed)")
    for problem in problems + [f"query {p}: {r}" for p, r in list(failures.items())[:10]]:
        print(f"  FAIL {problem}")

    if out is not None:
        meta.update(loadavg_after=os.getloadavg(), wall_s=time.perf_counter() - started,
                    phase_wall_s={"untraced": plain.wall(),
                                  "traced": traced.wall() if traced is not None else None})
        document = {
            "workload": args.workload, "seed": args.seed, "correct": correct,
            "attempted": attempted, "failed": len(failures),
            "error_rate": len(failures) / attempted, "problems": problems,
            "failures": dict(list(failures.items())[:50]),
            "metrics": end_to_end_entries, "per_layer": per_layer_entries,
            "samples": {**{name: plain.phases[name] for name in SAMPLED},
                        "serve.warm_pass_gc": plain.serve["warm_gc_s"]},
            "reference_samples": {name: plain.scaled[name] for name in SAMPLED},
            "latency_samples": plain.serve["latency_ms"]["samples"],
            "digests": digests, "meta": meta,
            "spans_file": spans_file.name if spans_file is not None else None,
            "spans_dropped": traced.serve["spans_dropped"] if traced is not None else None,
        }
        out.write_text(json.dumps(document, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": per_layer_entries or end_to_end_entries}))
    return 0 if correct else 1


def _verdict(spec, plain: Execution, traced: Execution | None, metrics: dict):
    """``(failures, problems, digests)``: per-query failures and run-level problems."""
    failures = dict(plain.serve["failures"])
    digests = {"untraced": plain.serve["digest"]}
    problems = []
    if spec.check_fitted and plain.fitted_digest != plain.serve["digest"]:
        problems.append("fitted and loaded models answer differently")
    if traced is not None:
        failures.update(traced.serve["failures"])
        digests["traced"] = traced.serve["digest"]
        if digests["traced"] != digests["untraced"]:
            problems.append("traced and untraced answers differ")
    if metrics["strq_recall"] != 1.0:
        problems.append(f"strq_recall is {metrics['strq_recall']}, Lemma 3 requires 1.0")
    problems += [f"{name} was not measured" for name, value in metrics.items()
                 if not (isinstance(value, (int, float)) and math.isfinite(value))]
    return failures, problems, digests


def _entries(values: dict[str, tuple], catalogue) -> dict[str, dict]:
    """``name -> {"value", "unit"[, "reason"]}`` in catalogue order."""
    entries = {}
    for name, unit, _better in catalogue:
        value, reason = values.get(name, (None, "not reported"))
        entries[name] = {"value": value, "unit": unit}
        if value is None:
            entries[name]["reason"] = reason
    return entries
