"""The serving phase, run in a fresh process that gets only files.

It receives the artifact path and the query file (the library's JSON
workload format; the accuracy set rides along under ``"accuracy"``), and
later reads the raw points for the oracle.

Every timed quantity is measured once per round, in reference seconds (see
:class:`SpeedSampler` and :func:`benchmarks.ledger.run.end_to_end`).  A
round:

1. drop the previous model, ``gc.collect()``, ``load_model`` (strict,
   checksums verified);
2. one cold ``run_batch`` over the whole query set;
3. ``save()`` of the loaded model, raw data included;
4. a closed loop over the first :data:`CLOSED_LOOP` queries of the set, one
   at a time through ``strq``/``tpq``/``exact`` (one client), each query
   timed;
5. warm ``run_batch`` passes until the round's share of the window closes,
   each pass timed along with the garbage collection inside it.

Every round does the same work.  The latency percentiles are taken over
the closed-loop latencies of all rounds together.  After the last round peak
RSS is read.  Then the queries the closed loop did not cover run once
through the scalar API, so every query is compared between scalar and
batch; only then are the raw points loaded, every answer checked by the
oracle, and the accuracy set answered and checked.  The accuracy metrics
come from the accuracy set alone.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import layers, oracle
from .trace import Tracer

#: Closed-loop queries per round: enough that 20 fall beyond p99.
CLOSED_LOOP = 2000
#: Closed-loop queries whose latencies are scaled by one speed reading.
SCALE_EVERY = 100
#: Seconds between two speed probes while timed work runs.
PROBE_INTERVAL_S = 0.005
#: Seconds the probe loop takes on the reference CPU that timings are scaled to.
REFERENCE_PROBE_S = 1e-4
#: The library's work slows by the probe's slowdown to this power: fitted
#: over the fits, loads, cold passes, saves and warm passes of 80 runs on
#: the 2-vCPU host the ledger was built on (1.16-1.44 per workload and
#: kind of work).  Memory-bound work suffers more from a busy neighbour
#: than the probe's tight loop does.
SLOWDOWN_EXPONENT = 1.3


def _probe() -> float:
    """Seconds a short fixed pure-Python loop takes on the current CPU."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000):
        total += i * i
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the CPU's speed while timed work runs.

    The shared host's speed changes by up to 1.6x from one 100 ms to the
    next.  While the sampler is active, an interval timer interrupts the work
    every :data:`PROBE_INTERVAL_S` and times :func:`_probe`; the time spent
    doing so is kept in ``spent`` so that callers can take it out of their
    measurements.  Python runs the handler between bytecodes of the main
    thread, so the work itself is never cut short.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.probes.append(_probe())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale_since(self, mark: int) -> float:
        """Factor from wall to reference seconds for the work since probe ``mark``.

        It comes from the median of the probes taken since then; with none,
        from one probe now.
        """
        probes = self.probes[mark:] or [_probe()]
        return (REFERENCE_PROBE_S / float(np.median(probes))) ** SLOWDOWN_EXPONENT


#: Stands in for a sampler when none runs: it never probes.
_NO_SAMPLER = SpeedSampler()


class Phases:
    """Time per unit of benchmark work, mirrored as tracer root spans.

    ``times`` holds each unit's seconds, without the time the sampler spent
    probing.  With a sampler, ``scaled`` holds the same times in reference
    seconds: the time the unit would have taken on a CPU that runs
    :func:`_probe` in :data:`REFERENCE_PROBE_S`.
    """

    def __init__(self, tracer: Tracer | None = None,
                 sampler: SpeedSampler | None = None) -> None:
        self.tracer = tracer
        self.sampler = sampler
        self.times: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}

    @contextmanager
    def __call__(self, name: str, scale: bool = True):
        sampler = self.sampler or _NO_SAMPLER
        root = self.tracer.root(name) if self.tracer is not None else nullcontext()
        mark = len(sampler.probes)
        # Both reads are ordered so that a probe landing between them can
        # only lengthen the unit, never make it negative.
        start = time.perf_counter()
        spent = sampler.spent
        with root:
            yield
        spent = sampler.spent - spent
        elapsed = time.perf_counter() - start - spent
        self.times.setdefault(name, []).append(elapsed)
        if scale and self.sampler is not None:
            self.scaled.setdefault(name, []).append(elapsed * sampler.scale_since(mark))

    def count(self, name: str) -> int:
        return len(self.times.get(name, ()))


class GcClock:
    """Seconds spent in garbage collection while registered in ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start: float | None = None

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self._start = None


def run_batch(system, workload) -> list:
    """``run_batch`` with per-query isolation; an escaping error fails every query."""
    try:
        return system.run_batch(workload, isolate=True)
    except Exception as exc:  # noqa: BLE001 - recorded as a failure of every query
        return [exc] * len(workload)


def run_scalar(system, spec):
    """One query through the scalar API; an error is returned, not raised."""
    try:
        if spec.kind == "strq":
            return system.strq(spec.x, spec.y, spec.t)
        if spec.kind == "tpq":
            return system.tpq(spec.x, spec.y, spec.t, spec.length)
        return system.exact(spec.x, spec.y, spec.t)
    except Exception as exc:  # noqa: BLE001 - recorded as a failure of this query
        return exc


def _compare(tally: oracle.Tally, expected: list[bytes], actual: list[bytes], what: str) -> None:
    for position, (a, b) in enumerate(zip(expected, actual)):
        if a != b:
            tally.fail(position, what)


def serve(artifact: Path, query_file: Path, oracle_file: Path, result_file: Path,
          seconds: float, rounds: int, trace: bool, spans_file: Path | None) -> None:
    """Run the serving phase and write its measurements to ``result_file``."""
    import repro
    from repro.queries import Workload

    document = json.loads(query_file.read_text(encoding="utf-8"))
    workload = Workload.from_obj(document["queries"])
    specs = list(workload)
    accuracy_set = Workload.from_obj(document["accuracy"])
    resaved = artifact.with_name("resaved.ppq")
    tracer = Tracer() if trace else None
    # The traced execution reports only per-layer metrics, in wall seconds.
    sampler = None if trace else SpeedSampler()
    phases = Phases(tracer, sampler)
    tally = oracle.Tally()
    accuracy = oracle.Tally()
    quarantine_logs = []
    objects_after_load = 0
    cold: list[list[bytes]] = []
    scalar: list[bytes] = [b""] * len(specs)
    cache_delta: dict[str, int] | None = {"hits": 0, "misses": 0, "evictions": 0}
    closed_loop = min(CLOSED_LOOP, len(specs))
    #: Round -> closed-loop latency of each query, in milliseconds.
    latencies_ms = np.empty((rounds, closed_loop))
    gc_clock = GcClock()
    #: Garbage-collection seconds inside each warm pass.
    warm_gc_s: list[float] = []

    with (tracer if tracer is not None else nullcontext(),
          sampler if sampler is not None else nullcontext()):
        for round_index in range(rounds):
            system = None
            gc.collect()
            with phases("serve.load"):
                system = repro.load_model(artifact)
            quarantine_logs.append(getattr(system.engine, "quarantined", None))
            if tracer is not None:
                gc.collect()
                objects_after_load = len(gc.get_objects())
            with phases("serve.cold_pass"):
                answers = run_batch(system, workload)
            cold.append([oracle.fingerprint(answer) for answer in answers])
            del answers
            with phases("serve.save"):
                system.save(resaved)

            for begin in range(0, closed_loop, SCALE_EVERY):
                end = min(begin + SCALE_EVERY, closed_loop)
                first = phases.count("serve.query")
                mark = len(sampler.probes) if sampler is not None else 0
                for position in range(begin, end):
                    with phases("serve.query", scale=False):
                        answer = run_scalar(system, specs[position])
                    scalar[position] = oracle.fingerprint(answer)
                scale = sampler.scale_since(mark) if sampler is not None else 1.0
                latencies_ms[round_index, begin:end] = (
                    np.asarray(phases.times["serve.query"][first:]) * 1000.0 * scale)
            _compare(tally, cold[0][:closed_loop], scalar[:closed_loop],
                     f"scalar and batch answers differ (round {round_index})")

            cache = getattr(system.summary, "slice_cache", None)
            if cache is None:
                cache_delta = None
            before = cache.stats() if cache_delta is not None else None
            gc.callbacks.append(gc_clock)
            window_start = time.perf_counter()
            while True:
                paused = gc_clock.seconds
                with phases("serve.warm_pass"):
                    answers = run_batch(system, workload)
                warm_gc_s.append(gc_clock.seconds - paused)
                if time.perf_counter() - window_start >= seconds / rounds:
                    break
            gc.callbacks.remove(gc_clock)
            if cache_delta is not None:
                after = cache.stats()
                for key in cache_delta:
                    cache_delta[key] += after[key] - before[key]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        with phases("serve.scalar_check"):
            for position in range(closed_loop, len(specs)):
                scalar[position] = oracle.fingerprint(run_scalar(system, specs[position]))
        for other in cold[1:]:
            _compare(tally, cold[0], other, "batch answers differ between loads")
        _compare(tally, cold[0], scalar, "scalar and batch answers differ")
        _compare(tally, cold[0], [oracle.fingerprint(a) for a in answers],
                 "warm batch answers differ from the cold pass")
        with np.load(oracle_file) as data:
            raw = {key: data[key] for key in data.files}
        checker = oracle.RawOracle(raw, cell_size=system.index_config.grid_cell,
                                   cqc_grid=system.cqc_config.grid_size)
        for position, answer in enumerate(answers):
            oracle.check(checker, position, document["queries"][position], answer, tally)
        with phases("serve.accuracy"):
            answers = run_batch(system, accuracy_set)
        for offset, answer in enumerate(answers):
            oracle.check(checker, offset, document["accuracy"][offset], answer, accuracy)

    result = {
        "phases": phases.times,
        "scaled": phases.scaled,
        "queries": len(specs),
        "warm_gc_s": warm_gc_s,
        "latency_ms": {"p50": float(np.percentile(latencies_ms, 50)),
                       "p99": float(np.percentile(latencies_ms, 99)),
                       "samples": latencies_ms.size},
        "attempted": len(specs) + len(accuracy_set),
        "peak_rss_mb": peak_rss_mb,
        "failures": {**{f"timed {p}": r for p, r in sorted(tally.failures.items())},
                     **{f"accuracy {p}": r for p, r in sorted(accuracy.failures.items())}},
        "digest": oracle.combined(cold[0]),
        "accuracy": accuracy.metrics(),
        "compression_ratio": system.compression_ratio(),
    }
    if tracer is not None:
        ledger = layers.Ledger()
        counts = {key: phases.count(f"serve.{key}")
                  for key in ("load", "cold_pass", "save", "query", "warm_pass")}
        layers.serve_layers(ledger, tracer, counts, system, repro.inspect_model(artifact),
                            cache_delta, accuracy, objects_after_load, quarantine_logs)
        result["layers"] = ledger.values
        result["spans_dropped"] = tracer.dropped
        if spans_file is not None:
            np.savez_compressed(spans_file, **tracer.spans())
    result_file.write_text(json.dumps(result), encoding="utf-8")
