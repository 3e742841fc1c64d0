"""Per-layer metrics of the traced run, and the layer each one belongs to.

Counts and times are normalised by the unit of work they belong to, so a
count repeats exactly between runs of one seed:

* *per fit* -- ``core.*``, ``cqc.encode_calls`` and the index build metrics,
  over the fits of the set-up phase;
* *per save / per load / per cold pass* (serving rounds) -- ``storage.*``
  timings, ``huffman.codec_builds``, posting decompression and Huffman
  decode;
* *per closed-loop query* -- ``index.lookup_scalar_s``;
* *per warm pass* -- reconstruction, CQC decode, batched lookups, the
  batched query functions, raw verification and GC.

Structural numbers (periods, rectangles, bytes) are read from the loaded
model, and answer statistics from the oracle's check of the accuracy set.
A metric whose target function or attribute no longer exists is reported
as ``None`` with the reason instead of failing the run.
"""

from __future__ import annotations

import statistics

from .trace import Unavailable

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("core.fit_s", "s", "lower"),
    ("core.partitioning_s", "s", "lower"),
    ("core.prediction_s", "s", "lower"),
    ("core.quantization_s", "s", "lower"),
    ("core.cqc_encode_s", "s", "lower"),
    ("core.partition_points_calls", "count", "lower"),
    ("core.codewords", "count", "lower"),
    ("core.max_partitions", "count", "lower"),
    ("summary.reconstruct_calls", "count", "lower"),
    ("summary.reconstruct_self_s", "s", "lower"),
    ("summary.slice_cache_hit_ratio", "fraction", "higher"),
    ("summary.slice_cache_evictions", "count", "lower"),
    ("cqc.encode_calls", "count", "lower"),
    ("cqc.decode_calls", "count", "lower"),
    ("cqc.decode_s", "s", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.insert_slice_calls", "count", "lower"),
    ("index.periods", "count", "lower"),
    ("index.rebuilds", "count", "lower"),
    ("index.insertions", "count", "lower"),
    ("index.pi_builds", "count", "lower"),
    ("index.pi_build_s", "s", "lower"),
    ("index.rectangles", "count", "lower"),
    ("index.nonempty_cells", "count", "lower"),
    ("index.postings", "count", "lower"),
    ("index.grid_insert_calls", "count", "lower"),
    ("index.grid_insert_s", "s", "lower"),
    ("index.compress_calls", "count", "lower"),
    ("index.compress_s", "s", "lower"),
    ("index.decompress_calls", "count", "lower"),
    ("index.decompress_s", "s", "lower"),
    ("index.lookup_batch_s", "s", "lower"),
    ("index.lookup_scalar_s", "s", "lower"),
    ("index.candidates_per_query", "count", "lower"),
    ("index.candidate_precision", "fraction", "higher"),
    ("index.paper_bytes", "B", "lower"),
    ("huffman.codec_builds", "count", "lower"),
    ("huffman.decode_calls", "count", "lower"),
    ("huffman.decode_s", "s", "lower"),
    ("queries.strq_batch_s", "s", "lower"),
    ("queries.tpq_batch_s", "s", "lower"),
    ("queries.exact_batch_s", "s", "lower"),
    ("queries.verify_calls", "count", "lower"),
    ("queries.verify_s", "s", "lower"),
    ("queries.exact_match_ratio", "fraction", "higher"),
    ("storage.save_s", "s", "lower"),
    ("storage.load_s", "s", "lower"),
    ("storage.unpack_s", "s", "lower"),
    ("storage.decode_s", "s", "lower"),
    ("storage.bytes.CONFIG", "B", "lower"),
    ("storage.bytes.CODEBOOK", "B", "lower"),
    ("storage.bytes.RECORDS", "B", "lower"),
    ("storage.bytes.RECON", "B", "lower"),
    ("storage.bytes.INDEX", "B", "lower"),
    ("storage.bytes.RAWDATA", "B", "lower"),
    ("storage.summary_paper_bytes", "B", "lower"),
    ("storage.records_overhead", "x", "lower"),
    ("storage.index_overhead", "x", "lower"),
    ("reliability.quarantined", "count", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_gen2_collections", "count", "lower"),
    ("runtime.objects_after_load", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

SECTIONS = ("CONFIG", "CODEBOOK", "RECORDS", "RECON", "INDEX", "RAWDATA")


class Ledger:
    """Per-layer values, each a number or ``None`` with a reason."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float | None, str | None]] = {}

    def put(self, name: str, compute) -> None:
        """Record ``compute()``, or ``None`` with the reason it failed.

        Missing tracing targets raise :class:`Unavailable`; library objects
        that lost an attribute or a key raise ``AttributeError`` or
        ``KeyError``.
        """
        try:
            self.values[name] = (float(compute()), None)
        except (Unavailable, AttributeError, KeyError) as exc:
            self.values[name] = (None, f"{type(exc).__name__}: {exc}")

    def update(self, other: dict) -> None:
        """Merge values produced in another process (``name -> [value, reason]``)."""
        for name, (value, reason) in other.items():
            self.values[name] = (value, reason)


def _per(tracer, name: str, root: str, units: int, field: int, parent: str | None = None):
    """Calls (``field=0``), total (1) or self (2) seconds per unit of work."""
    if units == 0:
        raise Unavailable(f"no {root} spans were recorded")
    return tracer.totals(name, root, parent)[field] / units


def setup_layers(ledger: Ledger, tracer, fits: int, timings: list[dict], system) -> None:
    """Layers measured while fitting, in the set-up process."""
    for metric, key in (("core.fit_s", "total"), ("core.partitioning_s", "partitioning"),
                        ("core.prediction_s", "prediction"),
                        ("core.quantization_s", "quantization"), ("core.cqc_encode_s", "cqc")):
        ledger.put(metric, lambda key=key: statistics.median(t[key] for t in timings))
    fit = "setup.fit"
    ledger.put("core.partition_points_calls",
               lambda: _per(tracer, "core.partition_points", fit, fits, 0,
                            parent="core.summarize"))
    ledger.put("core.codewords", lambda: system.num_codewords())
    ledger.put("core.max_partitions", lambda: system.summary.max_partitions())
    ledger.put("cqc.encode_calls", lambda: _per(tracer, "cqc.encode", fit, fits, 0))
    for metric, span, field in (
            ("index.build_s", "index.build", 1),
            ("index.insert_slice_calls", "index.insert_slice", 0),
            ("index.pi_builds", "index.pi_build", 0),
            ("index.pi_build_s", "index.pi_build", 1),
            ("index.grid_insert_calls", "index.grid_insert", 0),
            ("index.grid_insert_s", "index.grid_insert", 1),
            ("index.compress_calls", "index.compress", 0),
            ("index.compress_s", "index.compress", 1)):
        ledger.put(metric, lambda span=span, field=field: _per(tracer, span, fit, fits, field))


def serve_layers(ledger: Ledger, tracer, counts: dict[str, int], system, artifact_info,
                 cache: dict | None, accuracy_tally, objects_after_load: int,
                 quarantine_logs: list) -> None:
    """Layers measured in the serving process.

    ``counts`` holds the number of loads, cold passes, saves, closed-loop
    queries and warm passes; ``cache`` the slice-cache counter deltas over
    the warm passes (``None`` when the summary has no slice cache);
    ``accuracy_tally`` the oracle's tally of the accuracy set;
    ``quarantine_logs`` each loaded engine's ``quarantined`` list (``None``
    when the engine has none).
    """
    loads, cold, saves, queries, warm = (
        counts[key] for key in ("load", "cold_pass", "save", "query", "warm_pass"))
    load, cold_root, warm_root = "serve.load", "serve.cold_pass", "serve.warm_pass"

    ledger.put("storage.save_s", lambda: _per(tracer, "storage.save", "serve.save", saves, 1))
    ledger.put("storage.load_s", lambda: _per(tracer, "storage.load", load, loads, 1))
    ledger.put("storage.unpack_s", lambda: _per(tracer, "storage.unpack", load, loads, 1))
    ledger.put("storage.decode_s",
               lambda: (_per(tracer, "storage.load", load, loads, 1)
                        - _per(tracer, "storage.unpack", load, loads, 1)))
    ledger.put("huffman.codec_builds", lambda: _per(tracer, "huffman.codec_build", load, loads, 0))
    ledger.put("runtime.objects_after_load", lambda: objects_after_load)
    for metric, span, field in (("index.decompress_calls", "index.decompress", 0),
                                ("index.decompress_s", "index.decompress", 1),
                                ("huffman.decode_calls", "huffman.decode", 0),
                                ("huffman.decode_s", "huffman.decode", 1)):
        ledger.put(metric, lambda span=span, field=field: _per(tracer, span, cold_root, cold,
                                                               field))
    ledger.put("index.lookup_scalar_s",
               lambda: _per(tracer, "index.lookup_scalar", "serve.query", queries, 1))
    for metric, span, field in (("summary.reconstruct_calls", "summary.reconstruct", 0),
                                ("summary.reconstruct_self_s", "summary.reconstruct", 2),
                                ("cqc.decode_calls", "cqc.decode", 0),
                                ("cqc.decode_s", "cqc.decode", 1),
                                ("index.lookup_batch_s", "index.lookup_batch", 1),
                                ("queries.strq_batch_s", "queries.strq_batch", 1),
                                ("queries.tpq_batch_s", "queries.tpq_batch", 1),
                                ("queries.exact_batch_s", "queries.exact_batch", 1),
                                ("queries.verify_calls", "queries.verify", 0),
                                ("queries.verify_s", "queries.verify", 1)):
        ledger.put(metric, lambda span=span, field=field: _per(tracer, span, warm_root, warm,
                                                               field))
    ledger.put("runtime.gc_s", lambda: tracer.gc_totals(warm_root)[0] / warm)
    ledger.put("runtime.gc_gen2_collections", lambda: tracer.gc_totals(warm_root)[1] / warm)

    def cache_value(key):
        if cache is None:
            raise Unavailable("the summary has no slice_cache")
        if key == "hit_ratio":
            lookups = cache["hits"] + cache["misses"]
            return cache["hits"] / lookups if lookups else 0.0
        return cache["evictions"] / warm

    ledger.put("summary.slice_cache_hit_ratio", lambda: cache_value("hit_ratio"))
    ledger.put("summary.slice_cache_evictions", lambda: cache_value("evictions"))

    def index():
        return system.engine.index

    def grids():
        return [grid for period in index().periods for grid in period.index.grids]

    ledger.put("index.periods", lambda: len(index().periods))
    ledger.put("index.rebuilds", lambda: index().stats.num_rebuilds)
    ledger.put("index.insertions", lambda: index().stats.num_insertions)
    ledger.put("index.rectangles", lambda: len(grids()))
    ledger.put("index.nonempty_cells", lambda: sum(g.num_nonempty_cells for g in grids()))
    ledger.put("index.postings", lambda: sum(g.num_indexed_ids for g in grids()))
    ledger.put("index.paper_bytes", lambda: index().storage_bits() / 8)

    accuracy = accuracy_tally.metrics()
    ledger.put("index.candidates_per_query", lambda: _require(accuracy, "candidates_per_query"))
    ledger.put("index.candidate_precision", lambda: _require(accuracy, "candidate_precision"))
    ledger.put("queries.exact_match_ratio", lambda: _require(accuracy, "exact_match_ratio"))

    sizes = {info.name: info.length for info in artifact_info.sections}
    for section in SECTIONS:
        ledger.put(f"storage.bytes.{section}", lambda section=section: sizes[section])
    ledger.put("storage.summary_paper_bytes", lambda: system.summary.storage().total_bytes)
    ledger.put("storage.records_overhead",
               lambda: sizes["RECORDS"] / system.summary.storage().total_bytes)
    ledger.put("storage.index_overhead",
               lambda: sizes["INDEX"] / (index().storage_bits() / 8))
    def quarantined():
        if any(log is None for log in quarantine_logs):
            raise Unavailable("the query engine has no quarantined list")
        return sum(len(log) for log in quarantine_logs)

    ledger.put("reliability.quarantined", quarantined)


def _require(values: dict, key: str):
    if values[key] is None:
        raise Unavailable(f"the workload has no queries that measure {key}")
    return values[key]
