"""Tracing from outside the library: wrap, record spans, restore.

A :class:`Tracer` replaces each target function of :data:`TARGETS` by a
wrapper that records one span per call.  Targets are found by *identity*:
every ``repro.*`` module attribute and class-dict entry that is the target
object gets the wrapper, so modules that imported a function by name (for
example ``repro.index.grid`` importing ``compress_ids``) are traced too.
Leaving the ``with`` block puts every original object back.

A span has a name, start, end, parent span and request id.  Root spans,
opened by :meth:`Tracer.root`, mark one unit of benchmark work (a fit, a
load, a batch pass, a closed-loop query) and give the request id to every
span under them.  Per ``(name, parent name, root name)`` the tracer keeps
call counts, total time and self time (duration minus the time covered by
child spans).  Every root span and the first :attr:`max_spans` other spans
are also kept verbatim.  Garbage-collection pauses are timed per root name
through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: Span name -> ``module:qualname`` of every function it wraps.
TARGETS: dict[str, tuple[str, ...]] = {
    "core.summarize": ("repro.core.ppq:PartitionwisePredictiveQuantizer.summarize",),
    "core.partition_points": ("repro.core.partitioning:partition_points",),
    "cqc.encode": ("repro.cqc.coding:CQCCoder.encode_offset",),
    "cqc.decode": ("repro.cqc.coding:CQCCoder.decode_offset",),
    "summary.reconstruct": ("repro.core.summary:TrajectorySummary.reconstruct_point",),
    "index.build": ("repro.index.tpi:TemporalPartitionIndex.build",),
    "index.insert_slice": ("repro.index.tpi:TemporalPartitionIndex.insert_slice",),
    "index.pi_build": ("repro.index.pi:build_partition_index",),
    "index.grid_insert": ("repro.index.grid:GridIndex.insert",),
    "index.compress": ("repro.index.idcodec:compress_ids",),
    "index.decompress": ("repro.index.idcodec:decompress_ids",),
    "index.lookup_batch": ("repro.index.tpi:TemporalPartitionIndex.lookup_batch",
                           "repro.index.tpi:TemporalPartitionIndex.lookup_local_batch"),
    "index.lookup_scalar": ("repro.index.tpi:TemporalPartitionIndex.lookup",
                            "repro.index.tpi:TemporalPartitionIndex.lookup_local"),
    "huffman.codec_build": ("repro.utils.huffman:HuffmanCodec.__init__",
                            "repro.utils.huffman:HuffmanCodec.from_code_lengths"),
    "huffman.decode": ("repro.utils.huffman:HuffmanCodec.decode",),
    "queries.strq_batch": ("repro.queries.batch:batch_strq",),
    "queries.tpq_batch": ("repro.queries.batch:batch_tpq",),
    "queries.exact_batch": ("repro.queries.batch:batch_exact",),
    "queries.verify": ("repro.queries.exact:verify_against_raw",),
    "storage.save": ("repro.storage.io:save_model",),
    "storage.load": ("repro.storage.io:load_model",),
    "storage.unpack": ("repro.storage.format:unpack_artifact",),
}

#: Non-root spans kept verbatim per process; counts and times cover every call.
MAX_SPANS = 200_000


class Unavailable(LookupError):
    """A metric cannot be computed; the message says why."""


@dataclass(frozen=True)
class Site:
    """One place a target is reachable from: ``container.attr is original``."""

    container: object
    attr: str
    original: object


def resolve(spec: str):
    """The function named by ``module:qualname``; raises :class:`Unavailable`."""
    module_name, _, qualname = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise Unavailable(f"{spec}: {exc}") from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise Unavailable(f"{spec}: {module_name} has no {part!r}")
    raw = vars(owner).get(attr)
    function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(function):
        raise Unavailable(f"{spec}: no such function")
    return function


def sites_of(function) -> list[Site]:
    """Every ``repro.*`` module attribute and class entry holding ``function``."""
    sites: list[Site] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        containers = [module] + [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__.startswith("repro")
        ]
        for container in containers:
            for attr, value in list(vars(container).items()):
                inner = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
                if inner is function and not any(
                        s.container is container and s.attr == attr for s in sites):
                    sites.append(Site(container, attr, value))
    return sites


class Tracer:
    """Span recorder over wrapped library functions.

    Use as a context manager: entering wraps every resolvable target and
    registers the GC callback, leaving restores both.  Targets that cannot
    be resolved are listed in :attr:`missing` with the reason.
    """

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.missing: dict[str, str] = {}
        self.sites: list[Site] = []
        #: ``(name, parent name, root name)`` ids -> ``[calls, total_s, self_s]``.
        self.stats: dict[tuple[int, int, int], list] = {}
        #: Root name id -> ``[gc seconds, generation-2 collections]``.
        self.gc: dict[int, list] = {}
        self.dropped = 0
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._root = -1
        self._request = -1
        self._gc_start: float | None = None
        self._columns = {"name": array("i"), "start": array("d"), "end": array("d"),
                         "parent": array("q"), "request": array("q")}

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Tracer":
        for name, specs in TARGETS.items():
            found = False
            for spec in specs:
                try:
                    function = resolve(spec)
                except Unavailable as exc:
                    self.missing.setdefault(name, str(exc))
                    continue
                found = True
                wrapper = self._wrap(self._id(name), function)
                for site in sites_of(function):
                    self.sites.append(site)
                    kind = type(site.original)
                    replacement = kind(wrapper) if kind in (classmethod, staticmethod) else wrapper
                    setattr(site.container, site.attr, replacement)
            if found:
                self.missing.pop(name, None)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)
        for site in reversed(self.sites):
            setattr(site.container, site.attr, site.original)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name_id: int, function):
        stack, clock, close, ids = self._stack, time.perf_counter, self._close, self._ids

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = [name_id, clock(), 0.0, next(ids)]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)

        return traced

    def _close(self, frame: list, end: float) -> None:
        name, start, child, span_id = frame
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_name, parent_id = parent[0], parent[3]
        else:
            parent_name = parent_id = -1
        entry = self.stats.get((name, parent_name, self._root))
        if entry is None:
            self.stats[(name, parent_name, self._root)] = [1, duration, duration - child]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
        if parent_id == -1 or len(self._columns["name"]) < self.max_spans:
            for column, value in zip(self._columns.values(),
                                     (name, start, end, parent_id, self._request)):
                column.append(value)
        else:
            self.dropped += 1

    @contextmanager
    def root(self, name: str):
        """Open a root span: one unit of benchmark work with its own request id."""
        if self._root != -1:
            raise RuntimeError(f"root span {name!r} opened inside {self.names[self._root]!r}")
        frame = [self._id(name), time.perf_counter(), 0.0, next(self._ids)]
        self._root, self._request = frame[0], frame[3]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self._close(frame, time.perf_counter())
            self._root = self._request = -1

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            entry = self.gc.setdefault(self._root, [0.0, 0])
            entry[0] += time.perf_counter() - self._gc_start
            entry[1] += info.get("generation") == 2
            self._gc_start = None

    # ------------------------------------------------------------------ #
    # queries over the recorded data
    # ------------------------------------------------------------------ #
    def totals(self, name: str, root: str, parent: str | None = None) -> tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of span ``name`` under root ``root``.

        ``parent`` restricts the sum to calls made directly from that span.
        Raises :class:`Unavailable` when ``name`` wraps nothing.
        """
        if name in self.missing:
            raise Unavailable(self.missing[name])
        if name not in self._name_ids:
            raise Unavailable(f"span {name!r} is not a tracing target")
        name_id = self._name_ids[name]
        root_id = self._name_ids.get(root, -2)
        parent_id = None if parent is None else self._name_ids.get(parent, -2)
        calls, total, self_time = 0, 0.0, 0.0
        for (span, span_parent, span_root), entry in self.stats.items():
            if span == name_id and span_root == root_id and parent_id in (None, span_parent):
                calls += entry[0]
                total += entry[1]
                self_time += entry[2]
        return calls, total, self_time

    def gc_totals(self, root: str) -> tuple[float, int]:
        """``(seconds, generation-2 collections)`` of GC under root ``root``."""
        return tuple(self.gc.get(self._name_ids.get(root, -2), (0.0, 0)))

    def spans(self) -> dict[str, np.ndarray]:
        """The verbatim spans as columns, plus the name table."""
        columns = {key: np.frombuffer(column, dtype=column.typecode).copy()
                   for key, column in self._columns.items()}
        columns["names"] = np.asarray(self.names, dtype=str)
        return columns
