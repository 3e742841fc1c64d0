"""Brute-force oracle over the raw points, and answer fingerprints.

The oracle knows only the raw points the workload generated; it never asks
the library for ground truth.  A query's true answer is the set of
trajectories whose raw point at ``t`` lies in the ``g_c`` grid cell of
``(x, y)`` -- cell ``(i, j)`` covers ``[i*g_c, (i+1)*g_c) x [j*g_c,
(j+1)*g_c)``.  Every reconstructed point must lie within the Lemma 3 bound
``sqrt(2)/2 * g_s`` of its raw point.

An answer fails the oracle when:

* STRQ: a true member is missing from the candidates, or a reconstructed
  point is missing, extra, or beyond the bound;
* TPQ: a true member has no path, a path is longer or shorter than the
  trajectory's run of consecutive timestamps from ``t`` (capped at the
  query length), or a path point is beyond the bound;
* exact: the matches differ from the true members, a true member is not a
  candidate, or ``visited_ratio`` is not candidates / active trajectories.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

#: Metres per coordinate degree: the library's convention for synthetic data.
METERS_PER_DEGREE = 111_000.0
#: Relative slack on the Lemma 3 bound, for floating-point rounding.
BOUND_SLACK = 1e-9


def _keys(tids, ts) -> np.ndarray:
    """Sortable ``(trajectory, timestamp)`` keys."""
    return (np.asarray(tids, dtype=np.int64) << np.int64(32)) + np.asarray(ts, dtype=np.int64)


class RawOracle:
    """True answers computed with numpy from flat raw-point columns.

    Parameters
    ----------
    raw:
        ``tid``, ``t``, ``x``, ``y`` arrays, one row per raw point.
    cell_size:
        The index grid cell ``g_c``.
    cqc_grid:
        The CQC grid ``g_s``; reconstructions may deviate by
        ``sqrt(2)/2 * g_s``.
    """

    def __init__(self, raw: dict[str, np.ndarray], cell_size: float, cqc_grid: float) -> None:
        self.cell_size = float(cell_size)
        self.bound = math.sqrt(2.0) / 2.0 * float(cqc_grid) * (1.0 + BOUND_SLACK)
        by_time = np.lexsort((raw["tid"], raw["t"]))
        self._t = raw["t"][by_time]
        self._tid = raw["tid"][by_time]
        self._cx = np.floor(raw["x"][by_time] / self.cell_size)
        self._cy = np.floor(raw["y"][by_time] / self.cell_size)
        keys = _keys(raw["tid"], raw["t"])
        by_key = np.argsort(keys, kind="stable")
        self._keys = keys[by_key]
        self._xy = np.column_stack([raw["x"], raw["y"]])[by_key]

    def members(self, x: float, y: float, t: int) -> np.ndarray:
        """Sorted IDs of the trajectories in the query's cell at ``t``."""
        lo, hi = np.searchsorted(self._t, [t, t + 1])
        mask = ((self._cx[lo:hi] == np.floor(x / self.cell_size))
                & (self._cy[lo:hi] == np.floor(y / self.cell_size)))
        return self._tid[lo:hi][mask]

    def active(self, t: int) -> int:
        """Number of trajectories with a raw point at ``t``."""
        lo, hi = np.searchsorted(self._t, [t, t + 1])
        return int(hi - lo)

    def points(self, tids, ts) -> tuple[np.ndarray, np.ndarray]:
        """``(present, xy)`` for aligned ``(trajectory, timestamp)`` pairs."""
        keys = _keys(tids, ts)
        pos = np.searchsorted(self._keys, keys)
        pos[pos == len(self._keys)] = 0
        present = self._keys[pos] == keys
        return present, self._xy[pos]


@dataclass
class Tally:
    """Oracle verdicts and accuracy sums over a set of answers."""

    #: Position of every failed answer -> the first reason it failed.
    failures: dict[int, str] = field(default_factory=dict)
    strq: int = 0
    strq_recall: float = 0.0
    strq_precision: float = 0.0
    tpq: int = 0
    tpq_points: int = 0
    tpq_deviation: float = 0.0
    exact: int = 0
    exact_visited: float = 0.0
    exact_matches: int = 0
    exact_candidates: int = 0
    candidates: int = 0
    members: int = 0
    answered: int = 0

    def fail(self, position: int, reason: str) -> None:
        self.failures.setdefault(position, reason)

    def metrics(self) -> dict[str, float | None]:
        """Accuracy metrics; ``None`` for a kind with no answers."""
        def mean(total, count):
            return total / count if count else None

        return {
            "strq_recall": mean(self.strq_recall, self.strq),
            "strq_precision": mean(self.strq_precision, self.strq),
            "tpq_deviation_m": mean(self.tpq_deviation * METERS_PER_DEGREE, self.tpq_points),
            "exact_visited_ratio": mean(self.exact_visited, self.exact),
            "candidates_per_query": mean(self.candidates, self.answered),
            "candidate_precision": mean(self.members, self.candidates),
            "exact_match_ratio": mean(self.exact_matches, self.exact_candidates),
        }


def check(oracle: RawOracle, position: int, query: dict, answer, tally: Tally) -> None:
    """Check one answer against the oracle, recording the verdict in ``tally``."""
    kind = query["type"]
    if not hasattr(answer, "paths" if kind == "tpq" else "candidates"):
        tally.fail(position, f"{kind} query returned {type(answer).__name__}: {answer!r}")
        return
    x, y, t = query["x"], query["y"], query["t"]
    truth = oracle.members(x, y, t)
    if kind == "strq":
        _check_strq(oracle, position, truth, t, answer, tally)
    elif kind == "tpq":
        _check_tpq(oracle, position, truth, t, query["length"], answer, tally)
    else:
        _check_exact(oracle, position, truth, t, answer, tally)


def _check_strq(oracle, position, truth, t, answer, tally) -> None:
    candidates = set(answer.candidates)
    hits = sum(1 for tid in truth.tolist() if tid in candidates)
    tally.strq += 1
    tally.strq_recall += hits / len(truth) if len(truth) else 1.0
    if candidates:
        tally.strq_precision += hits / len(candidates)
    else:
        tally.strq_precision += 0.0 if len(truth) else 1.0
    _count_candidates(tally, len(candidates), len(truth))
    if hits < len(truth):
        tally.fail(position, f"strq misses {len(truth) - hits} true member(s)")
    ordered = sorted(candidates)
    present, raw = oracle.points(ordered, np.full(len(ordered), t))
    expected = {tid for tid, ok in zip(ordered, present.tolist()) if ok}
    if set(answer.reconstructed) != expected:
        tally.fail(position, "strq reconstructions do not match the active candidates")
        return
    if expected:
        rows = [i for i, ok in enumerate(present.tolist()) if ok]
        points = np.vstack([answer.reconstructed[ordered[i]] for i in rows])
        if np.any(np.linalg.norm(points - raw[rows], axis=1) > oracle.bound):
            tally.fail(position, "strq reconstruction beyond the Lemma 3 bound")


def _check_tpq(oracle, position, truth, t, length, answer, tally) -> None:
    tally.tpq += 1
    _count_candidates(tally, len(answer.paths), len(truth))
    missing = [tid for tid in truth.tolist() if tid not in answer.paths]
    if missing:
        tally.fail(position, f"tpq misses {len(missing)} true member(s)")
    steps = t + np.arange(length)
    for tid, path in answer.paths.items():
        present, raw = oracle.points(np.full(length, tid), steps)
        run = length if present.all() else int(np.argmin(present))
        if len(path) != run:
            tally.fail(position, f"tpq path of {tid} has {len(path)} points, expected {run}")
            continue
        deviation = np.linalg.norm(path - raw[:run], axis=1)
        tally.tpq_points += run
        tally.tpq_deviation += float(deviation.sum())
        if np.any(deviation > oracle.bound):
            tally.fail(position, f"tpq path of {tid} beyond the Lemma 3 bound")


def _check_exact(oracle, position, truth, t, answer, tally) -> None:
    candidates = set(answer.candidates)
    tally.exact += 1
    tally.exact_visited += answer.visited_ratio
    tally.exact_matches += len(answer.matches)
    tally.exact_candidates += len(answer.candidates)
    _count_candidates(tally, len(candidates), len(truth))
    if sorted(answer.matches) != truth.tolist():
        tally.fail(position, "exact matches differ from the true members")
    elif not candidates.issuperset(truth.tolist()):
        tally.fail(position, "exact candidates miss a true member")
    active = oracle.active(t)
    if answer.visited_ratio != (len(answer.candidates) / active if active else 0.0):
        tally.fail(position, "exact visited_ratio is not candidates / active trajectories")


def _count_candidates(tally: Tally, candidates: int, members: int) -> None:
    tally.answered += 1
    tally.candidates += candidates
    tally.members += members


def fingerprint(answer) -> bytes:
    """A 16-byte digest of everything an answer returns."""
    digest = hashlib.blake2b(digest_size=16)

    def ints(values) -> None:
        values = np.asarray(list(values), dtype=np.int64)
        digest.update(np.int64(len(values)).tobytes())
        digest.update(values.tobytes())

    def points(array) -> None:
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(np.int64(array.size).tobytes())
        digest.update(array.tobytes())

    if hasattr(answer, "paths"):
        digest.update(b"tpq")
        ints(sorted(answer.paths))
        for tid in sorted(answer.paths):
            points(answer.paths[tid])
    elif hasattr(answer, "matches"):
        digest.update(b"exact")
        ints(answer.candidates)
        ints(answer.matches)
        digest.update(np.float64(answer.visited_ratio).tobytes())
    elif hasattr(answer, "reconstructed"):
        digest.update(b"strq")
        ints(answer.candidates)
        ints(sorted(answer.reconstructed))
        for tid in sorted(answer.reconstructed):
            points(answer.reconstructed[tid])
    else:
        digest.update(b"other:" + repr(answer).encode())
    return digest.digest()


def combined(fingerprints: list[bytes]) -> str:
    """Hex digest of a whole answer list."""
    return hashlib.blake2b(b"".join(fingerprints), digest_size=16).hexdigest()
