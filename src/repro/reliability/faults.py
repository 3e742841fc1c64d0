"""Deterministic, seedable fault injection for reliability testing.

Production trajectory stores treat partial failure as the normal case: a
single corrupt posting list or a flaky read must not take down a serving
process.  To *prove* that the rest of the system degrades gracefully, this
module lets tests (and the ``repro chaos`` CLI verb) inject failures at
named points on the storage/decode/query path:

========================  ====================================================
``storage.section_read``  artifact section decode in :mod:`repro.storage.io`
``index.tpi_lookup``      TPI period lookup in :mod:`repro.index.tpi`
``index.cell_decode``     posting-list decode of one grid cell
                          (:mod:`repro.index.grid`)
``huffman.decode``        Huffman stream decode (:mod:`repro.utils.huffman`)
``bitio.read``            bit-stream reads, once per stream
                          (:mod:`repro.utils.bitio`)
``summary.reconstruct``   point reconstruction (:mod:`repro.core.summary`)
========================  ====================================================

Design constraints:

* **Zero overhead when disabled.**  Instrumented code guards every hook with
  ``if faults.ACTIVE is not None`` -- a single global load and identity test;
  no plan means no function call, no allocation, nothing.
* **Deterministic.**  A :class:`FaultPlan` carries a seed; probabilistic
  rules draw from one ``random.Random(seed)`` in call order, so a failing
  chaos run is reproducible from its seed alone.
* **Scoped.**  Faults are only active inside the :func:`inject_faults`
  context manager; the previous injector (usually ``None``) is restored on
  exit even when the body raises.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Every injection point wired into the codebase.  Plans naming any other
#: point are rejected up front so that typos cannot silently disable a test.
INJECTION_POINTS = (
    "storage.section_read",
    "index.tpi_lookup",
    "index.cell_decode",
    "huffman.decode",
    "bitio.read",
    "summary.reconstruct",
)

#: The currently active injector, or ``None``.  Instrumented modules read
#: this directly (``if faults.ACTIVE is not None: faults.ACTIVE.check(...)``)
#: so the disabled path costs one attribute load and an identity test.
ACTIVE = None


class FaultError(RuntimeError):
    """An injected fault.

    Attributes
    ----------
    point:
        The injection point that fired.
    key:
        The site-specific key passed to :meth:`FaultInjector.check` (e.g. a
        grid cell or an artifact section name), or ``None``.
    transient:
        Whether the fault models a transient condition (a flaky read that
        would succeed if retried) rather than persistent corruption.  Retry
        policies only retry transient errors.
    """

    def __init__(self, point: str, key=None, transient: bool = False) -> None:
        detail = f" (key={key!r})" if key is not None else ""
        kind = "transient" if transient else "persistent"
        super().__init__(f"injected {kind} fault at {point}{detail}")
        self.point = point
        self.key = key
        self.transient = transient


@dataclass
class FaultRule:
    """One rule of a :class:`FaultPlan`: when and how a point fails.

    Attributes
    ----------
    point:
        Injection point name (must be one of :data:`INJECTION_POINTS`).
    probability:
        Chance that a matching call fires, drawn deterministically from the
        plan's seeded RNG.  ``1.0`` (the default) fires on every call.
    max_fires:
        Stop firing after this many faults (``None`` = unlimited).  A rule
        with ``max_fires=N`` and ``transient=True`` models an operation that
        fails ``N`` times and then succeeds -- exactly what retry policies
        are tested against.
    transient:
        Marks raised :class:`FaultError`\\ s as retryable.
    key:
        Only fire when the injection site passes an equal key (e.g. one
        specific artifact section); ``None`` matches every call.
    fires:
        How many times this rule has fired (mutated by the injector).
    """

    point: str
    probability: float = 1.0
    max_fires: int | None = None
    transient: bool = False
    key: object = None
    fires: int = 0


@dataclass
class FaultPlan:
    """A seedable, declarative set of fault rules.

    Examples
    --------
    Fail every posting-list decode (persistent corruption)::

        plan = FaultPlan(seed=7).add("index.cell_decode")

    Fail the first two TPI lookups transiently (retry succeeds)::

        plan = FaultPlan().add("index.tpi_lookup", max_fires=2, transient=True)
    """

    seed: int = 0
    rules: list[FaultRule] = field(default_factory=list)

    def add(self, point: str, probability: float = 1.0, max_fires: int | None = None,
            transient: bool = False, key: object = None) -> "FaultPlan":
        """Append a rule and return ``self`` (chainable)."""
        if point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {point!r}; known points: "
                f"{', '.join(INJECTION_POINTS)}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.rules.append(FaultRule(point=point, probability=float(probability),
                                    max_fires=max_fires, transient=transient, key=key))
        return self

    @classmethod
    def from_spec(cls, points, probability: float = 1.0, max_fires: int | None = None,
                  transient: bool = False, seed: int = 0) -> "FaultPlan":
        """Build a plan from a list of point names (CLI ``repro chaos``)."""
        plan = cls(seed=seed)
        for point in points:
            plan.add(point, probability=probability, max_fires=max_fires,
                     transient=transient)
        return plan


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at every instrumented call site.

    Parameters
    ----------
    plan:
        The plan to execute.  Rules are validated eagerly; the plan's seed
        initialises the RNG used by probabilistic rules.

    Attributes
    ----------
    fired:
        Mapping injection point -> number of faults raised there, for chaos
        reports and test assertions.
    checked:
        Mapping injection point -> number of times the point was reached
        (fired or not), useful to prove an instrumented path actually ran.
    """

    def __init__(self, plan: FaultPlan) -> None:
        for rule in plan.rules:
            if rule.point not in INJECTION_POINTS:
                raise ValueError(f"unknown injection point {rule.point!r}")
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.fired: dict[str, int] = {}
        self.checked: dict[str, int] = {}

    def check(self, point: str, key=None) -> None:
        """Raise :class:`FaultError` when a rule for ``point`` fires.

        Called by the instrumented modules; ``key`` identifies the specific
        resource (grid cell, section name, timestamp) for key-scoped rules
        and error messages.
        """
        self.checked[point] = self.checked.get(point, 0) + 1
        for rule in self.plan.rules:
            if rule.point != point:
                continue
            if rule.key is not None and rule.key != key:
                continue
            if rule.max_fires is not None and rule.fires >= rule.max_fires:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            rule.fires += 1
            self.fired[point] = self.fired.get(point, 0) + 1
            raise FaultError(point, key=key, transient=rule.transient)

    @property
    def total_fired(self) -> int:
        """Total number of faults raised across all points."""
        return sum(self.fired.values())


@contextmanager
def inject_faults(plan: FaultPlan):
    """Activate ``plan`` for the duration of the ``with`` block.

    Yields the :class:`FaultInjector` so callers can inspect its ``fired``
    and ``checked`` counters afterwards.  The previously active injector is
    restored on exit, so scopes nest correctly and an exception inside the
    block cannot leave faults armed.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = FaultInjector(plan)
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous
