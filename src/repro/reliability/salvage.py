"""Load-time salvage reporting for damaged model artifacts.

``load_model(path, strict=False)`` tries to bring up a query-able system
from a corrupt or truncated artifact instead of refusing outright.  Each
section lands in one of three states:

* ``ok`` -- decoded normally.
* ``rebuilt`` -- the stored copy was unusable but the section is derivable
  (the reconstructions are replayed from the records; the TPI is rebuilt
  from summary reconstructions) so nothing was lost.
* ``dropped`` -- non-derivable and damaged (the raw-data section); the
  capability it backed (exact-query verification) is disabled and listed
  under :attr:`LoadReport.lost`.

Sections that are both non-derivable and required (config, codebook,
records) cannot be salvaged: without them there is no model, so even
non-strict loads raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Allowed values of :attr:`SectionOutcome.status`.
SECTION_STATUSES = ("ok", "rebuilt", "dropped")


@dataclass(frozen=True)
class SectionOutcome:
    """Fate of a single artifact section during a (non-strict) load."""

    name: str
    status: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in SECTION_STATUSES:
            raise ValueError(
                f"status must be one of {SECTION_STATUSES}, got {self.status!r}"
            )


@dataclass
class LoadReport:
    """What a salvage load found, fixed, and lost.

    Attributes
    ----------
    path:
        Artifact file the report describes.
    strict:
        Whether the load ran in strict mode (a strict load that succeeds
        reports every section ``ok``).
    sections:
        Per-section outcomes in artifact order.
    lost:
        Capabilities that are unavailable after the load (e.g.
        ``"exact queries"`` when the raw-data section was dropped).
    """

    path: str
    strict: bool = True
    sections: list[SectionOutcome] = field(default_factory=list)
    lost: list[str] = field(default_factory=list)

    def record(self, name: str, status: str, detail: str = "") -> None:
        """Append one section outcome."""
        self.sections.append(SectionOutcome(name=name, status=status, detail=detail))

    def mark_lost(self, capability: str) -> None:
        """Register a capability as unavailable after this load."""
        if capability not in self.lost:
            self.lost.append(capability)

    @property
    def clean(self) -> bool:
        """True when every section decoded normally and nothing was lost."""
        return not self.lost and all(s.status == "ok" for s in self.sections)

    @property
    def rebuilt(self) -> list[str]:
        """Names of sections that were rebuilt from derivable state."""
        return [s.name for s in self.sections if s.status == "rebuilt"]

    @property
    def dropped(self) -> list[str]:
        """Names of sections that were dropped."""
        return [s.name for s in self.sections if s.status == "dropped"]

    def lines(self) -> list[str]:
        """Human-readable one-line-per-section summary (CLI output)."""
        out = []
        for section in self.sections:
            line = f"{section.name}: {section.status}"
            if section.detail:
                line += f" ({section.detail})"
            out.append(line)
        if self.lost:
            out.append("lost capabilities: " + ", ".join(self.lost))
        return out
