"""Typed experiment records: paper value vs measured value.

Every experiment module emits :class:`ExperimentRecord` rows so that
EXPERIMENTS.md, ``results.json`` and the CLI share one source of truth
for "what the paper reports" vs "what the reproduction measures", and
for the paper's shape claims (who wins, by what factor, where the
crossovers fall) each experiment checks over its own numbers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured data point."""

    label: str
    unit: str
    paper: float | None
    measured: float

    @property
    def ratio(self) -> float | None:
        """measured / paper (None when the paper gives no number)."""
        if self.paper in (None, 0):
            return None
        return self.measured / self.paper

    def __str__(self) -> str:
        if self.paper is None:
            return f"{self.label}: measured {self.measured:.1f} {self.unit}"
        ratio = "" if self.ratio is None else f" (x{self.ratio:.2f})"
        return (f"{self.label}: paper {self.paper:.1f} / measured "
                f"{self.measured:.1f} {self.unit}{ratio}")


@dataclass(frozen=True)
class Claim:
    """One paper-shape claim and whether the measured numbers hold it.

    Plain data, so records still pickle across ``--jobs`` workers; the
    text states the bound and the paper's number."""

    text: str
    ok: bool

    def __str__(self) -> str:
        return f"claim {'held' if self.ok else 'FAILED'}: {self.text}"


@dataclass
class ExperimentRecord:
    """One table/figure reproduction outcome."""

    experiment_id: str            # "fig8", "fig11", "validation", ...
    title: str
    comparisons: list[Comparison] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)

    def add(self, label: str, unit: str, paper: float | None,
            measured: float) -> Comparison:
        comparison = Comparison(label, unit, paper, measured)
        self.comparisons.append(comparison)
        return comparison

    def note(self, text: str) -> None:
        self.notes.append(text)

    def claim(self, text: str, ok: bool) -> Claim:
        claim = Claim(text, bool(ok))
        self.claims.append(claim)
        return claim

    def worst_ratio_error(self) -> float:
        """Largest |log-ratio| across points with paper values."""
        worst = 0.0
        for comparison in self.comparisons:
            ratio = comparison.ratio
            if ratio is not None and ratio > 0:
                import math
                worst = max(worst, abs(math.log(ratio)))
        return worst

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def __str__(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.extend(f"  {comparison}" for comparison in self.comparisons)
        lines.extend(f"  note: {note}" for note in self.notes)
        lines.extend(f"  {claim}" for claim in self.claims)
        return "\n".join(lines)
