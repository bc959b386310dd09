"""Structured sanitizer violations.

A suite collects violations for a post-run report: ``python -m repro
check run``, the pytest fixture and every harness gate read them after
the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.sim.trace import TraceRecord


class SanitizerViolation:
    """A protocol invariant observed broken in the trace stream.

    Attributes:
        sanitizer: name of the sanitizer that fired (``"BusRace"``...).
        rule: short machine-readable rule id (``"window-escape"``...).
        message: the human-readable text after the ``[sanitizer:rule]``
            prefix.
        record: the :class:`~repro.sim.trace.TraceRecord` that completed
            the violation, when one exists.
        context: recent records around the violation (the "offending
            trace window"), newest last.
        details: structured key/value payload for programmatic assertions.
    """

    def __init__(self, sanitizer: str, rule: str, message: str,
                 record: "TraceRecord | None" = None,
                 context: "tuple[TraceRecord, ...]" = (),
                 **details: Any) -> None:
        self.sanitizer = sanitizer
        self.rule = rule
        self.message = message
        self.record = record
        self.context = context
        self.details = details

    def __str__(self) -> str:
        return f"[{self.sanitizer}:{self.rule}] {self.message}"

    def report(self) -> str:
        """Multi-line human-readable report with the trace window."""
        lines = [str(self)]
        if self.details:
            lines.append("  details: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.details.items())))
        if self.context:
            lines.append("  trace window (newest last):")
            lines.extend(f"    {r}" for r in self.context)
        return "\n".join(lines)
