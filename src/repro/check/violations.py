"""Structured sanitizer violations.

A violation is an error object first and an exception second: the suite
can collect violations for a post-run report (the pytest fixture does)
or raise the first one immediately (``strict`` mode, the default for
``python -m repro check run``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.sim.trace import TraceRecord


class SanitizerViolation(ReproError):
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
        super().__init__(f"[{sanitizer}:{rule}] {message}")
        self.sanitizer = sanitizer
        self.rule = rule
        self.message = message
        self.record = record
        self.context = context
        self.details = details

    def __reduce__(self):
        # ``args`` holds only the formatted message, which the default
        # exception reduce cannot rebuild from.  Snapshots carry the
        # violations a suite has collected, so a fork must restore them.
        return (_rebuild, (type(self), self.sanitizer, self.rule,
                           self.message, self.record, self.context,
                           self.details))

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


def _rebuild(cls: type[SanitizerViolation], sanitizer: str, rule: str,
             message: str, record: "TraceRecord | None",
             context: "tuple[TraceRecord, ...]",
             details: dict[str, Any]) -> SanitizerViolation:
    return cls(sanitizer, rule, message, record=record, context=context,
               **details)
