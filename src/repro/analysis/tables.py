"""Plain-text table rendering (``repro tables``, the design sweeps)."""

from __future__ import annotations

from typing import Any, Sequence


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table.

    >>> print(render_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+----
    1 | 2.5
    """
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    out = []
    header_line = " | ".join(c.ljust(w) for c, w in zip(cells[0], widths))
    out.append(header_line.rstrip())
    out.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        out.append(" | ".join(c.ljust(w)
                              for c, w in zip(row, widths)).rstrip())
    return "\n".join(out)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}".rstrip("0").rstrip(".")
        return f"{value:.3f}"
    return str(value)
