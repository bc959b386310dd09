"""Small shared helpers used across subsystem CLIs.

Kept deliberately tiny: anything here is imported by several otherwise
unrelated packages (experiments, fleet), so it must stay dependency-free.
"""

from __future__ import annotations

from repro.errors import ConfigError


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalise a ``--jobs`` value: int, ``"auto"`` or None (=1).

    ``"auto"`` means one worker per CPU.  Every CLI that fans work out
    over a process pool (``repro experiments --jobs``, ``repro fleet
    run --jobs``) parses its flag through this one helper so the
    accepted spellings cannot drift apart.  A bad value raises
    :class:`~repro.errors.ConfigError` (a :class:`ValueError`).
    """
    if jobs is None:
        return 1
    if jobs == "auto":
        import os
        return max(1, os.cpu_count() or 1)
    try:
        count = int(jobs)
    except ValueError:
        raise ConfigError(
            f"jobs must be an integer or 'auto', got {jobs!r}") from None
    if count < 1:
        raise ConfigError(f"jobs must be >= 1, got {count}")
    return count
