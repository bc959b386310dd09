"""Deterministic retry/timeout/backoff policies.

Every resilience loop in the stack — the driver's CP re-issue (§IV-C),
the NAND read-retry ladder (shifted read-reference voltages), the FTL's
program-remap budget — used to carry its own ad-hoc attempt counter and
delay arithmetic.  :class:`RetryPolicy` centralises the shape all of
them share:

* a bounded **attempt budget** (``max_attempts`` including the first
  try);
* **capped exponential backoff** between attempts, naturally measured
  in refresh windows — the tREFI beat is the device's only clock, so a
  backoff of "wait two more windows" is the physically meaningful unit
  (:meth:`RetryPolicy.from_windows`);
* **deterministic, seed-derived jitter**: the jitter of attempt *k* at
  site *s* is a pure function of ``(seed, s, k)`` (CRC32, no ambient
  RNG), so identical seeds replay identical schedules — the property
  the fault campaigns' byte-identical reports rest on.

Monotonicity is guaranteed by construction: the jitter fraction is
capped at ``multiplier - 1``, so the jittered value of attempt *k*
never exceeds the un-jittered value of attempt *k + 1*, and the cap is
applied with ``min`` — a non-decreasing map.  Hypothesis tests pin all
three properties (determinism, monotonicity, cap) in
``tests/test_health_retry.py``.

Per-site budgets are drawn from the :mod:`repro.errors` taxonomy:
:func:`budget_for` resolves an error class (or instance) to the
:class:`RetryBudget` of its most specific registered ancestor, so a
caller retrying ``CPTimeoutError`` and one retrying a bare
``MediaError`` get the budgets their failure domains deserve without
hard-coding attempt counts at every site.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import (ConfigError, CPProtocolError, CPTimeoutError,
                          MediaError, ReproError, UncorrectableError)

#: Scale of the CRC-derived jitter fraction (maps to [0, 1)).
_JITTER_SCALE = float(1 << 32)


def jitter_fraction(seed: int, site: str, attempt: int) -> float:
    """The deterministic jitter draw for ``(seed, site, attempt)``.

    A pure function in [0, 1): CRC32 over the identifying triple.  No
    process state, no ambient RNG — replaying a seed replays the draw.
    """
    word = zlib.crc32(f"{seed}:{site}:{attempt}".encode("utf-8"))
    return word / _JITTER_SCALE


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded, deterministic retry schedule.

    ``max_attempts`` counts the first try: a policy with
    ``max_attempts=4`` performs at most three re-issues.  The backoff
    before re-issue *k* (1-based) is::

        min(cap_ps, base_ps * multiplier**(k-1) * (1 + jitter * j_k))

    with ``j_k = jitter_fraction(seed, site, k)``.
    """

    max_attempts: int
    base_ps: int
    cap_ps: int
    multiplier: float = 2.0
    #: Jitter amplitude as a fraction of the deterministic backoff;
    #: must not exceed ``multiplier - 1`` or the schedule could dip.
    jitter: float = 0.0
    seed: int = 0
    site: str = ""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_ps < 0:
            raise ConfigError(f"base_ps must be >= 0: {self.base_ps}")
        if self.cap_ps < self.base_ps:
            raise ConfigError(
                f"cap_ps {self.cap_ps} below base_ps {self.base_ps}")
        if self.multiplier < 1.0:
            raise ConfigError(
                f"multiplier must be >= 1: {self.multiplier}")
        if not 0.0 <= self.jitter <= self.multiplier - 1.0:
            raise ConfigError(
                f"jitter {self.jitter} outside [0, multiplier-1]; a "
                "larger amplitude would break schedule monotonicity")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_windows(cls, trefi_ps: int, max_attempts: int,
                     base_windows: float, cap_windows: float,
                     **kwargs) -> "RetryPolicy":
        """A policy whose backoff is measured in refresh windows.

        The tREFI beat is the device's native clock: the CP area is
        polled once per window, so "back off two windows" is the unit a
        device-side retry actually experiences.
        """
        return cls(max_attempts=max_attempts,
                   base_ps=round(base_windows * trefi_ps),
                   cap_ps=round(cap_windows * trefi_ps), **kwargs)

    # -- the schedule ---------------------------------------------------------

    def allows(self, attempts_made: int) -> bool:
        """May another attempt be made after ``attempts_made`` tries?"""
        return attempts_made < self.max_attempts

    def backoff_ps(self, attempt: int, site: str | None = None) -> int:
        """Backoff before re-issue ``attempt`` (1-based), in ps."""
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1: {attempt}")
        raw = self.base_ps * self.multiplier ** (attempt - 1)
        j = jitter_fraction(self.seed, self.site if site is None else site,
                            attempt)
        return min(self.cap_ps, round(raw * (1.0 + self.jitter * j)))

    def schedule(self, site: str | None = None) -> tuple[int, ...]:
        """Every backoff of the policy, in order (len max_attempts-1)."""
        return tuple(self.backoff_ps(k, site=site)
                     for k in range(1, self.max_attempts))

    def total_budget_ps(self, site: str | None = None) -> int:
        """Worst-case time spent backing off before giving up."""
        return sum(self.schedule(site=site))


@dataclass(frozen=True)
class RetryBudget:
    """Default retry shape for one failure domain of the error taxonomy.

    Backoffs are in refresh windows (the device's native unit); sites
    whose retries are back-to-back by nature (shifted-voltage read
    retries, FTL remaps to a fresh block) carry a zero backoff and use
    the budget purely as an attempt bound.
    """

    attempts: int
    base_windows: float = 0.0
    cap_windows: float = 0.0
    multiplier: float = 2.0
    jitter: float = 0.0


#: Budgets keyed by stable error code (:mod:`repro.errors` decades).
#: Resolution walks the MRO, so the most specific registered ancestor
#: of an error class wins.
BUDGETS: dict[str, RetryBudget] = {
    # CP exchange timeouts: the §VII-B2 worst-case writeback+cachefill
    # pair is ~9 windows; the first timeout waits well past it and the
    # exponential ladder caps at ~8x that (jittered to decorrelate
    # repeated storms).
    CPTimeoutError.code: RetryBudget(attempts=4, base_windows=13.0,
                                     cap_windows=104.0, jitter=0.25),
    # Other CP protocol failures (DECODE_ERROR acks): re-issue promptly;
    # the device already told us it is alive.
    CPProtocolError.code: RetryBudget(attempts=4, base_windows=0.0,
                                      cap_windows=0.0),
    # Uncorrectable ECC: shifted read-reference retries are issued
    # back-to-back (the re-sense time is modelled by the caller).
    UncorrectableError.code: RetryBudget(attempts=4),
    # Generic media failures (grown bad blocks): the FTL's remap budget.
    MediaError.code: RetryBudget(attempts=8),
}


def budget_for(error: ReproError | type[ReproError]) -> RetryBudget:
    """The budget of an error's most specific registered ancestor."""
    cls = error if isinstance(error, type) else type(error)
    for ancestor in cls.__mro__:
        code = getattr(ancestor, "code", None)
        if code is not None and code in BUDGETS:
            return BUDGETS[code]
    raise ConfigError(
        f"no retry budget registered for {cls.__name__} "
        f"(code {getattr(cls, 'code', '?')})")


def policy_for(error: ReproError | type[ReproError], *,
               trefi_ps: int = 0, seed: int = 0, site: str = "",
               max_attempts: int | None = None,
               base_ps: int | None = None,
               cap_ps: int | None = None) -> RetryPolicy:
    """Build the :class:`RetryPolicy` an error class deserves.

    The taxonomy budget supplies defaults; callers override what their
    calibration pins (e.g. the driver's ``cp_max_retries`` and
    ``cp_timeout_ps``).  ``trefi_ps`` converts window-denominated
    budgets to picoseconds; it may be 0 only for zero-backoff budgets.
    """
    budget = budget_for(error)
    if base_ps is None:
        base_ps = round(budget.base_windows * trefi_ps)
    if cap_ps is None:
        cap_ps = max(base_ps, round(budget.cap_windows * trefi_ps))
    return RetryPolicy(
        max_attempts=budget.attempts if max_attempts is None
        else max_attempts,
        base_ps=base_ps, cap_ps=cap_ps,
        multiplier=budget.multiplier, jitter=budget.jitter,
        seed=seed, site=site)
