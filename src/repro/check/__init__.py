"""Correctness tooling: simulation sanitizers and static lint.

Two halves, matching the two failure classes a simulator of shared-bus
hardware is exposed to:

* **Dynamic sanitizers** (:mod:`repro.check.sanitizers`) subscribe to the
  structured trace stream and validate protocol invariants *online* —
  no two masters in one command slot, device traffic only inside the
  extended-tRFC windows, explicit coherence around every CP exchange,
  CP queue/window budgets, monotonic integer-picosecond time.  A broken
  invariant records a structured
  :class:`~repro.check.violations.SanitizerViolation` with the offending
  trace window attached.

* **Static lint** (:mod:`repro.check.lint`) runs AST passes over
  ``src/repro`` enforcing determinism and unit hygiene rules that no
  runtime check can see: no wall-clock or unseeded randomness inside
  simulation modules, no float arithmetic assigned into ``*_ps``/``*_ns``
  variables, paper-source comments on calibration constants, DES process
  generators yielding only engine events, paired resource acquire/release.

A third, whole-program half sits on top of the per-module lint:

* **Cross-module static analysis** (:mod:`repro.check.xstatic`)
  extracts a registry of every hook-site and trace-event string in the
  tree, cross-checks producers against consumers (sanitizer-expected
  events, fault-cut filters), and runs crash-safety and determinism
  dataflow rules REPRO006–REPRO012 over the crash-exposed modules.
  ``repro check --static`` is the entry point; CI runs it blocking
  against the committed ``baselines/static.json``.

Entry points::

    python -m repro check lint [paths...]
    python -m repro check --static [--format json] [--baseline FILE]
    python -m repro check run --sanitize <experiment>

and the pytest suite enables the sanitizers for every test via an
autouse fixture (opt out with ``@pytest.mark.sanitizer_exempt``).
"""

from repro.check.sanitizer import Sanitizer, SanitizerSuite, default_suite
from repro.check.sanitizers import (BusRaceSanitizer, CoherenceSanitizer,
                                    ProtocolSanitizer, TimeSanitizer)
from repro.check.violations import SanitizerViolation

__all__ = [
    "Sanitizer",
    "SanitizerSuite",
    "SanitizerViolation",
    "default_suite",
    "BusRaceSanitizer",
    "CoherenceSanitizer",
    "ProtocolSanitizer",
    "TimeSanitizer",
]
