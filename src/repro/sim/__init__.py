"""Discrete-event simulation kernel.

A compact DES specialised for the NVDIMM-C simulator: integer
picosecond time, deterministic FIFO tie breaking, structured tracing,
and copy-on-write snapshots.

Public surface:

* :class:`~repro.sim.engine.Engine` — event queue and simulated clock.
* :class:`~repro.sim.trace.Tracer` — structured event capture.
"""

from repro.sim.engine import Engine
from repro.sim.trace import (NULL_TRACER, TraceRecord, Tracer,
                             default_tracer, set_default_tracer, use_tracer)

__all__ = [
    "Engine",
    "TraceRecord",
    "Tracer",
    "NULL_TRACER",
    "default_tracer",
    "set_default_tracer",
    "use_tracer",
]
