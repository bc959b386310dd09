"""Deterministic per-layer work counters read from the program's own
stats objects.

The simulator already counts its work in small stats objects
(``SharedBus.commands_issued``, ``AgentStats``, ``DMAStats``,
``NvdcStats``, ``FTLStats``, ``ECCStats``, ``CacheStats``).  The
workloads create and drop those objects inside the public entry points,
and harness runs clone them through simulation snapshots, so a counter
read from one surviving object would miss work or count a prefix twice.

:class:`WorkCounters` therefore follows every instance from birth to
death: an instance is registered with a baseline when it is constructed
(``__init__``) or materialised from a snapshot (``__setstate__``), and
its growth over that baseline is added to the totals when it dies
(``__del__``) or when :meth:`WorkCounters.harvest` runs.  The sum is the
work the process actually executed, whatever was forked or discarded.

The hooks run once per object, never per operation, and do not touch
the objects' state, so snapshot blobs, reports and digests are
unchanged.  ``TraceMeter`` is process-wide already and is read
directly.
"""

from __future__ import annotations

import gc
import weakref

#: class path -> (counter prefix, {counter name: attribute or None}).
_TRACKED: dict[tuple[str, str], tuple[str, dict[str, str | None]]] = {
    ("repro.ddr.bus", "SharedBus"): ("ddr.bus", {
        "commands_issued": "commands_issued",
        "collisions": "collision_count",
    }),
    ("repro.nvmc.agent", "AgentStats"): ("nvmc.agent", dict.fromkeys(
        ("windfalls", "windows_seen", "bytes_written", "bytes_read",
         "transfers_completed"))),
    ("repro.nvmc.dma", "DMAStats"): ("nvmc.dma", dict.fromkeys(
        ("transfers", "bytes_moved", "windows_used", "partial_transfers"))),
    ("repro.kernel.nvdc", "NvdcStats"): ("kernel.nvdc", dict.fromkeys(
        ("hits", "misses", "cachefills", "writebacks", "evictions",
         "cp_retries", "cp_timeouts", "media_errors",
         "degraded_refusals"))),
    ("repro.nand.ftl", "FTLStats"): ("nand.ftl", dict.fromkeys(
        ("host_reads", "host_programs", "gc_reads", "gc_programs",
         "erases", "gc_invocations", "grown_bad_blocks",
         "scrub_relocations"))),
    ("repro.nand.ecc", "ECCStats"): ("nand.ecc", dict.fromkeys(
        ("encoded", "decoded", "bits_corrected", "uncorrectable"))),
    ("repro.cpu.cache", "CacheStats"): ("cpu.cache", dict.fromkeys(
        ("hits", "misses"))),
}


def _read(obj, readers: dict[str, str | None]) -> dict[str, int]:
    """Counter values of ``obj``; a None attribute is the counter name."""
    return {name: getattr(obj, attr or name)
            for name, attr in readers.items()}


def counter_names() -> list[str]:
    """Every raw counter :class:`WorkCounters` reports, sorted."""
    names = [f"{prefix}.{name}" for prefix, readers in _TRACKED.values()
             for name in readers]
    names += ["sim.trace.records_emitted", "sim.trace.peak_retained"]
    return sorted(names)


class WorkCounters:
    """Birth-to-death accounting of the tracked stats objects."""

    def __init__(self) -> None:
        self.totals: dict[str, int] = dict.fromkeys(counter_names(), 0)
        #: id(obj) -> (weakref, readers, prefix, baseline values)
        self._live: dict[int, tuple] = {}
        self._saved: list[tuple[type, str, object]] = []

    # -- hooks ------------------------------------------------------------------

    def install(self) -> None:
        """Hook construction, unpickling and destruction of every
        tracked class (call after importing ``repro``)."""
        import importlib
        for (module_name, class_name), (prefix, readers) in _TRACKED.items():
            cls = getattr(importlib.import_module(module_name), class_name)
            self._hook(cls, prefix, readers)

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._saved.clear()

    def _hook(self, cls: type, prefix: str, readers: dict) -> None:
        counters = self
        init = cls.__init__
        old_setstate = cls.__dict__.get("__setstate__")
        old_del = cls.__dict__.get("__del__")

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counters._register(obj, prefix, readers)

        def __setstate__(obj, state):
            if old_setstate is not None:
                old_setstate(obj, state)
            else:
                # What pickle and copy do for a plain instance.
                obj.__dict__.update(state)
            counters._register(obj, prefix, readers)

        def __del__(obj):
            counters._retire(obj)
            if old_del is not None:
                old_del(obj)

        for name, value in (("__init__", __init__),
                            ("__setstate__", __setstate__),
                            ("__del__", __del__)):
            self._saved.append((cls, name, cls.__dict__.get(name)))
            setattr(cls, name, value)

    def _register(self, obj, prefix: str, readers: dict) -> None:
        baseline = _read(obj, readers)
        self._live[id(obj)] = (weakref.ref(obj), readers, prefix, baseline)

    def _retire(self, obj) -> None:
        # The object itself, not the weakref: the cyclic collector
        # clears weak references before it runs finalizers.
        entry = self._live.pop(id(obj), None)
        if entry is not None:
            _ref, readers, prefix, baseline = entry
            self._add(obj, readers, prefix, baseline)

    def _add(self, obj, readers: dict, prefix: str, baseline: dict) -> None:
        for name, value in _read(obj, readers).items():
            self.totals[f"{prefix}.{name}"] += value - baseline[name]
            baseline[name] = value

    # -- reading ----------------------------------------------------------------

    def harvest(self) -> dict[str, int]:
        """Totals so far, including the growth of still-live objects."""
        gc.collect()
        for ref, readers, prefix, baseline in list(self._live.values()):
            obj = ref()
            if obj is not None:
                self._add(obj, readers, prefix, baseline)
        from repro.sim.trace import TraceMeter
        totals = dict(self.totals)
        totals["sim.trace.records_emitted"] = TraceMeter.records_emitted
        totals["sim.trace.peak_retained"] = TraceMeter.peak_retained
        return totals


def delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    """Per-phase counters.  The trace high-water mark is not a sum and
    stays the process-wide one."""
    out = {name: after[name] - before[name] for name in after}
    out["sim.trace.peak_retained"] = after["sim.trace.peak_retained"]
    return out
