"""Timing spans around each layer's public functions (traced run only).

:func:`install` replaces each function named in :data:`LAYER_TARGETS`
with a wrapper that records one span per call: layer, start, end, the
enclosing span, and the id of the outermost span of its call tree (on
``fleet`` every span under one driver call therefore shares the id of
that ``kernel.nvdc`` span).  Spans stay in memory in one flat integer
array and are written out when the run ends.  :func:`uninstall` puts
the original functions back.

A span's *self time* is its duration minus the time its child spans
cover (:func:`self_times`).  Calls nest strictly in this single-threaded
simulator, so the children of one span never overlap and their
durations simply add up.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from typing import Iterable, Iterator

#: (layer span name, module, class or None for a module function,
#: attribute).  Several targets may share a span name (the eviction
#: policies, the TPC-H trace functions); the sanitizer list is the
#: default five-sanitizer suite.
LAYER_TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("ddr.bus.issue", "repro.ddr.bus", "SharedBus", "issue"),
    ("ddr.imc.host_read", "repro.ddr.imc",
     "IntegratedMemoryController", "host_read"),
    ("ddr.imc.host_write", "repro.ddr.imc",
     "IntegratedMemoryController", "host_write"),
    ("nvmc.nvmc.submit", "repro.nvmc.nvmc", "NVMCModel", "submit"),
    ("kernel.nvdc.read_page", "repro.kernel.nvdc", "NvdcDriver",
     "read_page"),
    ("kernel.nvdc.write_page", "repro.kernel.nvdc", "NvdcDriver",
     "write_page"),
    ("kernel.eviction.pick_victim", "repro.kernel.eviction", "LRCPolicy",
     "pick_victim"),
    ("kernel.eviction.pick_victim", "repro.kernel.eviction", "LRUPolicy",
     "pick_victim"),
    ("kernel.eviction.pick_victim", "repro.kernel.eviction",
     "ClockPolicy", "pick_victim"),
    ("nand.ftl.read_page", "repro.nand.ftl", "FlashTranslationLayer",
     "read_page"),
    ("nand.ftl.write_page", "repro.nand.ftl", "FlashTranslationLayer",
     "write_page"),
    ("nand.ftl.relocate", "repro.nand.ftl", "FlashTranslationLayer",
     "relocate"),
    ("nand.ecc.decode", "repro.nand.ecc", "ECCCodec", "decode"),
    ("health.scrub.patrol", "repro.health.scrub", "PatrolScrubber",
     "patrol"),
    ("sim.snapshot.capture", "repro.sim.snapshot", "SimSnapshot",
     "capture"),
    ("sim.snapshot.restore", "repro.sim.snapshot", "SimSnapshot",
     "restore"),
    ("sim.trace.emit", "repro.sim.trace", "Tracer", "emit"),
    ("check.sanitizers.BusRace.observe", "repro.check.sanitizers",
     "BusRaceSanitizer", "observe"),
    ("check.sanitizers.Coherence.observe", "repro.check.sanitizers",
     "CoherenceSanitizer", "observe"),
    ("check.sanitizers.Protocol.observe", "repro.check.sanitizers",
     "ProtocolSanitizer", "observe"),
    ("check.sanitizers.Scrub.observe", "repro.check.sanitizers",
     "ScrubSanitizer", "observe"),
    ("check.sanitizers.Time.observe", "repro.check.sanitizers",
     "TimeSanitizer", "observe"),
    ("workloads.tpch", "repro.workloads.tpch", None,
     "generate_query_trace"),
    ("workloads.tpch", "repro.workloads.tpch", None, "run_query"),
    ("workloads.tpch", "repro.workloads.tpch", None, "simulate_hit_rate"),
)

#: Fields per span in :attr:`SpanRecorder.data`; a span's id is its
#: offset divided by this.
_WIDTH = 5          # parent offset, root offset, layer index, start, end


def span_names() -> list[str]:
    """Distinct span names, in :data:`LAYER_TARGETS` order."""
    return list(dict.fromkeys(target[0] for target in LAYER_TARGETS))


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: ``check.sanitizers.Time.observe``
    -> ``check.sanitizers``, ``nand.ftl.read_page`` -> ``nand.ftl``."""
    parts = span_name.split(".")
    return ".".join(parts[:2])


class SpanRecorder:
    """Open-span stack plus the flat span store."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.data = array("q")
        self.stack: list[int] = []
        #: Structural bytes of every snapshot captured while traced.
        self.blob_bytes = 0
        self._saved: list[tuple[object, str, object]] = []

    def spans(self) -> Iterator[tuple[int, int, int, str, int, int]]:
        """``(id, parent id or -1, root id, span name, start_ns, end_ns)``."""
        data, names = self.data, self.names
        for offset in range(0, len(data), _WIDTH):
            parent = data[offset]
            yield (offset // _WIDTH,
                   parent // _WIDTH if parent >= 0 else -1,
                   data[offset + 1] // _WIDTH,
                   names[data[offset + 2]],
                   data[offset + 3], data[offset + 4])

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, fn, name: str):
        """``fn`` timed as one span named ``name`` per call."""
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        data, stack = self.data, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            offset = len(data)
            if stack:
                parent = stack[-1]
                root = data[parent + 1]
            else:
                parent = -1
                root = offset
            stack.append(offset)
            data.extend((parent, root, index, clock(), 0))
            try:
                return fn(*args, **kwargs)
            finally:
                data[offset + 4] = clock()
                stack.pop()

        return traced

    def install(self, targets=LAYER_TARGETS) -> None:
        """Wrap every target (import ``repro`` first)."""
        for name, module_name, class_name, attr in targets:
            module = importlib.import_module(module_name)
            if class_name is None:
                self._wrap_function(module, attr, name)
                continue
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name))
            else:
                wrapped = self.wrap(raw, name)
            if name == "sim.snapshot.capture":
                wrapped = classmethod(self._measure_blob(wrapped.__func__))
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def _measure_blob(self, capture):
        @functools.wraps(capture)
        def measured(cls, *args, **kwargs):
            snap = capture(cls, *args, **kwargs)
            self.blob_bytes += snap.nbytes
            return snap
        return measured

    def _wrap_function(self, module, attr: str, name: str) -> None:
        """Rebind a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name)
        for holder in list(sys.modules.values()):
            if getattr(holder, attr, None) is original:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output -----------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write every span as gzipped TSV; returns the span count."""
        count = 0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("id\tparent\troot\tspan\tstart_ns\tend_ns\n")
            for span in self.spans():
                out.write("\t".join(map(str, span)) + "\n")
                count += 1
        return count


def self_times(spans: Iterable[tuple[int, int, int, str, int, int]]
               ) -> dict[str, tuple[int, int]]:
    """Per span name: ``(calls, self_ns)``.

    A span's self time is its duration minus the durations of its
    direct children (which never overlap each other).
    """
    spans = list(spans)
    child_ns: dict[int, int] = {}
    for _id, parent, _root, _name, start, end in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: dict[str, tuple[int, int]] = {}
    for span_id, _parent, _root, name, start, end in spans:
        calls, self_ns = out.get(name, (0, 0))
        out[name] = (calls + 1,
                     self_ns + (end - start) - child_ns.get(span_id, 0))
    return out


def layer_self_ns(per_span: dict[str, tuple[int, int]]) -> dict[str, int]:
    """Self time summed per layer (see :func:`layer_of`)."""
    out: dict[str, int] = {}
    for name, (_calls, self_ns) in per_span.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0) + self_ns
    return out
