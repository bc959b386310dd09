"""Negative-control matrix for the ``repro.check`` sanitizers.

Every harness gates on the five-sanitizer suite staying quiet, so a rule
that silently stopped firing would turn every gate green.  Each case
below drives one seeded defect through ``Tracer.emit`` into
``default_suite()`` and must produce exactly its own rule and nothing
else; its clean twin, the same stream without the defect, must produce
nothing at all.  Real models drive the cases a model hook exists for
(the rogue NVMC agent, the ``skip_coherence`` driver); the others are
synthetic record streams shaped like the real emitters' records.
"""

from __future__ import annotations

import ast
import inspect
import warnings

import pytest

from repro.check import SanitizerViolation, default_suite
from repro.sim.trace import Tracer, use_tracer

OWNER = "nvmc#0"
BUS = "bus#0"
BUDGET = 4096


def dma(tracer, time_ps, window, cmd, nbytes=64, kind="poll", addr=-1,
        owner=OWNER):
    """One ``nvmc.dma`` record as ``NVMCModel._dma_window`` emits it."""
    win_start = 1_000_000 * (window + 1)
    tracer.emit(time_ps, "nvmc.dma", f"{kind} {nbytes}B in window {window}",
                owner=owner, cmd=cmd, kind=kind, window=window,
                bytes=nbytes, requested=nbytes, budget=BUDGET, addr=addr,
                win_start=win_start, win_end=win_start + 900_000,
                end_ps=win_start + 32_500)


def post(tracer, time_ps, cmd, opcode="NOP", depth=1):
    tracer.emit(time_ps, "cp.post", f"{opcode} posted", owner=OWNER,
                cmd=cmd, slot=0, opcode=opcode, phase="ODD", depth=depth)


def ack(tracer, time_ps, cmd, opcode="NOP"):
    tracer.emit(time_ps, "cp.ack", f"{opcode} done", owner=OWNER, cmd=cmd,
                slot=0, opcode=opcode, phase="ODD", status=0)


def bus_cmd(tracer, time_ps, kind, master="imc", bank=-1, **extra):
    tracer.emit(time_ps, "ddr.cmd", kind, owner=BUS, master=master,
                kind=kind, bank=bank, ca_end=time_ps + 1250, **extra)


def attach_coherent(tracer):
    tracer.emit(0, "nvdc.attach", "nvdc0 attached", owner=OWNER,
                coherent=True, skip_coherence=False)


def bracket(tracer, time_ps, addr):
    """The §V-B flush + sfence pair over one slot's paddr."""
    for category in ("nvdc.flush", "nvdc.sfence"):
        tracer.emit(time_ps, category, "slot 1", owner=OWNER, addr=addr,
                    bytes=4096, slot=1)


def scrub(tracer, window, start_offset=0):
    win_start = 1_000_000 * (window + 1)
    tracer.emit(win_start, "health.scrub", "patrol window", owner=OWNER,
                window=window, win_start=win_start,
                win_end=win_start + 900_000,
                start_ps=win_start + start_offset,
                end_ps=win_start + 347_500, slots=1, pages=1, relocated=0)


# -- BusRace ---------------------------------------------------------------------


def bus_collision(tracer, defect):
    bus_cmd(tracer, 0, "ACT", bank=0)
    start = 600 if defect else 1250      # inside vs right after the iMC slot
    bus_cmd(tracer, start, "ACT", master="nvmc", bank=1)


def window_escape(tracer, defect):
    """The rogue agent drives the bus right after REF (§III-B)."""
    from repro.errors import ProtocolError
    from repro.workloads.stream_bench import run_stream_validation
    try:
        run_stream_validation(iterations=1, array_elems=32, agent_pages=2,
                              respect_windows=not defect)
    except ProtocolError:
        assert defect, "the window-respecting agent hit a protocol error"


# -- Coherence -------------------------------------------------------------------


def dirty_evict(tracer, defect):
    attach_coherent(tracer)
    tracer.emit(10, "nvdc.dirty", "page 3 dirtied", owner=OWNER, page=3,
                slot=1, addr=4096)
    bracket(tracer, 15, addr=8192 if defect else 4096)
    post(tracer, 17, cmd=1, opcode="WRITEBACK")
    dma(tracer, 20, window=0, cmd=1, nbytes=4096, kind="evict", addr=4096)
    ack(tracer, 30, cmd=1, opcode="WRITEBACK")


def stale_fill(tracer, defect):
    """The ``skip_coherence`` driver never invalidates after a fill."""
    from repro.device.nvdimmc import NVDIMMCSystem
    from repro.nvmc.fsm import FirmwareModel
    from repro.units import mb
    system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(32),
                           firmware=FirmwareModel(step_ps=0),
                           with_cpu_cache=True)
    system.driver.skip_coherence = defect
    system.driver.read_page(0, 0)


def unfenced_doorbell(tracer, defect):
    attach_coherent(tracer)
    if not defect:
        bracket(tracer, 5, addr=4096)
    post(tracer, 10, cmd=1, opcode="WRITEBACK")
    ack(tracer, 20, cmd=1, opcode="WRITEBACK")


# -- Protocol --------------------------------------------------------------------


def queue_depth(tracer, defect):
    post(tracer, 0, cmd=1)
    if defect:
        post(tracer, 10, cmd=2)
        ack(tracer, 15, cmd=1)
    else:
        ack(tracer, 5, cmd=1)
        post(tracer, 10, cmd=2)
    ack(tracer, 20, cmd=2)


def ack_without_post(tracer, defect):
    if not defect:
        post(tracer, 0, cmd=1)
    ack(tracer, 5, cmd=1)


def window_budget(tracer, defect):
    dma(tracer, 0, window=7, cmd=1, nbytes=4096 if defect else 2048,
        kind="fill", addr=0)
    dma(tracer, 10, window=7, cmd=1, nbytes=2048, kind="fill", addr=0)


def window_sharing(tracer, defect):
    dma(tracer, 0, window=7, cmd=1)
    dma(tracer, 10, window=7 if defect else 8, cmd=2)


def ref_open_banks(tracer, defect):
    bus_cmd(tracer, 0, "ACT", bank=2)
    if not defect:
        bus_cmd(tracer, 2500, "PREA")
    bus_cmd(tracer, 5000, "REF", win_start=355_000, win_end=1_255_000)


# -- Scrub -----------------------------------------------------------------------


def scrub_window_escape(tracer, defect):
    scrub(tracer, window=3, start_offset=-100 if defect else 0)


def scrub_collision(tracer, defect):
    dma(tracer, 0, window=5, cmd=1)
    scrub(tracer, window=5 if defect else 6)


# -- Time ------------------------------------------------------------------------


def non_integer_time(tracer, defect):
    tracer.emit(1.5 if defect else 1, "nvdc.op", "fault page 0 -> slot 0",
                owner=OWNER, page=0, slot=0, start_ps=0)


def negative_time(tracer, defect):
    tracer.emit(-5 if defect else 5, "nvdc.op", "fault page 0 -> slot 0",
                owner=OWNER, page=0, slot=0, start_ps=0)


def time_regression(tracer, defect):
    tracer.emit(100, "imc.refresh", "REF issued", owner="iMC#0", index=0)
    tracer.emit(50 if defect else 150, "imc.refresh", "REF issued",
                owner="iMC#0", index=1)


# -- Suite -----------------------------------------------------------------------


def dropped_records(tracer, defect):
    """``certify`` refuses a run whose archive dropped records."""
    tracer.capacity = 1 if defect else 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for time_ps in (0, 1):
            tracer.emit(time_ps, "nvdc.op", "fault page 0 -> slot 0",
                        owner=OWNER, page=0, slot=0, start_ps=0)


#: rule -> (sanitizer name, drive(tracer, defect)).
MATRIX = {
    "bus-collision": ("BusRace", bus_collision),
    "window-escape": ("BusRace", window_escape),
    "dirty-evict": ("Coherence", dirty_evict),
    "stale-fill": ("Coherence", stale_fill),
    "unfenced-doorbell": ("Coherence", unfenced_doorbell),
    "queue-depth": ("Protocol", queue_depth),
    "ack-without-post": ("Protocol", ack_without_post),
    "window-budget": ("Protocol", window_budget),
    "window-sharing": ("Protocol", window_sharing),
    "ref-open-banks": ("Protocol", ref_open_banks),
    "scrub-window-escape": ("Scrub", scrub_window_escape),
    "scrub-collision": ("Scrub", scrub_collision),
    "non-integer-time": ("Time", non_integer_time),
    "negative-time": ("Time", negative_time),
    "time-regression": ("Time", time_regression),
    "dropped-records": ("Suite", dropped_records),
}


def observed(drive, defect: bool) -> list[tuple[str, str]]:
    """(sanitizer, rule) of everything the default suite reports for
    one driven stream, the end-of-run finalizers and ``certify``
    included."""
    tracer = Tracer(enabled=True)
    suite = default_suite()
    with use_tracer(tracer), suite.attach(tracer):
        drive(tracer, defect)
    found = [(v.sanitizer, v.rule) for v in suite.violations]
    if not found:
        try:
            suite.certify(tracer)
        except SanitizerViolation as refusal:
            found.append((refusal.sanitizer, refusal.rule))
    return found


@pytest.mark.sanitizer_exempt
@pytest.mark.parametrize("rule", sorted(MATRIX))
def test_seeded_defect_trips_its_rule_only(rule):
    sanitizer, drive = MATRIX[rule]
    assert observed(drive, defect=True) == [(sanitizer, rule)]


@pytest.mark.sanitizer_exempt
@pytest.mark.parametrize("rule", sorted(MATRIX))
def test_clean_twin_is_quiet(rule):
    _, drive = MATRIX[rule]
    assert observed(drive, defect=False) == []


def declared_rules() -> set[str]:
    """Every rule id the sanitizer modules can raise: the literal first
    argument of each ``violation(...)`` call, and the literal rule of
    each directly built :class:`SanitizerViolation` (``violation``
    itself forwards a variable)."""
    from repro.check import sanitizer, sanitizers
    rules = set()
    for module in (sanitizer, sanitizers):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "violation":
                rule = node.args[0]
                assert isinstance(rule, ast.Constant), ast.dump(node)
            elif name == "SanitizerViolation" and len(node.args) > 1:
                rule = node.args[1]
                if not isinstance(rule, ast.Constant):
                    continue
            else:
                continue
            rules.add(rule.value)
    return rules


def test_matrix_covers_every_rule():
    """A new rule needs a negative control before it can gate anything."""
    assert declared_rules() == set(MATRIX)
