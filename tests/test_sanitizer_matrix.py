"""Negative-control matrix for the ``repro.check`` sanitizers.

Every harness gates on the five-sanitizer suite staying quiet, so a rule
that silently stopped firing would turn every gate green.  Each case
below drives one seeded defect through ``Tracer.emit`` into
``default_suite()`` and must produce exactly its own rule and nothing
else; its clean twin, the same stream without the defect, must produce
nothing at all.  Real models drive the cases a model hook exists for
(the rogue NVMC agent, the ``skip_coherence`` driver); the others are
synthetic record streams shaped like the real emitters' records.

An ``nvmc.dma`` record carries every refresh window one CP operation
moved, so a second set of controls seeds each per-window defect in a
window other than the one a sanitizer reading only one carried window
would see.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.check import default_suite
from repro.sim.trace import Tracer, use_tracer

OWNER = "nvmc#0"
BUS = "bus#0"
BUDGET = 4096


def window(index, nbytes=64, kind="poll", addr=-1):
    """One carried window, in ``DMA_WINDOW_FIELDS`` order."""
    win_start = 1_000_000 * (index + 1)
    return (kind, index, nbytes, nbytes, addr, win_start,
            win_start + 900_000, win_start + 32_500)


def dma(tracer, cmd, *windows, owner=OWNER):
    """One CP op's ``nvmc.dma`` record as ``NVMCModel.submit`` emits it:
    timed at its first window's start, carrying every window."""
    tracer.emit(windows[0][5], "nvmc.dma", f"{len(windows)} windows",
                owner=owner, cmd=cmd, budget=BUDGET, windows=windows)


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
    dma(tracer, 1, window(0, 4096, "evict", addr=4096))
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
    dma(tracer, 1, window(7, 4096 if defect else 2048, "fill", addr=0))
    dma(tracer, 1, window(7, 2048, "fill", addr=0))


def window_sharing(tracer, defect):
    dma(tracer, 1, window(7))
    dma(tracer, 2, window(7 if defect else 8))


def ref_open_banks(tracer, defect):
    bus_cmd(tracer, 0, "ACT", bank=2)
    if not defect:
        bus_cmd(tracer, 2500, "PREA")
    bus_cmd(tracer, 5000, "REF", win_start=355_000, win_end=1_255_000)


# -- Scrub -----------------------------------------------------------------------


def scrub_window_escape(tracer, defect):
    scrub(tracer, window=3, start_offset=-100 if defect else 0)


def scrub_collision(tracer, defect):
    dma(tracer, 1, window(5))
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
}


# -- Carried windows ---------------------------------------------------------------


def cachefill(tracer, ack_index=7):
    """A CACHEFILL's record: poll, fill and ack windows."""
    dma(tracer, 1, window(3), window(5, 4096, "fill", addr=8192),
        window(ack_index, kind="ack"))


def ack_window_budget(tracer, defect):
    """The ack reuses the fill window's index: 4096 + 64 bytes."""
    cachefill(tracer, ack_index=5 if defect else 7)


def poll_window_scrub_collision(tracer, defect):
    """The scrub claims a window the op's poll used."""
    cachefill(tracer)
    scrub(tracer, window=3 if defect else 4)


def fill_window_scrub_collision(tracer, defect):
    """The op's fill lands in a window the scrub claimed before."""
    scrub(tracer, window=5 if defect else 4)
    cachefill(tracer)


def op_time_regression(tracer, defect):
    """The op's ack window starts before its fill window."""
    cachefill(tracer, ack_index=4 if defect else 7)


def merged_dirty_evict(tracer, defect):
    """A MERGED op evicts a dirty slot, then fills another one."""
    attach_coherent(tracer)
    tracer.emit(10, "nvdc.dirty", "page 3 dirtied", owner=OWNER, page=3,
                slot=1, addr=4096)
    bracket(tracer, 15, addr=8192 if defect else 4096)
    post(tracer, 17, cmd=1, opcode="MERGED")
    dma(tracer, 1, window(0), window(1, 4096, "evict", addr=4096),
        window(2, 4096, "fill", addr=12288), window(3, kind="ack"))
    ack(tracer, 5_000_000, cmd=1, opcode="MERGED")
    tracer.emit(5_000_000, "nvdc.invalidate", "slot 2", owner=OWNER,
                addr=12288, bytes=4096, slot=2)


#: control -> (sanitizer name, rule, drive(tracer, defect)): per-window
#: rules seeded in a carried window other than the record's first.
CARRIED = {
    "ack-window-budget": ("Protocol", "window-budget", ack_window_budget),
    "poll-window-scrub-collision": ("Scrub", "scrub-collision",
                                    poll_window_scrub_collision),
    "fill-window-scrub-collision": ("Scrub", "scrub-collision",
                                    fill_window_scrub_collision),
    "op-time-regression": ("Time", "time-regression", op_time_regression),
    "merged-dirty-evict": ("Coherence", "dirty-evict", merged_dirty_evict),
}


def observed(drive, defect: bool) -> list[tuple[str, str]]:
    """(sanitizer, rule) of everything the default suite reports for
    one driven stream, the end-of-run finalizers included."""
    tracer = Tracer(enabled=True)
    suite = default_suite()
    with use_tracer(tracer), suite.attach(tracer):
        drive(tracer, defect)
    return [(v.sanitizer, v.rule) for v in suite.violations]


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


@pytest.mark.sanitizer_exempt
@pytest.mark.parametrize("control", sorted(CARRIED))
def test_carried_window_defect_trips_its_rule_only(control):
    sanitizer, rule, drive = CARRIED[control]
    assert observed(drive, defect=True) == [(sanitizer, rule)]


@pytest.mark.parametrize("control", sorted(CARRIED))
def test_carried_window_clean_twin_is_quiet(control):
    _, _, drive = CARRIED[control]
    assert observed(drive, defect=False) == []


@pytest.mark.sanitizer_exempt
def test_power_cut_op_reports_the_windows_it_moved():
    """A cut at a CACHEFILL's fill window still emits the op's record,
    carrying the poll window the op moved before the cut."""
    from repro.device.nvdimmc import NVDIMMCSystem
    from repro.errors import PowerLossInterrupt
    from repro.faults import FaultClock
    from repro.nvmc.cp import CPCommand, Opcode
    from repro.nvmc.nvmc import DMA_WINDOW_FIELDS
    from repro.units import mb
    tracer = Tracer(enabled=True)
    records = []
    tracer.subscribe(records.append)
    with use_tracer(tracer):
        system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(32))
    nvmc = system.nvmc
    nvmc.fault_clock = FaultClock().cut_on_visit(2, site="nvmc.dma")
    command = CPCommand(nvmc.next_phase(), Opcode.CACHEFILL, dram_slot=1,
                        nand_page=0)
    with pytest.raises(PowerLossInterrupt):
        nvmc.submit(command, 0)
    [record] = [r for r in records if r.category == "nvmc.dma"]
    assert records[-1] is record   # no ack: the op never finished
    [carried] = record.fields["windows"]
    window = dict(zip(DMA_WINDOW_FIELDS, carried))
    assert (window["kind"], window["bytes"]) == ("poll", 64)
    assert record.time_ps == window["win_start"]


def declared_rules() -> set[str]:
    """Every rule id the sanitizer modules can report: the literal first
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
