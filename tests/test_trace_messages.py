"""Trace record text: every emit site renders exactly as it always has.

Record messages are part of what a violation report shows (its trace
window) and what ``check run`` prints, so their text is pinned here:
one record per ``tracer.emit`` site (every category in the trace-event
table of ``docs/hook_registry.md``), each produced by its real emitter.
Owner tokens are process-wide counters and are normalised to ``#N``.
The ``check run --sanitize validation`` violation report, whose trace
window holds eight ``ddr.cmd`` records, is pinned byte for byte.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.trace import Tracer, use_tracer

#: Emit site -> ``str(record)`` of its first record, owners normalised.
PINNED = {
    "cp.abandon": "[    1.146 ms] cp.abandon: CACHEFILL ack timeout "
                  "owner=nvmc#N opcode=CACHEFILL attempt=1",
    "cp.ack": "[   78.382 us] cp.ack: WRITEBACK done owner=nvmc#N cmd=1 "
              "slot=0 opcode=WRITEBACK phase=ODD status=0",
    "cp.fault/ack-drop": "[    1.202 ms] cp.fault: CACHEFILL ack dropped "
                         "owner=nvmc#N cmd=3 slot=0 opcode=CACHEFILL "
                         "mode=ack-drop",
    "cp.fault/phase": "[   12.182 us] cp.fault: CACHEFILL corrupted (phase) "
                      "owner=nvmc#N cmd=1 slot=0 opcode=CACHEFILL "
                      "mode=phase",
    "cp.post": "[   60.000 us] cp.post: WRITEBACK posted owner=nvmc#N cmd=1 "
               "slot=0 opcode=WRITEBACK phase=ODD depth=1",
    "ddr.cmd/ACT": "[    1.000 us] ddr.cmd: ACT b0 r0 master=iMC "
                   "owner=bus.dram#N kind=ACT bank=0 ca_end=1001250",
    "ddr.cmd/PREA": "[    7.786 us] ddr.cmd: PREA master=iMC "
                    "owner=bus.dram#N kind=PREA bank=-1 ca_end=7787500",
    "ddr.cmd/RD": "[    2.527 us] ddr.cmd: RD b0 r0 c0 master=iMC "
                  "owner=bus.dram#N kind=RD bank=0 ca_end=2528750 "
                  "dq_start=2541250 dq_end=2546250",
    "ddr.cmd/REF": "[    7.800 us] ddr.cmd: REF master=iMC "
                   "owner=bus.dram#N kind=REF bank=-1 ca_end=7801250 "
                   "win_start=8150000 win_end=9050000",
    "ddr.cmd/WR": "[    1.014 us] ddr.cmd: WR b0 r0 c0 master=iMC "
                  "owner=bus.dram#N kind=WR bank=0 ca_end=1015000 "
                  "dq_start=1025000 dq_end=1030000",
    "ddr.cmd/drain": "[  905.383 us] ddr.cmd: drain slot 0 -> page 58 "
                     "owner=nvmc#N master=nvmc-drain kind=RD "
                     "ca_end=905730000 dq_start=905382500 "
                     "dq_end=905730000",
    "ddr.collision": "[    1.500 ns] ddr.collision: CA collision "
                     "owner=bus.dram#N first=imc second=nvmc",
    "health.scrub": "[  717.950 us] health.scrub: patrol window "
                    "owner=nvmc#N window=91 win_start=717950000 "
                    "win_end=718850000 start_ps=717950000 "
                    "end_ps=718297500 slots=1 pages=1 relocated=0",
    "health.state": "[    2.315 ms] health.state: ok -> retry "
                    "(cp-timeout-budget:3) owner=health#N from_state=ok "
                    "to_state=retry reason=cp-timeout-budget:3 "
                    "component=nvdc",
    "imc.refresh": "[    7.800 us] imc.refresh: REF issued owner=iMC#N "
                   "index=0",
    "nvdc.attach": "[        0 ps] nvdc.attach: nvdc0 attached "
                   "owner=nvmc#N coherent=True skip_coherence=False",
    "nvdc.degraded": "[  281.702 us] nvdc.degraded: direct media read of "
                     "page 0 owner=nvmc#N page=0",
    "nvdc.dirty": "[    2.000 us] nvdc.dirty: page 0 dirtied owner=nvmc#N "
                  "page=0 slot=0 addr=8192",
    "nvdc.flush": "[   60.000 us] nvdc.flush: slot 0 owner=nvmc#N "
                  "addr=8192 bytes=4096 slot=0",
    "nvdc.invalidate": "[    2.000 us] nvdc.invalidate: slot 0 "
                       "owner=nvmc#N addr=8192 bytes=4096 slot=0",
    "nvdc.op": "[    2.000 us] nvdc.op: fault page 0 -> slot 0 "
               "owner=nvmc#N page=0 slot=0 start_ps=1000000",
    "nvdc.sfence": "[   60.000 us] nvdc.sfence: slot 0 owner=nvmc#N "
                   "addr=8192 bytes=4096 slot=0",
    "nvmc.dma": "[   62.750 us] nvmc.dma: poll 64B in window 7, evict "
                "4096B in window 8, ack 64B in window 9 owner=nvmc#N "
                "cmd=1 budget=4096 windows=(('poll', 7, 64, 64, -1, "
                "62750000, 63650000, 62782500), ('evict', 8, 4096, 4096, "
                "8192, 70550000, 71450000, 70897500), ('ack', 9, 64, 64, "
                "-1, 78350000, 79250000, 78382500))",
    "power.drain/begin": "[  905.383 us] power.drain: battery drain begins "
                         "owner=nvmc#N active=True mapped=58",
    "power.drain/end": "[  925.538 us] power.drain: battery drain ends "
                       "owner=nvmc#N active=False drained=58 pending=0",
}


def site_of(record) -> str:
    """The emit site a record came from: its category, refined where
    one category has several sites or message shapes."""
    fields = record.fields
    if record.category == "ddr.cmd":
        if fields["master"] == "nvmc-drain":
            return "ddr.cmd/drain"
        return f"ddr.cmd/{fields['kind']}"
    if record.category == "cp.fault":
        return f"cp.fault/{fields['mode']}"
    if record.category == "power.drain":
        return "power.drain/" + ("begin" if fields["active"] else "end")
    return record.category


def _protocol_stack(tracer):
    """Command-accurate STREAM, plus a recorded CA collision."""
    from repro.ddr.bus import SharedBus
    from repro.ddr.commands import Command, CommandKind
    from repro.ddr.device import DRAMDevice
    from repro.ddr.spec import NVDIMMC_1600
    from repro.units import mb
    from repro.workloads.stream_bench import run_stream_validation
    run_stream_validation(iterations=1, agent_pages=2)
    bus = SharedBus(NVDIMMC_1600,
                    DRAMDevice(NVDIMMC_1600, capacity_bytes=mb(1)),
                    raise_on_collision=False)
    bus.issue("imc", Command(CommandKind.ACT, bank=0, row=1), 1000)
    bus.issue("nvmc", Command(CommandKind.ACT, bank=1, row=2), 1500)


def _coherent_system(tracer):
    """Writes through eviction, a patrol scrub, then a power-loss drain."""
    from repro.device.nvdimmc import NVDIMMCSystem
    from repro.device.power import PowerFailureModel
    from repro.units import PAGE_4K, kb, mb, us
    system = NVDIMMCSystem(cache_bytes=kb(256), device_bytes=mb(4),
                           with_cpu_cache=True)
    t = round(us(1))
    for page in range(70):
        t = system.driver.write_page(page, bytes([page % 256]) * PAGE_4K, t)
    idle = max(t, system.nvmc.ready_ps)
    trefi = system.spec.trefi_ps
    system.scrubber.patrol(idle, idle + 24 * trefi)
    PowerFailureModel(system.driver).power_fail(now_ps=idle + 25 * trefi)


def _faulted_system(tracer):
    """CP command corruption, a dropped ack and a health transition."""
    from repro.device.nvdimmc import NVDIMMCSystem
    from repro.nvmc.nvmc import CPFaultPort
    from repro.units import kb, mb, us
    system = NVDIMMCSystem(cache_bytes=kb(512), device_bytes=mb(8),
                           with_cpu_cache=True)
    port = CPFaultPort()
    system.nvmc.faults = port
    port.corrupt_command("phase")
    _, t = system.driver.read_page(0, round(us(1)))
    port.drop_ack()
    _, t = system.driver.read_page(1, t)
    for i in range(3):
        system.health.record("nvdc", "cp-timeout", time_ps=t + i)


def _degraded_system(tracer):
    """A read-only module serving a miss straight from the media."""
    from repro.device.nvdimmc import NVDIMMCSystem
    from repro.units import PAGE_4K, kb, mb, us
    system = NVDIMMCSystem(cache_bytes=kb(256), device_bytes=mb(4))
    t = round(us(1))
    for page in range(system.region.num_slots + 4):
        t = system.driver.write_page(page, bytes([page % 256]) * PAGE_4K, t)
    system.health.record("ftl", "space-exhausted", time_ps=t)
    system.driver.read_page(0, t)


@pytest.fixture(scope="module")
def rendered() -> dict[str, str]:
    """Emit site -> normalised ``str`` of the first record it emitted."""
    out: dict[str, str] = {}
    for scenario in (_protocol_stack, _coherent_system, _faulted_system,
                     _degraded_system):
        tracer = Tracer(enabled=True)
        records = []
        tracer.subscribe(records.append)
        with use_tracer(tracer):
            scenario(tracer)
        for record in records:
            out.setdefault(site_of(record),
                           re.sub(r"#\d+", "#N", str(record)))
    return out


@pytest.mark.parametrize("site", sorted(PINNED))
def test_emit_site_renders_as_pinned(rendered, site):
    assert rendered.get(site) == PINNED[site]


def test_every_emitted_category_is_pinned(rendered):
    """Each category in the static trace-event registry has a pin."""
    import repro
    from repro.check.xstatic import analyze_tree
    registry = analyze_tree(Path(repro.__file__).parent).registry
    categories = set(registry.trace_producers)
    assert categories == {site.split("/")[0] for site in PINNED}
    assert set(rendered) >= set(PINNED)


ROOT = Path(__file__).resolve().parents[1]

#: ``check run --sanitize validation`` stderr: the rogue negative
#: control's single window escape, with its eight-record trace window.
VALIDATION_STDERR = """
1 sanitizer violation(s):
[BusRace:window-escape] device master nvmc drove CA in [7802500, 7803750) ps outside the open device window (8150000, 9050000)
  details: end_ps=7803750, lane=CA, master=nvmc, start_ps=7802500, window=(8150000, 9050000)
  trace window (newest last):
    [    6.700 us] ddr.cmd: WR b0 r0 c91 master=iMC owner=bus.dram#2 kind=WR bank=0 ca_end=6701250 dq_start=6711250 dq_end=6716250
    [    6.705 us] ddr.cmd: WR b0 r0 c92 master=iMC owner=bus.dram#2 kind=WR bank=0 ca_end=6706250 dq_start=6716250 dq_end=6721250
    [    6.710 us] ddr.cmd: WR b0 r0 c93 master=iMC owner=bus.dram#2 kind=WR bank=0 ca_end=6711250 dq_start=6721250 dq_end=6726250
    [    6.715 us] ddr.cmd: WR b0 r0 c94 master=iMC owner=bus.dram#2 kind=WR bank=0 ca_end=6716250 dq_start=6726250 dq_end=6731250
    [    6.720 us] ddr.cmd: WR b0 r0 c95 master=iMC owner=bus.dram#2 kind=WR bank=0 ca_end=6721250 dq_start=6731250 dq_end=6736250
    [    7.786 us] ddr.cmd: PREA master=iMC owner=bus.dram#2 kind=PREA bank=-1 ca_end=7787500
    [    7.800 us] ddr.cmd: REF master=iMC owner=bus.dram#2 kind=REF bank=-1 ca_end=7801250 win_start=8150000 win_end=9050000
    [    7.803 us] ddr.cmd: ACT b4 r0 master=nvmc owner=bus.dram#2 kind=ACT bank=4 ca_end=7803750
"""


def test_validation_violation_report_is_pinned():
    """A fresh interpreter, so owner tokens are the CLI's own."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "check", "run", "--sanitize",
         "validation"], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 1
    assert done.stderr == VALIDATION_STDERR
