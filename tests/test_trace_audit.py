"""Trace-based audit: device commands never leave their windows.

Independent of the collision detector, this audit replays the bus
trace after a mixed run and proves *every* command the NVMC issued lies
inside an extended-tRFC window — the mechanism's contract, checked from
the recorded evidence rather than the mechanism's own bookkeeping.
"""

from repro.ddr.bus import SharedBus
from repro.ddr.device import DRAMDevice
from repro.ddr.imc import IntegratedMemoryController
from repro.ddr.spec import NVDIMMC_1600
from repro.nvmc.agent import NVMCProtocolAgent
from repro.sim import Engine
from repro.sim.trace import Tracer
from repro.units import mb, us

SPEC = NVDIMMC_1600


def run_traced():
    tracer = Tracer(enabled=True)
    records = []
    tracer.subscribe(records.append, ("ddr.cmd",))
    engine = Engine()
    device = DRAMDevice(SPEC, capacity_bytes=mb(64))
    bus = SharedBus(SPEC, device, tracer=tracer)
    imc = IntegratedMemoryController(engine, SPEC, bus)
    agent = NVMCProtocolAgent(SPEC, bus)
    imc.start_refresh_process()
    for i in range(12):
        agent.queue_write(i * 4096, bytes([i]) * 4096)
    t = 0
    for i in range(60):
        _, t = imc.host_read((i % 256) * 64, 64, t + us(1.2))
    engine.run(until=us(140))
    assert agent.backlog == 0
    return records, imc


class TestTraceAudit:
    def test_every_nvmc_command_is_inside_a_window(self):
        records, imc = run_traced()
        nvmc_cmds = [r for r in records if r.fields.get("master") == "nvmc"]
        assert nvmc_cmds, "trace captured no device commands"
        for record in nvmc_cmds:
            window = imc.timeline.window_containing(record.time_ps)
            assert window is not None, (
                f"NVMC command at {record.time_ps} ps outside any window:"
                f" {record.message}")

    def test_no_host_command_inside_a_window(self):
        records, imc = run_traced()
        host_cmds = [r for r in records if r.fields.get("master") == "iMC"]
        assert host_cmds
        for record in host_cmds:
            # REF itself marks the window's start; every other host
            # command must stay clear of the usable interval.
            if record.message.startswith("REF"):
                continue
            window = imc.timeline.window_containing(record.time_ps)
            assert window is None, (
                f"host command inside window {window}: {record.message}")

    def test_trace_contains_both_masters_interleaved(self):
        records, _ = run_traced()
        masters = [r.fields.get("master") for r in records]
        assert "nvmc" in masters and "iMC" in masters
        # Interleaving: the sequence switches masters many times.
        switches = sum(1 for a, b in zip(masters, masters[1:]) if a != b)
        assert switches > 10
