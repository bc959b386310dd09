"""Cross-validation: command-accurate layer vs transaction-level layer.

The reproduction runs on two model fidelities (DESIGN.md §5): the
command-accurate DDR4 stack validates the *mechanism*, the
transaction-level stack produces the *numbers*.  This experiment checks
that they agree where they overlap — if they diverge, one of them is
wrong:

1. **Device window bandwidth** — the protocol agent moves real 4 KB
   pages through real windows on the real bus; its sustained bandwidth
   must match the window arithmetic the transaction NVMC schedules by
   (one page per tREFI -> the §V-A 500.8 MiB/s ceiling).
2. **Window occupancy** — the time the agent's transfers actually spend
   inside windows must match the DMA engine's transfer-time model.
3. **Host blackout** — the measured stall of a host read that arrives
   during a refresh must equal the programmed tRFC the timeline
   arithmetic assumes.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.ddr.bus import SharedBus
from repro.ddr.device import DRAMDevice
from repro.ddr.imc import IntegratedMemoryController
from repro.ddr.spec import NVDIMMC_1600
from repro.nvmc.agent import NVMCProtocolAgent
from repro.nvmc.dma import DMAEngine
from repro.sim import Engine
from repro.units import PAGE_4K, mb, us

SPEC = NVDIMMC_1600


def run(pages: int = 120) -> ExperimentRecord:
    record = ExperimentRecord(
        "crosscheck", "Command-accurate vs transaction-level agreement")

    engine = Engine()
    device = DRAMDevice(SPEC, capacity_bytes=mb(64))
    bus = SharedBus(SPEC, device, raise_on_collision=True)
    imc = IntegratedMemoryController(engine, SPEC, bus)
    agent = NVMCProtocolAgent(SPEC, bus)
    imc.start_refresh_process()

    # 1) sustained device bandwidth through real windows.
    transfers = [agent.queue_write(i * PAGE_4K, bytes([i % 256]) * PAGE_4K)
                 for i in range(pages)]
    engine.run(until=us(7.8) * (pages + 4))
    assert all(t.done for t in transfers), "agent failed to drain"
    first = imc.timeline.window_containing(transfers[0].completed_ps)
    span_ps = transfers[-1].completed_ps - first.start_ps
    measured_mib_s = (pages - 1) * PAGE_4K / 2**20 / (span_ps / 1e12)
    predicted_mib_s = PAGE_4K / 2**20 / (SPEC.trefi_ps / 1e12)
    record.add("protocol device bandwidth", "MiB/s", None,
               measured_mib_s)
    record.add("timeline-arithmetic prediction", "MiB/s", 500.8,
               predicted_mib_s)
    record.add("protocol / arithmetic agreement", "ratio", 1.0,
               measured_mib_s / predicted_mib_s)

    # 2) per-transfer occupancy vs the DMA timing model.
    dma = DMAEngine(SPEC)
    predicted_occupancy = dma.transfer_time_ps(PAGE_4K)
    occupancies = []
    for t in transfers[1:]:
        window = imc.timeline.window_containing(t.completed_ps)
        occupancies.append(t.completed_ps - window.start_ps)
    mean_occupancy = sum(occupancies) / len(occupancies)
    record.add("measured window occupancy", "ns", None,
               mean_occupancy / 1000)
    record.add("DMA-model occupancy", "ns", None,
               predicted_occupancy / 1000)
    record.add("occupancy agreement", "ratio", 1.0,
               mean_occupancy / predicted_occupancy)

    # 3) host blackout: a read arriving just after REF resumes exactly
    # at REF + programmed tRFC.
    ref = imc.timeline.refresh_time(imc.refreshes_issued + 2)
    _, end = imc.host_read(mb(32), 64, ref + 1)
    stall = end - (ref + 1)
    predicted_stall = SPEC.trfc_ps + SPEC.trcd_ps + SPEC.tcl_ps \
        + SPEC.burst_time_ps
    record.add("host stall through refresh", "ns", None, stall / 1000)
    record.add("stall agreement", "ratio", 1.0, stall / predicted_stall)

    record.note("any disagreement >5 % here means the fast models no "
                "longer describe the protocol they abstract")
    record.claim("protocol bandwidth within 5 % of the window arithmetic",
                 abs(measured_mib_s / predicted_mib_s - 1.0) < 0.05)
    record.claim("window occupancy within 5 % of the DMA model",
                 abs(mean_occupancy / predicted_occupancy - 1.0) < 0.05)
    record.claim("host stall through refresh within 5 % of the "
                 "programmed tRFC arithmetic",
                 abs(stall / predicted_stall - 1.0) < 0.05)
    record.claim("the shared anchor is within 1 MiB/s of the §V-A "
                 "500.8 MiB/s ceiling",
                 abs(predicted_mib_s - 500.8) < 1.0)
    return record
