"""The campaign runner: a deterministic (fault x workload) matrix.

Every cell is a pure function of ``(fault, workload, seed)``:

* the cell seed is ``crc32(f"{seed}:{fault}:{workload}")``, so adding
  or reordering cells never perturbs the others;
* a fresh scaled-down :class:`~repro.device.nvdimmc.NVDIMMCSystem` (or,
  for stream cells, a fresh command-accurate bus stack) is built per
  cell, with its own :class:`~repro.sim.trace.Tracer` and the full
  :func:`~repro.check.sanitizer.default_suite` attached — a faulted run
  must not only recover its data, it must keep every protocol invariant
  the sanitizers encode (with the §V-C drain exemption);
* every committed write is mirrored into a shadow dict and read back
  after the fault (for power-loss cells: after drain, remount and
  journal replay), so ``lost`` counts real end-to-end data loss, never
  inferred loss.

The cache is sized *below* the workload footprint (128 slots vs a
320-page footprint) so every cell exercises the full miss path —
writebacks, cachefills, evictions — where the fault hook sites live.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.check.sanitizer import default_suite
from repro.device.nvdimmc import NVDIMMCSystem
from repro.device.power import PowerFailureModel
from repro.errors import ConfigError, MediaError, PowerLossInterrupt
from repro.faults.clock import FaultClock
from repro.faults.injectors import INJECTORS, ArmContext, Injector, \
    injector_names
from repro.nvmc.nvmc import CPFaultPort
from repro.faults.report import SCHEMA
from repro.report import Gate, Gated
from repro.sim.trace import Tracer, use_tracer
from repro.units import PAGE_4K, kb, mb, us

#: Device pages each DAX workload touches; deliberately 2.5x the
#: 128-slot cache so evictions (and their writebacks) are constant.
FOOTPRINT_PAGES = 320
_CACHE_BYTES = kb(512)
_DEVICE_BYTES = mb(8)


@dataclass
class CellResult:
    """One (fault x workload) cell of the campaign."""

    fault: str
    workload: str
    cell_seed: int
    recoverable: bool
    injected: int = 0
    detected: int = 0
    recovered: int = 0
    lost: int = 0
    violations: int = 0
    ok: bool = False
    notes: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "fault": self.fault,
            "workload": self.workload,
            "cell_seed": self.cell_seed,
            "recoverable": self.recoverable,
            "injected": self.injected,
            "detected": self.detected,
            "recovered": self.recovered,
            "lost": self.lost,
            "violations": self.violations,
            "ok": self.ok,
            "notes": {key: self.notes[key] for key in sorted(self.notes)},
        }


@dataclass
class CampaignResult(Gated):
    """All cells of one campaign run."""

    seed: int
    quick: bool
    cells: list[CellResult] = field(default_factory=list)

    @property
    def gates(self) -> list[Gate]:
        return [Gate("cells_ok", all(cell.ok for cell in self.cells),
                     "campaign FAILED: see cells above")]

    def totals(self) -> dict[str, int]:
        return {
            "cells": len(self.cells),
            "failed_cells": sum(1 for c in self.cells if not c.ok),
            "injected": sum(c.injected for c in self.cells),
            "detected": sum(c.detected for c in self.cells),
            "recovered": sum(c.recovered for c in self.cells),
            "lost": sum(c.lost for c in self.cells),
            "violations": sum(c.violations for c in self.cells),
        }

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "generated_at": None,
            "seed": self.seed,
            "quick": self.quick,
            "cells": [cell.to_dict() for cell in self.cells],
            "totals": self.totals(),
        }


def campaign_matrix(quick: bool = False,
                    only: list[str] | None = None) -> list[tuple[str, str]]:
    """The (fault, workload) cells a campaign executes, in order.

    ``only`` restricts the matrix to the named faults.  An unknown id,
    or a restriction that selects no cell of the chosen matrix (a
    campaign of zero cells would pass vacuously), raises
    :class:`~repro.errors.ConfigError`.
    """
    if quick:
        faults = ["cp-corrupt", "dma-partial", "nand-program-fail"]
    else:
        faults = [name for name in injector_names()
                  if INJECTORS[name].kind == "dax"]
    cells = [(fault, workload) for fault in faults
             for workload in ("seq-write", "rand-rw")]
    if not quick:
        cells.append(("ca-noise", "stream-agent"))
    if only is None:
        return cells
    unknown = sorted(set(only) - set(INJECTORS))
    if unknown:
        raise ConfigError(
            f"unknown fault ids: {', '.join(unknown)}\n"
            f"known fault ids: {', '.join(injector_names())}")
    selected = [cell for cell in cells if cell[0] in only]
    if not selected:
        raise ConfigError(
            f"fault ids {sorted(only)} select no cell of the "
            f"{'quick' if quick else 'full'} matrix (its faults: "
            f"{', '.join(sorted({fault for fault, _ in cells}))})")
    return selected


def cell_seed_for(seed: int, fault: str, workload: str) -> int:
    """Per-cell seed: stable under matrix growth and reordering."""
    return zlib.crc32(f"{seed}:{fault}:{workload}".encode("ascii"))


def run_campaign(seed: int = 0, quick: bool = False,
                 progress: Callable[[CellResult], None] | None = None,
                 only: list[str] | None = None) -> CampaignResult:
    """Execute the matrix; each cell under its own sanitized tracer.

    ``only`` restricts the matrix to the named faults (see
    :func:`campaign_matrix`; cell seeds are unchanged: they depend on
    the cell, not the matrix shape).
    """
    cells = campaign_matrix(quick, only)
    result = CampaignResult(seed=seed, quick=quick)
    for fault_name, workload_name in cells:
        injector = INJECTORS[fault_name]
        cseed = cell_seed_for(seed, fault_name, workload_name)
        tracer = Tracer(enabled=True)
        suite = default_suite()
        with use_tracer(tracer):
            with suite.attach(tracer):
                if injector.kind == "stream":
                    cell = _run_stream_cell(injector, workload_name, cseed)
                else:
                    cell = _run_dax_cell(injector, workload_name, cseed,
                                         tracer)
        cell.violations = len(suite.violations)
        cell.ok = (cell.violations == 0
                   and (cell.lost == 0 if injector.recoverable else True))
        result.cells.append(cell)
        if progress is not None:
            progress(cell)
    return result


# -- DAX workloads ----------------------------------------------------------------


def _payload(page: int, version: int) -> bytes:
    head = page.to_bytes(4, "little") + version.to_bytes(4, "little")
    return head + bytes([(page * 131 + version * 29) % 256]) * (PAGE_4K - 8)


def _wl_seq_write(driver, rng: random.Random, shadow: dict[int, bytes],
                  t: int, faults: dict[str, int]) -> int:
    for page in range(FOOTPRINT_PAGES):
        data = _payload(page, 0)
        try:
            t = driver.write_page(page, data, t)
        except MediaError:
            faults["media_errors"] += 1
            continue
        shadow[page] = data
    return t


def _wl_rand_rw(driver, rng: random.Random, shadow: dict[int, bytes],
                t: int, faults: dict[str, int]) -> int:
    for step in range(FOOTPRINT_PAGES):
        if shadow and rng.random() < 0.3:
            page = rng.choice(sorted(shadow))
            try:
                _data, t = driver.read_page(page, t)
            except MediaError:
                faults["media_errors"] += 1
        else:
            page = rng.randrange(FOOTPRINT_PAGES)
            data = _payload(page, 1 + step)
            try:
                t = driver.write_page(page, data, t)
            except MediaError:
                faults["media_errors"] += 1
                continue
            shadow[page] = data
    return t


_WORKLOADS = {"seq-write": _wl_seq_write, "rand-rw": _wl_rand_rw}


def _verify(driver, shadow: dict[int, bytes], t: int) -> list[int]:
    """Pages whose end-to-end readback no longer matches the shadow."""
    lost: list[int] = []
    for page in sorted(shadow):
        try:
            data, t = driver.read_page(page, t)
        except MediaError:
            lost.append(page)
            continue
        if data != shadow[page]:
            lost.append(page)
    return lost


def _run_dax_cell(injector: Injector, workload_name: str, cseed: int,
                  tracer: Tracer) -> CellResult:
    rng = random.Random(cseed)
    clock = FaultClock()
    # Power-loss cells skip the CPU cache: a cut abandons CP exchanges
    # mid-bracket by design, which the coherence rules (correctly) call
    # a hazard; the §V-B bracket is exercised by every other cell.
    system = NVDIMMCSystem(cache_bytes=_CACHE_BYTES,
                           device_bytes=_DEVICE_BYTES,
                           with_cpu_cache=not injector.power_loss,
                           seed=cseed % 100003,
                           tracer=tracer)
    system.nvmc.faults = CPFaultPort()
    system.nvmc.fault_clock = clock
    system.nand.ftl.fault_clock = clock
    ctx = ArmContext(rng=rng, clock=clock, system=system)
    injector.arm(ctx)

    cell = CellResult(fault=injector.name, workload=workload_name,
                      cell_seed=cseed, recoverable=injector.recoverable)
    shadow: dict[int, bytes] = {}
    faults = {"media_errors": 0}
    interrupts = 0
    t = round(us(1))
    try:
        t = _WORKLOADS[workload_name](system.driver, rng, shadow, t, faults)
    except PowerLossInterrupt as exc:
        interrupts += 1
        t = max(t, exc.time_ps)

    if injector.power_loss:
        power = PowerFailureModel(system.driver)
        power.fault_clock = clock
        try:
            power.power_fail(now_ps=t)
        except PowerLossInterrupt:
            interrupts += 1
        replay = power.recover().replay()
        fresh = system.remount()
        lost_pages = _verify(fresh.driver, shadow, t)
        cell.injected = clock.fired
        cell.detected = interrupts
        cell.recovered = replay.pages_recovered
        cell.lost = len(lost_pages)
        cell.notes = {
            "replay_recovered": replay.pages_recovered,
            "replay_lost": replay.pages_lost,
            "replay_crc_mismatches": len(replay.crc_mismatches),
            "drain_pending": power.journal.pending,
            "committed_pages": len(shadow),
        }
    else:
        lost_pages = _verify(system.driver, shadow, t)
        cell.injected, cell.detected = injector.tally(ctx)
        cell.lost = len(lost_pages)
        cell.recovered = max(0, cell.injected - cell.lost)
        cell.notes = {
            "media_errors": faults["media_errors"],
            "committed_pages": len(shadow),
        }
    return cell


# -- the command-accurate stream cell ---------------------------------------------


def _run_stream_cell(injector: Injector, workload_name: str,
                     cseed: int) -> CellResult:
    from repro.ddr.bus import SharedBus
    from repro.ddr.device import DRAMDevice
    from repro.ddr.imc import IntegratedMemoryController
    from repro.ddr.spec import NVDIMMC_1600
    from repro.nvmc.agent import NVMCProtocolAgent
    from repro.nvmc.refresh_detector import RefreshDetector
    from repro.sim import Engine

    rng = random.Random(cseed)
    clock = FaultClock()
    spec = NVDIMMC_1600
    engine = Engine()
    engine.install_fault_clock(clock)
    device = DRAMDevice(spec, capacity_bytes=mb(16))
    bus = SharedBus(spec, device, raise_on_collision=False)
    imc = IntegratedMemoryController(engine, spec, bus)
    detector = RefreshDetector(seed=cseed % 65521)
    agent = NVMCProtocolAgent(spec, bus, detector=detector)
    imc.start_refresh_process()
    ctx = ArmContext(rng=rng, clock=clock, detector=detector,
                     trefi_ps=spec.trefi_ps)
    injector.arm(ctx)

    cell = CellResult(fault=injector.name, workload=workload_name,
                      cell_seed=cseed, recoverable=injector.recoverable)
    # Host traffic in the low region; agent scratch pages at 1 MB.
    scratch_base = mb(1)
    scratch: dict[int, bytes] = {}
    host: dict[int, bytes] = {}
    mismatches = 0
    t = round(us(1))
    for i in range(80):
        page = i % 16
        payload = _payload(page, i)
        agent.queue_write(scratch_base + page * PAGE_4K, payload)
        scratch[page] = payload
    for k in range(4):
        data = _payload(k, 1000 + k)
        t = imc.host_write(k * PAGE_4K, data, t)
        host[k] = data
    # Run well past the last armed noise burst so the detector rides
    # through every burst while the agent still has backlog to move.
    engine.run(until=round(us(5)) + 110 * spec.trefi_ps)
    for k, expect in host.items():
        data, t = imc.host_read(k * PAGE_4K, PAGE_4K, t)
        if data != expect:
            mismatches += 1
    for page, expect in scratch.items():
        if device.peek(scratch_base + page * PAGE_4K, PAGE_4K) != expect:
            mismatches += 1

    cell.injected, cell.detected = injector.tally(ctx)
    cell.lost = mismatches + bus.collision_count
    cell.recovered = max(0, cell.injected - cell.lost)
    cell.notes = {
        "refreshes_detected": len(detector.detections),
        "false_positives": detector.false_positives,
        "false_negatives": detector.false_negatives,
        "collisions": bus.collision_count,
        "agent_backlog": agent.backlog,
    }
    return cell
