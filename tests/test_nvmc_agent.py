"""Tests for the command-accurate NVMC agent on the real shared bus.

These exercise the paper's core claim end to end: with the tRFC rule the
two masters share the channel with zero collisions; without it the bus
corrupts immediately.
"""

from collections import Counter

import pytest

from repro.ddr.bus import Collision, Reservation, SharedBus
from repro.ddr.commands import Command, CommandKind
from repro.ddr.device import DRAMDevice
from repro.ddr.imc import IntegratedMemoryController
from repro.ddr.spec import NVDIMMC_1600
from repro.errors import ProtocolError
from repro.nvmc.agent import NVMCProtocolAgent
from repro.sim import Engine
from repro.units import mb, ns, us

SPEC = NVDIMMC_1600


def make_system(respect_windows=True, raise_on_collision=True,
                host_trfc_ps=None):
    engine = Engine()
    device = DRAMDevice(SPEC, capacity_bytes=mb(64))
    bus = SharedBus(SPEC, device, raise_on_collision=raise_on_collision)
    imc = IntegratedMemoryController(engine, SPEC, bus)
    if host_trfc_ps is not None:
        imc.program_timing(trfc_ps=host_trfc_ps)
    agent = NVMCProtocolAgent(SPEC, bus, respect_windows=respect_windows)
    imc.start_refresh_process()
    return engine, device, bus, imc, agent


class TestWindowedTransfers:
    def test_agent_write_lands_in_dram(self):
        engine, device, _bus, _imc, agent = make_system()
        payload = bytes(range(256)) * 16
        transfer = agent.queue_write(0, payload)
        engine.run(until=us(20))
        assert transfer.done
        assert device.peek(0, 4096) == payload

    def test_agent_read_returns_dram_contents(self):
        engine, device, _bus, _imc, agent = make_system()
        device.poke(8192, b"\xbe" * 4096)
        transfer = agent.queue_read(8192, 4096)
        engine.run(until=us(20))
        assert transfer.done
        assert transfer.result == b"\xbe" * 4096

    def test_transfer_happens_inside_window(self):
        engine, _device, _bus, imc, agent = make_system()
        transfer = agent.queue_write(0, bytes(4096))
        engine.run(until=us(20))
        window = imc.timeline.window(0)
        assert window.start_ps <= transfer.completed_ps <= window.end_ps

    def test_backlog_drains_one_page_per_window(self):
        engine, _device, _bus, imc, agent = make_system()
        transfers = [agent.queue_write(i * 4096, bytes([i]) * 4096)
                     for i in range(3)]
        engine.run(until=us(30))
        completed = [t for t in transfers if t.done]
        assert len(completed) == 3
        windows = {imc.timeline.window_containing(t.completed_ps).index
                   for t in completed}
        assert windows == {0, 1, 2}

    def test_small_transfers_share_a_window(self):
        engine, _device, _bus, imc, agent = make_system()
        transfers = [agent.queue_write(i * 64, bytes([i]) * 64)
                     for i in range(4)]
        engine.run(until=us(20))
        assert all(t.done for t in transfers)
        first = imc.timeline.window(0)
        assert all(t.completed_ps <= first.end_ps for t in transfers)


class TestCollisionFreedom:
    def test_interleaved_host_and_device_traffic_no_collisions(self):
        """Host reads around refreshes + device 4 KB per window: the
        mechanism must keep the channel collision-free."""
        engine, device, bus, imc, agent = make_system()
        for i in range(40):
            agent.queue_write(i * 4096, bytes([i]) * 4096)
        t = 0
        for i in range(200):
            _, t = imc.host_read((i % 512) * 64, 64, t + us(1.5))
        engine.run(until=us(400))
        assert bus.collision_count == 0
        assert agent.backlog == 0
        for i in range(40):
            assert device.peek(i * 4096, 1) == bytes([i])

    @pytest.mark.sanitizer_exempt
    def test_rogue_agent_collides(self):
        """Without the rule the agent drives the bus right after REF and
        collides with the refresh blackout itself: the device refuses
        its first ACT before any slot overlaps host traffic."""
        engine, _device, bus, imc, agent = make_system(
            respect_windows=False, raise_on_collision=False)
        agent.queue_write(0, bytes(4096))
        t = 0
        with pytest.raises(ProtocolError, match="ACT during refresh"):
            for i in range(40):
                _, t = imc.host_read((i % 512) * 64, 64, t + us(1))
            engine.run(until=us(40))
        assert agent.stats.rule_violations == 1
        assert bus.collision_count == 0

    @pytest.mark.sanitizer_exempt
    def test_jedec_trfc_host_collides_with_extended_window(self):
        """The paper's own hazard, caught by the bus detector end to end.

        The host iMC is left at the JEDEC tRFC while the agent drives the
        extended window, so host reads resume inside the agent's
        transfer.  Every collision is recorded, each against a slot the
        NVMC reserved first, and no command is refused.
        """
        engine, _device, bus, imc, agent = make_system(
            raise_on_collision=False, host_trfc_ps=SPEC.trfc_device_ps)
        for i in range(8):
            agent.queue_write(mb(1) + i * 4096, bytes([i + 1]) * 4096)
        t = 0
        for i in range(200):
            _, t = imc.host_read(i * 4096, 64, t + ns(20))
        engine.run(until=t + us(100))
        assert agent.backlog == 0
        assert Counter(c.bus for c in bus.collisions) == {"CA": 4, "DQ": 12}
        assert all(c.first.master == "nvmc" and c.second_master == "iMC"
                   for c in bus.collisions)
        assert bus.collisions[0] == Collision(
            "CA", 8_150_000,
            Reservation("nvmc", 8_150_000, 8_151_250,
                        Command(CommandKind.ACT, bank=0, row=8)),
            "iMC", Command(CommandKind.ACT, bank=11, row=4))


class TestDetectorIntegration:
    def test_detector_sees_every_imc_refresh(self):
        engine, _device, _bus, imc, agent = make_system()
        engine.run(until=us(80))
        assert len(agent.detector.detections) == imc.refreshes_issued
        assert agent.detector.false_positives == 0
        assert agent.detector.false_negatives == 0
