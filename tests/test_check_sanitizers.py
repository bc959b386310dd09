"""Injection tests for the repro.check sanitizers.

Each sanitizer gets violations injected — synthetically (records fed
straight through a tracer) and, for the coherence rules, end-to-end
through the real models — and must collect a structured
:class:`SanitizerViolation` at the offending emit.  The end-to-end tests
also cover clean runs through the real models, Fig. 8 included.
"""

from contextlib import contextmanager

import pytest

from repro.check import (BusRaceSanitizer, CoherenceSanitizer,
                         ProtocolSanitizer, SanitizerSuite,
                         SanitizerViolation, TimeSanitizer, default_suite)
from repro.sim.trace import TraceMeter, Tracer, use_tracer


def attached(*sanitizers):
    """An enabled tracer with a suite of ``sanitizers`` attached."""
    tracer = Tracer(enabled=True)
    suite = SanitizerSuite(sanitizers).attach(tracer)
    return tracer, suite


class Flagged:
    """The violation a :func:`flags` block added."""

    value: SanitizerViolation


@contextmanager
def flags(suite):
    """The enclosed emit takes a clean ``suite`` to exactly one
    violation, found in ``.value`` of the yielded holder."""
    assert not suite.violations, suite.report()
    flagged = Flagged()
    yield flagged
    violations = suite.violations
    assert len(violations) == 1, suite.report()
    flagged.value = violations[0]


def dma_op(tracer, *windows, owner="nvmc#0", cmd=1):
    """One CP op's ``nvmc.dma`` record: each window is ``(kind, window
    index, bytes, addr, win_start)``, timed at the first one's start."""
    tracer.emit(windows[0][4], "nvmc.dma", "op", owner=owner, cmd=cmd,
                budget=4096,
                windows=tuple((kind, index, nbytes, nbytes, addr, start,
                               start + 900_000, start + 32_500)
                              for kind, index, nbytes, addr, start
                              in windows))


class TestBusRaceSanitizer:
    def test_ca_overlap_between_masters_raises(self):
        tracer, suite = attached(BusRaceSanitizer())
        tracer.emit(0, "ddr.cmd", "ACT", owner="bus#0", master="imc",
                    kind="ACT", bank=0, ca_end=1250)
        with flags(suite) as exc:
            tracer.emit(600, "ddr.cmd", "ACT", owner="bus#0", master="nvmc",
                        kind="ACT", bank=1, ca_end=1850)
        assert exc.value.rule == "bus-collision"
        assert exc.value.sanitizer == "BusRace"
        assert exc.value.record is not None
        assert exc.value.context   # offending trace window attached

    def test_same_master_back_to_back_is_fine(self):
        tracer, suite = attached(BusRaceSanitizer())
        tracer.emit(0, "ddr.cmd", "ACT", owner="bus#0", master="imc",
                    kind="ACT", bank=0, ca_end=1250)
        tracer.emit(1250, "ddr.cmd", "RD", owner="bus#0", master="imc",
                    kind="RD", bank=0, ca_end=2500,
                    dq_start=13750, dq_end=18750)
        assert not suite.violations

    def test_device_outside_window_raises(self):
        tracer, suite = attached(BusRaceSanitizer())
        tracer.emit(0, "ddr.cmd", "REF", owner="bus#0", master="imc",
                    kind="REF", bank=-1, ca_end=1250,
                    win_start=350_000, win_end=1_250_000)
        # Inside the window: fine.
        tracer.emit(350_000, "ddr.cmd", "RD", owner="bus#0", master="nvmc",
                    kind="RD", bank=0, ca_end=351_250,
                    dq_start=363_750, dq_end=368_750)
        with flags(suite) as exc:
            tracer.emit(2_000_000, "ddr.cmd", "ACT", owner="bus#0",
                        master="nvmc", kind="ACT", bank=0,
                        ca_end=2_001_250)
        assert exc.value.rule == "window-escape"

    def test_bus_reported_collision_passthrough(self):
        tracer, suite = attached(BusRaceSanitizer())
        with flags(suite) as exc:
            tracer.emit(5, "ddr.collision", "CA collision", owner="bus#0",
                        first="imc", second="nvmc")
        assert exc.value.rule == "bus-collision"


class TestCoherenceSanitizer:
    @staticmethod
    def attach(tracer, owner="nvmc#0", coherent=True):
        tracer.emit(0, "nvdc.attach", "nvdc0", owner=owner,
                    coherent=coherent, skip_coherence=False)

    def test_dirty_evict_without_flush_raises(self):
        tracer, suite = attached(CoherenceSanitizer())
        self.attach(tracer)
        tracer.emit(10, "nvdc.dirty", "page 3", owner="nvmc#0",
                    page=3, slot=1, addr=4096)
        with flags(suite) as exc:
            dma_op(tracer, ("evict", 0, 4096, 4096, 20))
        assert exc.value.rule == "dirty-evict"

    def test_flushed_evict_is_fine(self):
        tracer, suite = attached(CoherenceSanitizer())
        self.attach(tracer)
        tracer.emit(10, "nvdc.dirty", "page 3", owner="nvmc#0",
                    page=3, slot=1, addr=4096)
        tracer.emit(15, "nvdc.flush", "slot 1", owner="nvmc#0",
                    addr=4096, bytes=4096, slot=1)
        tracer.emit(16, "nvdc.sfence", "sfence", owner="nvmc#0",
                    addr=4096, bytes=4096, slot=1)
        tracer.emit(17, "cp.post", "WRITEBACK", owner="nvmc#0", cmd=1,
                    slot=0, opcode="WRITEBACK", phase="ODD", depth=1)
        dma_op(tracer, ("evict", 0, 4096, 4096, 20))
        assert not suite.violations

    def test_unfenced_doorbell_raises(self):
        tracer, suite = attached(CoherenceSanitizer())
        self.attach(tracer)
        with flags(suite) as exc:
            tracer.emit(10, "cp.post", "WRITEBACK", owner="nvmc#0", cmd=1,
                        slot=0, opcode="WRITEBACK", phase="ODD", depth=1)
        assert exc.value.rule == "unfenced-doorbell"

    def test_stale_fill_without_invalidate_raises(self):
        tracer, suite = attached(CoherenceSanitizer())
        self.attach(tracer)
        dma_op(tracer, ("fill", 0, 4096, 8192, 10))
        with flags(suite) as exc:
            tracer.emit(20, "cp.post", "NOP", owner="nvmc#0", cmd=2,
                        slot=0, opcode="NOP", phase="EVEN", depth=1)
        assert exc.value.rule == "stale-fill"

    def test_stale_fill_caught_at_finalize(self):
        tracer = Tracer(enabled=True)
        suite = SanitizerSuite([CoherenceSanitizer()]).attach(tracer)
        self.attach(tracer)
        dma_op(tracer, ("fill", 0, 4096, 8192, 10))
        suite.detach()
        assert [v.rule for v in suite.violations] == ["stale-fill"]

    def test_inactive_without_coherent_attach(self):
        tracer, suite = attached(CoherenceSanitizer())
        self.attach(tracer, coherent=False)
        tracer.emit(10, "nvdc.dirty", "page 3", owner="nvmc#0",
                    page=3, slot=1, addr=4096)
        dma_op(tracer, ("evict", 0, 4096, 4096, 20))
        assert not suite.violations


class TestProtocolSanitizer:
    def test_queue_depth_overflow_raises(self):
        tracer, suite = attached(ProtocolSanitizer())
        tracer.emit(0, "cp.post", "NOP", owner="nvmc#0", cmd=1, slot=0,
                    opcode="NOP", phase="ODD", depth=1)
        with flags(suite) as exc:
            tracer.emit(5, "cp.post", "NOP", owner="nvmc#0", cmd=2, slot=1,
                        opcode="NOP", phase="EVEN", depth=1)
        assert exc.value.rule == "queue-depth"

    def test_posted_then_acked_is_fine(self):
        tracer, suite = attached(ProtocolSanitizer())
        for cmd in (1, 2):
            tracer.emit(cmd * 10, "cp.post", "NOP", owner="nvmc#0",
                        cmd=cmd, slot=0, opcode="NOP", phase="ODD", depth=1)
            tracer.emit(cmd * 10 + 5, "cp.ack", "NOP", owner="nvmc#0",
                        cmd=cmd, slot=0, opcode="NOP", phase="ODD")
        assert not suite.violations

    def test_window_budget_overflow_raises(self):
        tracer, suite = attached(ProtocolSanitizer())
        dma_op(tracer, ("fill", 7, 4096, 0, 0))
        with flags(suite) as exc:
            dma_op(tracer, ("evict", 7, 4096, 4096, 10))
        assert exc.value.rule == "window-budget"

    def test_window_shared_by_two_commands_raises(self):
        tracer, suite = attached(ProtocolSanitizer())
        dma_op(tracer, ("poll", 7, 64, -1, 0), cmd=1)
        with flags(suite) as exc:
            dma_op(tracer, ("poll", 7, 64, -1, 10), cmd=2)
        assert exc.value.rule == "window-sharing"

    def test_refresh_with_open_bank_raises(self):
        tracer, suite = attached(ProtocolSanitizer())
        tracer.emit(0, "ddr.cmd", "ACT", owner="bus#0", master="imc",
                    kind="ACT", bank=2, ca_end=1250)
        with flags(suite) as exc:
            tracer.emit(5000, "ddr.cmd", "REF", owner="bus#0", master="imc",
                        kind="REF", bank=-1, ca_end=6250,
                        win_start=355_000, win_end=1_255_000)
        assert exc.value.rule == "ref-open-banks"

    def test_prea_before_refresh_is_fine(self):
        tracer, suite = attached(ProtocolSanitizer())
        tracer.emit(0, "ddr.cmd", "ACT", owner="bus#0", master="imc",
                    kind="ACT", bank=2, ca_end=1250)
        tracer.emit(2500, "ddr.cmd", "PREA", owner="bus#0", master="imc",
                    kind="PREA", bank=-1, ca_end=3750)
        tracer.emit(5000, "ddr.cmd", "REF", owner="bus#0", master="imc",
                    kind="REF", bank=-1, ca_end=6250,
                    win_start=355_000, win_end=1_255_000)
        assert not suite.violations


class TestTimeSanitizer:
    def test_float_time_raises(self):
        tracer, suite = attached(TimeSanitizer())
        with flags(suite) as exc:
            tracer.emit(1.5, "nvdc.op", "op", owner="nvmc#0")
        assert exc.value.rule == "non-integer-time"

    def test_negative_time_raises(self):
        tracer, suite = attached(TimeSanitizer())
        with flags(suite) as exc:
            tracer.emit(-5, "nvdc.op", "op", owner="nvmc#0")
        assert exc.value.rule == "negative-time"

    def test_time_regression_raises(self):
        tracer, suite = attached(TimeSanitizer())
        dma_op(tracer, ("fill", 1, 4096, 0, 100))
        with flags(suite) as exc:
            dma_op(tracer, ("ack", 0, 64, -1, 50))
        assert exc.value.rule == "time-regression"

    def test_independent_owners_do_not_interfere(self):
        tracer, suite = attached(TimeSanitizer())
        dma_op(tracer, ("fill", 1, 4096, 0, 100), owner="nvmc#0")
        dma_op(tracer, ("fill", 0, 4096, 0, 50), owner="nvmc#1")
        assert not suite.violations


@pytest.mark.sanitizer_exempt
class TestEndToEnd:
    """Violations driven through the real models, and clean runs."""

    def test_skip_coherence_driver_is_caught(self):
        from repro.device.nvdimmc import NVDIMMCSystem
        from repro.nvmc.fsm import FirmwareModel
        from repro.units import mb
        tracer = Tracer(enabled=True)
        suite = default_suite()
        with use_tracer(tracer), suite.attach(tracer):
            system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(32),
                                   firmware=FirmwareModel(step_ps=0),
                                   with_cpu_cache=True)
            system.driver.skip_coherence = True   # the §V-B bug
            system.driver.fault(0, 0, for_write=True)
            with flags(suite) as exc:
                system.driver.fault(1, 0, for_write=True)
            assert exc.value.sanitizer == "Coherence"

    def test_coherent_driver_certifies_clean(self):
        from repro.device.nvdimmc import NVDIMMCSystem
        from repro.nvmc.fsm import FirmwareModel
        from repro.units import mb
        tracer = Tracer(enabled=True)
        suite = default_suite()
        with use_tracer(tracer), suite.attach(tracer):
            system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(32),
                                   firmware=FirmwareModel(step_ps=0),
                                   with_cpu_cache=True)
            for page in (0, 1, 2):
                system.driver.fault(page, 0, for_write=True)
        assert not suite.violations, suite.report()

    def test_fig8_run_is_sanitizer_clean(self):
        """Acceptance: the Fig. 8 randrw experiment (baseline + cached +
        uncached systems) completes with zero violations."""
        from repro.experiments.runner import ALL_EXPERIMENTS
        tracer = Tracer(enabled=True)
        suite = default_suite()
        emitted = TraceMeter.records_emitted
        with use_tracer(tracer), suite.attach(tracer):
            ALL_EXPERIMENTS["fig8"]()
        assert TraceMeter.records_emitted > emitted
        assert not suite.violations, suite.report()


class TestDrainExemption:
    """§V-C: ``power.drain`` markers suspend window-escape checking."""

    REF = dict(kind="REF", bank=-1, ca_end=1250,
               win_start=350_000, win_end=1_250_000)

    def test_declared_drain_may_ignore_trfc(self):
        tracer, suite = attached(BusRaceSanitizer())
        tracer.emit(0, "ddr.cmd", "REF", owner="bus#0", master="imc",
                    **self.REF)
        tracer.emit(2_000_000, "power.drain", "begins", owner="bus#0",
                    active=True, mapped=1)
        # Far outside the window: legal only because a drain is declared.
        tracer.emit(2_000_100, "ddr.cmd", "drain", owner="bus#0",
                    master="nvmc-drain", kind="RD", ca_end=2_001_350,
                    dq_start=2_000_100, dq_end=2_001_350)
        tracer.emit(2_001_400, "power.drain", "ends", owner="bus#0",
                    active=False, drained=1, pending=0)
        assert not suite.violations

    def test_escape_after_drain_ends_still_flags(self):
        tracer, suite = attached(BusRaceSanitizer())
        tracer.emit(0, "ddr.cmd", "REF", owner="bus#0", master="imc",
                    **self.REF)
        tracer.emit(2_000_000, "power.drain", "begins", owner="bus#0",
                    active=True, mapped=1)
        tracer.emit(2_000_500, "power.drain", "ends", owner="bus#0",
                    active=False, drained=0, pending=0)
        with flags(suite) as exc:
            tracer.emit(3_000_000, "ddr.cmd", "RD", owner="bus#0",
                        master="nvmc-drain", kind="RD", ca_end=3_001_250)
        assert exc.value.rule == "window-escape"

    def test_undeclared_drain_still_flags(self):
        """The same transfer with no marker is a protocol violation."""
        tracer, suite = attached(BusRaceSanitizer())
        tracer.emit(0, "ddr.cmd", "REF", owner="bus#0", master="imc",
                    **self.REF)
        with flags(suite) as exc:
            tracer.emit(2_000_000, "ddr.cmd", "drain", owner="bus#0",
                        master="nvmc-drain", kind="RD", ca_end=2_001_250)
        assert exc.value.rule == "window-escape"

    def test_collision_detection_stays_on_during_drain(self):
        """Even the battery drain must not overlap another master."""
        tracer, suite = attached(BusRaceSanitizer())
        tracer.emit(0, "power.drain", "begins", owner="bus#0",
                    active=True, mapped=1)
        tracer.emit(100, "ddr.cmd", "ACT", owner="bus#0", master="imc",
                    kind="ACT", bank=0, ca_end=1350)
        with flags(suite) as exc:
            tracer.emit(600, "ddr.cmd", "drain", owner="bus#0",
                        master="nvmc-drain", kind="RD", ca_end=1850)
        assert exc.value.rule == "bus-collision"

    def test_drain_exemption_is_per_owner(self):
        tracer, suite = attached(BusRaceSanitizer())
        for owner in ("bus#0", "bus#1"):
            tracer.emit(0, "ddr.cmd", "REF", owner=owner, master="imc",
                        **self.REF)
        tracer.emit(2_000_000, "power.drain", "begins", owner="bus#0",
                    active=True, mapped=1)
        with flags(suite) as exc:
            tracer.emit(2_000_100, "ddr.cmd", "drain", owner="bus#1",
                        master="nvmc-drain", kind="RD", ca_end=2_001_350)
        assert exc.value.rule == "window-escape"
