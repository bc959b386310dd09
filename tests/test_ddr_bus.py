"""Tests for the shared bus: collisions, snooping, reservations.

These tests exercise the exact hazards of the paper's Fig. 2a and show
that the bus model detects them — the mechanism's whole purpose.  The
indexed reservation lanes are held to the linear scan they replaced,
which is kept here as :class:`LinearScanBus`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ddr.bus import Collision, Reservation, SharedBus
from repro.ddr.commands import Command, CommandKind
from repro.ddr.device import DRAMDevice
from repro.ddr.spec import DDR4_1600, NVDIMMC_1600
from repro.errors import BusCollisionError, ProtocolError
from repro.sim.trace import Tracer
from repro.units import mb

SPEC = DDR4_1600
HORIZON = SharedBus.PRUNE_HORIZON_PS
CLOCK = SPEC.clock_ps


def make_bus(raise_on_collision=True, spec=SPEC):
    device = DRAMDevice(spec, capacity_bytes=mb(64))
    return SharedBus(spec, device, raise_on_collision=raise_on_collision)


class NullDevice:
    """Accepts every command, so bank legality stays out of bus checks."""

    name = "null"

    def maybe_complete_refresh(self, now_ps):
        pass

    def execute(self, command, now_ps, data=None):
        return None


class LinearScanBus(SharedBus):
    """The bus with its original reservation scan: the test oracle.

    ``_reserve`` and ``_prune`` are the linear implementations the
    indexed lanes replaced: every live reservation is tested, in the
    order it was made.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ca = []
        self._dq = []

    def _reserve(self, lane, bus_name, master, command, start_ps, end_ps):
        for existing in lane:
            if existing.master != master and existing.overlaps(start_ps, end_ps):
                collision = Collision(bus_name, start_ps, existing,
                                      master, command)
                self.collisions.append(collision)
                self.tracer.emit(start_ps, "ddr.collision",
                                 f"{bus_name} collision",
                                 owner=self.trace_owner,
                                 first=existing.master, second=master)
                if self.raise_on_collision:
                    raise BusCollisionError(
                        f"{bus_name} bus collision at {start_ps} ps: "
                        f"{existing.master} ({existing.command}) vs "
                        f"{master} ({command})",
                        time_ps=start_ps,
                        masters=(existing.master, master))
            elif existing.master == master and existing.overlaps(start_ps,
                                                                 end_ps):
                raise ProtocolError(
                    f"{master} overlapped its own {bus_name} slot at "
                    f"{start_ps} ps ({existing.command} vs {command})")
        lane.append(Reservation(master, start_ps, end_ps, command))

    def _prune(self, now_ps):
        horizon = now_ps - self.PRUNE_HORIZON_PS
        if self._ca and self._ca[0].end_ps < horizon:
            self._ca = [r for r in self._ca if r.end_ps >= horizon]
        if self._dq and self._dq[0].end_ps < horizon:
            self._dq = [r for r in self._dq if r.end_ps >= horizon]


def null_bus(cls=SharedBus, raise_on_collision=True):
    return cls(SPEC, NullDevice(), raise_on_collision=raise_on_collision,
               tracer=Tracer(enabled=True))


class TestCACollisions:
    @pytest.mark.sanitizer_exempt
    def test_same_slot_two_masters_collides(self):
        """Fig. 2a C1: NVMC ACT while iMC issues a command."""
        bus = make_bus()
        bus.issue("imc", Command(CommandKind.ACT, bank=0, row=1), 1000)
        with pytest.raises(BusCollisionError):
            bus.issue("nvmc", Command(CommandKind.ACT, bank=1, row=2), 1500)

    def test_disjoint_slots_ok(self):
        bus = make_bus()
        bus.issue("imc", Command(CommandKind.ACT, bank=0, row=1), 0)
        bus.issue("nvmc", Command(CommandKind.ACT, bank=1, row=2),
                  SPEC.clock_ps)
        assert bus.collision_count == 0

    def test_same_master_overlap_is_protocol_error(self):
        bus = make_bus()
        bus.issue("imc", Command(CommandKind.ACT, bank=0, row=1), 0)
        with pytest.raises(ProtocolError):
            bus.issue("imc", Command(CommandKind.ACT, bank=1, row=2),
                      SPEC.clock_ps // 2)

    @pytest.mark.sanitizer_exempt
    def test_record_mode_counts_instead_of_raising(self):
        bus = make_bus(raise_on_collision=False)
        bus.issue("imc", Command(CommandKind.ACT, bank=0, row=1), 0)
        bus.issue("nvmc", Command(CommandKind.ACT, bank=1, row=2), 100)
        assert bus.collision_count == 1
        assert bus.collisions[0].bus == "CA"


class TestDQCollisions:
    @pytest.mark.sanitizer_exempt
    def test_read_data_windows_collide(self):
        """Two masters' read bursts landing together on DQ."""
        bus = make_bus(raise_on_collision=False)
        t = 0
        bus.issue("imc", Command(CommandKind.ACT, bank=0, row=1), t)
        bus.issue("nvmc", Command(CommandKind.ACT, bank=1, row=1),
                  t + SPEC.clock_ps)
        t_rd = t + SPEC.trcd_ps + SPEC.clock_ps
        bus.issue("imc", Command(CommandKind.RD, bank=0, row=1, column=0),
                  t_rd)
        # NVMC read lands 2 clocks later: CA slots are distinct but the
        # tCL-delayed DQ bursts overlap.
        bus.issue("nvmc", Command(CommandKind.RD, bank=1, row=1, column=0),
                  t_rd + 2 * SPEC.clock_ps)
        dq = [c for c in bus.collisions if c.bus == "DQ"]
        assert len(dq) == 1

    def test_spaced_reads_do_not_collide_on_dq(self):
        bus = make_bus()
        t = 0
        bus.issue("imc", Command(CommandKind.ACT, bank=0, row=1), t)
        bus.issue("nvmc", Command(CommandKind.ACT, bank=1, row=1),
                  t + SPEC.clock_ps)
        t_rd = t + SPEC.trcd_ps + SPEC.clock_ps
        bus.issue("imc", Command(CommandKind.RD, bank=0, row=1, column=0),
                  t_rd)
        bus.issue("nvmc", Command(CommandKind.RD, bank=1, row=1, column=0),
                  t_rd + SPEC.burst_time_ps + SPEC.clock_ps)
        assert bus.collision_count == 0


class TestRowClosedUnderReader:
    def test_fig2a_c2_precharge_invalidates_read(self):
        """Fig. 2a C2: iMC precharges the row the NVMC is bursting on."""
        bus = make_bus()
        t = 0
        bus.issue("nvmc", Command(CommandKind.ACT, bank=0, row=7), t)
        # iMC closes the bank (believes it owns it) after tRAS.
        bus.issue("imc", Command(CommandKind.PRE, bank=0), t + SPEC.tras_ps)
        # NVMC's subsequent read hits a precharged bank: protocol error.
        with pytest.raises(ProtocolError, match="precharged bank"):
            bus.issue("nvmc", Command(CommandKind.RD, bank=0, row=7,
                                      column=0),
                      t + SPEC.tras_ps + 2 * SPEC.clock_ps)


class TestSnooping:
    def test_snooper_sees_every_command(self):
        bus = make_bus()
        seen = []
        bus.add_snooper(lambda t, state: seen.append((t, state)))
        bus.issue("imc", Command(CommandKind.PREA), 0)
        bus.issue("imc", Command(CommandKind.REF), SPEC.trp_ps)
        assert len(seen) == 2
        from repro.ddr.commands import is_refresh_state
        assert not is_refresh_state(seen[0][1])
        assert is_refresh_state(seen[1][1])

    def test_commands_issued_counter(self):
        bus = make_bus()
        bus.issue("imc", Command(CommandKind.PREA), 0)
        assert bus.commands_issued == 1


class TestPruning:
    def test_old_reservations_are_pruned(self):
        """Retention stays bounded over a stream spanning ten horizons."""
        bus = null_bus()
        step = 10_000                      # 10 ns: 1000 commands a horizon
        kinds = (CommandKind.ACT, CommandKind.RD, CommandKind.WR,
                 CommandKind.PRE)
        peak = 0
        for i in range(10_000):
            bus.issue(("imc", "nvmc")[i % 2], Command(kinds[i % 4]),
                      i * step)
            peak = max(peak, len(bus._ca) + len(bus._dq))
        assert bus.commands_issued == 10_000
        # One horizon's CA slots stay live, and at most as many bursts.
        assert peak <= 2 * (HORIZON // step + 2)

    def test_reservation_ending_inside_horizon_still_collides(self):
        """A slot ending 1 ps inside the horizon is still checked."""
        bus = null_bus()
        bus.issue("imc", Command(CommandKind.ACT, bank=0, row=1), 0)
        latest = HORIZON + CLOCK - 1       # prunes everything ending < CLOCK - 1
        bus.issue("imc", Command(CommandKind.PRE, bank=0), latest)
        with pytest.raises(BusCollisionError):
            # Steps back exactly one horizon; overlaps [0, CLOCK) by 1 ps.
            bus.issue("nvmc", Command(CommandKind.ACT, bank=1, row=2),
                      latest - HORIZON)


MASTERS = ("imc", "nvmc", "rogue")

#: One stream element: (master index, command kind, bank, time step).
#: Each issue time is the latest one so far plus the step, so no time
#: steps back more than ``PRUNE_HORIZON_PS`` (the bus's contract).  Dense
#: steps make CA and DQ overlaps, whole clocks make slots that just
#: touch, and sparse steps cross the prune horizon.
stream_commands = st.tuples(
    st.integers(0, len(MASTERS) - 1),
    st.sampled_from(list(CommandKind)),
    st.integers(-1, 3),
    st.one_of(st.integers(-4 * CLOCK, 24 * CLOCK),
              st.integers(-4, 24).map(lambda clocks: clocks * CLOCK),
              st.integers(-HORIZON, 2 * HORIZON),
              st.sampled_from([-HORIZON, HORIZON, HORIZON + CLOCK])))


def drive(bus, stream):
    """Issue ``stream``; return everything the bus observably did."""
    traced = []
    bus.tracer.subscribe(traced.append)
    outcomes = []
    latest = 0
    for master, kind, bank, step in stream:
        now = latest + step
        latest = max(latest, now)
        try:
            bus.issue(MASTERS[master], Command(kind, bank=bank), now)
            outcomes.append(None)
        except ProtocolError as exc:
            outcomes.append((type(exc), str(exc),
                             getattr(exc, "time_ps", None),
                             getattr(exc, "masters", None)))
    records = [(r.time_ps, r.category, r.message,
                {k: v for k, v in r.fields.items() if k != "owner"})
               for r in traced]
    return outcomes, bus.collisions, bus.commands_issued, records


class TestLinearScanEquivalence:
    """The indexed lanes report exactly what the linear scan reports."""

    @pytest.mark.parametrize("raise_on_collision", [True, False])
    @settings(max_examples=200, deadline=None)
    @given(stream=st.lists(stream_commands, max_size=80))
    def test_streams_match_linear_scan(self, raise_on_collision, stream):
        indexed = drive(null_bus(SharedBus, raise_on_collision), stream)
        linear = drive(null_bus(LinearScanBus, raise_on_collision), stream)
        assert indexed == linear

    def test_overlaps_are_reported_in_insertion_order(self):
        """One slot overlapping two earlier ones, made later-start first."""
        buses = [null_bus(cls, raise_on_collision=False)
                 for cls in (SharedBus, LinearScanBus)]
        for bus in buses:
            bus.issue("a", Command(CommandKind.NOP), CLOCK)
            bus.issue("b", Command(CommandKind.NOP), 0)
            bus.issue("c", Command(CommandKind.NOP), CLOCK // 2)
        indexed, linear = buses
        assert [(c.bus, c.time_ps, c.first.master, c.second_master)
                for c in indexed.collisions] == [
            ("CA", CLOCK // 2, "a", "c"), ("CA", CLOCK // 2, "b", "c")]
        assert indexed.collisions == linear.collisions

    def test_cross_master_overlap_then_own_slot_error(self):
        """The other master's earlier slot is recorded before the error."""
        for cls in (SharedBus, LinearScanBus):
            bus = null_bus(cls, raise_on_collision=False)
            bus.issue("b", Command(CommandKind.NOP), CLOCK)
            bus.issue("a", Command(CommandKind.NOP), 0)
            with pytest.raises(ProtocolError) as excinfo:
                bus.issue("a", Command(CommandKind.NOP), CLOCK // 2)
            assert type(excinfo.value) is ProtocolError
            assert str(excinfo.value) == (
                f"a overlapped its own CA slot at {CLOCK // 2} ps "
                "(NOP vs NOP)")
            assert [(c.first.master, c.second_master)
                    for c in bus.collisions] == [("b", "a")]
            assert bus.commands_issued == 2


class TestExtendedTrfcSpec:
    def test_bus_accepts_nvdimmc_spec(self):
        bus = make_bus(spec=NVDIMMC_1600)
        bus.issue("imc", Command(CommandKind.REF), 0)
        # Device refresh completes after the JEDEC time, not the
        # programmed time: the gap is the NVMC's window.
        bus.device.maybe_complete_refresh(NVDIMMC_1600.trfc_device_ps)
        from repro.ddr.bank import BankState
        assert bus.device.banks[0].state is BankState.IDLE
