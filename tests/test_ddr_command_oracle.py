"""The one-pass DDR command path against the implementation it replaced.

Every command on the command-accurate shared bus used to build a frozen
``Command``, a ``Reservation`` per bus slot and an ``AddressParts`` per
burst, read ``CommandKind`` and ``BankState`` members off their enum
classes while dispatching, and call one method per bank for REF and
PREA.  The classes below are that implementation, kept verbatim as the
reference oracle: ``Command``, ``Bank``, ``SharedBus`` with its
``(seq, Reservation)`` lanes and ``DDR4Controller`` from ``repro.ddr``,
and ``DRAMDevice.execute`` with its tFAW, refresh and burst helpers as
overrides on a subclass of the live device that builds the oracle's
banks.

A hypothesis property drives both stacks through one random program:
raw ``issue`` calls from three masters with every command kind, bank,
row, column and data length, stepping back up to the prune horizon;
controller ``read``, ``write``, ``precharge_all`` and ``refresh``; and
an ``NVMCProtocolAgent`` draining queued transfers behind each detected
REF, in both ``respect_windows`` modes, with the oracle's agent driving
the oracle controller.  Both buses run in raise and in record mode.
After every step it requires equal return values, exceptions (type,
text, attributes), collisions, live lane entries, ``commands_issued``,
trace records (fields in order), snooper calls, device rows, ACT
history and refresh fields, bank states, timestamps and stats,
controller books, and the agent's stats, queue and detector counts.
Commands are compared as ``(kind, bank, row, column)``: the live
``Command`` is a named tuple, the oracle's a frozen dataclass.

The oracle's banks still count ``row_hits`` and ``row_misses``, which
the live banks dropped; the property checks that the first always
equals reads + writes and the second stays 0, so neither carried
information.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ddr import bus as live_bus
from repro.ddr import commands as live_commands
from repro.ddr import controller as live_controller
from repro.ddr.bank import NEVER, BankState
from repro.ddr.bus import Collision, Reservation, Snooper
from repro.ddr.commands import CAState, CommandKind, DATA_COMMANDS, encode
from repro.ddr.device import AddressParts, DRAMDevice
from repro.ddr.spec import DDR4Spec, NVDIMMC_1600
from repro.errors import (BusCollisionError, ProtocolError, ReproError,
                          TimingViolationError)
from repro.nvmc.agent import NVMCProtocolAgent
from repro.sim.trace import Tracer, default_tracer, next_owner
from repro.units import mb

# -- the replaced implementation, verbatim: the oracle ------------------------

@dataclass(frozen=True)
class Command:
    """A decoded DDR4 command with its address payload.

    ``bank`` is a flat bank index (group * banks_per_group + bank),
    ``row``/``column`` are used by ACT/RD/WR respectively.  Non-addressed
    commands (REF, PREA, ...) leave them at -1.
    """

    kind: CommandKind
    bank: int = -1
    row: int = -1
    column: int = -1

    @property
    def ca_state(self) -> CAState:
        """The pin state this command puts on the CA bus."""
        return encode(self.kind)

    def __str__(self) -> str:
        parts = [self.kind.name]
        if self.bank >= 0:
            parts.append(f"b{self.bank}")
        if self.row >= 0:
            parts.append(f"r{self.row}")
        if self.column >= 0:
            parts.append(f"c{self.column}")
        return " ".join(parts)


@dataclass
class Bank:
    """One bank: open-row bookkeeping plus last-event timestamps."""

    index: int
    spec: DDR4Spec
    state: BankState = BankState.IDLE
    open_row: int = -1
    last_act_ps: int = NEVER
    last_pre_ps: int = NEVER
    last_rdwr_ps: int = NEVER
    last_write_end_ps: int = NEVER
    stats: dict[str, int] = field(default_factory=lambda: {
        "activates": 0, "reads": 0, "writes": 0, "precharges": 0,
        "row_hits": 0, "row_misses": 0,
    })

    # -- command legality ---------------------------------------------------

    def activate(self, row: int, now_ps: int) -> None:
        """Open ``row``; bank must be idle and past tRP since precharge."""
        if self.state is BankState.REFRESHING:
            raise ProtocolError(
                f"bank {self.index}: ACT during refresh (tRFC window)")
        if self.state is BankState.ACTIVE:
            raise ProtocolError(
                f"bank {self.index}: ACT while row {self.open_row} is open")
        if now_ps < self.last_pre_ps + self.spec.trp_ps:
            raise TimingViolationError(
                f"bank {self.index}: ACT violates tRP "
                f"({now_ps} < {self.last_pre_ps + self.spec.trp_ps})")
        self.state = BankState.ACTIVE
        self.open_row = row
        self.last_act_ps = now_ps
        self.stats["activates"] += 1

    def read(self, row: int, now_ps: int) -> None:
        """Column read; the addressed row must be the open one.

        A READ to a row that another master just precharged is exactly
        case C2 of Fig. 2a — it surfaces here as a ProtocolError.
        """
        self._check_column_access(row, now_ps, "RD")
        self.last_rdwr_ps = now_ps
        self.stats["reads"] += 1

    def write(self, row: int, now_ps: int) -> None:
        """Column write; records write-recovery end for the tWR check."""
        self._check_column_access(row, now_ps, "WR")
        self.last_rdwr_ps = now_ps
        data_end = now_ps + self.spec.cwl_ps + self.spec.burst_time_ps
        self.last_write_end_ps = data_end
        self.stats["writes"] += 1

    def precharge(self, now_ps: int) -> None:
        """Close the open row (no-op when already idle, as on silicon)."""
        if self.state is BankState.REFRESHING:
            raise ProtocolError(
                f"bank {self.index}: PRE during refresh (tRFC window)")
        if self.state is BankState.IDLE:
            return
        if now_ps < self.last_act_ps + self.spec.tras_ps:
            raise TimingViolationError(
                f"bank {self.index}: PRE violates tRAS")
        if now_ps < self.last_write_end_ps + self.spec.twr_ps:
            raise TimingViolationError(
                f"bank {self.index}: PRE violates tWR (write recovery)")
        self.state = BankState.IDLE
        self.open_row = -1
        self.last_pre_ps = now_ps
        self.stats["precharges"] += 1

    def begin_refresh(self, now_ps: int) -> None:
        """Enter the refresh cycle; requires the bank to be precharged.

        DDR4 has no per-bank refresh, so the memory controller must have
        issued PREA first (§III-B) — an ACT-to-REF here is a protocol
        error the simulator reports.
        """
        if self.state is BankState.ACTIVE:
            raise ProtocolError(
                f"bank {self.index}: REF while row {self.open_row} open "
                "(controller must PREA before REFRESH)")
        self.state = BankState.REFRESHING

    def end_refresh(self, now_ps: int) -> None:
        """Leave the refresh cycle (called tRFC_device after REF).

        JEDEC allows ACT immediately once tRFC elapses (the precharge is
        internal to the refresh), so the tRP reference is backdated.
        """
        if self.state is not BankState.REFRESHING:
            raise ProtocolError(f"bank {self.index}: end_refresh while idle")
        self.state = BankState.IDLE
        self.last_pre_ps = now_ps - self.spec.trp_ps

    # -- helpers -------------------------------------------------------------

    def _check_column_access(self, row: int, now_ps: int, what: str) -> None:
        if self.state is BankState.REFRESHING:
            raise ProtocolError(
                f"bank {self.index}: {what} during refresh (tRFC window)")
        if self.state is not BankState.ACTIVE:
            raise ProtocolError(
                f"bank {self.index}: {what} to precharged bank "
                "(row was closed under the requester — Fig. 2a C2)")
        if self.open_row != row:
            raise ProtocolError(
                f"bank {self.index}: {what} row {row} but row "
                f"{self.open_row} is open")
        if now_ps < self.last_act_ps + self.spec.trcd_ps:
            raise TimingViolationError(
                f"bank {self.index}: {what} violates tRCD")
        if now_ps < self.last_rdwr_ps + self.spec.tccd_ps:
            raise TimingViolationError(
                f"bank {self.index}: {what} violates tCCD")
        if self.open_row == row:
            self.stats["row_hits"] += 1


class _Lane:
    """The live reservations of one bus (CA or DQ), sorted by start time.

    ``starts`` holds the sorted start times and ``entries`` the matching
    ``(seq, reservation)`` pairs, ``seq`` being the order in which the
    bus made them.  No reservation in the lane is longer than
    ``longest``, so every one that can overlap ``[start, end)`` starts
    inside ``(start - longest, end)``: two bisections find them all.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.entries: list[tuple[int, Reservation]] = []
        self.longest = 0

    def __len__(self) -> int:
        return len(self.starts)


class SharedBus:
    """One memory channel shared by the host iMC and the NVMC.

    Each bus keeps its live reservations in a :class:`_Lane` indexed by
    start time.  A new reservation is checked only against those that
    start within one reservation length before it, and the overlaps are
    reported in the order the overlapped reservations were made.  The
    ``collisions`` list and every raised error are therefore those of a
    scan over all live reservations in that order.

    Contract: no issue time steps back more than ``PRUNE_HORIZON_PS``
    behind the latest one.  Pruning drops reservations that ended more
    than ``PRUNE_HORIZON_PS`` before the issue time that prunes them, so
    under the contract no later reservation can overlap one it dropped.
    """

    #: Reservations older than this are pruned (nothing checks that far back).
    PRUNE_HORIZON_PS = 10_000_000  # 10 us

    def __init__(self, spec: DDR4Spec, device: DRAMDevice,
                 raise_on_collision: bool = True,
                 tracer: Tracer | None = None) -> None:
        self.spec = spec
        self.device = device
        self.raise_on_collision = raise_on_collision
        self.tracer = tracer if tracer is not None else default_tracer()
        self.trace_owner = next_owner(f"bus.{device.name}")
        self._ca = _Lane()
        self._dq = _Lane()
        self._seq = 0   # reservations made, both lanes: their report order
        self.collisions: list[Collision] = []
        self.commands_issued = 0
        self._snoopers: list[Snooper] = []

    # -- snooping ---------------------------------------------------------------

    def add_snooper(self, snooper: Snooper) -> None:
        """Register an observer of every CA-bus state (the FPGA tap)."""
        self._snoopers.append(snooper)

    # -- issue -------------------------------------------------------------------

    def issue(self, master: str, command: Command, now_ps: int,
              data: bytes | None = None) -> bytes | None:
        """Drive ``command`` onto the bus at ``now_ps``.

        Returns read data for RD/RDA.  Collisions are raised or recorded
        according to ``raise_on_collision``; a *recorded* collision still
        lets the command through so aging experiments can keep running
        and count every corruption opportunity.
        """
        self.device.maybe_complete_refresh(now_ps)

        ca_end = now_ps + self.spec.clock_ps
        self._reserve(self._ca, "CA", master, command, now_ps, ca_end)

        dq_start = dq_end = None
        if command.kind in DATA_COMMANDS:
            if command.kind in (CommandKind.RD, CommandKind.RDA):
                dq_start = now_ps + self.spec.tcl_ps
            else:
                dq_start = now_ps + self.spec.cwl_ps
            dq_end = dq_start + self.spec.burst_time_ps
            self._reserve(self._dq, "DQ", master, command, dq_start, dq_end)

        self.commands_issued += 1
        if self.tracer.enabled:
            self._trace_command(master, command, now_ps, ca_end,
                                dq_start, dq_end)
        self._prune(now_ps)
        result = self.device.execute(command, now_ps, data=data)

        # Snoopers run after the device state change: a detector-armed
        # transfer (later in simulated time) must observe the refresh
        # already in progress, exactly as on real silicon.
        for snooper in self._snoopers:
            snooper(now_ps, command.ca_state)
        return result

    # -- internals ------------------------------------------------------------------

    def _trace_command(self, master: str, command: Command, now_ps: int,
                       ca_end: int, dq_start: int | None,
                       dq_end: int | None) -> None:
        """Emit a structured ``ddr.cmd`` record.

        The record is self-describing for the ``repro.check`` sanitizers:
        the bus occupancy intervals it just reserved, and — on REF — the
        extended-tRFC device window the refresh opens, so observers need
        no spec of their own.
        """
        fields: dict[str, object] = {
            "master": master,
            "owner": self.trace_owner,
            "kind": command.kind.name,
            "bank": command.bank,
            "ca_end": ca_end,
        }
        if dq_start is not None:
            fields["dq_start"] = dq_start
            fields["dq_end"] = dq_end
        if command.kind is CommandKind.REF:
            fields["win_start"] = now_ps + self.spec.trfc_device_ps
            fields["win_end"] = now_ps + self.spec.trfc_ps
        self.tracer.emit(now_ps, "ddr.cmd", command, **fields)

    def _reserve(self, lane: _Lane, bus_name: str, master: str,
                 command: Command, start_ps: int, end_ps: int) -> None:
        starts = lane.starts
        lo = bisect_right(starts, start_ps - lane.longest)
        hi = bisect_left(starts, end_ps, lo)
        if lo < hi:
            overlapped = sorted(entry for entry in lane.entries[lo:hi]
                                if entry[1].end_ps > start_ps)
            for _seq, existing in overlapped:
                if existing.master != master:
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
                else:
                    raise ProtocolError(
                        f"{master} overlapped its own {bus_name} slot at "
                        f"{start_ps} ps ({existing.command} vs {command})")
        self._seq += 1
        at = bisect_right(starts, start_ps, lo)
        starts.insert(at, start_ps)
        lane.entries.insert(at, (self._seq, Reservation(
            master, start_ps, end_ps, command)))
        if end_ps - start_ps > lane.longest:
            lane.longest = end_ps - start_ps

    def _prune(self, now_ps: int) -> None:
        horizon = now_ps - self.PRUNE_HORIZON_PS
        for lane in (self._ca, self._dq):
            # A reservation starting before ``cut`` ended before the horizon.
            cut = horizon - lane.longest
            starts = lane.starts
            if starts and starts[0] < cut:
                drop = bisect_left(starts, cut)
                del starts[:drop]
                del lane.entries[:drop]

    @property
    def collision_count(self) -> int:
        return len(self.collisions)


class OracleDRAM(DRAMDevice):
    """The live device with the oracle's banks and the replaced command
    execution and refresh machinery."""

    def __init__(self, spec: DDR4Spec, capacity_bytes: int | None = None,
                 name: str = "dram") -> None:
        super().__init__(spec, capacity_bytes, name)
        self.banks = [Bank(i, spec) for i in range(spec.total_banks)]

    def execute(self, command: Command, now_ps: int,
                data: bytes | None = None) -> bytes | None:
        """Apply a command; returns read data for RD/RDA.

        The caller (bus) has already arbitrated the command slot; this
        method enforces bank-level legality and timing.
        """
        kind = command.kind
        if self.in_self_refresh and kind is not CommandKind.SRX:
            raise ProtocolError(
                f"{self.name}: {kind.name} while in self-refresh")

        if kind in (CommandKind.DES, CommandKind.NOP, CommandKind.ZQCL,
                    CommandKind.MRS):
            return None
        if kind is CommandKind.ACT:
            self._check_tfaw(now_ps)
            self.banks[command.bank].activate(command.row, now_ps)
            self._act_history.append(now_ps)
            if len(self._act_history) > 4:
                self._act_history.pop(0)
            return None
        if kind in (CommandKind.RD, CommandKind.RDA):
            bank = self.banks[command.bank]
            bank.read(command.row, now_ps)
            out = self._burst_read(command)
            if kind is CommandKind.RDA:
                bank.state = BankState.IDLE
                bank.open_row = -1
                bank.last_pre_ps = now_ps
            return out
        if kind in (CommandKind.WR, CommandKind.WRA):
            if data is None or len(data) != self.spec.burst_bytes:
                raise ProtocolError(
                    f"{self.name}: WR needs exactly one burst of "
                    f"{self.spec.burst_bytes} bytes")
            bank = self.banks[command.bank]
            bank.write(command.row, now_ps)
            self._burst_write(command, data)
            if kind is CommandKind.WRA:
                bank.state = BankState.IDLE
                bank.open_row = -1
                bank.last_pre_ps = now_ps
            return None
        if kind is CommandKind.PRE:
            self.banks[command.bank].precharge(now_ps)
            return None
        if kind is CommandKind.PREA:
            for bank in self.banks:
                bank.precharge(now_ps)
            return None
        if kind is CommandKind.REF:
            self._begin_refresh(now_ps)
            return None
        if kind is CommandKind.SRE:
            self._begin_refresh(now_ps)
            self.in_self_refresh = True
            return None
        if kind is CommandKind.SRX:
            self.in_self_refresh = False
            return None
        raise ProtocolError(f"{self.name}: unhandled command {command}")

    def _check_tfaw(self, now_ps: int) -> None:
        from repro.errors import TimingViolationError
        if (len(self._act_history) == 4
                and now_ps - self._act_history[0] < self.spec.tfaw_ps):
            raise TimingViolationError(
                f"{self.name}: fifth ACT within tFAW "
                f"({now_ps - self._act_history[0]} ps since the fourth-"
                f"last, tFAW={self.spec.tfaw_ps} ps)")

    def _begin_refresh(self, now_ps: int) -> None:
        for bank in self.banks:
            bank.begin_refresh(now_ps)
        self.refresh_end_ps = now_ps + self.spec.trfc_device_ps
        self.refresh_row_counter = (
            (self.refresh_row_counter + 1) % 8192)
        self.refreshes_done += 1

    def complete_refresh(self, now_ps: int) -> None:
        """Called tRFC_device after REF: banks become usable again."""
        for bank in self.banks:
            if bank.state is BankState.REFRESHING:
                bank.end_refresh(now_ps)

    def maybe_complete_refresh(self, now_ps: int) -> None:
        """Idempotent refresh completion for pull-style callers.

        Completion is timestamped at the actual refresh end, not at the
        (possibly much later) observation time, so post-refresh timing
        references are accurate.
        """
        if (self.refresh_end_ps >= 0 and now_ps >= self.refresh_end_ps
                and self.banks[0].state is BankState.REFRESHING):
            self.complete_refresh(self.refresh_end_ps)
    def _burst_read(self, command: Command) -> bytes:
        buf = self._row_buffer(command.bank, command.row)
        start = command.column * self.spec.burst_bytes
        return bytes(buf[start:start + self.spec.burst_bytes])

    def _burst_write(self, command: Command, data: bytes) -> None:
        buf = self._row_buffer(command.bank, command.row)
        start = command.column * self.spec.burst_bytes
        buf[start:start + self.spec.burst_bytes] = data


class DDR4Controller:
    """Command-sequence generator for one bus master."""

    def __init__(self, name: str, spec: DDR4Spec, bus: SharedBus) -> None:
        self.name = name
        self.spec = spec
        self.bus = bus
        # Controller-side belief of each bank's open row (-1 = closed).
        self.open_rows: dict[int, int] = {}
        self._bank_act_ps: dict[int, int] = {}
        self._bank_write_end_ps: dict[int, int] = {}
        self._recent_acts: list[int] = []     # tFAW pacing
        self.busy_until_ps = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- public transfer API -------------------------------------------------------

    def read(self, addr: int, nbytes: int, start_ps: int) -> tuple[bytes, int]:
        """Read ``nbytes`` beginning at ``addr``; returns (data, end_ps).

        ``end_ps`` is the time the last data beat lands (tCL + burst after
        the final RD command).
        """
        self._check_alignment(addr, nbytes)
        t = max(start_ps, self.busy_until_ps)
        out = bytearray()
        last_cmd_ps = t
        for burst_addr in self._bursts(addr, nbytes):
            parts = self.bus.device.decode(burst_addr)
            t = self._prepare_row(parts, t)
            column = parts.column_byte // self.spec.burst_bytes
            data = self.bus.issue(self.name, Command(
                CommandKind.RD, bank=parts.bank, row=parts.row,
                column=column), t)
            out.extend(data or b"")
            last_cmd_ps = t
            t += self.spec.tccd_ps
        end_ps = last_cmd_ps + self.spec.tcl_ps + self.spec.burst_time_ps
        self.busy_until_ps = max(self.busy_until_ps, t)
        self.bytes_read += nbytes
        return bytes(out), end_ps

    def write(self, addr: int, data: bytes, start_ps: int) -> int:
        """Write ``data`` at ``addr``; returns the end-of-data time."""
        self._check_alignment(addr, len(data))
        t = max(start_ps, self.busy_until_ps)
        last_cmd_ps = t
        burst = self.spec.burst_bytes
        for i, burst_addr in enumerate(self._bursts(addr, len(data))):
            parts = self.bus.device.decode(burst_addr)
            t = self._prepare_row(parts, t)
            column = parts.column_byte // burst
            chunk = data[i * burst:(i + 1) * burst]
            self.bus.issue(self.name, Command(
                CommandKind.WR, bank=parts.bank, row=parts.row,
                column=column), t, data=chunk)
            self._bank_write_end_ps[parts.bank] = (
                t + self.spec.cwl_ps + self.spec.burst_time_ps)
            last_cmd_ps = t
            t += self.spec.tccd_ps
        end_ps = last_cmd_ps + self.spec.cwl_ps + self.spec.burst_time_ps
        self.busy_until_ps = max(self.busy_until_ps, t)
        self.bytes_written += len(data)
        return end_ps

    def precharge_all(self, start_ps: int) -> int:
        """Issue PREA (close every bank); returns completion time.

        tRAS of the most recent ACT still applies; the controller waits
        it out rather than violating it.
        """
        t = max(start_ps, self.busy_until_ps)
        t = max(t, self._earliest_prea(t))
        self.bus.issue(self.name, Command(CommandKind.PREA), t)
        self.open_rows.clear()
        self._bank_act_ps.clear()
        self._bank_write_end_ps.clear()
        end_ps = t + self.spec.trp_ps
        self.busy_until_ps = max(self.busy_until_ps, end_ps)
        return end_ps

    def refresh(self, start_ps: int) -> int:
        """Issue REF; banks must already be precharged (PREA first)."""
        t = max(start_ps, self.busy_until_ps)
        self.bus.issue(self.name, Command(CommandKind.REF), t)
        end_ps = t + self.spec.trfc_ps
        self.busy_until_ps = max(self.busy_until_ps, end_ps)
        return end_ps

    def forget_open_rows(self) -> None:
        """Drop the open-row book (after refresh closed everything)."""
        self.open_rows.clear()
        self._bank_act_ps.clear()
        self._bank_write_end_ps.clear()

    # -- internals ----------------------------------------------------------------------

    def _check_alignment(self, addr: int, nbytes: int) -> None:
        burst = self.spec.burst_bytes
        if addr % burst or nbytes % burst or nbytes == 0:
            raise ProtocolError(
                f"{self.name}: transfer must be whole bursts of {burst} B "
                f"(addr={addr:#x}, nbytes={nbytes})")

    def _bursts(self, addr: int, nbytes: int) -> list[int]:
        burst = self.spec.burst_bytes
        return [addr + i * burst for i in range(nbytes // burst)]

    def _earliest_prea(self, t: int) -> int:
        earliest = t
        for bank, act_ps in self._bank_act_ps.items():
            if self.open_rows.get(bank, -1) >= 0:
                earliest = max(earliest, act_ps + self.spec.tras_ps)
                write_end = self._bank_write_end_ps.get(bank)
                if write_end is not None:
                    earliest = max(earliest, write_end + self.spec.twr_ps)
        return earliest

    def _prepare_row(self, parts: AddressParts, t: int) -> int:
        """Ensure the burst's row is open; returns the command-issue time."""
        current = self.open_rows.get(parts.bank, -1)
        if current == parts.row:
            return t
        if current >= 0:
            act_ps = self._bank_act_ps.get(parts.bank, -10**18)
            pre_t = max(t, act_ps + self.spec.tras_ps)
            write_end = self._bank_write_end_ps.get(parts.bank)
            if write_end is not None:
                pre_t = max(pre_t, write_end + self.spec.twr_ps)
            self.bus.issue(self.name, Command(
                CommandKind.PRE, bank=parts.bank), pre_t)
            t = pre_t + self.spec.trp_ps
        # tFAW pacing: defer the fifth ACT of any rolling window.
        if len(self._recent_acts) == 4:
            t = max(t, self._recent_acts[0] + self.spec.tfaw_ps)
        self.bus.issue(self.name, Command(
            CommandKind.ACT, bank=parts.bank, row=parts.row), t)
        self._recent_acts.append(t)
        if len(self._recent_acts) > 4:
            self._recent_acts.pop(0)
        self.open_rows[parts.bank] = parts.row
        self._bank_act_ps[parts.bank] = t
        return t + self.spec.trcd_ps


# -- the differential ---------------------------------------------------------

SPEC = NVDIMMC_1600
CAPACITY = mb(1)
CLOCK = SPEC.clock_ps
BURST = SPEC.burst_bytes
ROW = SPEC.row_size_bytes
HORIZON = live_bus.SharedBus.PRUNE_HORIZON_PS
MASTERS = ("imc", "nvmc", "rogue")

LIVE = (live_commands.Command, live_bus.SharedBus, DRAMDevice,
        live_controller.DDR4Controller)
ORACLE = (Command, SharedBus, OracleDRAM, DDR4Controller)


class Stack:
    """One side of the differential: device, bus, an iMC-side controller
    and a protocol agent whose controller is this side's."""

    def __init__(self, classes, raise_on_collision: bool,
                 respect_windows: bool) -> None:
        self.command, bus_cls, device_cls, controller_cls = classes
        self.device = device_cls(SPEC, capacity_bytes=CAPACITY)
        tracer = Tracer(enabled=True)
        self.records: list = []
        tracer.subscribe(self.records.append)
        self.bus = bus_cls(SPEC, self.device,
                           raise_on_collision=raise_on_collision,
                           tracer=tracer)
        self.snooped: list[tuple[int, CAState]] = []
        self.bus.add_snooper(lambda t, state: self.snooped.append((t, state)))
        self.imc = controller_cls("imc", SPEC, self.bus)
        self.agent = NVMCProtocolAgent(SPEC, self.bus,
                                       respect_windows=respect_windows)
        self.agent.controller = controller_cls(self.agent.name, SPEC,
                                               self.bus)

    def run(self, step: tuple, now: int) -> object:
        tag = step[0]
        if tag == "issue":
            master, kind, bank, row, column, data_len = step[1:7]
            data = None if data_len is None else _payload(data_len, bank)
            return self.bus.issue(MASTERS[master],
                                  self.command(kind, bank, row, column),
                                  now, data=data)
        if tag == "open":
            # ACT, then a column command on the row it opened, tRCD later.
            master, kind, bank, row, column, data_len = step[1:7]
            self.bus.issue(MASTERS[master],
                           self.command(CommandKind.ACT, bank, row), now)
            data = None if data_len is None else _payload(data_len, row)
            return self.bus.issue(MASTERS[master],
                                  self.command(kind, bank, row, column),
                                  now + SPEC.trcd_ps, data=data)
        if tag == "read":
            return self.imc.read(step[1], step[2], now)
        if tag == "write":
            return self.imc.write(step[1], _payload(step[2], step[3]), now)
        if tag == "prea":
            return self.imc.precharge_all(now)
        if tag == "ref":
            return self.imc.refresh(now)
        if tag == "refresh":
            # The iMC's sequence: PREA, REF, then its open-row book goes.
            end = self.imc.precharge_all(now)
            end = self.imc.refresh(end)
            self.imc.forget_open_rows()
            return end
        assert tag == "queue"
        addr, nbytes, fill = step[1:4]
        transfer = (self.agent.queue_read(addr, nbytes) if fill is None
                    else self.agent.queue_write(addr, _payload(nbytes, fill)))
        return (transfer.addr, transfer.nbytes)


def _payload(nbytes: int, fill: int) -> bytes:
    return bytes((fill + i) % 256 for i in range(nbytes))


def _cmd(command) -> tuple:
    return (command.kind, command.bank, command.row, command.column)


def _outcome(stack: Stack, step: tuple, now: int) -> tuple:
    try:
        return ("ok", stack.run(step, now))
    except ReproError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "time_ps", None),
                getattr(exc, "masters", None))


def _lane(lane) -> tuple:
    """Live reservations as ``(seq, master, start, end, command)``."""
    entries = []
    for entry in lane.entries:
        if isinstance(entry[1], Reservation):
            seq, r = entry
            entry = (seq, r.master, r.start_ps, r.end_ps, r.command)
        entries.append(entry[:4] + (_cmd(entry[4]),))
    return lane.starts, entries, lane.longest


def _bank(bank) -> tuple:
    stats = dict(bank.stats)
    if isinstance(bank, Bank):
        # The counters the live bank dropped carried nothing: a column
        # access raises unless it hits the open row, and nothing counts
        # a miss.
        assert stats.pop("row_hits") == stats["reads"] + stats["writes"]
        assert stats.pop("row_misses") == 0
    return (bank.index, bank.state, bank.open_row, bank.last_act_ps,
            bank.last_pre_ps, bank.last_rdwr_ps, bank.last_write_end_ps,
            stats)


def _books(controller) -> tuple:
    return (controller.open_rows, controller._bank_act_ps,
            controller._bank_write_end_ps, controller._recent_acts,
            controller.busy_until_ps, controller.bytes_read,
            controller.bytes_written)


def _state(stack: Stack) -> tuple:
    bus, device, agent = stack.bus, stack.device, stack.agent
    detector = agent.detector
    return (
        [(c.bus, c.time_ps, c.first.master, c.first.start_ps,
          c.first.end_ps, _cmd(c.first.command), c.second_master,
          _cmd(c.second_command)) for c in bus.collisions],
        bus.commands_issued, bus._seq, _lane(bus._ca), _lane(bus._dq),
        [(r.time_ps, r.category, r.message,
          _cmd(r._message) if r.category == "ddr.cmd" else None,
          [(k, v) for k, v in r.fields.items() if k != "owner"])
         for r in stack.records],
        stack.snooped,
        device._rows, device._act_history, device.refresh_row_counter,
        device.refreshes_done, device.in_self_refresh, device.refresh_end_ps,
        [_bank(bank) for bank in device.banks],
        _books(stack.imc), _books(agent.controller),
        agent.stats, agent._queue,
        (detector.detections, detector.true_positives,
         detector.false_positives, detector.false_negatives,
         detector.commands_observed),
    )


_GAPS = st.one_of(
    st.integers(-4 * CLOCK, 24 * CLOCK),
    st.integers(-4, 24).map(lambda clocks: clocks * CLOCK),
    st.sampled_from([SPEC.trrd_ps, SPEC.trcd_ps, SPEC.tras_ps,
                     SPEC.trfc_device_ps, SPEC.trfc_ps, SPEC.trefi_ps]),
    st.integers(-HORIZON, 2 * HORIZON),
    st.sampled_from([-HORIZON, HORIZON]))
_CONTROLLER_GAPS = st.sampled_from(
    [0, CLOCK, -CLOCK, SPEC.tras_ps, SPEC.trefi_ps, 10 * SPEC.trefi_ps])
#: Row-interleaved addresses: rows 0/16/32 share bank 0, so row misses
#: happen.  One draw in eight is the last burst, one past the end or
#: misaligned.
_ROW_ADDRS = st.builds(lambda row, col: row * ROW + col * BURST,
                       st.sampled_from([0, 1, 2, 16, 17, 32, 127]),
                       st.integers(0, ROW // BURST - 1))
_ADDRS = st.one_of(*[_ROW_ADDRS] * 7, st.sampled_from(
    [CAPACITY - BURST, CAPACITY, 1, BURST + 3]))
_SIZES = st.sampled_from([BURST, 2 * BURST, 3 * BURST, 8 * BURST, BURST,
                          2 * BURST, 64 * BURST, 0, BURST - 1])
#: Agent transfers: one page fills a window, a larger one never fits.
_TRANSFER_SIZES = st.sampled_from([BURST, 8 * BURST, 64 * BURST, BURST,
                                   8 * BURST, 64 * BURST, 65 * BURST])

#: One program step.  The ACT-then-column pair and the iMC refresh are
#: drawn twice as often, and aligned agent transfers three times, so
#: column commands hit open rows and queued transfers get drained.
_STEPS = st.one_of(
    st.tuples(st.just("issue"), st.integers(0, len(MASTERS) - 1),
              st.sampled_from(list(CommandKind)), st.integers(-1, 3),
              st.sampled_from([-1, 0, 1, 5]),
              st.sampled_from([-1, 0, 1, ROW // BURST]),
              st.sampled_from([None, BURST, BURST, BURST - 1, 0]), _GAPS),
    *[st.tuples(st.just("open"), st.integers(0, len(MASTERS) - 1),
                st.sampled_from([CommandKind.RD, CommandKind.RDA,
                                 CommandKind.WR, CommandKind.WRA]),
                st.integers(-1, 3), st.sampled_from([0, 1, 5]),
                st.sampled_from([0, 1, ROW // BURST - 1]),
                st.sampled_from([BURST, BURST, None, BURST + 1]),
                _GAPS)] * 2,
    st.tuples(st.just("read"), _ADDRS, _SIZES, _CONTROLLER_GAPS),
    st.tuples(st.just("write"), _ADDRS, _SIZES, st.integers(0, 255),
              _CONTROLLER_GAPS),
    st.tuples(st.just("prea"), _CONTROLLER_GAPS),
    st.tuples(st.just("ref"), _CONTROLLER_GAPS),
    *[st.tuples(st.just("refresh"), _CONTROLLER_GAPS)] * 2,
    *[st.tuples(st.just("queue"), _ROW_ADDRS, _TRANSFER_SIZES,
                st.one_of(st.none(), st.integers(0, 255)))] * 3,
    st.tuples(st.just("queue"), _ADDRS, _TRANSFER_SIZES,
              st.one_of(st.none(), st.integers(0, 255))),
)

K = CommandKind


def _issue(master, kind, gap, bank=-1, row=-1, column=-1, data_len=None):
    return ("issue", MASTERS.index(master), kind, bank, row, column,
            data_len, gap)


@pytest.mark.sanitizer_exempt
@settings(max_examples=150, deadline=None)
@given(program=st.lists(_STEPS, min_size=1, max_size=25),
       raise_on_collision=st.booleans(), respect_windows=st.booleans())
# The other master's slot is recorded before the own-slot error.
@example(program=[_issue("nvmc", K.NOP, CLOCK), _issue("imc", K.NOP, -CLOCK),
                  _issue("imc", K.NOP, -CLOCK // 2)],
         raise_on_collision=False, respect_windows=True)
# A WR of the wrong length, or with no data.
@example(program=[_issue("imc", K.ACT, 0, bank=0, row=0),
                  _issue("imc", K.WR, SPEC.trcd_ps, 0, 0, 0, BURST - 1),
                  _issue("imc", K.WRA, SPEC.tccd_ps, 0, 0, 1, None),
                  _issue("imc", K.WRA, SPEC.tccd_ps, 0, 0, 1, BURST),
                  _issue("imc", K.WR, SPEC.tccd_ps, 0, 0, 2, BURST)],
         raise_on_collision=True, respect_windows=True)
# RDA closes its bank; the RD behind it finds the bank precharged.
@example(program=[_issue("imc", K.ACT, 0, bank=1, row=3),
                  _issue("imc", K.RDA, SPEC.trcd_ps, 1, 3, 0),
                  _issue("imc", K.RD, SPEC.tccd_ps, 1, 3, 1)],
         raise_on_collision=True, respect_windows=True)
# A burst address past the end, after a first burst that went out.
@example(program=[("write", CAPACITY - BURST, 2 * BURST, 7, 0),
                  ("read", CAPACITY - BURST, 2 * BURST, CLOCK)],
         raise_on_collision=True, respect_windows=True)
# REF with bank 2 open: banks 0 and 1 are left refreshing.
@example(program=[_issue("imc", K.ACT, 0, bank=2, row=1),
                  _issue("imc", K.REF, SPEC.tras_ps),
                  _issue("imc", K.ACT, SPEC.trfc_ps, bank=0, row=1)],
         raise_on_collision=True, respect_windows=True)
# PRE and PREA during refresh.
@example(program=[_issue("imc", K.REF, 0), _issue("imc", K.PRE, CLOCK, 3),
                  _issue("imc", K.PREA, CLOCK)],
         raise_on_collision=True, respect_windows=True)
# Commands in self-refresh, then out of it.
@example(program=[_issue("imc", K.SRE, 0),
                  _issue("imc", K.ACT, CLOCK, bank=0, row=0),
                  _issue("imc", K.SRX, CLOCK),
                  _issue("imc", K.ACT, SPEC.trfc_ps, bank=0, row=0)],
         raise_on_collision=True, respect_windows=True)
# A fifth ACT inside tFAW, then one exactly tFAW after the first.
@example(program=[_issue("imc", K.ACT, 0 if b == 0 else SPEC.trrd_ps,
                         bank=b, row=0) for b in range(5)]
         + [_issue("imc", K.ACT, SPEC.tfaw_ps - 4 * SPEC.trrd_ps, bank=5,
                   row=0)],
         raise_on_collision=True, respect_windows=True)
# The agent drains a page behind the iMC's refresh, in both window modes.
@example(program=[("queue", 0, 64 * BURST, 5), ("queue", ROW, BURST, None),
                  ("write", 16 * ROW, 2 * BURST, 1, 0), ("refresh", 0),
                  ("refresh", SPEC.trefi_ps)],
         raise_on_collision=True, respect_windows=True)
@example(program=[("queue", 0, 64 * BURST, 5), ("refresh", 0)],
         raise_on_collision=False, respect_windows=False)
def test_command_path_matches_oracle(program, raise_on_collision,
                                     respect_windows):
    live = Stack(LIVE, raise_on_collision, respect_windows)
    oracle = Stack(ORACLE, raise_on_collision, respect_windows)
    latest = seen = 0
    for step in program:
        now = latest if step[0] == "queue" else latest + step[-1]
        got = _outcome(live, step, now)
        assert got == _outcome(oracle, step, now), step
        assert _state(live) == _state(oracle), step
        # Steps are gaps from the latest issue time seen, so no issue
        # steps back more than the prune horizon (the bus's contract).
        latest = max([latest, now] + [t for t, _ in live.snooped[seen:]])
        seen = len(live.snooped)
