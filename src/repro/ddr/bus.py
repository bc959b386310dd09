"""The shared CA/DQ memory bus with multi-master collision detection.

This is where the paper's central hazard lives.  On NVDIMM-C the DRAM
cache's command/address and data pins are wired to *both* the host iMC
and the device-side NVMC (§III-B), and standard DDR4 offers no
request/grant handshake, so nothing in the protocol prevents the two
masters from driving the bus in the same command slot.

The bus model reserves:

* a CA-bus slot of one clock per command, and
* a DQ-bus window per data command (RD: ``[t+tCL, t+tCL+burst)``;
  WR: ``[t+tCWL, t+tCWL+burst)``),

and flags any overlap between *different* masters as a collision —
either raising :class:`~repro.errors.BusCollisionError` (default) or
recording it, which the validation experiments use to count how often an
unserialised design would corrupt the channel.

Snoopers (the NVMC's refresh detector) observe the raw CA pin state of
every issued command, exactly as the FPGA taps the routed CA wires.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.ddr.commands import CAState, Command, CommandKind, DATA_COMMANDS
from repro.ddr.device import DRAMDevice
from repro.ddr.spec import DDR4Spec
from repro.errors import BusCollisionError, ProtocolError
from repro.sim.trace import Tracer, default_tracer, next_owner


class BusMaster(Protocol):
    """Anything that issues commands: needs only a stable ``name``."""

    name: str


@dataclass(frozen=True)
class Reservation:
    """A half-open occupancy interval on one of the buses."""

    master: str
    start_ps: int
    end_ps: int
    command: Command

    def overlaps(self, start_ps: int, end_ps: int) -> bool:
        return self.start_ps < end_ps and start_ps < self.end_ps


@dataclass(frozen=True)
class Collision:
    """A detected simultaneous drive of one bus by two masters."""

    bus: str                  # "CA" or "DQ"
    time_ps: int
    first: Reservation
    second_master: str
    second_command: Command


Snooper = Callable[[int, CAState], None]


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
