"""The concrete sanitizers: race, coherence, protocol, scrub, time.

Each sanitizer consumes the self-describing structured records the
models emit (``ddr.cmd`` carries its bus-occupancy intervals and — on
REF — the extended-tRFC device window; ``nvmc.dma`` carries every
refresh window one CP operation moved, each with its bounds, and the
byte budget; the nvdc driver emits its §V-B coherence bracket), so no
sanitizer needs a DDR4 spec or timeline of its own: what is checked is
exactly what was observed.  A rule that applies per refresh window is
checked for each carried window, in the order the operation moved them.

All state is sharded by the ``owner`` token on each record, so several
systems sharing one ambient tracer are validated independently.
"""

from __future__ import annotations

from collections import deque

from repro.check.sanitizer import Sanitizer
from repro.nvmc.nvmc import DMA_WINDOW_FIELDS
from repro.sim.trace import TraceRecord

#: Positions in an ``nvmc.dma`` record's carried windows.
_KIND, _WINDOW, _BYTES, _ADDR, _WIN_START = (
    DMA_WINDOW_FIELDS.index(name)
    for name in ("kind", "window", "bytes", "addr", "win_start"))


class _WindowFIFO(dict):
    """One owner's remembered refresh windows: window index -> entry.

    Past ``limit`` windows the oldest-remembered one is forgotten.  A
    key deque beside the dict makes that O(1); deleting a plain dict's
    first key instead walks every slot earlier deletions left behind,
    which on a full table costs a scan per new window.
    """

    __slots__ = ("order",)

    def __init__(self, windows: dict | None = None) -> None:
        super().__init__(windows or ())
        #: Always the dict's own key order, oldest first.
        self.order: deque[int] = deque(self)

    def __reduce__(self):
        # ``order`` is derivable from the dict, so a snapshot carries
        # the plain dict alone and the deque is rebuilt on restore.
        return (_WindowFIFO, (dict(self),))

    def remember(self, window: int, entry, limit: int):
        """Add a window not yet remembered; returns ``entry``."""
        self[window] = entry
        order = self.order
        order.append(window)
        while len(order) > limit:
            del self[order.popleft()]
        return entry


class BusRaceSanitizer(Sanitizer):
    """No two masters in overlapping bus slots; the device only drives
    inside the extended-tRFC window its REF opened (§III-B, Fig. 2).

    Rules:
        ``bus-collision``  — CA/DQ occupancy overlap between masters
            (independent re-detection, plus any ``ddr.collision`` the
            bus model itself flagged).
        ``window-escape``  — a device-side master (name ``nvmc*``)
            drove CA or DQ outside ``[REF + tRFC_device, REF + tRFC)``.

    **Drain exemption (§V-C).**  A ``power.drain`` record with
    ``active=True`` marks the battery-backed power-loss drain, which
    legitimately ignores the tRFC serialisation rule: window-escape
    checking is suspended for that owner until the matching
    ``active=False`` marker.  Collision detection stays on — even a
    drain must not overlap another master.  A device transfer outside a
    window with *no* drain declared is still a violation.
    """

    CATEGORIES = ("power.drain", "ddr.collision", "ddr.cmd")

    #: Reservations older than this per bus are pruned.
    HORIZON_PS = 10_000_000
    #: Commands that leave the bus electrically idle.
    _IDLE_KINDS = ("DES", "NOP")

    def __init__(self) -> None:
        super().__init__()
        # owner -> lane name -> recent (master, start, end) intervals.
        self._lanes: dict[str, dict[str, deque]] = {}
        # (owner, lane) -> {master: latest interval end}.  An overlap
        # with a new span needs some *other* master's end past the
        # span's start; when no recorded end qualifies, the deque scan
        # is provably empty-handed and is skipped.
        self._max_end: dict[tuple[str, str], dict[str, int]] = {}
        # owner -> (win_start, win_end) of the latest observed REF.
        self._window: dict[str, tuple[int, int]] = {}
        # owners currently inside a declared power-loss drain.
        self._draining: set[str] = set()

    def observe(self, record: TraceRecord) -> None:
        if record.category == "power.drain":
            owner = self.owner_of(record)
            if record.fields.get("active"):
                self._draining.add(owner)
            else:
                self._draining.discard(owner)
            return
        if record.category == "ddr.collision":
            self.violation(
                "bus-collision",
                "bus model flagged a collision between "
                f"{record.fields.get('first')} and "
                f"{record.fields.get('second')} at {record.time_ps} ps",
                record=record, time_ps=record.time_ps)
            return
        if record.category != "ddr.cmd":
            return
        owner = self.owner_of(record)
        master = str(record.fields.get("master", "?"))
        kind = str(record.fields.get("kind", "?"))
        spans = [("CA", record.time_ps, int(record.fields["ca_end"]))]
        if "dq_start" in record.fields:
            spans.append(("DQ", int(record.fields["dq_start"]),
                          int(record.fields["dq_end"])))
        if kind == "REF":
            self._window[owner] = (int(record.fields["win_start"]),
                                   int(record.fields["win_end"]))
        lanes = self._lanes.setdefault(
            owner, {"CA": deque(maxlen=256), "DQ": deque(maxlen=256)})
        for lane_name, start, end in spans:
            lane = lanes[lane_name]
            ends = self._max_end.setdefault((owner, lane_name), {})
            # Overlap needs another master's interval to end *after* our
            # start; ``ends`` upper-bounds every recorded interval end
            # (including pruned ones), so a miss here proves the scan
            # would find nothing.
            if any(other_end > start for other_master, other_end
                   in ends.items() if other_master != master):
                for other_master, other_start, other_end in lane:
                    if (other_master != master and other_start < end
                            and start < other_end):
                        self.violation(
                            "bus-collision",
                            f"{master} ({kind}) overlaps {other_master} on "
                            f"{lane_name} in [{start}, {end}) ps",
                            record=record, lane=lane_name, master=master,
                            other=other_master, start_ps=start, end_ps=end)
            while lane and lane[0][2] < start - self.HORIZON_PS:
                lane.popleft()
            lane.append((master, start, end))
            if end > ends.get(master, -1):
                ends[master] = end
        if master.lower().startswith("nvmc") and kind not in self._IDLE_KINDS:
            if owner in self._draining:
                return   # §V-C battery drain: tRFC rule suspended
            # Enforced only once a REF has opened a window on this bus:
            # before that there is no tRFC contract to escape (synthetic
            # bus unit tests drive without any refresh traffic).
            window = self._window.get(owner)
            if window is None:
                return
            for lane_name, start, end in spans:
                if start < window[0] or end > window[1]:
                    self.violation(
                        "window-escape",
                        f"device master {master} drove {lane_name} in "
                        f"[{start}, {end}) ps outside the open device "
                        f"window {window}",
                        record=record, lane=lane_name, master=master,
                        window=window, start_ps=start, end_ps=end)


class CoherenceSanitizer(Sanitizer):
    """The §V-B explicit-coherence bracket around every CP exchange.

    Active per owner only after an ``nvdc.attach`` with
    ``coherent=True`` (a driver with a CPU cache in front of it);
    standalone NVMC models and cache-less drivers have no coherence
    obligations and are not checked.

    Rules:
        ``dirty-evict``       — the device DMA-read a slot whose lines
            were dirtied (``nvdc.dirty``) and never flushed since.
        ``stale-fill``        — a cachefill DMA landed in a slot and no
            cacheline invalidation followed before the next CP command
            (or the end of the run): the CPU could serve stale lines.
        ``unfenced-doorbell`` — a WRITEBACK/MERGED CP command was posted
            without a preceding flush + sfence pair since the last post.
    """

    CATEGORIES = ("nvdc.", "nvmc.dma", "cp.post")

    _WRITE_OPCODES = ("WRITEBACK", "MERGED")

    def __init__(self) -> None:
        super().__init__()
        self._active: set[str] = set()
        self._dirty_unflushed: dict[str, set[int]] = {}
        self._pending_fills: dict[str, set[int]] = {}
        self._flushed: dict[str, bool] = {}
        self._fenced: dict[str, bool] = {}
        self._last_fill_record: dict[str, TraceRecord] = {}

    def observe(self, record: TraceRecord) -> None:
        category = record.category
        if category == "nvdc.attach":
            if record.fields.get("coherent"):
                self._active.add(str(record.fields.get("owner", "?")))
            return
        if not self._active:
            return   # no coherent driver attached: nothing to check
        owner = str(record.fields.get("owner", "?"))   # owner_of, inlined
        if owner not in self._active:
            return
        if category == "nvdc.dirty":
            self._dirty_unflushed.setdefault(owner, set()).add(
                int(record.fields["addr"]))
        elif category == "nvdc.flush":
            self._flushed[owner] = True
            self._fenced[owner] = False
            self._dirty_unflushed.get(owner, set()).discard(
                int(record.fields["addr"]))
        elif category == "nvdc.sfence":
            if self._flushed.get(owner):
                self._fenced[owner] = True
        elif category == "nvdc.invalidate":
            self._pending_fills.get(owner, set()).discard(
                int(record.fields["addr"]))
        elif category == "nvmc.dma":
            # In the order moved: a MERGED op evicts, then fills.
            for carried in record.fields["windows"]:
                kind = carried[_KIND]
                if kind == "evict":
                    addr = int(carried[_ADDR])
                    if addr in self._dirty_unflushed.get(owner, set()):
                        self.violation(
                            "dirty-evict",
                            f"device DMA-read slot paddr {addr:#x} while "
                            "its lines were dirty and unflushed (missing "
                            "clflush+sfence before writeback, §V-B)",
                            record=record, addr=addr)
                elif kind == "fill":
                    self._pending_fills.setdefault(owner, set()).add(
                        int(carried[_ADDR]))
                    self._last_fill_record[owner] = record
        elif category == "cp.post":
            self._check_pending_fills(owner)
            if str(record.fields.get("opcode")) in self._WRITE_OPCODES:
                if not self._fenced.get(owner):
                    self.violation(
                        "unfenced-doorbell",
                        f"{record.fields.get('opcode')} posted without a "
                        "flush+sfence bracket since the previous CP "
                        "command (§V-B ordering)",
                        record=record, opcode=record.fields.get("opcode"))
            self._flushed[owner] = False
            self._fenced[owner] = False

    def _check_pending_fills(self, owner: str) -> None:
        pending = self._pending_fills.get(owner)
        if pending:
            addrs = sorted(pending)
            pending.clear()
            self.violation(
                "stale-fill",
                f"cachefill landed at paddr {addrs[0]:#x} with no cacheline "
                "invalidation before the next CP command: the CPU can "
                "serve stale lines (§V-B)",
                record=self._last_fill_record.get(owner), addrs=addrs)

    def finalize(self) -> None:
        # Sorted: ``_active`` is a set of owner strings, and violation
        # order must not depend on the hash seed.
        for owner in sorted(self._active):
            self._check_pending_fills(owner)


class ProtocolSanitizer(Sanitizer):
    """CP mailbox and window-budget discipline (§IV-C).

    Rules:
        ``queue-depth``    — more outstanding CP commands than the
            configured queue depth (one on the PoC).
        ``ack-without-post`` — a CP ack with no outstanding command.
        ``window-budget``  — more DMA bytes scheduled into one refresh
            window than the per-window budget the DMA engine reported.
        ``window-sharing`` — transfers of more distinct CP commands in
            one window than the queue depth allows (one command per
            window on the PoC).
        ``ref-open-banks`` — REF issued while banks were open (the
            PREA-before-REF rule of Fig. 2b: all banks must be
            precharged when refresh starts).
    """

    CATEGORIES = ("cp.", "nvmc.dma", "ddr.cmd")

    #: Per-owner window entries retained for budget / sharing checks.
    #: The DMA engine consumes refresh windows forward in time (a
    #: shortfall retry moves to the *next* window), so a window older
    #: than the most recent ``WINDOW_MEMORY`` can never receive another
    #: transfer — pruning it cannot reset a budget that could still be
    #: exceeded.  Bounding these tables keeps long runs (and simulation
    #: snapshots, which serialize sanitizer state) from growing with
    #: every window ever used.
    WINDOW_MEMORY = 512

    def __init__(self) -> None:
        super().__init__()
        self._outstanding: dict[str, int] = {}
        self._depth: dict[str, int] = {}
        # owner -> {window index: [bytes scheduled, CP command ids]},
        # pruned FIFO per owner (WINDOW_MEMORY).
        self._windows: dict[str, _WindowFIFO] = {}
        self._open_banks: dict[str, set[int]] = {}

    def observe(self, record: TraceRecord) -> None:
        fields = record.fields
        # ``owner_of`` inlined: this observe runs for every bus command.
        owner = str(fields.get("owner", "?"))
        category = record.category
        # Dispatched most-frequent-first: bus commands outnumber DMA
        # records, which outnumber CP mailbox traffic.  The branches are
        # mutually exclusive on ``category``, so order is behaviour-free.
        if category == "ddr.cmd":
            kind = str(fields.get("kind", "?"))
            bank = fields.get("bank")
            open_banks = self._open_banks.setdefault(owner, set())
            if kind == "ACT" and bank is not None:
                open_banks.add(int(bank))
            elif kind in ("PRE", "RDA", "WRA") and bank is not None:
                open_banks.discard(int(bank))
            elif kind == "PREA":
                open_banks.clear()
            elif kind == "REF" and open_banks:
                self.violation(
                    "ref-open-banks",
                    f"REF issued with banks {sorted(open_banks)} still "
                    "open (PREA must precede REF, Fig. 2b)",
                    record=record, banks=sorted(open_banks))
                open_banks.clear()
        elif category == "nvmc.dma":
            cmd = int(fields.get("cmd", 0))
            budget = int(fields["budget"])
            depth = self._depth.get(owner, 1)
            windows = self._windows.get(owner)
            if windows is None:
                windows = self._windows[owner] = _WindowFIFO()
            order = windows.order
            memory = self.WINDOW_MEMORY
            for carried in fields["windows"]:
                window = int(carried[_WINDOW])
                nbytes = int(carried[_BYTES])
                if window not in windows and nbytes <= budget and depth > 0:
                    # A window this owner has not used, within budget:
                    # no rule can fire.  Remember it as ``remember``
                    # would, inline (one transfer per window is the
                    # common case).
                    windows[window] = [nbytes, {cmd}]
                    order.append(window)
                    while len(order) > memory:
                        del windows[order.popleft()]
                    continue
                entry = windows.get(window)
                if entry is None:
                    entry = windows.remember(window, [0, set()], memory)
                total = entry[0] = entry[0] + nbytes
                if total > budget:
                    self.violation(
                        "window-budget",
                        f"{total} bytes scheduled into window {window} "
                        f"exceeds the {budget}-byte per-window budget",
                        record=record, window=window, total=total,
                        budget=budget)
                cmds = entry[1]
                cmds.add(cmd)
                if len(cmds) > depth:
                    self.violation(
                        "window-sharing",
                        f"window {window} served {len(cmds)} distinct CP "
                        "commands; the PoC serves one per window "
                        f"(queue depth {depth})",
                        record=record, window=window,
                        commands=sorted(cmds), depth=depth)
        elif category == "cp.post":
            depth = int(fields.get("depth", 1))
            self._depth[owner] = depth
            outstanding = self._outstanding.get(owner, 0) + 1
            self._outstanding[owner] = outstanding
            if outstanding > depth:
                self.violation(
                    "queue-depth",
                    f"{outstanding} CP commands outstanding exceeds the "
                    f"configured queue depth {depth}",
                    record=record, outstanding=outstanding, depth=depth)
        elif category == "cp.ack":
            outstanding = self._outstanding.get(owner, 0) - 1
            self._outstanding[owner] = outstanding
            if outstanding < 0:
                self._outstanding[owner] = 0
                self.violation(
                    "ack-without-post",
                    "CP ack observed with no outstanding command",
                    record=record)
        elif category == "cp.abandon":
            # The driver gave up on an exchange whose ack never arrived
            # (fault injection); the command is no longer outstanding.
            outstanding = self._outstanding.get(owner, 0)
            if outstanding > 0:
                self._outstanding[owner] = outstanding - 1


class ScrubSanitizer(Sanitizer):
    """Patrol scrub is invisible to the host (§IV-B window discipline).

    The scrubber (:class:`repro.health.scrub.PatrolScrubber`) may only
    use refresh windows the host left idle, and its shared-bus work must
    stay inside the window it claimed.  Each ``health.scrub`` record
    declares the claimed window (``window``/``win_start``/``win_end``)
    and the bus span actually used (``start_ps``/``end_ps``); host DMA
    (``nvmc.dma``) records carry each window's index, so the two
    streams correlate per owner.

    Rules:
        ``scrub-window-escape`` — a scrub bus span left its declared
            window bounds.
        ``scrub-collision``    — one refresh window of one owner carried
            both patrol scrub and host DMA traffic (in either order):
            scrub ran in a window the host was using.
    """

    CATEGORIES = ("health.scrub", "nvmc.dma")

    #: Per-owner window indices retained for cross-correlation.
    WINDOW_MEMORY = 4096

    def __init__(self) -> None:
        super().__init__()
        # owner -> {window index: True}, pruned FIFO (WINDOW_MEMORY).
        self._scrub_windows: dict[str, _WindowFIFO] = {}
        self._dma_windows: dict[str, _WindowFIFO] = {}

    def observe(self, record: TraceRecord) -> None:
        category = record.category
        if category != "health.scrub" and category != "nvmc.dma":
            return
        fields = record.fields
        owner = str(fields.get("owner", "?"))
        if category == "health.scrub":
            window = int(fields["window"])
            win_start = int(fields["win_start"])
            win_end = int(fields["win_end"])
            start = int(fields["start_ps"])
            end = int(fields["end_ps"])
            if start < win_start or end > win_end:
                self.violation(
                    "scrub-window-escape",
                    f"scrub bus span [{start}, {end}) ps escapes its "
                    f"window {window} [{win_start}, {win_end}) ps",
                    record=record, window=window, start_ps=start,
                    end_ps=end, win_start=win_start, win_end=win_end)
            if window in self._dma_windows.get(owner, ()):
                self.violation(
                    "scrub-collision",
                    f"scrub claimed window {window} after host DMA "
                    "already used it",
                    record=record, window=window)
            scrubbed = self._windows_of(self._scrub_windows, owner)
            if window not in scrubbed:
                scrubbed.remember(window, True, self.WINDOW_MEMORY)
        else:
            scrubbed = self._scrub_windows.get(owner, ())
            used = self._windows_of(self._dma_windows, owner)
            order = used.order
            memory = self.WINDOW_MEMORY
            for carried in fields["windows"]:
                window = int(carried[_WINDOW])
                if window in scrubbed:
                    self.violation(
                        "scrub-collision",
                        f"host DMA landed in window {window} the patrol "
                        "scrub already claimed",
                        record=record, window=window)
                if window not in used:
                    # ``used.remember(window, True, ...)``, inline.
                    used[window] = True
                    order.append(window)
                    while len(order) > memory:
                        del used[order.popleft()]

    @staticmethod
    def _windows_of(table: dict[str, _WindowFIFO],
                    owner: str) -> _WindowFIFO:
        """``owner``'s remembered windows in ``table``, made on first use."""
        windows = table.get(owner)
        if windows is None:
            windows = table[owner] = _WindowFIFO()
        return windows


class TimeSanitizer(Sanitizer):
    """Simulated time is integer picoseconds and moves forward.

    Rules:
        ``non-integer-time`` — a record carried a non-``int`` timestamp
            (floats silently lose picosecond precision).
        ``negative-time``    — time before the big bang.
        ``time-regression``  — within one (owner, category) stream whose
            emitter is serialised (bus traffic, refresh loop, CP acks,
            windowed DMA), a record went backwards in time.

    The timestamps of an ``nvmc.dma`` record are its carried windows'
    starts, checked in the order moved, so a window that goes backwards
    inside one CP operation is a regression too.
    """

    #: Streams whose emitters guarantee non-decreasing emission times.
    MONOTONIC = ("ddr.cmd", "imc.refresh", "cp.ack", "nvmc.dma")

    #: ``MONOTONIC`` as a set — this sanitizer sees *every* record, so
    #: the membership test is one of the hottest lines in the suite.
    _MONOTONIC_SET = frozenset(MONOTONIC)

    def __init__(self) -> None:
        super().__init__()
        self._last: dict[tuple[str, str], int] = {}

    def observe(self, record: TraceRecord) -> None:
        category = record.category
        fields = record.fields
        # A record on which no rule fires is settled in one branch: its
        # times are ints, none below 0 and, in a monotonic stream, none
        # before the stream's last (stored times are never negative).
        # Anything else goes to the checks below, which see the record
        # afresh.
        if category == "nvmc.dma":
            windows = fields["windows"]
            key = (str(fields.get("owner", "?")), category)
            floor = self._last.get(key, 0)
            for carried in windows:
                t = carried[_WIN_START]
                if type(t) is not int or t < floor:
                    break
                floor = t
            else:
                if windows:
                    self._last[key] = floor
                return
            times = [carried[_WIN_START] for carried in windows]
        else:
            t = record.time_ps
            if type(t) is int and t >= 0:
                if category not in self._MONOTONIC_SET:
                    return
                key = (str(fields.get("owner", "?")), category)
                if t >= self._last.get(key, 0):
                    self._last[key] = t
                    return
            times = [t]
        # ``owner_of``, inlined: this observe runs for every record.
        key = ((str(fields.get("owner", "?")), category)
               if category in self._MONOTONIC_SET else None)
        for t in times:
            if not isinstance(t, int) or isinstance(t, bool):
                self.violation(
                    "non-integer-time",
                    f"record {category} carries non-integer time {t!r} "
                    f"({type(t).__name__}); simulated time is integer "
                    "picoseconds",
                    record=record, time=t)
            elif t < 0:
                self.violation(
                    "negative-time",
                    f"record {category} at negative time {t} ps",
                    record=record, time=t)
            elif key is not None:
                last = self._last.get(key)
                if last is not None and t < last:
                    self.violation(
                        "time-regression",
                        f"{category} stream of {key[0]} went backwards: "
                        f"{t} ps after {last} ps",
                        record=record, time=t, previous=last)
                self._last[key] = t
