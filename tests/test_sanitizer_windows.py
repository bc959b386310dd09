"""The sanitizers' pruned window tables against their dict-FIFO oracles.

``ProtocolSanitizer`` and ``ScrubSanitizer`` remember a bounded number
of refresh windows per owner (``WINDOW_MEMORY``), evicting the oldest
first.  The two classes below are the dict-FIFO implementations they
replaced, kept verbatim as reference oracles: each prune walked the
table's deleted slots (``del d[next(iter(d))]``), which is what made
full tables slow.  A hypothesis property feeds random multi-owner
``nvmc.dma``, ``health.scrub``, ``cp.post`` and ``cp.ack`` streams to
both, with ``WINDOW_MEMORY`` shrunk so pruning fires and pruned windows
come back, and requires the same violations: rule, message, details,
record and order, also across a snapshot round trip part-way through
the stream.

The oracles read one refresh window per ``nvmc.dma`` record, the format
the live sanitizers replaced with one record per CP operation carrying
its windows.  They are fed each carried window at a time, as the record
the emitter used to build for it; a violation they raise on such a
record names the operation's record.

``TimeSanitizer`` below is the implementation that checked every time
through one loop, before the live one settled a record on which no rule
fires in one branch; it is kept verbatim as the oracle of that branch.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import sanitizers as live
from repro.check.sanitizer import Sanitizer, SanitizerSuite
from repro.nvmc.cp import Phase
from repro.nvmc.nvmc import DMA_WINDOW_FIELDS
from repro.sim.trace import TraceRecord, Tracer

_WIN_START = DMA_WINDOW_FIELDS.index("win_start")


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
        # owner -> {window index: bytes scheduled} (insertion-ordered,
        # pruned FIFO per owner — see WINDOW_MEMORY).
        self._window_bytes: dict[str, dict[int, int]] = {}
        self._window_cmds: dict[str, dict[int, set[int]]] = {}
        self._open_banks: dict[str, set[int]] = {}

    def observe(self, record: TraceRecord) -> None:
        # ``owner_of`` inlined: this observe runs for every bus command.
        owner = str(record.fields.get("owner", "?"))
        category = record.category
        # Dispatched most-frequent-first: bus commands outnumber DMA
        # records, which outnumber CP mailbox traffic.  The branches are
        # mutually exclusive on ``category``, so order is behaviour-free.
        if category == "ddr.cmd":
            kind = str(record.fields.get("kind", "?"))
            bank = record.fields.get("bank")
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
            window = int(record.fields["window"])
            nbytes = int(record.fields["bytes"])
            budget = int(record.fields["budget"])
            windows = self._window_bytes.setdefault(owner, {})
            total = windows.get(window, 0) + nbytes
            windows[window] = total
            if total > budget:
                self.violation(
                    "window-budget",
                    f"{total} bytes scheduled into window {window} "
                    f"exceeds the {budget}-byte per-window budget",
                    record=record, window=window, total=total,
                    budget=budget)
            owner_cmds = self._window_cmds.setdefault(owner, {})
            cmds = owner_cmds.setdefault(window, set())
            cmds.add(int(record.fields.get("cmd", 0)))
            depth = self._depth.get(owner, 1)
            if len(cmds) > depth:
                self.violation(
                    "window-sharing",
                    f"window {window} served {len(cmds)} distinct CP "
                    "commands; the PoC serves one per window "
                    f"(queue depth {depth})",
                    record=record, window=window, commands=sorted(cmds),
                    depth=depth)
            while len(windows) > self.WINDOW_MEMORY:
                del windows[next(iter(windows))]
            while len(owner_cmds) > self.WINDOW_MEMORY:
                del owner_cmds[next(iter(owner_cmds))]
        elif category == "cp.post":
            depth = int(record.fields.get("depth", 1))
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
    (``nvmc.dma``) records carry their ``window`` index, so the two
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
        # owner -> {window index: True} (insertion-ordered, pruned FIFO).
        self._scrub_windows: dict[str, dict[int, bool]] = {}
        self._dma_windows: dict[str, dict[int, bool]] = {}

    def observe(self, record: TraceRecord) -> None:
        if record.category == "health.scrub":
            owner = str(record.fields.get("owner", "?"))
            window = int(record.fields["window"])
            win_start = int(record.fields["win_start"])
            win_end = int(record.fields["win_end"])
            start = int(record.fields["start_ps"])
            end = int(record.fields["end_ps"])
            if start < win_start or end > win_end:
                self.violation(
                    "scrub-window-escape",
                    f"scrub bus span [{start}, {end}) ps escapes its "
                    f"window {window} [{win_start}, {win_end}) ps",
                    record=record, window=window, start_ps=start,
                    end_ps=end, win_start=win_start, win_end=win_end)
            if window in self._dma_windows.get(owner, {}):
                self.violation(
                    "scrub-collision",
                    f"scrub claimed window {window} after host DMA "
                    "already used it",
                    record=record, window=window)
            self._remember(self._scrub_windows, owner, window)
        elif record.category == "nvmc.dma":
            owner = str(record.fields.get("owner", "?"))
            window = int(record.fields["window"])
            if window in self._scrub_windows.get(owner, {}):
                self.violation(
                    "scrub-collision",
                    f"host DMA landed in window {window} the patrol "
                    "scrub already claimed",
                    record=record, window=window)
            self._remember(self._dma_windows, owner, window)

    def _remember(self, table: dict[str, dict[int, bool]], owner: str,
                  window: int) -> None:
        windows = table.setdefault(owner, {})
        windows[window] = True
        while len(windows) > self.WINDOW_MEMORY:
            del windows[next(iter(windows))]


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
        if category == "nvmc.dma":
            times = [carried[_WIN_START]
                     for carried in record.fields["windows"]]
        else:
            times = [record.time_ps]
        # ``owner_of``, inlined: this observe runs for every record.
        key = ((str(record.fields.get("owner", "?")), category)
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




OWNERS = ("nvmc#0", "nvmc#1", "nvmc#2")
BUDGET = 4096

EVENTS = st.lists(st.one_of(
    st.tuples(st.just("dma"), st.sampled_from(OWNERS), st.integers(0, 3),
              st.lists(st.tuples(st.integers(0, 9),
                                 st.sampled_from((64, 2048, BUDGET))),
                       min_size=1, max_size=3)),
    st.tuples(st.just("scrub"), st.sampled_from(OWNERS), st.integers(0, 9),
              st.booleans()),
    st.tuples(st.just("post"), st.sampled_from(OWNERS), st.integers(1, 2)),
    st.tuples(st.just("ack"), st.sampled_from(OWNERS)),
), max_size=150)


def emit(tracer: Tracer, time_ps: int, event: tuple) -> None:
    kind, owner = event[0], event[1]
    if kind == "dma":
        _, _, cmd, windows = event
        tracer.emit(time_ps, "nvmc.dma", f"{len(windows)} windows",
                    owner=owner, cmd=cmd, budget=BUDGET,
                    windows=tuple(("poll", window, nbytes, nbytes, -1,
                                   window * 1000, window * 1000 + 900,
                                   window * 1000 + 100)
                                  for window, nbytes in windows))
    elif kind == "scrub":
        _, _, window, escape = event
        win_start = window * 1000
        tracer.emit(time_ps, "health.scrub", "patrol window", owner=owner,
                    window=window, win_start=win_start,
                    win_end=win_start + 900,
                    start_ps=win_start - 10 if escape else win_start,
                    end_ps=win_start + 300, slots=1, pages=1, relocated=0)
    elif kind == "post":
        tracer.emit(time_ps, "cp.post", "NOP posted", owner=owner, cmd=0,
                    slot=0, opcode="NOP", phase="ODD", depth=event[2])
    else:
        tracer.emit(time_ps, "cp.ack", "NOP done", owner=owner, cmd=0,
                    slot=0, opcode="NOP", phase="ODD", status=0)


def one_window_at_a_time(records, op_of: dict) -> list[TraceRecord]:
    """The oracles' input: each ``nvmc.dma`` record as one record per
    carried window, in the fields the emitter gave such a record;
    ``op_of`` maps each built record's id to the record it came from."""
    fed = []
    for record in records:
        if record.category != "nvmc.dma":
            fed.append(record)
            continue
        fields = record.fields
        for entry in fields["windows"]:
            window = dict(zip(DMA_WINDOW_FIELDS, entry))
            one = TraceRecord(window["win_start"], "nvmc.dma",
                              "{kind} {bytes}B in window {window}".format(
                                  **window),
                              {"owner": fields["owner"],
                               "cmd": fields["cmd"],
                               "budget": fields["budget"], **window})
            op_of[id(one)] = record
            fed.append(one)
    return fed


def seen(sanitizers, op_of: dict | None = None) -> list[tuple]:
    """Every violation, with the operation record it names."""
    op_of = op_of or {}
    return [(str(v), v.rule, v.details, op_of.get(id(v.record), v.record))
            for sanitizer in sanitizers for v in sanitizer.violations]


@settings(max_examples=300, deadline=None)
@given(events=EVENTS, memory=st.integers(1, 4), split=st.floats(0, 1))
def test_pruned_tables_match_dict_fifo_oracles(events, memory, split):
    fast = [live.ProtocolSanitizer(), live.ScrubSanitizer()]
    oracle = [ProtocolSanitizer(), ScrubSanitizer()]
    resumed = [live.ProtocolSanitizer(), live.ScrubSanitizer()]
    for sanitizer in fast + oracle + resumed:
        sanitizer.WINDOW_MEMORY = memory
    tracer = Tracer(enabled=True)
    records: list[TraceRecord] = []
    tracer.subscribe(records.append)
    fast_suite = SanitizerSuite(fast).attach(tracer)
    for time_ps, event in enumerate(events):
        emit(tracer, time_ps, event)
    fast_suite.detach()
    op_of: dict[int, TraceRecord] = {}
    for record in one_window_at_a_time(records, op_of):
        for sanitizer in oracle:
            sanitizer.observe(record)
    assert seen(fast) == seen(oracle, op_of)

    # The same stream with a snapshot round trip part-way through (a
    # snapshot carries the tables; see _WindowFIFO.__reduce__).
    half = round(split * len(records))
    for record in records[:half]:
        for sanitizer in resumed:
            sanitizer.observe(record)
    # Violations are exceptions, which do not pickle; set them aside.
    earlier = [sanitizer.violations for sanitizer in resumed]
    for sanitizer in resumed:
        sanitizer.violations = []
    resumed = pickle.loads(pickle.dumps(resumed))
    for sanitizer, violations in zip(resumed, earlier):
        sanitizer.violations[:0] = violations
    for record in records[half:]:
        for sanitizer in resumed:
            sanitizer.observe(record)
    assert [(str(v), v.details, str(v.record))
            for sanitizer in resumed for v in sanitizer.violations] == \
        [(str(v), v.details, str(v.record)) for v in fast_suite.violations]


def test_revisited_pruned_window_starts_a_fresh_budget():
    """A window pruned from a full table is forgotten exactly as the
    oracle forgets it, oldest first, also across a snapshot round trip
    taken while the table is full: revisiting it starts a fresh
    budget."""
    tracer = Tracer(enabled=True)
    records: list[TraceRecord] = []
    tracer.subscribe(records.append)
    for time_ps, window in enumerate((0, 1, 2, 0, 2)):
        emit(tracer, time_ps, ("dma", OWNERS[0], 0, [(window, 3000)]))
    fast, oracle = live.ProtocolSanitizer(), ProtocolSanitizer()
    fast.WINDOW_MEMORY = oracle.WINDOW_MEMORY = 2
    for record in records[:2]:
        fast.observe(record)
    for record in one_window_at_a_time(records[:2], {}):
        oracle.observe(record)
    fast = pickle.loads(pickle.dumps(fast))
    for record in records[2:]:
        fast.observe(record)
    for record in one_window_at_a_time(records[2:], {}):
        oracle.observe(record)
    # Window 0 was pruned by window 2 (fresh budget on revisit); window
    # 2 was still remembered, so its second 3000 bytes overflow.
    rules = [[v.rule for v in s.violations] for s in (fast, oracle)]
    assert rules[0] == rules[1] == ["window-budget"]
    assert fast.violations[0].details["window"] == 2


#: Streams past the budget and with a queue depth of 0: every rule the
#: live sanitizers' fast branches must leave to their full checks.
WIDE_EVENTS = st.lists(st.one_of(
    st.tuples(st.just("dma"), st.sampled_from(OWNERS), st.integers(0, 3),
              st.lists(st.tuples(st.integers(0, 9),
                                 st.sampled_from((64, BUDGET, BUDGET + 64,
                                                  2 * BUDGET))),
                       min_size=1, max_size=3)),
    st.tuples(st.just("scrub"), st.sampled_from(OWNERS), st.integers(0, 9),
              st.booleans()),
    st.tuples(st.just("post"), st.sampled_from(OWNERS), st.integers(0, 2)),
    st.tuples(st.just("ack"), st.sampled_from(OWNERS)),
), max_size=150)


@settings(max_examples=200, deadline=None)
@given(events=WIDE_EVENTS, memory=st.integers(1, 4))
def test_fast_branches_leave_every_rule_to_the_checks(events, memory):
    fast = [live.ProtocolSanitizer(), live.ScrubSanitizer()]
    oracle = [ProtocolSanitizer(), ScrubSanitizer()]
    for sanitizer in fast + oracle:
        sanitizer.WINDOW_MEMORY = memory
    tracer = Tracer(enabled=True)
    records: list[TraceRecord] = []
    tracer.subscribe(records.append)
    suite = SanitizerSuite(fast).attach(tracer)
    for time_ps, event in enumerate(events):
        emit(tracer, time_ps, event)
    suite.detach()
    op_of: dict[int, TraceRecord] = {}
    for record in one_window_at_a_time(records, op_of):
        for sanitizer in oracle:
            sanitizer.observe(record)
    assert seen(fast) == seen(oracle, op_of)


#: Timestamps: in-order and regressing ints, negative ints, floats,
#: bools and an int subclass.
TIMES = st.one_of(st.integers(0, 40), st.integers(-3, 40),
                  st.floats(-2.0, 40.0), st.booleans(),
                  st.sampled_from(tuple(Phase)))

TIME_EVENTS = st.lists(st.one_of(
    st.tuples(st.just("nvmc.dma"), st.sampled_from(OWNERS),
              st.lists(TIMES, max_size=3)),
    st.tuples(st.sampled_from(("cp.ack", "ddr.cmd", "imc.refresh",
                               "cp.post", "nvdc.op")),
              st.sampled_from(OWNERS), TIMES),
), max_size=80)


@settings(max_examples=300, deadline=None)
@given(events=TIME_EVENTS)
def test_time_sanitizer_matches_its_one_loop_oracle(events):
    """Same violations in the same order, with the same rule, message,
    details, record and context, over streams that mix owners,
    monotonic and other categories and multi-window ``nvmc.dma``
    records."""
    fast, oracle = live.TimeSanitizer(), TimeSanitizer()
    tracer = Tracer(enabled=True)
    suites = [SanitizerSuite([fast]).attach(tracer),
              SanitizerSuite([oracle]).attach(tracer)]
    for category, owner, times in events:
        if category == "nvmc.dma":
            tracer.emit(times[0] if times else 0, category, "windows",
                        owner=owner, cmd=0, budget=BUDGET,
                        windows=tuple(("poll", 0, 64, 64, -1, t, 0, 0)
                                      for t in times))
        else:
            tracer.emit(times, category, "record", owner=owner)
    for suite in suites:
        suite.detach()
    assert [(str(v), v.rule, v.details, v.record, v.context)
            for v in fast.violations] == \
        [(str(v), v.rule, v.details, v.record, v.context)
         for v in oracle.violations]
    assert list(fast._last.items()) == list(oracle._last.items())
