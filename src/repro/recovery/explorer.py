"""The crash-point explorer: a power cut at every event index.

CrashMonkey and ALICE exhaustively crash filesystems at every journal
operation; this is the NVDIMM-C equivalent.  A fixed, seeded workload is
run once under a counting :class:`~repro.faults.clock.FaultClock` to
number every hook-site visit — the driver's CP exchanges and DMA
windows, the FTL's page programs and GC relocations, and the §V-C
battery drain itself.  The explorer then re-runs the workload
deterministically with ``cut_on_event(i)`` sweeping ``i`` across that
whole space, cold-mounts after each cut
(:func:`~repro.recovery.mount.recover_mount`), and checks the recovery
invariants:

* **no committed page lost** — every LPN whose program reached flash
  (observed via the FTL's ``on_commit`` hook) reads back with its last
  committed content;
* **no torn page served** — a page torn mid-program by the cut must be
  quarantined by its OOB CRC, never returned as live data (readback
  must always be some payload the host actually wrote, or zeros);
* **bounded loss** — an acked-but-uncommitted write may be missing only
  when the cut interrupted the drain itself (the double failure the
  battery cannot cover);
* **sanitizers quiet**, and the remounted module accepts new writes.

``--quick`` samples the event space at a fixed stride (plus explicit
in-drain points), then bisects between neighbouring samples whose
outcome signatures differ, CrashMonkey-style: uniform regions cost one
probe per stride, behaviour boundaries get binary-searched to the exact
event.  Everything is deterministic for a fixed seed — the report is
byte-identical across runs.

Snapshot-based sweeping
-----------------------

The sweep is O(run + cuts x tail), not O(cuts x run): the counting
baseline doubles as a *golden run* that captures a
:class:`~repro.sim.snapshot.SimSnapshot` of the whole simulation graph
(system, tracer, sanitizers, fault clock, workload RNG and ground-truth
dicts) at periodic workload-op boundaries.  Each explored cut restores
the nearest snapshot taken strictly before its event index, arms
``cut_on_event`` on the restored clock — ``events_seen`` travels with
the fork, so absolute indices line up — and replays only the tail.
The golden run and every fork share one set-up (:func:`_start`) and
one tail (:func:`_run`), so a fork is the from-zero run with its
prefix restored instead of re-executed.  A fork's suite already holds
the prefix's sanitizer violations; each cut counts its own suite.
Retained trace records are excluded from the captures (no report reads
them; sanitizer observation state *is* captured), keeping blobs small.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.check.sanitizer import default_suite
from repro.device.nvdimmc import NVDIMMCSystem
from repro.device.power import PowerFailureModel
from repro.errors import PowerLossInterrupt
from repro.faults.clock import FaultClock
from repro.recovery.mount import recover_mount
from repro.report import Gate, Gated
from repro.sim.snapshot import SimSnapshot, SnapshotTimeline
from repro.sim.trace import Tracer, use_tracer
from repro.units import PAGE_4K, kb, mb, us
from repro.workloads.shadow import payload

#: Pages the workload touches; > cache slots so every run evicts.
FOOTPRINT_PAGES = 40
#: Mixed read/write steps after the sequential fill.  Sized for a
#: realistic churn phase (many overwrites per page, every slot evicted
#: and refilled repeatedly): snapshot-based forking makes the sweep cost
#: O(run + cuts x tail), so a long workload no longer multiplies the
#: whole sweep the way it did when every cut re-ran from t=0.
MIXED_STEPS = 800
_CACHE_BYTES = kb(96)      # 20 cache slots
_DEVICE_BYTES = mb(1)
#: ``--quick`` samples at least this many cut points before bisection.
QUICK_TARGET = 56
#: Golden-run snapshot cadence in workload ops: full sweeps fork once
#: per event index, so they amortize a dense timeline; quick sweeps
#: explore two orders of magnitude fewer cuts and prefer fewer,
#: cheaper captures over shorter tails.
SNAP_CADENCE_FULL = 8
SNAP_CADENCE_QUICK = 32

_ZERO_CRC = zlib.crc32(bytes(PAGE_4K))


@dataclass
class RunOutcome:
    """One explored cut point, remounted and verified."""

    index: int                    # 1-based event index of the cut
    cut_site: str = ""            # hook site where the cut landed
    fired: bool = False
    drain_interrupted: bool = False
    committed_lost: int = 0       # durable pages that read back wrong
    torn_served: int = 0          # readback neither acked content nor zeros
    acked_uncommitted: int = 0    # acked writes missing after remount
    torn_quarantined: int = 0     # pages the mount quarantined by CRC
    replay_recovered: int = 0
    replay_lost: int = 0
    sanitizer_violations: int = 0
    remount_writable: bool = True

    @property
    def ok(self) -> bool:
        """All invariants hold for this cut point."""
        return (self.committed_lost == 0
                and self.torn_served == 0
                and self.sanitizer_violations == 0
                and self.remount_writable
                and (self.acked_uncommitted == 0 or self.drain_interrupted))

    def signature(self) -> tuple:
        """Boolean outcome shape; bisection splits where it changes."""
        return (self.committed_lost > 0, self.torn_served > 0,
                self.acked_uncommitted > 0, self.drain_interrupted,
                self.sanitizer_violations > 0, self.remount_writable)


@dataclass
class ExplorerResult(Gated):
    """Everything one ``repro crash`` sweep learned."""

    seed: int
    quick: bool
    total_events: int = 0
    workload_events: int = 0
    baseline_ok: bool = False
    outcomes: list[RunOutcome] = field(default_factory=list)

    def windows(self) -> list[dict]:
        """Consecutive tested cut points folded by identical signature."""
        out: list[dict] = []
        for outcome in sorted(self.outcomes, key=lambda o: o.index):
            if out and out[-1]["_sig"] == outcome.signature():
                win = out[-1]
                win["end"] = outcome.index
                win["runs"] += 1
                win["committed_lost"] += outcome.committed_lost
                win["torn_served"] += outcome.torn_served
                win["acked_uncommitted"] += outcome.acked_uncommitted
                win["violations"] += outcome.sanitizer_violations
                continue
            out.append({
                "start": outcome.index,
                "end": outcome.index,
                "runs": 1,
                "committed_lost": outcome.committed_lost,
                "torn_served": outcome.torn_served,
                "acked_uncommitted": outcome.acked_uncommitted,
                "drain_interrupted": outcome.drain_interrupted,
                "remount_writable": outcome.remount_writable,
                "violations": outcome.sanitizer_violations,
                "_sig": outcome.signature(),
            })
        for win in out:
            del win["_sig"]
        return out

    def sites(self) -> dict[str, int]:
        """Histogram of hook sites the explored cuts landed on."""
        hist: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.fired:
                site = outcome.cut_site or "?"
                hist[site] = hist.get(site, 0) + 1
        return dict(sorted(hist.items()))

    def totals(self) -> dict[str, int]:
        drain_cuts = sum(1 for o in self.outcomes
                         if o.index > self.workload_events)
        return {
            "cut_points": len(self.outcomes),
            "drain_cuts": drain_cuts,
            "committed_lost": sum(o.committed_lost for o in self.outcomes),
            "torn_served": sum(o.torn_served for o in self.outcomes),
            "acked_uncommitted": sum(o.acked_uncommitted
                                     for o in self.outcomes),
            "torn_quarantined": sum(o.torn_quarantined
                                    for o in self.outcomes),
            "sanitizer_violations": sum(o.sanitizer_violations
                                        for o in self.outcomes),
            "replay_recovered": sum(o.replay_recovered
                                    for o in self.outcomes),
            "replay_lost": sum(o.replay_lost for o in self.outcomes),
            "failed_runs": sum(1 for o in self.outcomes if not o.ok),
        }

    @property
    def gates(self) -> list[Gate]:
        totals = self.totals()
        return [
            Gate("baseline_clean", self.baseline_ok,
                 "crash sweep FAILED: fault-free baseline is not clean"),
            Gate("invariants_hold", totals["failed_runs"] == 0,
                 f"crash sweep FAILED: {totals['failed_runs']} cut points "
                 "broke a recovery invariant"),
            Gate("drain_cut", totals["drain_cuts"] >= 1,
                 "crash sweep FAILED: no cut point landed inside the "
                 "§V-C drain"),
        ]

    def to_dict(self) -> dict:
        from repro.recovery.report import SCHEMA
        return {
            "schema": SCHEMA,
            "generated_at": None,
            "seed": self.seed,
            "quick": self.quick,
            "events": {
                "total": self.total_events,
                "workload": self.workload_events,
                "drain": self.total_events - self.workload_events,
            },
            "cut_points": sorted(o.index for o in self.outcomes),
            "windows": self.windows(),
            "sites": self.sites(),
            "totals": self.totals(),
            "ok": self.ok,
        }


# -- the deterministic workload ------------------------------------------------


#: Total workload operations (seq fill + mixed phase): the op index
#: space the golden run captures snapshots over.
def _total_ops() -> int:
    return FOOTPRINT_PAGES + MIXED_STEPS


def _record_ack(acked: dict[int, int], history: dict[int, set[int]],
                page: int, data: bytes) -> None:
    crc = zlib.crc32(data)
    acked[page] = crc
    history.setdefault(page, set()).add(crc)


def _workload_op(driver, rng: random.Random, acked: dict[int, int],
                 history: dict[int, set[int]], t: int, op: int) -> int:
    """Execute workload operation ``op`` (0-based); returns the new time.

    Ops 0..FOOTPRINT_PAGES-1 are the sequential fill; the rest are the
    mixed phase, drawing from ``rng``; every *acked* version is
    recorded.  Op-granular execution is what makes the workload
    *resumable*: a restored snapshot carries its op cursor and RNG, and
    replaying from there is bit-identical to having run from zero.
    """
    if op < FOOTPRINT_PAGES:
        data = payload(op, 0)
        t = driver.write_page(op, data, t)
        _record_ack(acked, history, op, data)
        return t
    step = op - FOOTPRINT_PAGES
    if rng.random() < 0.3:
        page = rng.randrange(FOOTPRINT_PAGES)
        _data, t = driver.read_page(page, t)
    else:
        page = rng.randrange(FOOTPRINT_PAGES)
        data = payload(page, 1 + step)
        t = driver.write_page(page, data, t)
        _record_ack(acked, history, page, data)
    return t


class _CommitLog:
    """The FTL ``on_commit`` hook as a picklable callable.

    Ground truth for "committed": the FTL reports every page that
    actually reached flash.  A class (not a closure) so the hook — and
    the ``durable`` dict it feeds — survives simulation snapshots.
    """

    def __init__(self, durable: dict[int, int]) -> None:
        self.durable = durable

    def __call__(self, lpn: int, crc: int, kind: str) -> None:
        if kind == "trim":
            self.durable.pop(lpn, None)
        else:
            self.durable[lpn] = crc


# -- one explored cut ----------------------------------------------------------


def _verify(driver, acked: dict[int, int], history: dict[int, set[int]],
            durable: dict[int, int], t: int, outcome: RunOutcome) -> None:
    """Check the recovery invariants against the remounted module."""
    for page in range(FOOTPRINT_PAGES):
        try:
            data, t = driver.read_page(page, t)
        except Exception:
            # Any read refusal after remount loses whatever was there.
            if page in durable:
                outcome.committed_lost += 1
            continue
        crc = zlib.crc32(data)
        allowed = history.get(page, set()) | {_ZERO_CRC}
        if crc not in allowed:
            outcome.torn_served += 1
            continue
        want = durable.get(page)
        if want is not None and crc != want:
            outcome.committed_lost += 1
            continue
        last = acked.get(page)
        if last is not None and crc != last:
            outcome.acked_uncommitted += 1
    try:
        probe = payload(0, 424242)
        t = driver.write_page(0, probe, t)
        back, t = driver.read_page(0, t)
        outcome.remount_writable = back == probe
    except Exception:
        outcome.remount_writable = False


def _start(seed: int) -> dict:
    """A fresh run at workload op 0: the root set every run continues.

    Keyed as the golden run's snapshots capture it, so a restored fork
    and a fresh start are interchangeable inputs to :func:`_run`.
    """
    rng = random.Random(seed)
    tracer = Tracer(enabled=True)
    suite = default_suite()
    clock = FaultClock()
    with use_tracer(tracer):
        suite.attach(tracer)
        # No CPU cache: a cut abandons CP exchanges mid-bracket by
        # design, which the coherence rules (correctly) flag; the
        # §V-B bracket has its own dedicated coverage.
        system = NVDIMMCSystem(cache_bytes=_CACHE_BYTES,
                               device_bytes=_DEVICE_BYTES,
                               with_cpu_cache=False,
                               seed=seed % 100003,
                               tracer=tracer)
    system.nvmc.fault_clock = clock
    system.nand.ftl.fault_clock = clock
    durable: dict[int, int] = {}
    # The hook survives into the drain (preload programs through the
    # same FTL) and dies with it at the mount — exactly the durability
    # boundary.
    system.nand.ftl.on_commit = _CommitLog(durable)
    return {"system": system, "tracer": tracer, "suite": suite,
            "clock": clock, "rng": rng, "acked": {}, "history": {},
            "durable": durable, "t": round(us(1)), "op": 0}


def _capture(roots: dict, t: int, op: int) -> SimSnapshot:
    """Snapshot ``roots`` at the boundary before workload op ``op``."""
    return SimSnapshot.capture(dict(roots, t=t, op=op),
                               event_index=roots["clock"].events_seen,
                               label=f"op{op}")


def _run(roots: dict, outcome: RunOutcome,
         timeline: SnapshotTimeline | None = None,
         cadence: int = 1) -> tuple[int, int]:
    """Run ``roots`` from its op cursor through the drain and the mount.

    A cut armed on the fault clock ends the workload or the drain where
    it lands; the cold mount, :func:`_verify` and the suite's detach
    follow either way, and ``outcome`` counts the violations the suite
    then holds.  With a ``timeline`` (the golden run) the roots are
    captured every ``cadence`` ops and once at the workload/drain
    boundary, so in-drain cuts fork without re-running any workload.
    Captures hold the sanitizer and live FSM state (they feed post-cut
    behaviour) but not the tracer's record archive: forks start with
    none.

    Returns ``(workload_events, total_events)`` — only meaningful for
    the uncut baseline (a fired cut truncates the run), but every run
    shares the same pre-cut prefix, so the baseline's counts number
    the whole explorable space.
    """
    system = roots["system"]
    clock = roots["clock"]
    suite = roots["suite"]
    rng, acked, history = roots["rng"], roots["acked"], roots["history"]
    t = roots["t"]
    total_ops = _total_ops()
    with use_tracer(roots["tracer"]):
        try:
            for op in range(roots["op"], total_ops):
                if timeline is not None and op % cadence == 0:
                    timeline.add(_capture(roots, t, op))
                t = _workload_op(system.driver, rng, acked, history, t, op)
            if timeline is not None:
                timeline.add(_capture(roots, t, total_ops))
        except PowerLossInterrupt as exc:
            outcome.fired = True
            outcome.cut_site = exc.site or ""
            t = max(t, exc.time_ps)
        workload_events = clock.events_seen
        power = PowerFailureModel(system.driver)
        power.fault_clock = clock
        try:
            power.power_fail(now_ps=t)
        except PowerLossInterrupt as exc:
            outcome.fired = True
            outcome.drain_interrupted = True
            outcome.cut_site = exc.site or ""
        total_events = clock.events_seen
        mounted, mount_report = recover_mount(
            system, journal=power.journal, now_ps=t)
        outcome.torn_quarantined = mount_report.ftl.torn_quarantined
        outcome.replay_recovered = mount_report.replay_recovered
        outcome.replay_lost = mount_report.replay_lost
        _verify(mounted.driver, acked, history, roots["durable"], t,
                outcome)
        suite.detach()
    outcome.sanitizer_violations = len(suite.violations)
    return workload_events, total_events


def _golden_run(seed: int, cadence: int,
                ) -> tuple[RunOutcome, int, int, SnapshotTimeline]:
    """The uncut counting baseline, doubling as the snapshot producer."""
    outcome = RunOutcome(index=0)
    timeline = SnapshotTimeline()
    workload_events, total_events = _run(_start(seed), outcome, timeline,
                                         cadence)
    return outcome, workload_events, total_events, timeline


def _replay_cut(timeline: SnapshotTimeline, cut_index: int) -> RunOutcome:
    """Fork the golden run at the nearest snapshot and replay the tail.

    The restored fault clock carries the prefix's ``events_seen``, so
    arming ``cut_on_event(cut_index)`` on it fires at the same absolute
    event a from-zero run would see.
    """
    snap = timeline.nearest(cut_index)
    if snap is None:
        raise RuntimeError(f"no snapshot precedes cut index {cut_index}")
    roots = snap.restore()
    roots["clock"].cut_on_event(cut_index)
    outcome = RunOutcome(index=cut_index)
    _run(roots, outcome)
    return outcome


# -- the sweep -----------------------------------------------------------------


def _quick_points(total: int, workload_events: int) -> list[int]:
    """Stride samples plus explicit in-drain probes."""
    stride = max(1, total // QUICK_TARGET)
    points = set(range(1, total + 1, stride))
    points.update({1, total})
    if total > workload_events:
        # At least one cut inside the drain itself, plus its boundary.
        points.add(workload_events + 1)
        points.add(workload_events + max(1, (total - workload_events) // 2))
    return sorted(p for p in points if 1 <= p <= total)


def explore(seed: int = 0, quick: bool = False,
            progress: Callable[[int, int], None] | None = None,
            ) -> ExplorerResult:
    """Sweep a power cut across the workload's whole event space.

    Full mode runs once per event index.  ``quick`` samples at a
    stride (>= :data:`QUICK_TARGET` points) and bisects every pair of
    neighbouring samples whose outcome signatures differ, until each
    behaviour boundary is pinned to an exact event index.  Every cut
    forks the golden run from the nearest op-boundary snapshot and
    replays only the tail.
    """
    result = ExplorerResult(seed=seed, quick=quick)
    cadence = SNAP_CADENCE_QUICK if quick else SNAP_CADENCE_FULL
    baseline, workload_events, total, timeline = _golden_run(seed, cadence)
    result.total_events = total
    result.workload_events = workload_events
    # With no cut the drain completes: everything acked must be intact.
    result.baseline_ok = (baseline.ok and not baseline.fired
                          and baseline.acked_uncommitted == 0)
    if total < 1:
        return result

    if quick:
        pending = _quick_points(total, workload_events)
    else:
        pending = list(range(1, total + 1))
    explored: dict[int, RunOutcome] = {}
    planned = len(pending)
    while pending:
        for index in pending:
            explored[index] = _replay_cut(timeline, index)
            if progress is not None:
                progress(len(explored), planned)
        if not quick:
            break
        # Bisect every adjacent pair whose outcome signatures differ:
        # behaviour boundaries get pinned to the exact event index.
        pending = []
        tested = sorted(explored)
        for left, right in zip(tested, tested[1:]):
            if right - left <= 1:
                continue
            if explored[left].signature() != explored[right].signature():
                pending.append((left + right) // 2)
        planned += len(pending)
    result.outcomes = [explored[i] for i in sorted(explored)]
    return result
