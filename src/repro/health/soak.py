"""The long-run soak harness: composed faults down the whole ladder.

A soak is one deterministic long-horizon run that composes the
:mod:`repro.faults` fault surfaces (CP word corruption, ack drops, DMA
shortfalls, Z-NAND program failures, uncorrectable ECC) over successive
*rounds*, marching one NVDIMM-C module down the entire recovery ladder
on purpose::

    baseline    -> ok          (patrol scrub in idle refresh windows)
    cp-storm    -> retry       (>= 3 transient fault types interleaved)
    media-remap -> remap       (program failures within remap budget)
    wear-out    -> read_only   (grown bad blocks cross the budget)
    fail-stop   -> fail_stop   (unrecoverable read while degraded)

Acceptance, checked from the report alone:

* **zero data loss** — every committed page is read back intact through
  every round up to and including read-only mode (the fail-stop trigger
  deliberately sacrifices one page to an unrecoverable read; it is
  accounted in the round's notes as ``sacrificed_pages``, exactly like
  the lossy ``nand-read-uncorrectable-hard`` campaign cell, never
  hidden inside ``data_loss``);
* **full ladder coverage** — every edge of
  :data:`~repro.health.monitor.LADDER_EDGES` appears in the health
  timeline at least once;
* **bounded latency degradation** — the p99 op latency of the faulted
  rounds stays within ``p99_bound`` times a fault-free twin running the
  identical workload schedule;
* **sanitizers quiet** — the full :func:`~repro.check.sanitizer.
  default_suite` (including the scrub sanitizer) observes the run.

Determinism: the soak is a pure function of ``(seed, quick)`` — two
runs with the same seed render byte-identical reports (the CLI's
wall-clock timestamp is the only exempt field).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.check.sanitizer import default_suite
from repro.device.nvdimmc import NVDIMMCSystem
from repro.errors import FailStopError, MediaError
from repro.health.monitor import HealthPolicy
from repro.health.report import SCHEMA
from repro.nvmc.nvmc import CPFaultPort
from repro.report import Gate, Gated
from repro.sim.snapshot import SimSnapshot
from repro.sim.trace import Tracer, use_tracer
from repro.units import PAGE_4K, kb, mb, us

#: Device pages the soak workload touches; 2.5x the 128-slot cache so
#: evictions (and their writeback fault sites) are constant.
FOOTPRINT_PAGES = 320
FOOTPRINT_PAGES_QUICK = 192
_CACHE_BYTES = kb(512)
_DEVICE_BYTES = mb(8)

#: Grown-bad-block budget for the soak module: small enough that the
#: wear-out round reaches read-only with a handful of injected program
#: failures, large enough that the media-remap round stays below it.
_SOAK_BAD_BLOCK_BUDGET = 4

#: Default p99 bound: faulted p99 op latency may not exceed this many
#: times the fault-free twin's p99.
DEFAULT_P99_BOUND = 40.0


@dataclass
class SoakRound:
    """One round of the soak: a fault mix, a workload leg, a verify."""

    name: str
    faults: list[str] = field(default_factory=list)
    writes: int = 0
    reads: int = 0
    refused_writes: int = 0
    media_errors: int = 0
    data_loss: int = 0
    health_before: str = "ok"
    health_after: str = "ok"
    notes: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "faults": list(self.faults),
            "writes": self.writes,
            "reads": self.reads,
            "refused_writes": self.refused_writes,
            "media_errors": self.media_errors,
            "data_loss": self.data_loss,
            "health_before": self.health_before,
            "health_after": self.health_after,
            "notes": {key: self.notes[key] for key in sorted(self.notes)},
        }


@dataclass
class SoakResult(Gated):
    """Everything one soak run observed."""

    seed: int
    quick: bool
    p99_bound: float = DEFAULT_P99_BOUND
    rounds: list[SoakRound] = field(default_factory=list)
    health_timeline: list[dict] = field(default_factory=list)
    edges: dict[str, int] = field(default_factory=dict)
    clean_p50_ps: int = 0
    clean_p99_ps: int = 0
    soak_p50_ps: int = 0
    soak_p99_ps: int = 0
    samples: int = 0
    scrub: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    violations: int = 0

    @property
    def data_loss(self) -> int:
        return sum(r.data_loss for r in self.rounds)

    @property
    def p99_ratio_x1000(self) -> int:
        if self.clean_p99_ps <= 0:
            return 0
        return round(1000 * self.soak_p99_ps / self.clean_p99_ps)

    @property
    def edges_ok(self) -> bool:
        return bool(self.edges) and all(n >= 1 for n in self.edges.values())

    @property
    def latency_ok(self) -> bool:
        return self.p99_ratio_x1000 <= round(1000 * self.p99_bound)

    @property
    def gates(self) -> list[Gate]:
        missing = [edge for edge, n in sorted(self.edges.items()) if n < 1]
        return [
            Gate("zero_loss", self.data_loss == 0,
                 f"soak FAILED: {self.data_loss} pages lost"),
            Gate("ladder_edges", self.edges_ok,
                 f"soak FAILED: ladder edges never exercised: {missing}"),
            Gate("p99_within_bound", self.latency_ok,
                 "soak FAILED: p99 latency degradation "
                 f"{self.p99_ratio_x1000 / 1000:.2f}x exceeds the "
                 f"{self.p99_bound:.0f}x bound"),
            Gate("sanitizers_quiet", self.violations == 0,
                 f"soak FAILED: {self.violations} sanitizer violations"),
        ]

    def totals(self) -> dict[str, int]:
        return {
            "rounds": len(self.rounds),
            "writes": sum(r.writes for r in self.rounds),
            "reads": sum(r.reads for r in self.rounds),
            "refused_writes": sum(r.refused_writes for r in self.rounds),
            "media_errors": sum(r.media_errors for r in self.rounds),
            "data_loss": self.data_loss,
            "violations": self.violations,
        }

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "generated_at": None,
            "seed": self.seed,
            "quick": self.quick,
            "rounds": [r.to_dict() for r in self.rounds],
            "health_timeline": list(self.health_timeline),
            "edges": {key: self.edges[key] for key in sorted(self.edges)},
            "latency": {
                "samples": self.samples,
                "clean_p50_ps": self.clean_p50_ps,
                "clean_p99_ps": self.clean_p99_ps,
                "soak_p50_ps": self.soak_p50_ps,
                "soak_p99_ps": self.soak_p99_ps,
                "p99_ratio_x1000": self.p99_ratio_x1000,
                "p99_bound_x1000": round(1000 * self.p99_bound),
            },
            "scrub": {key: self.scrub[key] for key in sorted(self.scrub)},
            "counters": {key: self.counters[key]
                         for key in sorted(self.counters)},
            "totals": self.totals(),
            "ok": self.ok,
        }


# -- workload legs (shared by the soak system and its fault-free twin) ------------


def _payload(page: int, version: int) -> bytes:
    head = page.to_bytes(4, "little") + version.to_bytes(4, "little")
    return head + bytes([(page * 137 + version * 31) % 256]) * (PAGE_4K - 8)


def _percentile(samples: list[int], fraction: float) -> int:
    if not samples:
        return 0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


class _Leg:
    """Workload-leg runner over one driver, collecting op latencies."""

    def __init__(self, driver, shadow: dict[int, bytes],
                 footprint: int) -> None:
        self.driver = driver
        self.shadow = shadow
        self.footprint = footprint
        self.latencies: list[int] = []

    def seq_write(self, t: int, version: int, rnd: SoakRound,
                  sample: bool = False) -> int:
        for page in range(self.footprint):
            data = _payload(page, version)
            try:
                end = self.driver.write_page(page, data, t)
            except FailStopError:
                rnd.refused_writes += 1
                continue
            except MediaError as exc:
                if getattr(exc, "reason", None) is not None:
                    rnd.refused_writes += 1
                else:
                    rnd.media_errors += 1
                continue
            if sample:
                self.latencies.append(max(0, end - t))
            t = end
            rnd.writes += 1
            self.shadow[page] = data
        return t

    def rand_rw(self, t: int, rng: random.Random, steps: int,
                version_base: int, rnd: SoakRound,
                sample: bool = False) -> int:
        for step in range(steps):
            if self.shadow and rng.random() < 0.3:
                page = rng.choice(sorted(self.shadow))
                try:
                    _data, end = self.driver.read_page(page, t)
                except MediaError:
                    rnd.media_errors += 1
                    continue
                rnd.reads += 1
            else:
                page = rng.randrange(self.footprint)
                data = _payload(page, version_base + step)
                try:
                    end = self.driver.write_page(page, data, t)
                except FailStopError:
                    rnd.refused_writes += 1
                    continue
                except MediaError as exc:
                    if getattr(exc, "reason", None) is not None:
                        rnd.refused_writes += 1
                    else:
                        rnd.media_errors += 1
                    continue
                rnd.writes += 1
                self.shadow[page] = data
            if sample:
                self.latencies.append(max(0, end - t))
            t = end
        return t

    def verify(self, t: int, rnd: SoakRound) -> int:
        """Read back every committed page; mismatches are data loss."""
        lost = 0
        for page in sorted(self.shadow):
            try:
                data, end = self.driver.read_page(page, t)
            except MediaError:
                lost += 1
                continue
            if data != self.shadow[page]:
                lost += 1
            t = end
            rnd.reads += 1
        rnd.data_loss += lost
        return t


# -- the soak itself ---------------------------------------------------------------


def _build_system(seed: int, tracer: Tracer) -> NVDIMMCSystem:
    system = NVDIMMCSystem(
        cache_bytes=_CACHE_BYTES, device_bytes=_DEVICE_BYTES,
        seed=seed % 100003, tracer=tracer,
        health_policy=HealthPolicy(
            read_only_bad_blocks=_SOAK_BAD_BLOCK_BUDGET))
    system.nvmc.faults = CPFaultPort()
    return system


def run_soak(seed: int = 0, quick: bool = False,
             p99_bound: float = DEFAULT_P99_BOUND,
             progress: Callable[[SoakRound], None] | None = None,
             ) -> SoakResult:
    """Execute the five-round soak under a sanitized tracer.

    The shared prefix — system bring-up plus the sequential fill, which
    consumes no round RNG — runs once and is captured as a
    :class:`~repro.sim.snapshot.SimSnapshot`; the faulted rounds
    continue it live and the fault-free latency twin forks from the
    capture.  Each of the two runs counts the violations its own suite
    holds, and the twin's suite already holds the prefix's.
    """
    soak_seed = zlib.crc32(f"{seed}:soak".encode("ascii"))
    footprint = FOOTPRINT_PAGES_QUICK if quick else FOOTPRINT_PAGES
    steps = footprint
    scrub_windows = 32 if quick else 96
    result = SoakResult(seed=seed, quick=quick, p99_bound=p99_bound)
    tracer = Tracer(enabled=True)
    suite = default_suite()
    with use_tracer(tracer):
        with suite.attach(tracer):
            system, leg, rnd, t = _soak_prefix(soak_seed, footprint, tracer)
            snap = SimSnapshot.capture(
                {"system": system, "tracer": tracer, "suite": suite,
                 "leg": leg, "t": t},
                label="soak-prefix")
            _run_rounds(result, system, leg, rnd, t, soak_seed, steps,
                        scrub_windows, progress)
    twin_latencies, twin_violations = _fork_twin(snap, soak_seed, steps)
    result.violations = len(suite.violations) + twin_violations
    result.clean_p50_ps = _percentile(twin_latencies, 0.50)
    result.clean_p99_ps = _percentile(twin_latencies, 0.99)
    return result


def _soak_prefix(seed: int, footprint: int, tracer: Tracer,
                 ) -> tuple[NVDIMMCSystem, "_Leg", SoakRound, int]:
    """Bring-up plus the sequential fill: the RNG-free shared prefix."""
    system = _build_system(seed, tracer)
    shadow: dict[int, bytes] = {}
    leg = _Leg(system.driver, shadow, footprint)
    rnd = SoakRound(name="baseline",
                    health_before=system.health.state.label)
    t = round(us(1))
    t = leg.seq_write(t, 0, rnd, sample=True)
    return system, leg, rnd, t


def _fork_twin(snap: SimSnapshot, seed: int,
               steps: int) -> tuple[list[int], int]:
    """The fault-free twin, forked from the shared prefix.

    The baseline and cp-storm workload schedule with nothing armed: a
    fresh ``Random(seed)`` (the prefix consumed none of it) drives the
    two mixed legs; the restored leg already carries the prefix latency
    samples.  The fork's suite runs its finalizers, so end-of-run
    invariants are checked for the twin too.  Returns the latency
    samples and the violations the fork's suite holds.
    """
    state = snap.restore()
    rng = random.Random(seed)
    leg = state["leg"]
    suite = state["suite"]
    scratch = SoakRound(name="twin")
    t = state["t"]
    with use_tracer(state["tracer"]):
        t = leg.rand_rw(t, rng, steps, 1_000, scratch, sample=True)
        t = leg.rand_rw(t, rng, steps, 2_000, scratch, sample=True)
        suite.detach()
    return leg.latencies, len(suite.violations)


def _run_rounds(result: SoakResult, system: NVDIMMCSystem, leg: "_Leg",
                rnd: SoakRound, t: int, seed: int, steps: int,
                scrub_windows: int,
                progress: Callable[[SoakRound], None] | None) -> None:
    """The five rounds, continuing the prefix's system and leg live."""
    rng = random.Random(seed)
    monitor = system.health
    port = system.nvmc.faults
    shadow = leg.shadow
    trefi = system.spec.trefi_ps

    def close(rnd: SoakRound) -> None:
        rnd.health_after = monitor.state.label
        result.rounds.append(rnd)
        if progress is not None:
            progress(rnd)

    # Round 1 — baseline (its fill already ran as the shared prefix):
    # committed data, patrol scrub, state stays ok.
    idle_from = max(t, system.nvmc.ready_ps)
    system.scrubber.patrol(idle_from, idle_from + scrub_windows * trefi)
    t = max(idle_from + scrub_windows * trefi, system.nvmc.ready_ps)
    t = leg.rand_rw(t, rng, steps, 1_000, rnd, sample=True)
    t = leg.verify(t, rnd)
    close(rnd)

    # Round 2 — cp-storm: three transient fault surfaces interleaved
    # (CP word corruption, lost acks, DMA shortfalls) cross the
    # transient budget: ok -> retry.
    rnd = SoakRound(name="cp-storm", health_before=monitor.state.label,
                    faults=["cp-corrupt", "cp-ack-drop", "dma-partial"])
    port.corrupt_command("phase", after=1 + rng.randrange(3))
    port.corrupt_command("opcode", after=5 + rng.randrange(3))
    port.drop_ack(after=9 + rng.randrange(3))
    port.drop_ack(after=13 + rng.randrange(3))
    for _ in range(3):
        port.shorten_dma(512 * (1 + rng.randrange(6)),
                         after=rng.randrange(6))
    t = leg.rand_rw(t, rng, steps, 2_000, rnd, sample=True)
    t = leg.verify(t, rnd)
    rnd.notes = {"cp_retries": system.driver.stats.cp_retries,
                 "cp_timeouts": system.driver.stats.cp_timeouts,
                 "dma_partials": system.nvmc.dma.stats.partial_transfers}
    close(rnd)

    # Round 3 — media-remap: program failures inside the remap budget;
    # the FTL retires the blocks and remaps: retry -> remap.
    rnd = SoakRound(name="media-remap", health_before=monitor.state.label,
                    faults=["nand-program-fail"])
    for index in rng.sample(range(len(system.nand.dies)), 2):
        system.nand.dies[index].inject_program_failures(1)
    t = leg.seq_write(t, 1, rnd)
    idle_from = max(t, system.nvmc.ready_ps)
    system.scrubber.patrol(idle_from, idle_from + scrub_windows * trefi)
    t = max(idle_from + scrub_windows * trefi, system.nvmc.ready_ps)
    t = leg.verify(t, rnd)
    rnd.notes = {"program_retries": system.nand.ftl.stats.program_retries,
                 "grown_bad_blocks": system.nand.ftl.stats.grown_bad_blocks}
    close(rnd)

    # Round 4 — wear-out: more grown bad blocks cross the budget:
    # remap -> read_only.  Every committed page must survive the
    # transition and stay readable from the degraded module.
    rnd = SoakRound(name="wear-out", health_before=monitor.state.label,
                    faults=["nand-program-fail"])
    for index in rng.sample(range(len(system.nand.dies)), 2):
        system.nand.dies[index].inject_program_failures(1)
    t = leg.seq_write(t, 2, rnd)
    t = leg.verify(t, rnd)
    rnd.notes = {
        "grown_bad_blocks": system.nand.ftl.stats.grown_bad_blocks,
        "degraded_reads": system.driver.stats.degraded_reads,
        "eviction_rollbacks": system.driver.stats.eviction_rollbacks,
    }
    close(rnd)

    # Round 5 — fail-stop: one unrecoverable read while already
    # degraded: read_only -> fail_stop.  The sacrificed page is honest
    # loss-by-design (like the campaign's -hard cell), noted, not
    # hidden; afterwards every host operation must be refused.
    rnd = SoakRound(name="fail-stop", health_before=monitor.state.label,
                    faults=["nand-read-uncorrectable-hard"])
    kill_page = next(page for page in sorted(shadow)
                     if page not in system.driver.page_to_slot)
    system.nand.codec.inject_uncorrectable(1 + system.nand.read_retry_limit)
    sacrificed = 0
    try:
        _data, t = system.driver.read_page(kill_page, t)
    except MediaError:
        sacrificed = 1
    refused_reads = refused_writes = 0
    for page in sorted(shadow)[:4]:
        try:
            system.driver.read_page(page, t)
        except FailStopError:
            refused_reads += 1
        try:
            system.driver.write_page(page, _payload(page, 9_999), t)
        except FailStopError:
            refused_writes += 1
    rnd.refused_writes += refused_writes
    rnd.notes = {
        "sacrificed_pages": sacrificed,
        "refused_reads": refused_reads,
        "unrecovered_reads": system.nand.stats.unrecovered_reads,
    }
    close(rnd)

    result.health_timeline = [tr.to_dict() for tr in monitor.timeline]
    result.edges = monitor.edges_exercised()
    result.counters = dict(sorted(monitor.counters.counts.items()))
    stats = system.scrubber.stats
    result.scrub = {
        "windows_scanned": stats.windows_scanned,
        "windows_busy": stats.windows_busy,
        "windows_used": stats.windows_used,
        "dram_slots_refreshed": stats.dram_slots_refreshed,
        "nand_pages_verified": stats.nand_pages_verified,
        "uncorrectable_found": stats.uncorrectable_found,
        "relocations": stats.relocations,
        "relocation_failures": stats.relocation_failures,
    }
    soak_latencies = leg.latencies
    result.samples = len(soak_latencies)
    result.soak_p50_ps = _percentile(soak_latencies, 0.50)
    result.soak_p99_ps = _percentile(soak_latencies, 0.99)
