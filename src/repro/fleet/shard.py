"""One fleet shard: a forked NVDIMM-C module plus its admission queue.

A shard is an independent module instance.  To make N of them cheap,
the front end builds the module *once* — bring-up plus the sequential
prefill of every tenant region, the expensive RNG-free prefix — and
captures a :class:`~repro.sim.snapshot.SimSnapshot`; every shard then
*forks* from that capture (PR 7's copy-on-write machinery) and is
independently reseeded (:meth:`~repro.nand.controller.NANDController.
reseed` re-derives the module's media RNG from the shard seed), so the
fleet behaves like N separately manufactured modules that left the same
factory line.

Execution model (virtual-time, deterministic): requests arrive in
global arrival order; a bounded FIFO queue in front of the module
implements admission control.  A request whose arrival finds
``queue_bound`` admitted-but-unfinished requests ahead of it is
rejected — backpressure the tenant sees — otherwise it is served
FIFO and its end-to-end latency (wait + service) is recorded against
the tenant's SLO.  Because placement is load-oblivious, each shard's
timeline is a pure function of its own plan, which is what lets
``--jobs`` fan shards out over worker processes with byte-identical
results.

One serve loop, :func:`serve_shard`, runs both harnesses.  A ``fleet
run`` shard is a ``fleet chaos`` shard with an empty fault plan: its
:class:`ShardPlan` schedules no fault events, mirrors no hedges, takes
no evacuated pages and no failover tail, and serves without front-end
retry.  :mod:`repro.fleet.chaos` fills those fields in; the loop then
also arms each scheduled fault before its request, retries a failed
request with jittered backoff, rides out a power cut with the §V-C
battery drain and a cold remount, serves the hedge mirrors merged by
arrival, and programs the evacuated pages and serves the failover tail
before the integrity sweep.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.check.sanitizer import default_suite
from repro.device.nvdimmc import NVDIMMCSystem
from repro.device.power import PowerFailureModel
from repro.errors import (ConfigError, FailStopError, MediaError,
                          PowerLossInterrupt)
from repro.faults.clock import FaultClock
from repro.fleet.qos import TenantQoS
from repro.fleet.tenants import TenantSpec
from repro.health.monitor import HealthPolicy, HealthState
from repro.health.retry import RetryPolicy
from repro.recovery import recover_mount
from repro.sim.snapshot import SimSnapshot
from repro.sim.trace import Tracer, use_tracer
from repro.units import PAGE_4K, kb, mb, us
from repro.workloads.mixed_load import _check_record, _make_record

#: Simulated time a cold remount costs the cut shard (drain + media
#: scan + driver bring-up) before it serves again.
_REMOUNT_PENALTY_PS = round(us(150))

#: Per-request front-end retry policy shape (seed/site filled per
#: shard).  Three attempts with jittered exponential backoff — enough
#: to ride out an ECC burst that exhausts the device-side read-retry
#: ladder, bounded so a sticky failure surfaces quickly.
_RETRY_ATTEMPTS = 3
_RETRY_BASE_PS = round(us(5))
_RETRY_CAP_PS = round(us(40))


@dataclass(frozen=True)
class Request:
    """One tenant request, placed and arrival-stamped by the front end."""

    seq: int            #: global submission order
    tenant: int         #: index into the tenant tuple
    arrival_ps: int     #: offset from the shard's post-prefix epoch
    key: int            #: tenant-local key (page within the region)
    write: bool
    version: int        #: payload version for writes


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault on one shard's virtual timeline."""

    at_request: int   #: apply before serving this primary-request ordinal
    kind: str         #: "program-fail" | "ecc-burst" | "power-cut"
    magnitude: int

    def to_dict(self) -> dict:
        return {"at_request": self.at_request, "kind": self.kind,
                "magnitude": self.magnitude}


@dataclass(frozen=True)
class ShardPlan:
    """Everything one shard needs to run, picklable for workers.

    The first five fields are a fleet shard's whole plan.  The rest are
    its fault plan, empty by default: chaos pass 1 adds the events and
    the retry seed and asks for the evacuation export, pass 2 adds the
    hedges, evacuated pages and failover tail of the shards whose plans
    grew.
    """

    shard: int
    seed: int
    queue_bound: int
    wear: int                      #: pre-run injected program failures
    requests: tuple[Request, ...]  #: arrival-ordered
    events: tuple[ChaosEvent, ...] = ()
    retry_seed: int | None = None  #: None serves without retry
    hedges: tuple[Request, ...] = ()
    evac_in: tuple[tuple[int, bytes], ...] = ()
    failover: tuple[Request, ...] = ()
    collect_evac: bool = False     #: export the sweep if impaired


@dataclass
class ShardResult:
    """One shard's observations, merged by the front end."""

    shard: int
    tenants: list[TenantQoS]
    admitted: int = 0
    rejected: int = 0
    refused: int = 0
    completed: int = 0
    queue_peak: int = 0
    busy_ps: int = 0
    span_ps: int = 0
    data_loss: int = 0
    sweep_pages: int = 0
    sweep_refused: int = 0
    violations: int = 0
    health: dict = field(default_factory=dict)

    @property
    def utilization_x1000(self) -> int:
        if self.span_ps <= 0:
            return 0
        return round(1000 * self.busy_ps / self.span_ps)

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "requests": self.admitted + self.rejected,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "refused": self.refused,
            "completed": self.completed,
            "queue_peak": self.queue_peak,
            "busy_ps": self.busy_ps,
            "span_ps": self.span_ps,
            "utilization_x1000": self.utilization_x1000,
            "data_loss": self.data_loss,
            "sweep_pages": self.sweep_pages,
            "sweep_refused": self.sweep_refused,
            "violations": self.violations,
            "health": self.health,
        }


@dataclass
class ShardOutcome:
    """Everything one shard run observed: its result plus what the
    fault plan made happen (all zero or empty for a fleet shard)."""

    result: ShardResult
    retries: int = 0            #: front-end re-issues (backoff applied)
    retry_successes: int = 0    #: requests that completed on a retry
    power_cuts: int = 0
    remounts: list[dict] = field(default_factory=list)
    refused_requests: tuple[Request, ...] = ()
    evac_pages: tuple[tuple[int, bytes], ...] = ()
    evac_in_pages: int = 0
    evac_in_failures: int = 0
    hedge_attempted: int = 0
    hedge_refused: int = 0
    hedge_completed_seqs: frozenset[int] = frozenset()
    failover_tenants: list[TenantQoS] = field(default_factory=list)
    failover_served: int = 0


#: Module geometry per mode: the quick shard mirrors the soak module
#: (heavy eviction traffic through a 128-slot cache); the full shard is
#: 8x, keeping the same cache:footprint pressure at 4x the footprints.
_QUICK_CACHE, _QUICK_DEVICE = kb(512), mb(8)
_FULL_CACHE, _FULL_DEVICE = mb(4), mb(64)


def tenant_bases(tenants: tuple[TenantSpec, ...]) -> tuple[int, ...]:
    """Disjoint per-tenant page regions (identical on every shard)."""
    bases = []
    base = 0
    for tenant in tenants:
        bases.append(base)
        base += tenant.footprint_pages
    return tuple(bases)


def _filler(page: int, version: int) -> bytes:
    """Non-integrity 4 KB payload (ingest / analytics writes)."""
    head = page.to_bytes(4, "little") + version.to_bytes(4, "little")
    return head + bytes([(page * 193 + version * 67) % 256]) * (PAGE_4K - 8)


def build_prefix(tenants: tuple[TenantSpec, ...], quick: bool,
                 seed: int,
                 health_policy: HealthPolicy | None = None
                 ) -> tuple[SimSnapshot, int]:
    """Build the template module and capture the shared prefix.

    Brings up one module, sequentially prefills every tenant region
    (version-0 payloads: integrity records for record-validated
    tenants, filler elsewhere) and captures the graph.  Returns the
    snapshot plus the prefill's mean per-op service time — the
    calibration probe the front end paces arrivals with.

    ``health_policy`` overrides the module's ladder thresholds (the
    chaos campaign tightens the bad-block budget so injected wear can
    drive a shard to ``read_only`` within one run); the default is the
    stock :class:`~repro.health.monitor.HealthPolicy`.
    """
    cache_bytes = _QUICK_CACHE if quick else _FULL_CACHE
    device_bytes = _QUICK_DEVICE if quick else _FULL_DEVICE
    tracer = Tracer(enabled=True)
    suite = default_suite()
    with use_tracer(tracer):
        with suite.attach(tracer):
            system = NVDIMMCSystem(
                cache_bytes=cache_bytes, device_bytes=device_bytes,
                seed=seed % 100003, tracer=tracer,
                health_policy=health_policy or HealthPolicy())
            bases = tenant_bases(tenants)
            t = round(us(1))
            start = t
            pages = 0
            for index, tenant in enumerate(tenants):
                for key in range(tenant.footprint_pages):
                    page = bases[index] + key
                    if tenant.mix == "mixed":
                        data = _make_record(index, 0, page)
                    else:
                        data = _filler(page, 0)
                    t = system.driver.write_page(page, data, t)
                    pages += 1
            service_est_ps = max(1, (t - start) // max(1, pages))
            snapshot = SimSnapshot.capture(
                {"system": system, "tracer": tracer, "suite": suite,
                 "t": t},
                label="fleet-prefix")
    return snapshot, service_est_ps


def _apply_event(system, event: ChaosEvent, rng: random.Random) -> None:
    """Arm one scheduled fault on the live shard (the injector hooks)."""
    if event.kind == "program-fail":
        dies = system.nand.dies
        for _ in range(event.magnitude):
            dies[rng.randrange(len(dies))].inject_program_failures(1)
    elif event.kind == "ecc-burst":
        system.nand.codec.inject_uncorrectable(event.magnitude)
    elif event.kind == "power-cut":
        clock = FaultClock().cut_on_visit(event.magnitude, site="nvmc")
        system.nvmc.fault_clock = clock
        system.nand.ftl.fault_clock = clock
    else:
        raise ConfigError(f"unknown chaos event kind {event.kind!r}")


def _cold_remount(system, now_ps: int):
    """§V-C drain then cold mount; returns (fresh_system, audit note)."""
    power = PowerFailureModel(system.driver)
    power.power_fail(now_ps=now_ps)
    fresh, report = recover_mount(system, power.journal, now_ps=now_ps)
    note = {
        "at_ps": now_ps,
        "health_state": report.health_state,
        "bad_blocks": report.bad_blocks,
        "replay_recovered": report.replay_recovered,
        "replay_lost": report.replay_lost,
        "replay_crc_mismatches": report.replay_crc_mismatches,
    }
    return fresh, note


def serve_shard(snapshot: SimSnapshot, plan: ShardPlan,
                tenants: tuple[TenantSpec, ...]) -> ShardOutcome:
    """Fork the template, reseed it as shard ``plan.shard``, serve.

    Virtual-time arrivals, bounded-FIFO admission and a shadow-dict
    integrity sweep, under whatever fault plan ``plan`` carries (see
    the module docstring).
    """
    state = snapshot.restore()
    system: NVDIMMCSystem = state["system"]
    tracer: Tracer = state["tracer"]
    suite = state["suite"]
    epoch: int = state["t"]
    system.nand.reseed(plan.seed)

    policy = RetryPolicy(
        max_attempts=1 if plan.retry_seed is None else _RETRY_ATTEMPTS,
        base_ps=_RETRY_BASE_PS, cap_ps=_RETRY_CAP_PS, multiplier=2.0,
        jitter=0.25, seed=plan.retry_seed or 0,
        site=f"chaos.shard{plan.shard}")
    result = ShardResult(
        shard=plan.shard,
        tenants=[TenantQoS(spec=tenant) for tenant in tenants])
    outcome = ShardOutcome(
        result=result,
        failover_tenants=[TenantQoS(spec=tenant) for tenant in tenants])
    bases = tenant_bases(tenants)
    shadow: dict[int, bytes] = {}
    record_pages: set[int] = set()
    refused: list[Request] = []
    hedge_completed: set[int] = set()
    events_left = list(plan.events)
    fault_rng = random.Random(
        zlib.crc32(f"{plan.retry_seed}:events".encode("ascii")))

    def region_is_records(page: int) -> bool:
        tenant = 0
        for index, base in enumerate(bases):
            if page >= base:
                tenant = index
        return tenants[tenant].mix == "mixed"

    # Hedge mirrors interleave with the primary plan by arrival time:
    # the front end issues the insurance copy the moment it issues the
    # primary, so the hedge shard sees both streams merged.
    entries = sorted(
        [(req, False) for req in plan.requests]
        + [(req, True) for req in plan.hedges],
        key=lambda entry: (entry[0].arrival_ps, entry[0].seq, entry[1]))

    with use_tracer(tracer):
        if plan.wear:
            rng = random.Random(plan.seed)
            dies = system.nand.dies
            for _ in range(plan.wear):
                dies[rng.randrange(len(dies))].inject_program_failures(1)
        inflight: deque[int] = deque()
        t_free = epoch
        first_start = last_end = epoch
        primary_index = 0

        def serve_op(req: Request, page: int, start: int):
            """One request with bounded retry and power-cut recovery.

            Returns ``(status, end_ps, payload, attempts)`` with status
            one of ``"ok"`` / ``"refused"`` / ``"failed"``.  A power cut
            mid operation runs the battery drain and the cold mount,
            then re-issues the interrupted request on the fresh system —
            the admission queue empties deterministically with the power.
            """
            nonlocal system
            attempts = 0
            at = start
            while True:
                attempts += 1
                try:
                    if req.write:
                        if tenants[req.tenant].mix == "mixed":
                            payload = _make_record(req.tenant,
                                                   req.version, page)
                        else:
                            payload = _filler(page, req.version)
                        end = system.driver.write_page(page, payload, at)
                        return "ok", end, payload, attempts
                    payload, end = system.driver.read_page(page, at)
                    return "ok", end, payload, attempts
                except PowerLossInterrupt as exc:
                    outcome.power_cuts += 1
                    cut_ps = max(at, exc.time_ps)
                    system, note = _cold_remount(system, cut_ps)
                    outcome.remounts.append(note)
                    inflight.clear()
                    outcome.retries += 1
                    at = cut_ps + _REMOUNT_PENALTY_PS
                except MediaError as exc:
                    # DegradedModeError/FailStopError are MediaErrors
                    # with a machine-readable reason: the module refused
                    # service, and retrying the same shard is futile.
                    if getattr(exc, "reason", None) is not None:
                        return "refused", at, None, attempts
                    if not policy.allows(attempts):
                        return "failed", at, None, attempts
                    outcome.retries += 1
                    at += policy.backoff_ps(attempts,
                                            site=f"req{req.seq}")

        def settle(req: Request, page: int, payload: bytes,
                   qos: TenantQoS) -> None:
            """Shadow a completed write; integrity-check a completed read."""
            if req.write:
                shadow[page] = payload
                if tenants[req.tenant].mix == "mixed":
                    record_pages.add(page)
            elif page in record_pages and not _check_record(payload, page):
                qos.integrity_failures += 1

        for req, is_hedge in entries:
            if not is_hedge:
                while events_left and \
                        events_left[0].at_request <= primary_index:
                    _apply_event(system, events_left.pop(0), fault_rng)
                primary_index += 1
            arrival = epoch + req.arrival_ps
            page = bases[req.tenant] + req.key

            qos = result.tenants[req.tenant]
            if is_hedge:
                outcome.hedge_attempted += 1
                status, end, payload, _ = serve_op(
                    req, page, max(arrival, t_free))
                if status == "ok":
                    hedge_completed.add(req.seq)
                    t_free = end
                    settle(req, page, payload, qos)
                else:
                    outcome.hedge_refused += 1
                continue

            qos.offered += 1
            while inflight and inflight[0] <= arrival:
                inflight.popleft()
            if len(inflight) >= plan.queue_bound:
                qos.rejected += 1
                result.rejected += 1
                continue
            qos.admitted += 1
            result.admitted += 1
            start = max(arrival, t_free)
            status, end, payload, attempts = serve_op(req, page, start)
            if status == "refused":
                qos.refused += 1
                result.refused += 1
                refused.append(req)
                continue
            if status == "failed":
                qos.failed_reads += 1
                continue
            if attempts > 1:
                outcome.retry_successes += 1
            settle(req, page, payload, qos)
            t_free = end
            inflight.append(end)
            result.queue_peak = max(result.queue_peak, len(inflight))
            qos.completed += 1
            result.completed += 1
            qos.latencies_ps.append(max(0, end - arrival))
            result.busy_ps += max(0, end - start)
            first_start = min(first_start, start) \
                if result.completed > 1 else start
            last_end = end
        result.span_ps = max(0, last_end - first_start)
        # Flush events scheduled past the last served ordinal (plan
        # rounding); applying them keeps the schedule exact.
        for event in events_left:
            _apply_event(system, event, fault_rng)

        # Evacuation-in: bulk-program the donated pages through the
        # driver (each lands with a fresh OOB recovery stamp) and track
        # them in the shadow so the final sweep verifies every copy.
        t = max(t_free, epoch)
        for page, data in plan.evac_in:
            try:
                t = system.driver.write_page(page, data, t)
            except MediaError:
                outcome.evac_in_failures += 1
                continue
            shadow[page] = data
            outcome.evac_in_pages += 1
            if region_is_records(page):
                record_pages.add(page)

        # Failover tail: requests refused elsewhere, re-placed here.
        # They queue behind the evacuation window — the availability
        # hit is charged honestly: latency runs from the *original*
        # arrival the impaired shard stamped.
        for req in plan.failover:
            fqos = outcome.failover_tenants[req.tenant]
            fqos.offered += 1
            fqos.admitted += 1
            page = bases[req.tenant] + req.key
            arrival = epoch + req.arrival_ps
            status, end, payload, _ = serve_op(
                req, page, max(arrival, t))
            if status == "refused":
                fqos.refused += 1
                continue
            if status == "failed":
                fqos.failed_reads += 1
                continue
            settle(req, page, payload, fqos)
            t = end
            fqos.completed += 1
            outcome.failover_served += 1
            fqos.latencies_ps.append(max(0, end - arrival))

        # Integrity sweep: every page this shard committed must read
        # back exactly as written (mismatch or media error = loss).
        # When the plan asks and the shard ended impaired, it doubles
        # as the evacuation read-out: every verified page is a payload
        # the routing pass hands the donor (read_only degraded reads
        # still serve, so the sweep is the export path).
        collect = plan.collect_evac and \
            system.health.state >= HealthState.READ_ONLY
        evac: list[tuple[int, bytes]] = []
        for page in sorted(shadow):
            result.sweep_pages += 1
            try:
                data, t = system.driver.read_page(page, t)
            except FailStopError:
                result.sweep_refused += 1
                continue
            except MediaError:
                result.data_loss += 1
                continue
            if data != shadow[page]:
                result.data_loss += 1
                continue
            if collect:
                evac.append((page, data))
        suite.detach()

    result.violations = len(suite.violations)
    monitor = system.health
    worst = monitor.state
    for transition in monitor.timeline:
        worst = max(worst, HealthState[transition.to_state.upper()])
    result.health = {
        "state": monitor.state.label,
        "worst": worst.label,
        "counters": {key: monitor.counters.counts[key]
                     for key in sorted(monitor.counters.counts)},
        "transitions": len(monitor.timeline),
    }
    outcome.refused_requests = tuple(refused)
    outcome.evac_pages = tuple(evac)
    outcome.hedge_completed_seqs = frozenset(hedge_completed)
    return outcome


def run_shard(snapshot: SimSnapshot, plan: ShardPlan,
              tenants: tuple[TenantSpec, ...]) -> ShardResult:
    """The fleet entry point: :func:`serve_shard`'s result alone."""
    return serve_shard(snapshot, plan, tenants).result


def shard_seed(seed: int, shard: int) -> int:
    """The per-shard module seed (CRC32-derived, hash-free)."""
    return zlib.crc32(f"{seed}:shard:{shard}".encode("ascii"))
