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
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.check.sanitizer import default_suite
from repro.device.nvdimmc import NVDIMMCSystem
from repro.errors import FailStopError, MediaError
from repro.fleet.qos import TenantQoS
from repro.fleet.tenants import TenantSpec
from repro.health.monitor import HealthPolicy, HealthState
from repro.sim.snapshot import SimSnapshot
from repro.sim.trace import Tracer, use_tracer
from repro.units import PAGE_4K, kb, mb, us
from repro.workloads.mixed_load import _check_record, _make_record


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
class ShardPlan:
    """Everything one shard needs to run, picklable for workers."""

    shard: int
    seed: int
    queue_bound: int
    wear: int                      #: pre-run injected program failures
    requests: tuple[Request, ...]  #: arrival-ordered


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
    tracer = Tracer(enabled=True, archive=False)
    suite = default_suite(strict=False)
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


def run_shard(snapshot: SimSnapshot, plan: ShardPlan,
              tenants: tuple[TenantSpec, ...]) -> ShardResult:
    """Fork the template, reseed it as shard ``plan.shard``, serve."""
    state = snapshot.restore()
    system: NVDIMMCSystem = state["system"]
    tracer: Tracer = state["tracer"]
    suite = state["suite"]
    epoch: int = state["t"]
    system.nand.reseed(plan.seed)

    result = ShardResult(
        shard=plan.shard,
        tenants=[TenantQoS(spec=tenant) for tenant in tenants])
    bases = tenant_bases(tenants)
    shadow: dict[int, bytes] = {}
    record_pages: set[int] = set()

    with use_tracer(tracer):
        if plan.wear:
            rng = random.Random(plan.seed)
            dies = system.nand.dies
            for _ in range(plan.wear):
                dies[rng.randrange(len(dies))].inject_program_failures(1)
        inflight: deque[int] = deque()
        t_free = epoch
        first_start = last_end = epoch
        for req in plan.requests:
            qos = result.tenants[req.tenant]
            qos.offered += 1
            arrival = epoch + req.arrival_ps
            while inflight and inflight[0] <= arrival:
                inflight.popleft()
            if len(inflight) >= plan.queue_bound:
                qos.rejected += 1
                result.rejected += 1
                continue
            qos.admitted += 1
            result.admitted += 1
            page = bases[req.tenant] + req.key
            start = max(arrival, t_free)
            try:
                if req.write:
                    if tenants[req.tenant].mix == "mixed":
                        data = _make_record(req.tenant, req.version, page)
                        record_pages.add(page)
                    else:
                        data = _filler(page, req.version)
                    end = system.driver.write_page(page, data, start)
                    shadow[page] = data
                else:
                    data, end = system.driver.read_page(page, start)
                    if page in record_pages and \
                            not _check_record(data, page):
                        qos.integrity_failures += 1
            except MediaError as exc:
                # DegradedModeError/FailStopError are MediaErrors with a
                # machine-readable reason: the module refused service.
                if getattr(exc, "reason", None) is not None:
                    qos.refused += 1
                    result.refused += 1
                else:
                    qos.failed_reads += 1
                continue
            t_free = end
            inflight.append(end)
            result.queue_peak = max(result.queue_peak, len(inflight))
            qos.completed += 1
            result.completed += 1
            qos.latencies_ps.append(max(0, end - arrival))
            result.busy_ps += max(0, end - start)
            first_start = min(first_start, start) if result.completed > 1 \
                else start
            last_end = end
        result.span_ps = max(0, last_end - first_start)

        # Integrity sweep: every page this shard committed must read
        # back exactly as written (mismatch or media error = loss).
        t = max(t_free, epoch)
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
    return result


def shard_seed(seed: int, shard: int) -> int:
    """The per-shard module seed (CRC32-derived, hash-free)."""
    return zlib.crc32(f"{seed}:shard:{shard}".encode("ascii"))
