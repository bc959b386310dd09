"""Chaos campaigns: shard-level fault injection + fault-aware routing.

PR 8's fleet assumes every shard stays healthy.  This module drops the
assumption: a **chaos campaign** drives a seeded per-shard fault plan
through the PR 3 injector machinery — NAND program-fail bursts,
uncorrectable-ECC bursts, a mid-run power cut with a cold remount via
:func:`repro.recovery.recover_mount` — while the front end defends the
tenants with the three standard resilience moves:

* **retry** — every request runs under a bounded
  :class:`~repro.health.retry.RetryPolicy` (seed-derived CRC32 jitter,
  capped exponential backoff), so transient media errors and
  cut-interrupted requests are re-issued instead of surfaced;
* **failover** — requests a ``read_only``/``fail_stop`` shard refused
  are re-placed onto a surviving shard chosen by a deterministic
  overflow ring (the next surviving shard on the ring after the
  impaired one);
* **hedging** — OLTP writes bound for the planned kill shard are
  mirrored up front onto the ring-next shard; when the primary is
  refused, the completed hedge *rescues* the request without a second
  round trip;
* **evacuation** — an impaired shard's committed pages are bulk-copied
  to its donor (each copy re-programmed through the driver, so it gets
  a fresh OOB recovery stamp, and verified by the donor's final
  integrity sweep) and the placement map is patched: the donor answers
  for the evacuated keys from then on.

This module supplies the fault plan, not a serve loop: every shard runs
:func:`repro.fleet.shard.serve_shard`, the loop a plain fleet shard
runs, with the plan's events, retry seed, hedges, evacuated pages and
failover tail filled in, and :meth:`repro.fleet.frontend.Fleet.serve`
fans both passes out.

Determinism and the ``--jobs`` contract: the campaign runs in **two
passes**.  Pass 1 executes every shard's plan plus its fault schedule —
each shard is still a pure function of its own plan, so the pass fans
out over worker processes unchanged.  The routing pass is pure
arithmetic over the pass-1 outcomes (which shards ended impaired, which
requests they refused, what their committed pages hold).  Pass 2
re-runs only the shards whose plans grew (hedge mirrors, evacuated
pages, failover tails) from the same prefix snapshot — deterministic
replay makes the re-run exact, so the merged report is byte-identical
at any ``jobs`` setting.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.fleet.chaos_report import chaos_payload
from repro.fleet.frontend import Fleet, FleetConfig
from repro.fleet.qos import TenantQoS
from repro.fleet.shard import (
    ChaosEvent,
    Request,
    ShardOutcome,
    build_prefix,
    tenant_bases,
)
from repro.fleet.tenants import TenantSpec
from repro.health.monitor import HealthPolicy
from repro.report import Gate, Gated

#: Request-count defaults per mode.  The two-pass structure serves the
#: donor's plan twice, so chaos sizes below the plain fleet run.
QUICK_REQUESTS = 24_000
FULL_REQUESTS = 400_000

#: The chaos module's bad-block budget: :class:`HealthPolicy`'s stock
#: ``read_only_bad_blocks=16`` would need more injected wear than a
#: quick run programs, so the campaign mounts every shard with a
#: tighter ladder — the planned program-fail bursts then push the kill
#: shard over the ``read_only`` edge mid-run.
CHAOS_BAD_BLOCK_BUDGET = 4

#: Availability allowance under chaos, in ppm: each tenant's chaos SLO
#: is its declared ``min_admit_ppm`` minus this allowance.  The fleet
#: is *expected* to dip while a shard dies and its traffic re-routes;
#: the gate bounds the dip instead of pretending it away.
SLO_ALLOWANCE_PPM = 120_000

#: The kill shard's schedule: an ECC burst deep enough to escape the
#: device's read-retry ladder (surfacing a front-end retry), a mid-run
#: power cut (drain, cold remount, replay audit), then program-fail
#: bursts totalling twice the bad-block budget — the shard grows bad
#: blocks until the ladder locks it ``read_only``.  Fractions are of
#: the shard's request count (virtual-time schedule positions).
_KILL_SCHEDULE: tuple[tuple[str, int, float], ...] = (
    ("ecc-burst", 5, 0.12),
    ("power-cut", 1, 0.22),
    ("program-fail", 3, 0.30),
    ("program-fail", 3, 0.38),
    ("program-fail", 2, 0.46),
)

#: Every surviving shard still takes light fire: a burst the read-retry
#: ladder absorbs internally (transient health evidence, no surfaced
#: error) — survivors are stressed, not sterile.
_SURVIVOR_SCHEDULE: tuple[tuple[str, int, float], ...] = (
    ("ecc-burst", 2, 0.50),
)

#: Health states that take a shard out of the write path.
_IMPAIRED_STATES = ("read_only", "fail_stop")


# -- configuration ------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """Everything that determines a chaos campaign."""

    shards: int = 3
    quick: bool = False
    requests: int | None = None       #: None -> mode default
    seed: int = 7
    queue_bound: int = 64
    jobs: int = 1
    placement: str = "capacity_weighted"
    weights: tuple[int, ...] = ()
    worker_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.shards < 2:
            raise ConfigError(
                f"chaos needs shards >= 2 — failover and evacuation "
                f"require at least one survivor — got {self.shards}")
        # Shared validation (placement, queue_bound, timeout, ...).
        self.fleet_config()

    @property
    def request_count(self) -> int:
        if self.requests is not None:
            return self.requests
        return QUICK_REQUESTS if self.quick else FULL_REQUESTS

    def fleet_config(self) -> FleetConfig:
        """The underlying fleet configuration (planning + placement)."""
        return FleetConfig(
            shards=self.shards, placement=self.placement,
            quick=self.quick, requests=self.request_count,
            seed=self.seed, queue_bound=self.queue_bound,
            wear_shards=0, jobs=self.jobs, weights=self.weights,
            worker_timeout_s=self.worker_timeout_s)

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "placement": self.placement,
            "quick": self.quick,
            "requests": self.request_count,
            "seed": self.seed,
            "queue_bound": self.queue_bound,
            "weights": list(self.weights),
            "bad_block_budget": CHAOS_BAD_BLOCK_BUDGET,
            "slo_allowance_ppm": SLO_ALLOWANCE_PPM,
        }


# -- the fault plan -----------------------------------------------------------------


@dataclass(frozen=True)
class ChaosRoles:
    """The seed-derived cast: who dies, who insures."""

    kill_shard: int    #: driven to ``read_only`` by the fault plan
    hedge_target: int  #: ring-next shard carrying the OLTP write hedges


def plan_roles(config: ChaosConfig) -> ChaosRoles:
    """Pick the kill shard (seeded) and its ring-next hedge target."""
    rng = random.Random(
        zlib.crc32(f"{config.seed}:chaos:roles".encode("ascii")))
    kill = rng.randrange(config.shards)
    return ChaosRoles(kill_shard=kill,
                      hedge_target=(kill + 1) % config.shards)


def plan_events(shard: int, roles: ChaosRoles,
                plan_requests: int) -> tuple[ChaosEvent, ...]:
    """The shard's fault schedule, positioned on its request ordinals."""
    schedule = (_KILL_SCHEDULE if shard == roles.kill_shard
                else _SURVIVOR_SCHEDULE)
    return tuple(
        ChaosEvent(at_request=min(plan_requests,
                                  round(fraction * plan_requests)),
                   kind=kind, magnitude=magnitude)
        for kind, magnitude, fraction in schedule)


def _retry_seed(seed: int, shard: int) -> int:
    return zlib.crc32(f"{seed}:chaos:retry:{shard}".encode("ascii"))


# -- the deterministic routing pass -------------------------------------------------


@dataclass(frozen=True)
class Evacuation:
    """One impaired shard's bulk copy to its donor."""

    source: int
    donor: int
    pages_committed: int        #: verified committed pages at export
    pages_excluded_hedged: int  #: newer hedge copy already on donor
    pages: tuple[tuple[int, bytes], ...]


@dataclass(frozen=True)
class RoutingPlan:
    """The pure pass-2 plan derived from pass-1 outcomes."""

    impaired: tuple[int, ...]
    survivors: tuple[int, ...]
    evacuations: tuple[Evacuation, ...]
    failover: dict[int, tuple[Request, ...]]  #: donor -> re-placed reqs
    skipped_hedged: int   #: refusals left to their hedge (no failover)


def route_failover(outcomes: list[ShardOutcome], roles: ChaosRoles,
                   hedged_seqs: frozenset[int],
                   bases: tuple[int, ...]) -> RoutingPlan:
    """Derive donors, evacuations and failover placement — pure.

    The overflow ring: an impaired shard's donor is the next surviving
    shard after it in ring order, and *all* of its refused traffic and
    evacuated pages go to that one donor — so the patched placement map
    stays a function (impaired shard -> donor), evacuated data and
    failed-over writes land on the same module, and reads of evacuated
    keys are consistent.  Refusals whose hedge mirror already carries
    the write are left to the hedge (no double placement); their pages
    are excluded from the evacuation so the older source copy cannot
    clobber the newer hedge copy on the donor.
    """
    shards = len(outcomes)
    impaired = tuple(
        s for s in range(shards)
        if outcomes[s].result.health.get("state") in _IMPAIRED_STATES)
    survivors = tuple(s for s in range(shards) if s not in impaired)
    evacuations: list[Evacuation] = []
    failover: dict[int, list[Request]] = {s: [] for s in survivors}
    skipped = 0
    for source in impaired:
        if not survivors:
            break   # total fleet loss: nothing to route to; gate fails
        donor = next((source + step) % shards
                     for step in range(1, shards + 1)
                     if (source + step) % shards in survivors)
        excluded: set[int] = set()
        if donor == roles.hedge_target:
            for req in outcomes[source].refused_requests:
                if req.write and req.seq in hedged_seqs:
                    excluded.add(bases[req.tenant] + req.key)
        pages = tuple((page, data)
                      for page, data in outcomes[source].evac_pages
                      if page not in excluded)
        evacuations.append(Evacuation(
            source=source, donor=donor,
            pages_committed=len(outcomes[source].evac_pages),
            pages_excluded_hedged=(len(outcomes[source].evac_pages)
                                   - len(pages)),
            pages=pages))
        for req in outcomes[source].refused_requests:
            if req.seq in hedged_seqs:
                skipped += 1
                continue
            failover[donor].append(req)
    return RoutingPlan(
        impaired=impaired, survivors=survivors,
        evacuations=tuple(evacuations),
        failover={donor: tuple(reqs)
                  for donor, reqs in failover.items()},
        skipped_hedged=skipped)


# -- the campaign -------------------------------------------------------------------


@dataclass
class ChaosTenantView:
    """One tenant's merged chaos accounting across both passes."""

    spec: TenantSpec
    primary: TenantQoS
    failover: TenantQoS
    hedge_planned: int = 0
    hedge_completed: int = 0
    rescued: int = 0

    @property
    def success_ppm(self) -> int:
        """Availability under chaos: primary completions plus failover
        completions plus hedge rescues, over everything offered."""
        if self.primary.offered == 0:
            return 1_000_000
        successes = (self.primary.completed + self.failover.completed
                     + self.rescued)
        return round(1_000_000 * successes / self.primary.offered)

    @property
    def chaos_slo_ppm(self) -> int:
        return max(0, self.spec.slo.min_admit_ppm - SLO_ALLOWANCE_PPM)

    @property
    def ok(self) -> bool:
        return self.success_ppm >= self.chaos_slo_ppm


@dataclass
class ChaosResult(Gated):
    """The merged outcome of one chaos campaign."""

    config: ChaosConfig
    roles: ChaosRoles
    service_est_ps: int
    events: dict[int, tuple[ChaosEvent, ...]]
    hedged_writes: int
    outcomes: list[ShardOutcome]   #: final per shard (pass 2 wins)
    pass2_shards: tuple[int, ...]
    routing: RoutingPlan
    tenants: list[ChaosTenantView]

    @property
    def data_loss(self) -> int:
        return sum(out.result.data_loss for out in self.outcomes)

    @property
    def violations(self) -> int:
        return sum(out.result.violations for out in self.outcomes)

    @property
    def evacuation_ok(self) -> bool:
        """Every planned evacuation copied in full, no copy failures."""
        copied = {donor: 0 for donor in range(len(self.outcomes))}
        for out in self.outcomes:
            copied[out.result.shard] = out.evac_in_pages
        if any(out.evac_in_failures for out in self.outcomes):
            return False
        planned: dict[int, int] = {}
        for evac in self.routing.evacuations:
            planned[evac.donor] = planned.get(evac.donor, 0) \
                + len(evac.pages)
        return all(copied.get(donor, 0) == count
                   for donor, count in planned.items())

    @property
    def demonstrated(self) -> bool:
        """>=1 shard driven out of the write path and fully evacuated."""
        return bool(self.routing.impaired) and \
            bool(self.routing.evacuations) and self.evacuation_ok

    @property
    def gates(self) -> list[Gate]:
        """The chaos gate: zero committed loss, quiet sanitizers,
        bounded availability dip, and the campaign actually killed and
        evacuated a shard (a chaos run that hurt nobody proved
        nothing)."""
        below = [f"chaos FAILED: tenant {view.spec.name} availability "
                 f"{view.success_ppm} ppm below the chaos SLO "
                 f"{view.chaos_slo_ppm} ppm"
                 for view in self.tenants if not view.ok]
        return [
            Gate("zero_data_loss", self.data_loss == 0,
                 f"chaos FAILED: {self.data_loss} committed pages lost"),
            Gate("quiet_sanitizers", self.violations == 0,
                 f"chaos FAILED: {self.violations} sanitizer violations"),
            Gate("shard_killed_and_evacuated", self.demonstrated,
                 "chaos FAILED: no shard was driven out of the write path "
                 "and fully evacuated (the campaign proved nothing)"),
            Gate("tenants_within_slo", not below, "\n".join(below)),
        ]

    def to_dict(self) -> dict:
        return chaos_payload(self)


def run_chaos(config: ChaosConfig | None = None,
              **overrides) -> ChaosResult:
    """One-call entry point: ``run_chaos(quick=True, shards=3)``."""
    if config is None:
        config = ChaosConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    fleet = Fleet(config.fleet_config())
    tenants = fleet.tenants
    snapshot, service_est_ps = build_prefix(
        tenants, config.quick, config.seed,
        health_policy=HealthPolicy(
            read_only_bad_blocks=CHAOS_BAD_BLOCK_BUDGET))
    base_plans = fleet.plan(service_est_ps)
    roles = plan_roles(config)
    events = {shard: plan_events(shard, roles,
                                 len(base_plans[shard].requests))
              for shard in range(config.shards)}

    # Hedge plan (pre-execution): every OLTP write bound for the kill
    # shard is mirrored onto the ring-next shard.
    hedges = tuple(req for req in base_plans[roles.kill_shard].requests
                   if req.write and tenants[req.tenant].mix == "mixed")
    hedged_seqs = frozenset(req.seq for req in hedges)

    # Pass 1: every shard under its fault schedule, extensions empty.
    pass1_plans = [
        replace(base, events=events[shard],
                retry_seed=_retry_seed(config.seed, shard),
                collect_evac=True)
        for shard, base in enumerate(base_plans)]
    outcomes = fleet.serve(snapshot, pass1_plans)

    # If the hedge target itself ended impaired (not the plan, but the
    # campaign must stay honest), the insurance is void: rescued
    # requests fall back to ordinary failover.
    hedge_state = outcomes[roles.hedge_target].result.health.get("state")
    if hedge_state in _IMPAIRED_STATES:
        hedges, hedged_seqs = (), frozenset()

    bases = tenant_bases(tenants)
    routing = route_failover(outcomes, roles, hedged_seqs, bases)

    # Pass 2: re-run only the shards whose plans grew.
    pass2_set: set[int] = set()
    if hedges:
        pass2_set.add(roles.hedge_target)
    pass2_set.update(evac.donor for evac in routing.evacuations)
    pass2_set.update(donor for donor, reqs in routing.failover.items()
                     if reqs)
    pass2_shards = tuple(sorted(pass2_set))
    evac_by_donor: dict[int, list[tuple[int, bytes]]] = {}
    for evac in routing.evacuations:
        evac_by_donor.setdefault(evac.donor, []).extend(evac.pages)
    pass2_plans = [
        replace(pass1_plans[shard],
                hedges=(hedges if shard == roles.hedge_target else ()),
                evac_in=tuple(sorted(evac_by_donor.get(shard, []))),
                failover=routing.failover.get(shard, ()),
                collect_evac=False)
        for shard in pass2_shards]
    final = list(outcomes)
    for plan, outcome in zip(pass2_plans,
                             fleet.serve(snapshot, pass2_plans)):
        final[plan.shard] = outcome

    # Hedge-rescue join: a refused, hedged request whose mirror
    # completed on the hedge shard counts as served.
    rescued = [0] * len(tenants)
    completed_hedges = final[roles.hedge_target].hedge_completed_seqs
    for source in routing.impaired:
        for req in outcomes[source].refused_requests:
            if req.seq in hedged_seqs and req.seq in completed_hedges:
                rescued[req.tenant] += 1
    hedge_planned = [0] * len(tenants)
    hedge_completed = [0] * len(tenants)
    tenant_by_seq = {req.seq: req.tenant for req in hedges}
    for req in hedges:
        hedge_planned[req.tenant] += 1
    for seq in completed_hedges:
        hedge_completed[tenant_by_seq[seq]] += 1

    views = []
    for index, spec in enumerate(tenants):
        primary = TenantQoS(spec=spec)
        failover_qos = TenantQoS(spec=spec)
        for outcome in final:
            primary.merge(outcome.result.tenants[index])
            failover_qos.merge(outcome.failover_tenants[index])
        views.append(ChaosTenantView(
            spec=spec, primary=primary, failover=failover_qos,
            hedge_planned=hedge_planned[index],
            hedge_completed=hedge_completed[index],
            rescued=rescued[index]))

    return ChaosResult(
        config=config, roles=roles, service_est_ps=service_est_ps,
        events=events, hedged_writes=len(hedges), outcomes=final,
        pass2_shards=pass2_shards, routing=routing, tenants=views)
