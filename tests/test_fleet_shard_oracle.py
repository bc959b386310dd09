"""The one shard serve loop against the fleet loop it replaced.

``fleet run`` used to serve each shard through its own admission loop,
and ``fleet chaos`` through a copy of it with the fault plan added.
Now a fleet shard is a chaos shard with an empty fault plan:
:func:`repro.fleet.shard.run_shard` returns the result of
:func:`~repro.fleet.shard.serve_shard`.  ``run_shard`` below is the
replaced fleet loop, kept verbatim as the reference oracle.

A hypothesis property serves one drawn plan through both loops:
1-150 requests over all three tenants; queue bounds 1-8, so requests
are rejected; 0-8 injected program failures under a two-bad-block
read-only budget, so the shard goes read-only and refuses requests,
OLTP writes among them; burst, paced and idle arrival gaps; and 0-6
uncorrectable ECC decodes armed in the forked media, so reads fail and
a loop that retried them would differ.  It requires equal
``ShardResult.to_dict()``, per-tenant ``TenantQoS.to_dict()`` and
latency samples, and equal sanitizer violation counts.

The loops differ in one place: the oracle marks an OLTP page as a
record page before its write, the live loop only once the write
succeeds.  The prefix writes a valid record to every OLTP page, so
both give the same outcome; ``test_refused_oltp_writes_match_oracle``
shows it on a read-only shard that refuses OLTP writes and then reads
those pages back.  The last test pins the queue drain's boundary: a
cache hit completes the instant it arrives, so it holds no slot for
the next arrival at that instant.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.nvdimmc import NVDIMMCSystem
from repro.errors import FailStopError, MediaError
from repro.fleet import shard as live
from repro.fleet.qos import TenantQoS
from repro.fleet.shard import (
    Request,
    ShardPlan,
    ShardResult,
    build_prefix,
    tenant_bases,
)
from repro.fleet.tenants import TenantSpec, default_tenants
from repro.health.monitor import HealthPolicy, HealthState
from repro.sim.snapshot import SimSnapshot
from repro.sim.trace import Tracer, use_tracer
from repro.units import ms, us
from repro.workloads.mixed_load import _check_record, _make_record
from repro.workloads.shadow import payload as _filler

# -- the replaced fleet loop, verbatim: the oracle ----------------------------


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


# -- the property -------------------------------------------------------------

TENANTS = default_tenants(quick=True)

#: Arrival gaps: bursts (equal arrivals meet zero-latency cache hits
#: exactly at their completion), paced near the ~48 us mean service
#: time, and idle.
GAPS_PS = (0, 0, 1, round(us(1)), round(us(20)), round(us(50)),
           round(us(200)), round(ms(5)))

#: Uncorrectable decodes armed in the template: 2 is absorbed by the
#: device's read-retry ladder, 5 and 6 surface as failed reads.
ECC_BURSTS = (0, 2, 5, 6)


@pytest.fixture(scope="module")
def templates() -> dict[int, SimSnapshot]:
    """The prefix under a two-bad-block budget, per armed ECC burst."""
    snapshot, _ = build_prefix(
        TENANTS, quick=True, seed=11,
        health_policy=HealthPolicy(read_only_bad_blocks=2))
    forks = {}
    for burst in ECC_BURSTS:
        state = snapshot.restore()
        state["system"].nand.codec.inject_uncorrectable(burst)
        forks[burst] = SimSnapshot.capture(state, label=f"ecc-{burst}")
    return forks


def _serve_both(snapshot: SimSnapshot, plan: ShardPlan) -> ShardResult:
    got = live.run_shard(snapshot, plan, TENANTS)
    want = run_shard(snapshot, plan, TENANTS)
    assert got.to_dict() == want.to_dict()
    for got_qos, want_qos in zip(got.tenants, want.tenants, strict=True):
        assert got_qos.to_dict() == want_qos.to_dict()
        assert got_qos.latencies_ps == want_qos.latencies_ps
    assert got.violations == want.violations
    return got


_REQUEST = st.tuples(
    st.integers(0, len(TENANTS) - 1),
    st.integers(0, 191) | st.integers(0, 7),   # every footprint >= 192
    st.booleans(),
    st.integers(1, 4),
    st.sampled_from(GAPS_PS),
    st.integers(1, 4),                         # back-to-back copies
)


@settings(max_examples=100, deadline=None)
@given(draws=st.lists(_REQUEST, min_size=1, max_size=150),
       shard=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       queue_bound=st.integers(1, 8), wear=st.integers(0, 8),
       ecc=st.sampled_from(ECC_BURSTS))
def test_fleet_shard_matches_oracle(templates, draws, shard, seed,
                                    queue_bound, wear, ecc):
    requests = []
    arrival = 0
    for tenant, key, write, version, gap, copies in draws:
        arrival += gap
        for _ in range(copies):
            requests.append(Request(
                seq=len(requests), tenant=tenant, arrival_ps=arrival,
                key=key, write=write, version=version if write else 0))
    plan = ShardPlan(shard=shard, seed=seed, queue_bound=queue_bound,
                     wear=wear, requests=tuple(requests[:150]))
    _serve_both(templates[ecc], plan)


def test_refused_oltp_writes_match_oracle(templates):
    # Worn past the budget, the shard goes read-only and refuses the
    # OLTP writes; the reads that follow touch exactly those pages.
    oltp = next(index for index, spec in enumerate(TENANTS)
                if spec.mix == "mixed")
    keys = range(40)
    ops = [(key, True) for key in keys] + [(key, False) for key in keys]
    requests = tuple(
        Request(seq=seq, tenant=oltp, arrival_ps=(seq + 1) * round(us(50)),
                key=key, write=write, version=1 if write else 0)
        for seq, (key, write) in enumerate(ops))
    result = _serve_both(templates[0], ShardPlan(
        shard=0, seed=3, queue_bound=8, wear=8, requests=requests))
    qos = result.tenants[oltp]
    assert result.health["state"] == "read_only"
    assert qos.refused > 0
    assert qos.completed == 2 * len(keys) - qos.refused   # every read


def test_completion_at_an_arrival_frees_its_slot_like_oracle(templates):
    # A cache hit completes the instant it starts, so a burst of hits
    # on an idle shard finds each predecessor already done: a queue
    # bound of 1 admits them all.
    first = Request(seq=0, tenant=0, arrival_ps=0, key=3, write=False,
                    version=0)
    burst = tuple(Request(seq=seq, tenant=0, arrival_ps=round(ms(5)),
                          key=3, write=False, version=0)
                  for seq in range(1, 5))
    result = _serve_both(templates[0], ShardPlan(
        shard=0, seed=3, queue_bound=1, wear=0,
        requests=(first,) + burst))
    assert result.tenants[0].latencies_ps[1:] == [0] * len(burst)
    assert result.admitted == 1 + len(burst)
