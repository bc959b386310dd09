"""repro.fleet.chaos: fault plans, retry/failover/evacuation, report."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.fleet.chaos import (
    ChaosConfig,
    ChaosRoles,
    plan_events,
    plan_roles,
    route_failover,
    run_chaos,
)
from repro.fleet.chaos_report import SCHEMA, SHAPE
from repro.fleet.shard import (Request, ShardOutcome, ShardResult,
                               tenant_bases)
from repro.fleet.tenants import default_tenants
from repro.report import check, render_report

QUICK = dict(quick=True, shards=3, requests=4000, seed=3)


@pytest.fixture(scope="module")
def chaos_result():
    """One shared small campaign (the prefix build dominates cost)."""
    return run_chaos(**QUICK)


# -- config ------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="shards >= 2"):
        ChaosConfig(shards=1)
    with pytest.raises(ConfigError):
        ChaosConfig(shards=3, queue_bound=0)
    with pytest.raises(ConfigError):
        ChaosConfig(shards=3, worker_timeout_s=0)
    with pytest.raises(ConfigError, match="requests must be >= 1"):
        ChaosConfig(shards=3, requests=0)
    with pytest.raises(ConfigError, match="got 0"):
        ChaosConfig(shards=2, weights=(0, 0))
    with pytest.raises(ConfigError, match="got -5"):
        ChaosConfig(shards=2, weights=(-5, 3))


def test_config_defaults():
    assert ChaosConfig(quick=True).request_count == 24_000
    assert ChaosConfig().request_count == 400_000
    assert ChaosConfig(requests=123).request_count == 123
    # The underlying fleet config never pre-wears shards: all wear
    # arrives through the scheduled fault plan.
    assert ChaosConfig(quick=True).fleet_config().wear_shards == 0


# -- the fault plan ----------------------------------------------------------------


def test_roles_are_seeded_and_on_ring():
    roles = plan_roles(ChaosConfig(**QUICK))
    assert roles == plan_roles(ChaosConfig(**QUICK))
    assert 0 <= roles.kill_shard < 3
    assert roles.hedge_target == (roles.kill_shard + 1) % 3
    other = plan_roles(ChaosConfig(quick=True, shards=3, seed=1))
    assert isinstance(other.kill_shard, int)


def test_event_schedules_differ_by_role():
    roles = ChaosRoles(kill_shard=1, hedge_target=2)
    kill = plan_events(1, roles, plan_requests=1000)
    survivor = plan_events(0, roles, plan_requests=1000)
    assert len(kill) > len(survivor)
    kinds = {event.kind for event in kill}
    assert kinds == {"program-fail", "ecc-burst", "power-cut"}
    # Enough program failures to overrun the chaos bad-block budget.
    assert sum(event.magnitude for event in kill
               if event.kind == "program-fail") >= 4
    for event in kill + survivor:
        assert 0 <= event.at_request <= 1000
    # Positions scale with the plan size but stay ordered.
    assert [e.at_request for e in kill] == \
        sorted(e.at_request for e in kill)


# -- the routing pass --------------------------------------------------------------


def _synthetic_outcome(shard: int, state: str, refused=(), evac=()):
    result = ShardResult(shard=shard, tenants=[])
    result.health = {"state": state, "worst": state, "counters": {},
                     "transitions": 0}
    return ShardOutcome(result=result,
                        refused_requests=tuple(refused),
                        evac_pages=tuple(evac))


def test_route_failover_picks_ring_donor_and_excludes_hedged():
    tenants = default_tenants(quick=True)
    bases = tenant_bases(tenants)
    hedged = Request(seq=5, tenant=0, arrival_ps=10, key=3, write=True,
                     version=1)
    bare = Request(seq=6, tenant=2, arrival_ps=20, key=4, write=True,
                   version=1)
    outcomes = [
        _synthetic_outcome(0, "ok"),
        _synthetic_outcome(
            1, "read_only", refused=[hedged, bare],
            evac=[(bases[0] + 3, b"hedged-page"), (100, b"clean")]),
        _synthetic_outcome(2, "ok"),
    ]
    roles = ChaosRoles(kill_shard=1, hedge_target=2)
    plan = route_failover(outcomes, roles,
                          hedged_seqs=frozenset({5}), bases=bases)
    assert plan.impaired == (1,)
    assert plan.survivors == (0, 2)
    [evac] = plan.evacuations
    assert (evac.source, evac.donor) == (1, 2)   # ring-next survivor
    # The hedged page is excluded (the donor already holds the newer
    # hedge copy); the clean page is copied.
    assert evac.pages_committed == 2
    assert evac.pages_excluded_hedged == 1
    assert evac.pages == ((100, b"clean"),)
    # The hedged refusal is not failed over; the bare one goes to the
    # donor, and untouched survivors get nothing.
    assert plan.skipped_hedged == 1
    assert plan.failover[2] == (bare,)
    assert plan.failover[0] == ()


def test_route_failover_wraps_the_ring():
    outcomes = [
        _synthetic_outcome(0, "ok"),
        _synthetic_outcome(1, "ok"),
        _synthetic_outcome(2, "fail_stop"),
    ]
    roles = ChaosRoles(kill_shard=2, hedge_target=0)
    plan = route_failover(outcomes, roles, hedged_seqs=frozenset(),
                          bases=(0,))
    assert plan.impaired == (2,)
    assert plan.survivors == (0, 1)
    # The ring wraps past the end: shard 2's donor is shard 0, and a
    # fail_stop shard exports nothing (its sweep was refused).
    [evac] = plan.evacuations
    assert (evac.source, evac.donor) == (2, 0)
    assert evac.pages == ()
    assert evac.pages_committed == 0


# -- end-to-end campaigns ----------------------------------------------------------


def test_campaign_kills_evacuates_and_stays_lossless(chaos_result):
    result = chaos_result
    assert result.ok
    assert result.data_loss == 0
    assert result.violations == 0
    assert result.demonstrated
    # The planned kill shard — and only it — left the write path.
    assert result.routing.impaired == (result.roles.kill_shard,)
    killed = result.outcomes[result.roles.kill_shard]
    assert killed.result.health["state"] == "read_only"
    assert killed.power_cuts >= 1
    assert killed.remounts    # the cut ran a cold remount audit
    assert killed.result.refused > 0


def test_campaign_evacuation_accounting(chaos_result):
    result = chaos_result
    [evac] = result.routing.evacuations
    assert evac.source == result.roles.kill_shard
    assert evac.donor in result.routing.survivors
    assert evac.pages_committed == \
        len(evac.pages) + evac.pages_excluded_hedged
    donor = result.outcomes[evac.donor]
    assert donor.evac_in_pages == len(evac.pages)
    assert donor.evac_in_failures == 0
    # Evacuated pages joined the donor's verified sweep.
    assert donor.result.sweep_pages >= donor.evac_in_pages


def test_campaign_tenant_availability(chaos_result):
    result = chaos_result
    for view in result.tenants:
        assert view.primary.offered > 0
        assert view.success_ppm >= view.chaos_slo_ppm
        assert view.ok
        served = (view.primary.completed + view.failover.completed
                  + view.rescued)
        assert served <= view.primary.offered
        assert view.hedge_completed <= view.hedge_planned
        assert view.rescued <= view.hedge_completed
    # The OLTP class was hedged; someone was rescued by it.
    oltp = next(v for v in result.tenants if v.spec.mix == "mixed")
    assert oltp.hedge_planned > 0
    assert oltp.rescued > 0


def test_campaign_front_end_retry_rode_out_faults(chaos_result):
    result = chaos_result
    killed = result.outcomes[result.roles.kill_shard]
    # The ECC burst escaped the device read-retry ladder and the power
    # cut interrupted one request; the bounded front-end retry re-issued
    # both and the requests completed.
    assert killed.retries > 0
    assert killed.retry_successes > 0


def test_campaign_is_deterministic_and_jobs_invariant(chaos_result):
    text = render_report(chaos_result)
    rerun = render_report(run_chaos(**QUICK))
    assert rerun == text
    fanned = render_report(run_chaos(**QUICK, jobs=2))
    assert fanned == text


# -- report schema -----------------------------------------------------------------


def test_chaos_report_round_trips(chaos_result):
    payload = json.loads(render_report(chaos_result))
    assert payload["schema"] == SCHEMA == "repro.fleet.chaos/1"
    assert payload["generated_at"] is None
    assert check(SHAPE, payload) == []
    assert payload["ok"] is True
    assert all(payload["gates"].values())
    assert payload["totals"]["requests"] == 4000
    assert payload["totals"]["data_loss"] == 0
    assert payload["totals"]["evacuated_pages"] > 0
    roles = {entry["role"] for entry in payload["shards"]}
    assert roles == {"kill", "hedge-target", "survivor"}
    kill = next(entry for entry in payload["shards"]
                if entry["role"] == "kill")
    assert kill["health"]["state"] == "read_only"
    assert kill["remounts"]


@pytest.mark.parametrize("mutate,needle", [
    (lambda p: p.__setitem__("schema", "repro.fleet.chaos/9"), "schema"),
    (lambda p: p.pop("gates"), "missing report keys"),
    (lambda p: p.__setitem__("extra", 1), "unknown report keys"),
    (lambda p: p["plan"]["events"]["0"][0].__setitem__("kind", "gamma"),
     "kind"),
    (lambda p: p["routing"].pop("evacuations"), "routing keys"),
    (lambda p: p["routing"]["evacuations"][0].pop("donor"),
     "evacuations[0]"),
    (lambda p: p["tenants"][0].__setitem__("success_ppm", -1),
     "non-negative int"),
    (lambda p: p["tenants"][0]["failover"].pop("latency"),
     "failover"),
    (lambda p: p["shards"][0].__setitem__("role", "bystander"), "role"),
    (lambda p: p["shards"][0].__setitem__("final_pass", 3),
     "final_pass"),
    (lambda p: p["gates"].__setitem__("zero_data_loss", "yes"),
     "gates.zero_data_loss"),
    (lambda p: p["ok"] is not None and p.__setitem__("ok", 1),
     "ok must be a bool"),
])
def test_chaos_report_rejects_mutations(chaos_result, mutate, needle):
    payload = json.loads(render_report(chaos_result))
    mutate(payload)
    problems = check(SHAPE, payload)
    assert problems
    assert any(needle in problem for problem in problems)


def test_remount_audit_is_validated(chaos_result):
    payload = json.loads(render_report(chaos_result))
    kill = next(entry for entry in payload["shards"]
                if entry["role"] == "kill")
    kill["remounts"][0]["health_state"] = "undead"
    problems = check(SHAPE, payload)
    assert any("health_state" in problem for problem in problems)


# -- cli ---------------------------------------------------------------------------


def test_cli_chaos_writes_valid_report(tmp_path, capsys):
    code = main(["fleet", "chaos", "--quick", "--shards", "3",
                 "--requests", "4000", "--seed", "3", "--out",
                 str(tmp_path)])
    assert code == 0
    reports = list(tmp_path.glob("CHAOS_*.json"))
    assert len(reports) == 1
    payload = json.loads(reports[0].read_text())
    assert check(SHAPE, payload) == []
    assert payload["generated_at"] is not None
    out = capsys.readouterr().out
    assert "chaos clean" in out
    assert "kill shard" in out


def test_cli_chaos_rejects_bad_flags(tmp_path, capsys):
    assert main(["fleet", "chaos", "--shards", "1", "--out",
                 str(tmp_path)]) == 2
    assert main(["fleet", "chaos", "--worker-timeout", "0", "--out",
                 str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "shards >= 2" in err


def test_top_level_cli_has_fleet_chaos():
    from repro.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(
        ["fleet", "chaos", "--quick", "--shards", "3"])
    assert args.command == "fleet"
    assert args.fleet_command == "chaos"
    assert args.shards == 3
