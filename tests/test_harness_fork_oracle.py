"""Each forked harness run against the from-zero run it stands for.

``repro crash``, ``repro soak`` and ``repro age run`` each run one
shared prefix, capture it as a :class:`~repro.sim.snapshot.SimSnapshot`
(a *template*), and fork their runs from it: every crash cut, the
soak's fault-free twin, every aging shard.  A fork must be the run a
fresh start would have made.  The from-zero runs live here, as the
reference oracle, built from each harness's own pieces with no product
option:

* **crash** — :func:`crash_from_zero` starts fresh, arms
  ``cut_on_event(i)`` and runs to the mount; the fork replays the tail
  from the nearest capture.  Every :class:`RunOutcome` field must match.
* **soak** — :func:`twin_from_zero` reruns the prefix plus the two twin
  legs; :func:`soak_from_zero` is the soak with that twin.
* **aging** — :func:`aging_from_zero` is the rebuild loop the campaign
  used to keep: a fresh prefix per shard, one suite per strategy, and
  no epoch round trip (:class:`IdentityFork` stands in for the
  campaign's ``SimSnapshot``).

Sanitizer violations follow one rule.  A run counts the violations its
own suite holds after ``detach``; a forked suite already holds the
prefix's; a template suite that no run continues is not counted.  So
each harness is checked clean and with one negative-time trace record
injected into the prefix and into the tail, and a prefix violation
must survive the fork's pickle round trip.  Crash and soak are also
checked with one violation per suite at ``detach``; aging is not,
because its from-zero loop shares one suite across a strategy's
shards and so detaches once per strategy, not once per shard.
"""

from __future__ import annotations

import json
import pickle
import random
import zlib
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.aging.campaign as campaign
import repro.fleet.shard as fleet_shard
import repro.health.soak as soak
import repro.recovery.explorer as explorer
import repro.workloads.shadow as shadow
from repro.aging.campaign import AgingConfig, AgingResult, run_aging
from repro.analysis.stats import order_statistic
from repro.check.sanitizer import default_suite
from repro.check.sanitizers import TimeSanitizer
from repro.check.violations import SanitizerViolation
from repro.cli import main
from repro.health.soak import SoakResult, SoakRound, run_soak
from repro.recovery.explorer import RunOutcome
from repro.report import render_report
from repro.sim.trace import TraceRecord, Tracer, default_tracer, use_tracer


def emit_negative_time() -> None:
    """One record the Time sanitizer flags, on the ambient tracer."""
    default_tracer().emit(-1, "test.inject", "negative time")


@contextmanager
def violation_at_detach(on: bool):
    """With ``on``, every suite's Time sanitizer fires once at detach."""
    def finalize(sanitizer: TimeSanitizer) -> None:
        sanitizer.violation("injected", "one violation at detach")

    with pytest.MonkeyPatch.context() as mp:
        if on:
            mp.setattr(TimeSanitizer, "finalize", finalize)
        yield


def test_violation_survives_a_pickle_round_trip():
    record = TraceRecord(-1, "test.inject", "negative time", {"owner": "x"})
    violation = SanitizerViolation(
        "Time", "negative-time", "record test.inject at negative time",
        record=record, context=(record, record), time=-1)
    back = pickle.loads(pickle.dumps(violation))
    assert type(back) is SanitizerViolation
    assert str(back) == str(violation)
    assert (back.sanitizer, back.rule, back.message, back.details) == (
        "Time", "negative-time", "record test.inject at negative time",
        {"time": -1})
    assert repr(back.record) == repr(record)
    assert [repr(r) for r in back.context] == [repr(record)] * 2
    assert back.report() == violation.report()


# -- crash ---------------------------------------------------------------------

CRASH_SEED = 1
#: More pages than the 20 cache slots: the workload evicts, so its ops
#: visit hook sites and cuts fork from mid-run captures.
CRASH_PAGES = 24
CRASH_STEPS = 64
CRASH_OPS = CRASH_PAGES + CRASH_STEPS


@contextmanager
def inject_at_op(inject: int | None):
    """With ``inject``, crash workload op ``inject`` starts with a
    negative-time record."""
    real = explorer._workload_op

    def workload_op(driver, rng, acked, history, t, op):
        if op == inject:
            emit_negative_time()
        return real(driver, rng, acked, history, t, op)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_workload_op", workload_op)
        yield


@contextmanager
def crash_harness(inject: int | None):
    """The explorer scaled down, with :func:`inject_at_op`."""
    with pytest.MonkeyPatch.context() as mp, inject_at_op(inject):
        mp.setattr(explorer, "FOOTPRINT_PAGES", CRASH_PAGES)
        mp.setattr(explorer, "MIXED_STEPS", CRASH_STEPS)
        yield


def crash_golden():
    return explorer._golden_run(CRASH_SEED, explorer.SNAP_CADENCE_FULL)


def crash_from_zero(cut: int) -> RunOutcome:
    """A fresh start with ``cut_on_event(cut)`` armed and no restore."""
    roots = explorer._start(CRASH_SEED)
    roots["clock"].cut_on_event(cut)
    outcome = RunOutcome(index=cut)
    explorer._run(roots, outcome)
    return outcome


def test_crash_fork_equals_from_zero():
    goldens: dict[int | None, tuple] = {}
    drawn: list[tuple[int, int, int]] = []

    @settings(max_examples=40, deadline=None)
    @given(permille=st.integers(1, 1000),
           inject=st.none() | st.integers(0, CRASH_OPS - 1))
    def check(permille: int, inject: int | None) -> None:
        with crash_harness(inject):
            if inject not in goldens:
                goldens[inject] = crash_golden()
            _, workload_events, total, timeline = goldens[inject]
            cut = max(1, total * permille // 1000)
            drawn.append((cut, workload_events,
                          timeline.nearest(cut).restore()["op"]))
            assert explorer._replay_cut(timeline, cut) == crash_from_zero(cut)

    check()
    assert any(cut <= workload for cut, workload, _ in drawn)
    assert any(0 < op < CRASH_OPS for *_, op in drawn)


def mid_run_cut() -> tuple[int, int]:
    """The first event after a mid-run capture, and that capture's op."""
    with crash_harness(None):
        _, workload_events, _, timeline = crash_golden()
    for cut in range(workload_events // 2, workload_events):
        snap = timeline.nearest(cut)
        if snap.event_index == cut - 1:
            return cut, snap.restore()["op"]
    raise AssertionError("no capture in the workload's second half")


@pytest.mark.parametrize("case", ["clean", "prefix", "tail", "detach"])
def test_crash_mid_run_fork_counts_each_violation_once(case):
    cut, op = mid_run_cut()
    assert 0 < op < CRASH_OPS
    inject = {"prefix": op - 1, "tail": op}.get(case)
    with crash_harness(inject), violation_at_detach(case == "detach"):
        _, _, _, timeline = crash_golden()
        fork = explorer._replay_cut(timeline, cut)
        assert fork == crash_from_zero(cut)
    assert fork.sanitizer_violations == (0 if case == "clean" else 1)


def test_crash_reports_a_prefix_violation(tmp_path, capsys):
    with inject_at_op(50):
        assert main(["crash", "--quick", "--seed", "0",
                     "--out", str(tmp_path)]) == 1
    assert "crash sweep FAILED" in capsys.readouterr().err
    (path,) = tmp_path.glob("RECOVERY_*.json")
    totals = json.loads(path.read_text())["totals"]
    assert totals["sanitizer_violations"] > 0
    assert totals["failed_runs"] == totals["sanitizer_violations"]


def test_fleet_reports_a_prefix_violation(tmp_path, capsys):
    real = fleet_shard.NVDIMMCSystem

    def system(*args, **kwargs):
        built = real(*args, **kwargs)
        emit_negative_time()
        return built

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fleet_shard, "NVDIMMCSystem", system)
        assert main(["fleet", "run", "--quick", "--requests", "200",
                     "--shards", "2", "--out", str(tmp_path)]) == 1
    # The prefix is the template both shards fork from: once each.
    assert "fleet FAILED: 2 sanitizer violations" in capsys.readouterr().err
    (path,) = tmp_path.glob("FLEET_*.json")
    assert json.loads(path.read_text())["totals"]["violations"] == 2


# -- soak ----------------------------------------------------------------------

SOAK_SEED = 2


@contextmanager
def soak_harness(inject: str | None):
    """With ``inject``, a negative-time record at the end of the shared
    prefix (``"prefix"``) or at the start of the twin's first leg
    (``"twin"``), or one violation per suite at detach (``"detach"``)."""
    real_prefix = soak._soak_prefix
    real_rand_rw = shadow.Leg.rand_rw

    def soak_prefix(*args):
        out = real_prefix(*args)
        if inject == "prefix":
            emit_negative_time()
        return out

    def rand_rw(leg, t, rng, steps, version_base, rnd, sample=False):
        if inject == "twin" and rnd.name == "twin" and version_base == 1_000:
            emit_negative_time()
        return real_rand_rw(leg, t, rng, steps, version_base, rnd, sample)

    with pytest.MonkeyPatch.context() as mp, \
            violation_at_detach(inject == "detach"):
        mp.setattr(soak, "_soak_prefix", soak_prefix)
        mp.setattr(shadow.Leg, "rand_rw", rand_rw)
        yield mp


def twin_from_zero(seed: int, footprint: int,
                   steps: int) -> tuple[list[int], int]:
    """A fresh prefix plus the two twin legs, under the twin's own suite."""
    tracer = Tracer(enabled=True)
    suite = default_suite()
    with use_tracer(tracer):
        with suite.attach(tracer):
            _system, leg, _rnd, t = soak._soak_prefix(seed, footprint, tracer)
            rng = random.Random(seed)
            twin = SoakRound(name="twin")
            t = leg.rand_rw(t, rng, steps, 1_000, twin, sample=True)
            leg.rand_rw(t, rng, steps, 2_000, twin, sample=True)
    return leg.latencies, len(suite.violations)


def soak_from_zero(seed: int) -> SoakResult:
    """The quick soak with its twin rerun from zero instead of forked."""
    soak_seed = zlib.crc32(f"{seed}:soak".encode("ascii"))
    footprint = steps = soak.FOOTPRINT_PAGES_QUICK
    result = SoakResult(seed=seed, quick=True)
    tracer = Tracer(enabled=True)
    suite = default_suite()
    with use_tracer(tracer):
        with suite.attach(tracer):
            system, leg, rnd, t = soak._soak_prefix(soak_seed, footprint,
                                                    tracer)
            soak._run_rounds(result, system, leg, rnd, t, soak_seed, steps,
                             scrub_windows=32, progress=None)
    latencies, twin_violations = twin_from_zero(soak_seed, footprint, steps)
    result.violations = len(suite.violations) + twin_violations
    result.clean_p50_ps = order_statistic(latencies, 0.50)
    result.clean_p99_ps = order_statistic(latencies, 0.99)
    return result


@pytest.mark.parametrize("inject,violations",
                         [(None, 0), ("prefix", 2), ("twin", 1),
                          ("detach", 2)],
                         ids=["clean", "prefix", "twin", "detach"])
def test_soak_fork_equals_from_zero(inject, violations):
    soak_seed = zlib.crc32(f"{SOAK_SEED}:soak".encode("ascii"))
    footprint = soak.FOOTPRINT_PAGES_QUICK
    forked: list[tuple[list[int], int]] = []
    with soak_harness(inject) as mp:
        real_fork = soak._fork_twin

        def fork_twin(*args):
            forked.append(real_fork(*args))
            return forked[-1]

        mp.setattr(soak, "_fork_twin", fork_twin)
        got = run_soak(seed=SOAK_SEED, quick=True)
        want_twin = twin_from_zero(soak_seed, footprint, footprint)
        want = soak_from_zero(SOAK_SEED)
    assert forked == [want_twin]
    assert render_report(got) == render_report(want)
    assert got.violations == violations
    assert got.ok is (violations == 0)


# -- aging ---------------------------------------------------------------------

#: One shard over three epochs: every epoch boundary round-trips.
AGING_SMALL = AgingConfig(quick=True, shards=1, max_epochs=3,
                          strategies=("greedy",))
#: Two shards fork one template: a template counted again shows.
AGING_TWO_SHARDS = AgingConfig(
    quick=True, shards=2, max_epochs=1, strategies=("greedy",),
    footprint_pages=256, epoch_steps=512, gc_headroom=2)


class IdentityFork:
    """A ``SimSnapshot`` whose restore hands back the captured roots."""

    def __init__(self, roots: dict) -> None:
        self.roots = roots

    @classmethod
    def capture(cls, roots: dict, event_index: int = 0,
                label: str = "") -> "IdentityFork":
        return cls(roots)

    def restore(self) -> dict:
        return self.roots


def aging_from_zero(config: AgingConfig) -> AgingResult:
    """Every shard reruns bring-up and fill from zero under the
    strategy's one suite, and no epoch boundary round-trips."""
    result = AgingResult(config=config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaign, "SimSnapshot", IdentityFork)
        for strategy in config.strategies:
            tracer = Tracer(enabled=True)
            suite = default_suite()
            with use_tracer(tracer):
                with suite.attach(tracer):
                    for shard in range(config.shard_count):
                        outcome = campaign._shard_outcome(config, strategy,
                                                          shard)
                        system, leg, t = campaign._strategy_prefix(
                            config, strategy, tracer)
                        system.nand.reseed(campaign._campaign_seed(
                            config.seed, "media", shard))
                        state = {
                            "system": system, "leg": leg, "tracer": tracer,
                            "suite": suite, "t": t,
                            "rng": random.Random(campaign._campaign_seed(
                                config.seed, "work", shard)),
                        }
                        campaign._age_shard(config, outcome, state)
                        result.shards.append(outcome)
            result.violations += len(suite.violations)
    return result


@contextmanager
def aging_harness(inject: str | None):
    """With ``inject``, a negative-time record at the end of each
    strategy prefix (``"prefix"``) or before each epoch's fast-forward
    (``"tail"``)."""
    real_prefix = campaign._strategy_prefix
    real_forward = campaign._fast_forward

    def strategy_prefix(*args):
        out = real_prefix(*args)
        if inject == "prefix":
            emit_negative_time()
        return out

    def fast_forward(*args):
        if inject == "tail":
            emit_negative_time()
        return real_forward(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaign, "_strategy_prefix", strategy_prefix)
        mp.setattr(campaign, "_fast_forward", fast_forward)
        yield


@pytest.mark.parametrize("config,inject,violations", [
    (AGING_SMALL, None, 0),
    (AGING_TWO_SHARDS, "prefix", 2),
    (AGING_TWO_SHARDS, "tail", 2),
], ids=["clean", "prefix", "tail"])
def test_aging_fork_equals_from_zero(config, inject, violations):
    with aging_harness(inject):
        got = run_aging(config)
        want = aging_from_zero(config)
    assert render_report(got) == render_report(want)
    assert got.violations == want.violations == violations
