"""Unit tests for the health-ladder state machine."""

import pytest

from repro.health.monitor import (LADDER_EDGES, MEDIA_KINDS, TRANSIENT_KINDS,
                                  HealthMonitor, HealthPolicy, HealthState)
from repro.sim.trace import Tracer
from repro.units import us

#: A policy with round numbers the tests can count against.
_POLICY = HealthPolicy(window_ps=round(us(50)), retry_threshold=3,
                       remap_threshold=2, read_only_bad_blocks=4,
                       decay_ps=round(us(100)))


def _monitor(policy: HealthPolicy = _POLICY) -> HealthMonitor:
    return HealthMonitor(policy=policy, tracer=Tracer(enabled=False))


class TestEscalation:
    @pytest.mark.parametrize("kind", sorted(TRANSIENT_KINDS))
    def test_transient_budget_enters_retry(self, kind):
        monitor = _monitor()
        for i in range(_POLICY.retry_threshold - 1):
            monitor.record("nvdc", kind, time_ps=i)
            assert monitor.state is HealthState.OK
        monitor.record("nvdc", kind, time_ps=_POLICY.retry_threshold)
        assert monitor.state is HealthState.RETRY
        assert monitor.reason.startswith(f"{kind}-budget:")

    @pytest.mark.parametrize("kind", sorted(MEDIA_KINDS))
    def test_media_budget_enters_remap(self, kind):
        monitor = _monitor()
        monitor.record("ftl", kind, time_ps=0)
        assert monitor.state is HealthState.OK
        monitor.record("ftl", kind, time_ps=1)
        assert monitor.state is HealthState.REMAP

    def test_lifetime_bad_blocks_enter_read_only(self):
        monitor = _monitor()
        for i in range(_POLICY.read_only_bad_blocks):
            # Spread past the rolling window so only the lifetime
            # counter (never the rolling remap budget... which already
            # fired) drives the final escalation.
            monitor.record("ftl", "bad-block",
                           time_ps=i * 2 * _POLICY.window_ps)
        assert monitor.state is HealthState.READ_ONLY
        assert monitor.reason == "bad-block-budget"
        assert monitor.read_only and not monitor.failed

    @pytest.mark.parametrize(
        "kind", ["remap-exhausted", "space-exhausted", "bad-block-budget"])
    def test_exhaustion_kinds_escalate_immediately(self, kind):
        monitor = _monitor()
        monitor.record("ftl", kind, time_ps=5)
        assert monitor.state is HealthState.READ_ONLY
        assert monitor.reason == kind

    def test_unrecovered_read_is_fatal_only_while_degraded(self):
        monitor = _monitor()
        monitor.record("nand", "unrecovered-read", time_ps=0)
        assert monitor.state is HealthState.OK  # healthy: not fatal
        monitor.record("ftl", "remap-exhausted", time_ps=1)
        monitor.record("nand", "unrecovered-read", time_ps=2)
        assert monitor.state is HealthState.FAIL_STOP
        assert monitor.failed and monitor.read_only


class TestRollingWindow:
    def test_stale_events_age_out(self):
        monitor = _monitor()
        monitor.record("nvdc", "cp-retry", time_ps=0)
        monitor.record("nvdc", "cp-retry", time_ps=1)
        # The third strike lands after the first two left the window.
        monitor.record("nvdc", "cp-retry", time_ps=3 * _POLICY.window_ps)
        assert monitor.state is HealthState.OK

    def test_timeless_events_inherit_the_clock(self):
        monitor = _monitor()
        monitor.note_time(7_000)
        monitor.record("ftl", "remap")  # FTL has no clock of its own
        monitor.record("ftl", "remap")
        assert monitor.state is HealthState.REMAP
        assert monitor.timeline[-1].time_ps == 7_000


class TestDecay:
    def test_retry_decays_to_ok_after_quiet(self):
        monitor = _monitor()
        for i in range(3):
            monitor.record("nvdc", "cp-retry", time_ps=i)
        assert monitor.state is HealthState.RETRY
        monitor.maybe_relax(2 + _POLICY.decay_ps - 1)
        assert monitor.state is HealthState.RETRY  # not quiet enough
        monitor.maybe_relax(2 + _POLICY.decay_ps)
        assert monitor.state is HealthState.OK
        assert monitor.reason == ""

    def test_sticky_states_never_decay(self):
        monitor = _monitor()
        monitor.record("ftl", "space-exhausted", time_ps=0)
        monitor.maybe_relax(10 * _POLICY.decay_ps)
        assert monitor.state is HealthState.READ_ONLY


class TestTimelineAndCoverage:
    def test_full_march_exercises_every_edge(self):
        monitor = _monitor()
        for i in range(3):
            monitor.record("nvdc", "cp-retry", time_ps=i)
        monitor.record("ftl", "remap", time_ps=10)
        monitor.record("ftl", "remap", time_ps=11)
        monitor.record("ftl", "remap-exhausted", time_ps=20)
        monitor.record("nand", "unrecovered-read", time_ps=30)
        edges = monitor.edges_exercised()
        assert set(edges) == {f"{a}->{b}" for a, b in LADDER_EDGES}
        assert all(count == 1 for count in edges.values())
        states = [t.to_state for t in monitor.timeline]
        assert states == ["retry", "remap", "read_only", "fail_stop"]

    def test_transitions_are_traced(self):
        tracer = Tracer(enabled=True)
        records = []
        tracer.subscribe(records.append, ("health.state",))
        monitor = HealthMonitor(policy=_POLICY, tracer=tracer)
        for i in range(3):
            monitor.record("nvdc", "cp-timeout", time_ps=i)
        assert len(records) == 1
        assert records[0].fields["to_state"] == "retry"
        assert records[0].fields["component"] == "nvdc"

    def test_counters_track_lifetime_totals(self):
        monitor = _monitor()
        for i in range(5):
            monitor.record("nvdc", "cp-retry", time_ps=i)
        assert monitor.counters.get("cp-retry") == 5
        assert monitor.counters.get("never-seen") == 0
