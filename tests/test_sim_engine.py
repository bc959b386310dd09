"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine


class TestScheduling:
    def test_events_run_in_time_order(self):
        eng = Engine()
        order = []
        eng.call_at(300, lambda: order.append("c"))
        eng.call_at(100, lambda: order.append("a"))
        eng.call_at(200, lambda: order.append("b"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        eng = Engine()
        order = []
        for tag in "abcde":
            eng.call_at(50, lambda t=tag: order.append(t))
        eng.run()
        assert order == list("abcde")

    def test_now_advances_with_events(self):
        eng = Engine()
        seen = []
        eng.call_at(42, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [42]
        assert eng.now == 42

    def test_call_after_is_relative(self):
        eng = Engine()
        seen = []
        eng.call_at(10, lambda: eng.call_after(5, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [15]

    def test_scheduling_into_past_raises(self):
        eng = Engine()
        eng.call_at(100, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(50, lambda: None)

    def test_negative_delay_raises(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_after(-1, lambda: None)


class TestRunControl:
    def test_run_until_stops_and_advances_clock(self):
        eng = Engine()
        hits = []
        eng.call_at(100, lambda: hits.append(1))
        eng.call_at(900, lambda: hits.append(2))
        eng.run(until=500)
        assert hits == [1]
        assert eng.now == 500
        eng.run()
        assert hits == [1, 2]

    def test_run_max_events(self):
        eng = Engine()
        hits = []
        for i in range(10):
            eng.call_at(i, lambda i=i: hits.append(i))
        eng.run(max_events=3)
        assert hits == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        eng = Engine()
        assert eng.step() is False

    def test_peek(self):
        eng = Engine()
        assert eng.peek() is None
        eng.call_at(77, lambda: None)
        assert eng.peek() == 77

    def test_drain_discards(self):
        eng = Engine()
        eng.call_at(10, lambda: pytest.fail("should not run"))
        eng.drain()
        eng.run()
        assert eng.pending == 0

    def test_events_executed_counter(self):
        eng = Engine()
        for i in range(5):
            eng.call_at(i, lambda: None)
        eng.run()
        assert eng.events_executed == 5

    def test_reentrant_run_rejected(self):
        eng = Engine()

        def inner():
            with pytest.raises(SimulationError):
                eng.run()

        eng.call_at(1, inner)
        eng.run()


class TestCallAtMany:
    def test_batch_matches_individual_calls(self):
        batched, individual = Engine(), Engine()
        out_b, out_i = [], []
        items = [(30, lambda: out_b.append(30)),
                 (10, lambda: out_b.append(10)),
                 (20, lambda: out_b.append(20))]
        batched.call_at_many(items)
        for t in (30, 10, 20):
            individual.call_at(t, lambda t=t: out_i.append(t))
        batched.run()
        individual.run()
        assert out_b == out_i == [10, 20, 30]

    def test_batch_ties_preserve_iteration_order(self):
        eng = Engine()
        order = []
        eng.call_at_many((5, lambda t=tag: order.append(t)) for tag in "abc")
        eng.run()
        assert order == list("abc")

    def test_batch_interleaves_with_singles(self):
        eng = Engine()
        order = []
        eng.call_at(15, lambda: order.append("single"))
        eng.call_at_many([(10, lambda: order.append("b10")),
                          (20, lambda: order.append("b20"))])
        eng.run()
        assert order == ["b10", "single", "b20"]

    def test_batch_scheduling_into_past_raises(self):
        eng = Engine()
        eng.call_at(100, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at_many([(200, lambda: None), (50, lambda: None)])
        # Items before the offender were accepted and stay runnable.
        assert eng.pending == 1
        eng.run()
        assert eng.now == 200

    def test_empty_batch_is_noop(self):
        eng = Engine()
        eng.call_at_many([])
        assert eng.pending == 0


class TestTotalEventsExecuted:
    """Both dispatch paths count into the engine's ``events_executed``."""

    def test_step_counts_too(self):
        eng = Engine()
        eng.call_at(1, lambda: None)
        eng.call_at(2, lambda: None)
        assert eng.step() is True
        assert eng.events_executed == 1

    def test_counter_settles_even_if_callback_raises(self):
        eng = Engine()
        eng.call_at(1, lambda: None)
        eng.call_at(2, self._boom)
        with pytest.raises(RuntimeError):
            eng.run()
        assert eng.events_executed == 2

    @staticmethod
    def _boom():
        raise RuntimeError("boom")


class TestDeterminism:
    @given(st.lists(st.integers(min_value=0, max_value=10**9),
                    min_size=1, max_size=50))
    def test_execution_order_is_sorted_stable(self, times):
        eng = Engine()
        executed = []
        for i, t in enumerate(times):
            eng.call_at(t, lambda t=t, i=i: executed.append((t, i)))
        eng.run()
        assert executed == sorted(executed)

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=30))
    def test_clock_monotonic(self, times):
        eng = Engine()
        stamps = []
        for t in times:
            eng.call_at(t, lambda: stamps.append(eng.now))
        eng.run()
        assert stamps == sorted(stamps)
