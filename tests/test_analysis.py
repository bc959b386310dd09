"""Tests for analysis (stats, results, tables) and the sim tracer."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.results import Claim, Comparison, ExperimentRecord
from repro.analysis.stats import LatencyAccumulator, summarize
from repro.analysis.tables import render_table
from repro.sim.trace import NULL_TRACER, Tracer


class TestLatencyAccumulator:
    def test_mean(self):
        acc = LatencyAccumulator()
        for v in (1_000_000, 2_000_000, 3_000_000):
            acc.record(v)
        assert acc.mean_us == pytest.approx(2.0)
        assert acc.count == 3

    def test_percentiles(self):
        acc = LatencyAccumulator()
        for v in range(1, 101):
            acc.record(v * 1000)
        assert acc.percentile_ps(50) == 50_000
        assert acc.percentile_ps(99) == 99_000
        assert acc.percentile_ps(100) == 100_000

    def test_percentile_bounds(self):
        acc = LatencyAccumulator()
        acc.record(1)
        with pytest.raises(ValueError):
            acc.percentile_ps(0)
        with pytest.raises(ValueError):
            acc.percentile_ps(101)

    def test_empty_accumulator(self):
        acc = LatencyAccumulator()
        assert acc.mean_ps == 0.0
        assert acc.percentile_ps(50) == 0
        assert acc.min_ps == 0 and acc.max_ps == 0

    def test_record_after_query_resorts(self):
        acc = LatencyAccumulator()
        acc.record(10)
        assert acc.max_ps == 10
        acc.record(5)
        assert acc.min_ps == 5

    @given(st.lists(st.integers(1, 10**9), min_size=1, max_size=200))
    def test_summary_invariants(self, samples):
        acc = LatencyAccumulator()
        for s in samples:
            acc.record(s)
        summary = summarize(acc)
        assert summary.min_us <= summary.p50_us <= summary.p99_us
        assert summary.p99_us <= summary.max_us
        assert summary.min_us <= summary.mean_us <= summary.max_us


class TestExperimentRecord:
    def test_ratio(self):
        c = Comparison("x", "MB/s", paper=100.0, measured=110.0)
        assert c.ratio == pytest.approx(1.1)

    def test_ratio_none_without_paper(self):
        assert Comparison("x", "u", None, 5.0).ratio is None
        assert Comparison("x", "u", 0.0, 5.0).ratio is None

    def test_record_accumulates_and_renders(self):
        record = ExperimentRecord("figX", "demo")
        record.add("a", "MB/s", 100, 101)
        record.add("b", "count", None, 3)
        record.note("hello")
        text = str(record)
        assert "figX" in text and "hello" in text and "x1.01" in text

    def test_worst_ratio_error(self):
        record = ExperimentRecord("figX", "demo")
        record.add("good", "u", 100, 100)
        record.add("off", "u", 100, 200)
        import math
        assert record.worst_ratio_error() == pytest.approx(math.log(2))

    def test_to_json(self):
        record = ExperimentRecord("figX", "demo")
        record.add("a", "u", 1, 2)
        import json
        parsed = json.loads(record.to_json())
        assert parsed["experiment_id"] == "figX"

    def test_claim_round_trips_through_str_and_json(self):
        record = ExperimentRecord("figX", "demo")
        held = record.claim("a is 1-3 (paper: 2)", 1 <= 2 <= 3)
        failed = record.claim("a is above 5", 0)
        assert held == Claim("a is 1-3 (paper: 2)", True)
        assert failed.ok is False
        assert str(record).splitlines()[-2:] == [
            "  claim held: a is 1-3 (paper: 2)",
            "  claim FAILED: a is above 5"]
        import json
        parsed = json.loads(record.to_json())
        assert parsed["claims"] == [
            {"text": "a is 1-3 (paper: 2)", "ok": True},
            {"text": "a is above 5", "ok": False}]
        from repro.analysis.export import to_json
        assert json.loads(to_json([record]))[0]["claims"] == \
            parsed["claims"]


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["name", "v"], [["a", 1], ["bb", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "-+-" in lines[1]

    def test_float_formatting(self):
        text = render_table(["v"], [[0.1234], [12.3], [1234.5], [0]])
        assert "0.123" in text
        assert "12.3" in text
        assert "1234" in text


class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit(0, "cat", "msg")
        assert seen == []

    def test_enabled_collects(self):
        tracer = Tracer(enabled=True)
        records = []
        tracer.subscribe(records.append)
        tracer.emit(100, "ddr.cmd", "ACT", bank=3)
        [record] = records
        assert record.fields["bank"] == 3
        assert "ddr.cmd" in str(record)

    def test_category_filter(self):
        tracer = Tracer(enabled=True)
        records = []
        tracer.subscribe(records.append, ("ddr.",))
        tracer.emit(0, "ddr.cmd", "a")
        tracer.emit(0, "nvmc.window", "b")
        assert [r.message for r in records] == ["a"]

    def test_subscribers_observe_every_record(self):
        tracer = Tracer(enabled=True)
        seen = []
        tracer.subscribe(seen.append)
        for i in range(3):
            tracer.emit(i, "c", "m")
        assert [r.time_ps for r in seen] == [0, 1, 2]
        tracer.unsubscribe(seen.append)
        tracer.emit(3, "c", "m")
        assert len(seen) == 3

    def test_null_tracer_is_off(self):
        assert not NULL_TRACER.enabled
