"""Tracer emit fast path and delivery semantics.

The disabled early-out must fire before record construction and before
subscriber delivery; each subscriber sees exactly the records whose
category starts with one of its prefixes; and the tracer keeps nothing
it delivered, so a long traced run holds no trace history.
"""

import tracemalloc

from repro.sim.trace import NULL_TRACER, TraceMeter, Tracer


class TestEmitEarlyOut:
    def test_disabled_tracer_delivers_nothing_to_subscribers(self):
        tracer = Tracer(enabled=False)
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit(0, "ddr.cmd", "hi")
        assert seen == []

    def test_category_filter_uses_prefix_tuple(self):
        tracer = Tracer(enabled=True)
        seen, everything = [], []
        tracer.subscribe(seen.append, ("ddr.", "nvmc.dma"))
        tracer.subscribe(everything.append)
        tracer.emit(0, "ddr.cmd", "kept")
        tracer.emit(1, "nvmc.dma", "kept")
        tracer.emit(2, "nvmc.dmaX", "kept (prefix match)")
        tracer.emit(3, "cp.post", "filtered")
        tracer.emit(4, "nvmc.other", "filtered")
        assert [r.message for r in seen] == [
            "kept", "kept", "kept (prefix match)"]
        # A subscriber's prefixes limit its own delivery only.
        assert len(everything) == 5

    def test_categories_normalised_to_tuple(self):
        tracer = Tracer(enabled=True)
        seen = []
        tracer.subscribe(seen.append, ["ddr."])  # type: ignore[arg-type]
        tracer.emit(0, "ddr.cmd", "ok")
        tracer.emit(1, "cp.post", "filtered")
        assert [r.message for r in seen] == ["ok"]

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False


class TestRetention:
    def test_tracer_keeps_nothing_it_delivered(self):
        tracer = Tracer(enabled=True)
        count = 0

        def counting(record):
            nonlocal count
            count += 1

        tracer.subscribe(counting)
        tracemalloc.start()
        try:
            for i in range(100_000):
                tracer.emit(i, "ddr.cmd", "ACT", bank=i % 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 100_000
        assert peak < 1 << 20, f"emitting retained {peak} bytes"


class TestTraceMeter:
    def test_counts_emitted_and_peak(self):
        TraceMeter.reset()
        tracer = Tracer(enabled=True)
        seen = []
        tracer.subscribe(seen.append, ("ddr.",))
        for i in range(4):
            tracer.emit(i, "ddr.cmd" if i % 2 else "cp.post", "x")
        # Every enabled emit counts, observed or not; nothing is kept.
        assert TraceMeter.records_emitted == 4
        assert TraceMeter.peak_retained == 0
        assert len(seen) == 2
        TraceMeter.reset()
        assert TraceMeter.records_emitted == 0
        assert TraceMeter.peak_retained == 0

    def test_disabled_tracer_does_not_touch_meter(self):
        TraceMeter.reset()
        Tracer(enabled=False).emit(0, "a", "x")
        assert TraceMeter.records_emitted == 0
        assert TraceMeter.peak_retained == 0
