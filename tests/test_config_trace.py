"""Tests for the generic access-trace module."""

import pytest

from repro.errors import ConfigError
from repro.units import PAGE_4K, kb, mb
from repro.workloads.trace import Access, AccessTrace


class TestAccessTrace:
    def test_append_and_iterate(self):
        trace = AccessTrace()
        trace.append(0, kb(4), False)
        trace.append(kb(4), 64, True)
        assert len(trace) == 2
        assert trace.bytes_total == kb(4) + 64
        assert trace.write_fraction == 0.5

    def test_bad_access_rejected(self):
        trace = AccessTrace()
        with pytest.raises(ConfigError):
            trace.append(-1, 64, False)
        with pytest.raises(ConfigError):
            trace.append(0, 0, False)

    def test_pages_covered(self):
        access = Access(offset=PAGE_4K - 10, nbytes=20, is_write=False)
        assert list(access.pages()) == [0, 1]

    def test_footprint(self):
        trace = AccessTrace([Access(0, 64, False),
                             Access(100, 64, False),
                             Access(PAGE_4K, 64, True)])
        assert trace.footprint_pages() == 2

    def test_serialise_round_trip(self):
        trace = AccessTrace([Access(0, 4096, False),
                             Access(8192, 512, True)])
        text = trace.dumps()
        loaded = AccessTrace.loads(text)
        assert loaded.accesses == trace.accesses

    def test_loads_skips_comments_and_blanks(self):
        text = "# header\n\nR 0 64\nW 64 64\n"
        trace = AccessTrace.loads(text)
        assert len(trace) == 2

    def test_loads_rejects_garbage(self):
        with pytest.raises(ConfigError):
            AccessTrace.loads("X 0 64")
        with pytest.raises(ConfigError):
            AccessTrace.loads("R 0")

    def test_replay_on_pmem(self):
        from repro.device.nvdimmc import PmemSystem
        system = PmemSystem(device_bytes=mb(32))
        trace = AccessTrace([Access(i * PAGE_4K, kb(4), False)
                             for i in range(10)])
        end = trace.replay(system)
        assert end > 0
        # Deterministic: same trace, fresh system, same time.
        assert AccessTrace.loads(trace.dumps()).replay(
            PmemSystem(device_bytes=mb(32))) == end
