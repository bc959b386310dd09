"""The shadowed host workload leg, against a stub driver.

``faults run``, ``soak`` and ``age run`` count committed writes,
refusals, media errors and lost pages through one
:class:`~repro.workloads.shadow.Leg`.  The stub below has no system
behind it: a write takes ``WRITE_PS``, a read ``READ_PS``, chosen pages
raise a chosen error, and chosen pages read back wrong bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import DegradedModeError, FailStopError, UncorrectableError
from repro.workloads.shadow import READ_FRACTION, Counts, Leg, payload

WRITE_PS = 100
READ_PS = 10


class StubDriver:
    """``write_page``/``read_page`` with scripted failures."""

    def __init__(self) -> None:
        self.write_errors: dict[int, Exception] = {}
        self.read_errors: dict[int, Exception] = {}
        self.corrupt: set[int] = set()
        self.pages: dict[int, bytes] = {}
        self.ops: list[tuple] = []

    def write_page(self, page: int, data: bytes, t: int) -> int:
        self.ops.append(("write", page, data))
        if page in self.write_errors:
            raise self.write_errors[page]
        self.pages[page] = data
        return t + WRITE_PS

    def read_page(self, page: int, t: int) -> tuple[bytes, int]:
        self.ops.append(("read", page))
        if page in self.read_errors:
            raise self.read_errors[page]
        data = self.pages[page]
        if page in self.corrupt:
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        return data, t + READ_PS


def test_payload_is_a_4k_page_naming_page_and_version():
    page = payload(5, 9)
    assert len(page) == 4096
    assert page[:8] == (5).to_bytes(4, "little") + (9).to_bytes(4, "little")
    assert payload(5, 9) == page != payload(5, 10) != payload(6, 9)


def test_write_refuses_degraded_and_counts_other_media_errors():
    driver = StubDriver()
    driver.write_errors = {1: FailStopError("fail-stop"),
                           2: DegradedModeError("read-only",
                                                reason="bad-block-budget"),
                           3: UncorrectableError("program failed")}
    leg = Leg(driver, footprint=5)
    counts = Counts()
    end = leg.seq_write(1_000, 7, counts, sample=True)
    assert counts == Counts(writes=2, refused_writes=2, media_errors=1)
    assert leg.shadow == {0: payload(0, 7), 4: payload(4, 7)}
    assert end == 1_000 + 2 * WRITE_PS
    assert leg.latencies == [WRITE_PS, WRITE_PS]
    assert [op[1] for op in driver.ops] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("error", [UncorrectableError("program failed"),
                                   DegradedModeError("read-only"),
                                   FailStopError("fail-stop")],
                         ids=["media", "degraded", "fail-stop"])
def test_failed_rewrite_keeps_the_committed_bytes(error):
    driver = StubDriver()
    leg = Leg(driver, footprint=2)
    counts = Counts()
    t = leg.seq_write(0, 0, counts)
    driver.write_errors[1] = error
    assert leg.write(1, 5, t, counts, sample=True) == t
    assert leg.shadow == {0: payload(0, 0), 1: payload(1, 0)}
    assert leg.latencies == []
    assert counts.writes == 2
    assert counts.refused_writes + counts.media_errors == 1


@pytest.mark.parametrize("error", [UncorrectableError("ecc"),
                                   FailStopError("fail-stop")],
                         ids=["media", "fail-stop"])
def test_failed_read_is_a_media_error_and_leaves_the_time(error):
    driver = StubDriver()
    leg = Leg(driver, footprint=2)
    t = leg.seq_write(0, 0, Counts())
    driver.read_errors[0] = error
    counts = Counts()
    assert leg.read(0, t, counts, sample=True) == t
    assert leg.read(1, t, counts, sample=True) == t + READ_PS
    assert counts == Counts(reads=1, media_errors=1)
    assert leg.latencies == [READ_PS]


def test_verify_counts_failed_and_mismatched_pages_as_loss():
    driver = StubDriver()
    leg = Leg(driver, footprint=6)
    t = leg.seq_write(0, 0, Counts())
    driver.read_errors = {1: UncorrectableError("ecc"),
                          3: FailStopError("fail-stop")}
    driver.corrupt = {4}
    counts = Counts()
    end = leg.verify(t, counts)
    assert counts == Counts(reads=4, data_loss=3)
    # Pages 0, 2, 4 and 5 were read; the two failed reads took no time.
    assert end == t + 4 * READ_PS
    assert leg.shadow == {page: payload(page, 0) for page in range(6)}


def test_verify_of_an_intact_shadow_loses_nothing():
    driver = StubDriver()
    leg = Leg(driver, footprint=4)
    t = leg.seq_write(0, 3, Counts())
    counts = Counts()
    assert leg.verify(t, counts) == t + 4 * READ_PS
    assert counts == Counts(reads=4)


def reference_rand_rw(rng: random.Random, steps: int, footprint: int,
                      version_base: int) -> list[tuple]:
    """The mixed leg's operations on a driver that never fails."""
    ops: list[tuple] = []
    committed: set[int] = set()
    for step in range(steps):
        if committed and rng.random() < READ_FRACTION:
            ops.append(("read", rng.choice(sorted(committed))))
        else:
            page = rng.randrange(footprint)
            ops.append(("write", page, payload(page, version_base + step)))
            committed.add(page)
    return ops


def test_rand_rw_draws_like_the_reference_and_samples_every_op():
    driver = StubDriver()
    leg = Leg(driver, footprint=16)
    counts = Counts()
    end = leg.rand_rw(0, random.Random(3), 200, 1_000, counts, sample=True)
    want = reference_rand_rw(random.Random(3), 200, 16, 1_000)
    assert driver.ops == want
    writes = sum(1 for op in want if op[0] == "write")
    assert counts == Counts(writes=writes, reads=200 - writes)
    assert end == writes * WRITE_PS + (200 - writes) * READ_PS
    assert sorted(set(leg.latencies)) == [READ_PS, WRITE_PS]
    assert len(leg.latencies) == 200


def test_rand_rw_reads_only_committed_pages():
    driver = StubDriver()
    driver.write_errors = {page: UncorrectableError("program failed")
                           for page in range(8)}
    leg = Leg(driver, footprint=16)
    counts = Counts()
    leg.rand_rw(0, random.Random(5), 200, 1, counts)
    read = {op[1] for op in driver.ops if op[0] == "read"}
    assert read and read <= set(range(8, 16)) == set(leg.shadow)
    assert counts.media_errors > 0
    assert counts.writes + counts.media_errors + counts.reads == 200
