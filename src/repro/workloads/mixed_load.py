"""The SAP-style mixed-load benchmark with data validation (§VII-B5).

"We also run a mixed-load benchmark ... to evaluate the data integrity
of the memory device.  This benchmark always performs data validation
whenever a series of transactions are completed.  In this experiment,
we observed that five hundreds of user workload can be executed
concurrently on our device without any data corruption."

Each simulated user runs read-modify-write transactions over its own
row set plus a shared hot set; every page carries a self-describing
record (user, sequence number, checksum) that is validated on every
read and once more in a final full sweep.  The data moves through the
*real* stack — CPU cache with explicit coherence, nvdc driver, CP
protocol, Z-NAND — so any bookkeeping or coherence bug surfaces as a
validation failure, exactly what the benchmark exists to catch.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass

from repro.device.nvdimmc import NVDIMMCSystem
from repro.units import PAGE_4K


def _make_record(user: int, seq: int, page: int) -> bytes:
    """A 4 KB page payload with an embedded integrity header."""
    header = user.to_bytes(4, "little") + seq.to_bytes(4, "little") + \
        page.to_bytes(4, "little")
    digest = hashlib.blake2b(header, digest_size=8).digest()
    body = (header + digest)
    return body + bytes(PAGE_4K - len(body))


def _check_record(data: bytes, page: int) -> bool:
    """Validate a page previously written by :func:`_make_record`."""
    header, digest = data[:12], data[12:20]
    if hashlib.blake2b(header, digest_size=8).digest() != digest:
        return False
    return int.from_bytes(header[8:12], "little") == page


@dataclass
class MixedLoadResult:
    """Outcome of one mixed-load run."""

    users: int
    transactions: int
    reads: int = 0
    writes: int = 0
    validation_failures: int = 0
    final_sweep_pages: int = 0
    span_ps: int = 0

    @property
    def clean(self) -> bool:
        return self.validation_failures == 0


def run_mixed_load(system: NVDIMMCSystem, users: int = 50,
                   transactions_per_user: int = 10,
                   pages_per_user: int = 4, seed: int = 11
                   ) -> MixedLoadResult:
    """Run the concurrent-user benchmark on a built system.

    Users interleave by simulated time (earliest-cursor-first).  A
    transaction reads one of the user's pages (validating it if ever
    written), rewrites it with a bumped sequence number, and touches a
    page from the shared hot set.
    """
    rng = random.Random(seed)
    driver = system.driver
    dram = system.dram
    total_txns = users * transactions_per_user
    result = MixedLoadResult(users=users, transactions=total_txns)
    hot_pages = list(range(users * pages_per_user,
                           users * pages_per_user + 8))
    cursors = [0] * users
    seqs: dict[int, int] = {}
    written: dict[int, int] = {}   # page -> writing user
    remaining = [transactions_per_user] * users

    def page_rw(page: int, user: int, now: int, *, write: bool) -> int:
        """One page access through the full data + timing path."""
        slot = driver.lookup(page)
        if slot is None:
            slot, now = driver.fault(page, now, write)
        paddr = system.region.slot_paddr(slot)
        cache = system.cpu_cache
        if write:
            seq = seqs.get(page, 0) + 1
            seqs[page] = seq
            record = _make_record(user, seq, page)
            if cache is not None:
                cache.store(paddr, record)
            else:
                dram.poke(paddr, record)
            driver.mark_write(page)
            written[page] = user
            result.writes += 1
            now = system.op(page * PAGE_4K, PAGE_4K, True, now)
        else:
            data = (cache.load(paddr, PAGE_4K) if cache is not None
                    else dram.peek(paddr, PAGE_4K))
            if page in written and not _check_record(data, page):
                result.validation_failures += 1
            result.reads += 1
            now = system.op(page * PAGE_4K, PAGE_4K, False, now)
        return now

    # (cursor, user) of every user with transactions left: the next is
    # the earliest cursor, ties to the lowest user index.
    ready = ([(0, user) for user in range(users)]
             if transactions_per_user > 0 else [])
    while ready:
        now, user = heapq.heappop(ready)
        own_page = user * pages_per_user + rng.randrange(pages_per_user)
        now = page_rw(own_page, user, now, write=False)
        now = page_rw(own_page, user, now, write=True)
        now = page_rw(rng.choice(hot_pages), user, now, write=False)
        cursors[user] = now
        remaining[user] -= 1
        if remaining[user]:
            heapq.heappush(ready, (now, user))

    # Final sweep: every written page must validate, including those
    # that were evicted to Z-NAND and must come back intact.
    for page in sorted(written):
        slot = driver.lookup(page)
        if slot is None:
            slot, _ = driver.fault(page, max(cursors), False)
        paddr = system.region.slot_paddr(slot)
        data = (system.cpu_cache.load(paddr, PAGE_4K)
                if system.cpu_cache is not None
                else dram.peek(paddr, PAGE_4K))
        if not _check_record(data, page):
            result.validation_failures += 1
        result.final_sweep_pages += 1
    result.span_ps = max(cursors)
    return result
