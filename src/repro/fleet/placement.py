"""Placement policies and the deterministic zipfian sampler.

A placement maps a request to a shard.  All three policies are
*load-oblivious* on purpose: the shard for a request is a pure function
of ``(tenant, key, seq)``, never of observed queue depths, so shards
stay mutually independent — that is what lets the front end fan the
per-shard request plans out over worker processes and still merge a
byte-identical report (the same property PR 2 relies on for
``run_all(jobs=)``).  Load-*adaptive* placement would couple every
shard's admission state into one serial timeline; static interleaving
is also what the CXL-HM hybrid characterization evaluates.

Skew model: tenant key popularity is zipfian (:class:`ZipfSampler`), so
key-hashed placements (capacity-weighted) concentrate hot keys onto
their home shards — realistic shard imbalance — while the round-robin
interleave spreads requests uniformly regardless of key popularity, and
tenant pinning concentrates whole tenants (the tiering configuration).
"""

from __future__ import annotations

import bisect
import random
import zlib
from typing import Protocol

from repro.fleet.tenants import TenantSpec


class ZipfSampler:
    """Seed-deterministic zipfian rank sampler over ``n`` keys.

    Rank ``r`` is drawn with probability proportional to
    ``1 / (r + 1) ** theta`` by inverting the cumulative weight table
    with one uniform draw per sample.  Determinism contract: the
    sequence is a pure function of ``(n, theta, seed)`` — the draws
    come from a dedicated ``random.Random`` and the table from float
    arithmetic over ranks, never from ``hash()``, so the output is
    independent of ``PYTHONHASHSEED`` and identical across processes.
    """

    def __init__(self, n: int, theta: float, seed: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        cdf: list[float] = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / (rank + 1) ** theta
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self) -> int:
        """The next key (0 is the hottest)."""
        return bisect.bisect_left(self._cdf,
                                  self._rng.random() * self._total)


def _key_hash(tenant_index: int, key: int) -> int:
    """Stable 32-bit placement hash (CRC32, never ``hash()``)."""
    return zlib.crc32(f"{tenant_index}:{key}".encode("ascii"))


class PlacementPolicy(Protocol):
    """Maps one request to a shard index."""

    name: str

    def shard_for(self, tenant: TenantSpec, tenant_index: int, key: int,
                  seq: int, shards: int,
                  weights: tuple[int, ...]) -> int:
        """Shard for request ``seq`` of ``tenant`` touching ``key``."""
        ...


class RoundRobinPlacement:
    """Pure interleave: request ``seq`` lands on shard ``seq % N``.

    The DDR-style address-interleaving baseline — uniform per-shard
    load by construction, no locality (a hot key is served by every
    shard in turn).
    """

    name = "round_robin"

    def shard_for(self, tenant: TenantSpec, tenant_index: int, key: int,
                  seq: int, shards: int,
                  weights: tuple[int, ...]) -> int:
        return seq % shards


class CapacityWeightedPlacement:
    """Key-hashed placement proportional to per-shard capacity weights.

    A key's home shard is chosen by mapping its CRC32 into the
    cumulative weight table, so heterogeneous shards (weights ``(2, 1,
    1, ...)`` model a big-module/small-module fleet) receive
    proportional keyspace shares, and every request for a key goes to
    the same shard (cache locality; zipfian keys skew the load).
    """

    name = "capacity_weighted"

    def shard_for(self, tenant: TenantSpec, tenant_index: int, key: int,
                  seq: int, shards: int,
                  weights: tuple[int, ...]) -> int:
        total = sum(weights[:shards])
        point = (_key_hash(tenant_index, key) / 0x1_0000_0000) * total
        cumulative = 0
        for shard in range(shards):
            cumulative += weights[shard]
            if point < cumulative:
                return shard
        return shards - 1


class TenantPinnedPlacement:
    """Tiering: a tenant's whole keyspace lives on its pinned shard.

    Tenants that declare ``pinned_shard`` go there (modulo the fleet
    size); unpinned tenants are spread by tenant hash.  This is the
    configuration where one tenant's burst cannot queue behind another
    tenant's scan — per-tenant isolation at the cost of per-shard
    imbalance.
    """

    name = "tenant_pinned"

    def shard_for(self, tenant: TenantSpec, tenant_index: int, key: int,
                  seq: int, shards: int,
                  weights: tuple[int, ...]) -> int:
        if tenant.pinned_shard is not None:
            return tenant.pinned_shard % shards
        return zlib.crc32(tenant.name.encode("ascii")) % shards


#: Policy registry: ``--placement`` name -> zero-arg factory.
PLACEMENTS = {
    RoundRobinPlacement.name: RoundRobinPlacement,
    CapacityWeightedPlacement.name: CapacityWeightedPlacement,
    TenantPinnedPlacement.name: TenantPinnedPlacement,
}
