"""The aging campaign: snapshot-accelerated epochs to end-of-life.

One *shard* is one simulated NVDIMM-C module aged in epochs::

    epoch:   hot/cold workload -> patrol scrub -> verify every page
    between: capture SimSnapshot -> restore -> closed-form fast-forward

The fast-forward multiplies the epoch's *measured* per-block erase and
read deltas by the shard's wear-acceleration factor (manufacturing
variation: a seeded spread around the configured base) and adds the
epoch's retention years to every touched block — the media decays
exactly as if the epoch had run ``accel`` times over plus parked time,
without simulating any of it.  Worn-out free blocks are retired after
each fast-forward; non-free worn blocks die at their next real erase.
A shard ends when the health ladder reaches ``read_only`` (the grown
bad blocks cross the budget) or the epoch budget runs out (censored).

A *campaign* ages ``shards`` independently-seeded shards under each
configured GC victim strategy, every shard forked from one filled
module and matched shard seeds across strategies, so wear-leveling
comparisons see identical workloads.
Campaign acceptance, checked from the report alone:

* **zero committed loss at every epoch** — every shadow-tracked page
  reads back intact through every epoch, including the read-only one;
* **sanitizers quiet** — the full default suite observes every run;
* **graceful degradation order** — no shard reaches ``fail_stop``
  without passing ``read_only`` first;
* **wear leveling works** — ``cost_benefit`` and ``static`` end with
  strictly lower mean wear spread than the ``greedy`` baseline.

Determinism: a pure function of the config — reruns render
byte-identical reports, independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.aging.report import SCHEMA
from repro.analysis.stats import order_statistic
from repro.check.sanitizer import default_suite
from repro.device.nvdimmc import NVDIMMCSystem
from repro.errors import ConfigError
from repro.health.monitor import HealthPolicy
from repro.nand.ecc import AgingParams
from repro.nand.endurance import (EnduranceSnapshot, paper_device_lifetime,
                                  project_lifetime_years)
from repro.nand.ftl import VICTIM_STRATEGIES, FlashTranslationLayer
from repro.nand.spec import ZNAND_64GB
from repro.report import Gate, Gated
from repro.sim.snapshot import SimSnapshot
from repro.sim.trace import Tracer, use_tracer
from repro.units import gb, kb, mb, us
from repro.workloads.shadow import Leg

_CACHE_BYTES = kb(512)
_DEVICE_BYTES = mb(8)

#: Hot/cold skew: every fourth page is hot and takes 80 % of the
#: writes.  The hot set is *strided* through the footprint on purpose —
#: each fill block ends up mostly cold with a few hot pages, exactly
#: the mixed, slightly-stale blocks greedy GC never reclaims (their
#: valid counts stay high) and the leveling strategies must dig out.
_HOT_DIVISOR = 4
_HOT_WRITE_BIAS = 0.8
_READ_FRACTION = 0.25


def _campaign_seed(seed: int, *parts: object) -> int:
    tag = ":".join(str(part) for part in ("aging", seed) + parts)
    return zlib.crc32(tag.encode("ascii"))


@dataclass(frozen=True)
class AgingConfig:
    """One campaign's knobs; everything downstream derives from here."""

    quick: bool = False
    seed: int = 0
    #: Shards aged per strategy (default 2 quick / 4 full).
    shards: int | None = None
    strategies: tuple[str, ...] = VICTIM_STRATEGIES
    #: Epoch budget per shard (default 8 quick / 14 full).
    max_epochs: int | None = None
    #: Device pages the workload touches (default 1024 quick / 1536
    #: full) — most of the logical space, so the cold data pins a large
    #: share of the physical blocks and wear leveling has real work.
    footprint_pages: int | None = None
    #: Mixed read/write steps per epoch (default: the footprint).
    epoch_steps: int | None = None
    #: Parked (retention) years added per epoch, milli-years.
    years_per_epoch_x1000: int = 350
    #: Base wear acceleration: each epoch's erase/read deltas stand for
    #: this many repetitions of themselves (manufacturing variation
    #: scatters the per-shard factor around it).  Around 26k, a block's
    #: second or third recycling crosses the 50K-cycle endurance — the
    #: manufacturing spread straddles the boundary, so shard lifetimes
    #: stagger instead of the whole population dying in one epoch.
    wear_accel: int = 26_000
    #: ``static`` strategy: erases between cold-block migrations.
    static_level_period: int = 8
    #: Grown-bad-block budget before the module goes read-only.
    bad_block_budget: int = 6
    #: Free-pool headroom above the GC low water mark after the fill —
    #: small enough that GC (where victim strategies act) runs from the
    #: first epochs instead of after years of fill traffic, large
    #: enough that collection stays calm instead of thrashing.
    gc_headroom: int = 20
    #: Idle refresh windows patrolled per epoch.
    scrub_windows: int = 24

    def __post_init__(self) -> None:
        for strategy in self.strategies:
            if strategy not in VICTIM_STRATEGIES:
                raise ConfigError(
                    f"unknown victim strategy {strategy!r}; expected "
                    f"one of {VICTIM_STRATEGIES}")
        if not self.strategies:
            raise ConfigError("at least one victim strategy is required")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("duplicate victim strategies")
        if "greedy" not in self.strategies:
            raise ConfigError(
                "the greedy baseline strategy is required (the wear "
                "leveling gate compares against it)")
        if self.shard_count < 1:
            raise ConfigError("shards must be >= 1")
        if self.epoch_budget < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.wear_accel < 1:
            raise ConfigError("wear_accel must be >= 1")
        if self.years_per_epoch_x1000 < 0:
            raise ConfigError("years_per_epoch_x1000 must be >= 0")
        if self.bad_block_budget < 1:
            raise ConfigError("bad_block_budget must be >= 1")
        if self.static_level_period < 1:
            raise ConfigError("static_level_period must be >= 1")
        if self.footprint < 16:
            raise ConfigError("footprint_pages must be >= 16")

    @property
    def shard_count(self) -> int:
        if self.shards is not None:
            return self.shards
        return 2 if self.quick else 4

    @property
    def epoch_budget(self) -> int:
        if self.max_epochs is not None:
            return self.max_epochs
        return 8 if self.quick else 14

    @property
    def footprint(self) -> int:
        if self.footprint_pages is not None:
            return self.footprint_pages
        return 1024 if self.quick else 1536

    @property
    def steps(self) -> int:
        if self.epoch_steps is not None:
            return self.epoch_steps
        return self.footprint


@dataclass
class EpochLog:
    """One epoch's endurance census plus workload accounting."""

    epoch: int
    writes: int = 0
    reads: int = 0
    refused_writes: int = 0
    media_errors: int = 0
    data_loss: int = 0
    retired_free_blocks: int = 0
    relocations: int = 0          # cumulative scrub relocations
    grown_bad_blocks: int = 0     # cumulative
    bad_blocks: int = 0           # census across all blocks
    free_blocks: int = 0
    max_erase: int = 0
    mean_erase_x1000: int = 0
    wear_spread_x1000: int = 0
    health: str = "ok"

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "writes": self.writes,
            "reads": self.reads,
            "refused_writes": self.refused_writes,
            "media_errors": self.media_errors,
            "data_loss": self.data_loss,
            "retired_free_blocks": self.retired_free_blocks,
            "relocations": self.relocations,
            "grown_bad_blocks": self.grown_bad_blocks,
            "bad_blocks": self.bad_blocks,
            "free_blocks": self.free_blocks,
            "max_erase": self.max_erase,
            "mean_erase_x1000": self.mean_erase_x1000,
            "wear_spread_x1000": self.wear_spread_x1000,
            "health": self.health,
        }


@dataclass
class ShardOutcome:
    """One aged module's life story."""

    strategy: str
    shard: int
    wear_accel: int
    epochs_run: int = 0
    #: 1-based epoch at which the ladder reached read-only; 0 = the
    #: epoch budget ran out first (censored).
    read_only_epoch: int = 0
    end_state: str = "ok"
    waf_x1000: int = 1000
    wear_spread_x1000: int = 1000
    data_loss: int = 0
    grown_bad_blocks: int = 0
    scrub_relocations: int = 0
    retired_free_blocks: int = 0
    epoch_log: list[EpochLog] = field(default_factory=list)
    ladder: list[dict] = field(default_factory=list)

    @property
    def graceful(self) -> bool:
        """``fail_stop`` only ever after ``read_only``."""
        seen_read_only = False
        for transition in self.ladder:
            if transition["to"] == "read_only":
                seen_read_only = True
            if transition["to"] == "fail_stop" and not seen_read_only:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "shard": self.shard,
            "wear_accel": self.wear_accel,
            "epochs_run": self.epochs_run,
            "read_only_epoch": self.read_only_epoch,
            "end_state": self.end_state,
            "waf_x1000": self.waf_x1000,
            "wear_spread_x1000": self.wear_spread_x1000,
            "data_loss": self.data_loss,
            "grown_bad_blocks": self.grown_bad_blocks,
            "scrub_relocations": self.scrub_relocations,
            "retired_free_blocks": self.retired_free_blocks,
            "epoch_log": [entry.to_dict() for entry in self.epoch_log],
            "ladder": list(self.ladder),
        }


@dataclass
class AgingResult(Gated):
    """Everything one campaign observed, plus the acceptance gates."""

    config: AgingConfig
    shards: list[ShardOutcome] = field(default_factory=list)
    violations: int = 0

    def by_strategy(self, strategy: str) -> list[ShardOutcome]:
        return [s for s in self.shards if s.strategy == strategy]

    def mean_wear_spread_x1000(self, strategy: str) -> int:
        outcomes = self.by_strategy(strategy)
        if not outcomes:
            return 0
        return round(sum(s.wear_spread_x1000 for s in outcomes)
                     / len(outcomes))

    def mean_waf_x1000(self, strategy: str) -> int:
        outcomes = self.by_strategy(strategy)
        if not outcomes:
            return 1000
        return round(sum(s.waf_x1000 for s in outcomes) / len(outcomes))

    def survival_curve(self, strategy: str) -> list[int]:
        """Writable shard count after each epoch, ``1..epoch_budget``."""
        outcomes = self.by_strategy(strategy)
        curve = []
        for epoch in range(1, self.config.epoch_budget + 1):
            curve.append(sum(
                1 for s in outcomes
                if s.read_only_epoch == 0 or s.read_only_epoch > epoch))
        return curve

    def time_to_read_only(self, strategy: str) -> dict[str, int]:
        reached = [s.read_only_epoch for s in self.by_strategy(strategy)
                   if s.read_only_epoch > 0]
        total = len(self.by_strategy(strategy))
        return {"reached": len(reached), "censored": total - len(reached),
                "p50_epochs": order_statistic(reached, 0.50),
                "p90_epochs": order_statistic(reached, 0.90)}

    def ladder_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for outcome in self.shards:
            for transition in outcome.ladder:
                key = f"{transition['from']}->{transition['to']}"
                histogram[key] = histogram.get(key, 0) + 1
        return histogram

    # -- gates ---------------------------------------------------------------------

    @property
    def zero_loss(self) -> bool:
        return all(s.data_loss == 0 for s in self.shards)

    @property
    def sanitizers_quiet(self) -> bool:
        return self.violations == 0

    @property
    def graceful_order(self) -> bool:
        return all(s.graceful for s in self.shards)

    @property
    def leveling_beats_greedy(self) -> bool:
        """Every non-greedy strategy strictly improves the wear spread."""
        greedy = self.mean_wear_spread_x1000("greedy")
        others = [s for s in self.config.strategies if s != "greedy"]
        return all(self.mean_wear_spread_x1000(strategy) < greedy
                   for strategy in others)

    @property
    def gates(self) -> list[Gate]:
        lost = sum(s.data_loss for s in self.shards)
        bad = [f"{s.strategy}/{s.shard}" for s in self.shards
               if not s.graceful]
        return [
            Gate("zero_loss", self.zero_loss,
                 f"aging FAILED: {lost} pages lost"),
            Gate("sanitizers_quiet", self.sanitizers_quiet,
                 f"aging FAILED: {self.violations} sanitizer violations"),
            Gate("graceful_order", self.graceful_order,
                 f"aging FAILED: shards {bad} fail-stopped before "
                 "read_only (degradation out of order)"),
            Gate("leveling_beats_greedy", self.leveling_beats_greedy,
                 "aging FAILED: wear leveling did not beat the greedy "
                 "baseline's wear spread"),
        ]

    # -- serialisation -------------------------------------------------------------

    def analytic(self) -> dict:
        """Cross-check the campaign against the paper's §VII-A math.

        ``paper_*`` is the closed-form projection at the paper's own
        operating point (58.3 MB/s sustained, WAF 1.1); ``measured_*``
        re-runs the same projection with the WAF and wear spread the
        greedy baseline actually exhibited, so the two lifetimes are
        directly comparable.
        """
        measured_waf = self.mean_waf_x1000("greedy")
        spread = self.mean_wear_spread_x1000("greedy")
        projected = project_lifetime_years(
            ZNAND_64GB, 2 * gb(64), 58.3, waf=measured_waf / 1000,
            wear_spread=max(1.0, spread / 1000))
        return {
            "paper_waf_x1000": 1100,
            "paper_lifetime_years_x1000":
                round(paper_device_lifetime() * 1000),
            "measured_waf_x1000": measured_waf,
            "projected_lifetime_years_x1000": round(projected * 1000),
        }

    def totals(self) -> dict:
        entries = [e for s in self.shards for e in s.epoch_log]
        return {
            "shards": len(self.shards),
            "epochs": sum(s.epochs_run for s in self.shards),
            "writes": sum(e.writes for e in entries),
            "reads": sum(e.reads for e in entries),
            "refused_writes": sum(e.refused_writes for e in entries),
            "media_errors": sum(e.media_errors for e in entries),
            "data_loss": sum(s.data_loss for s in self.shards),
            "grown_bad_blocks":
                sum(s.grown_bad_blocks for s in self.shards),
            "scrub_relocations":
                sum(s.scrub_relocations for s in self.shards),
            "retired_free_blocks":
                sum(s.retired_free_blocks for s in self.shards),
            "violations": self.violations,
        }

    def to_dict(self) -> dict:
        config = self.config
        return {
            "schema": SCHEMA,
            "generated_at": None,
            "seed": config.seed,
            "quick": config.quick,
            "config": {
                "shards": config.shard_count,
                "strategies": list(config.strategies),
                "max_epochs": config.epoch_budget,
                "footprint_pages": config.footprint,
                "epoch_steps": config.steps,
                "years_per_epoch_x1000": config.years_per_epoch_x1000,
                "wear_accel": config.wear_accel,
                "bad_block_budget": config.bad_block_budget,
                "static_level_period": config.static_level_period,
                "gc_headroom": config.gc_headroom,
                "scrub_windows": config.scrub_windows,
            },
            "strategies": [
                {
                    "strategy": name,
                    "mean_wear_spread_x1000":
                        self.mean_wear_spread_x1000(name),
                    "mean_waf_x1000": self.mean_waf_x1000(name),
                    "survival_curve": self.survival_curve(name),
                    "time_to_read_only": self.time_to_read_only(name),
                    "shards": [s.to_dict()
                               for s in self.by_strategy(name)],
                }
                for name in config.strategies
            ],
            "ladder_histogram": self.ladder_histogram(),
            "analytic": self.analytic(),
            "totals": self.totals(),
            "gates": {gate.name: gate.ok for gate in self.gates},
            "ok": self.ok,
        }


# -- workload ----------------------------------------------------------------------


def _churn(leg: Leg, t: int, rng: random.Random, steps: int,
           version_base: int, log: EpochLog) -> int:
    """The epoch's hot/cold steps over the shared leg's read and write."""
    hot_pages = max(1, leg.footprint // _HOT_DIVISOR)
    for step in range(steps):
        if leg.shadow and rng.random() < _READ_FRACTION:
            t = leg.read(rng.choice(sorted(leg.shadow)), t, log)
            continue
        if rng.random() < _HOT_WRITE_BIAS:
            # The hot set is strided: every _HOT_DIVISOR-th page.
            page = _HOT_DIVISOR * rng.randrange(hot_pages)
        else:
            page = rng.randrange(leg.footprint)
        t = leg.write(page, version_base + step, t, log)
    return t


# -- shard machinery ---------------------------------------------------------------


def _build_system(config: AgingConfig, tracer: Tracer) -> NVDIMMCSystem:
    system = NVDIMMCSystem(
        cache_bytes=_CACHE_BYTES, device_bytes=_DEVICE_BYTES,
        seed=_campaign_seed(config.seed, "module") % 100003,
        tracer=tracer,
        health_policy=HealthPolicy(
            read_only_bad_blocks=config.bad_block_budget))
    system.nand.degraded_bad_block_limit = config.bad_block_budget
    system.nand.aging = AgingParams()
    return system


def _prefix(config: AgingConfig, tracer: Tracer,
            ) -> tuple[NVDIMMCSystem, Leg, int]:
    """Bring-up plus the RNG-free sequential fill, shared by all shards.

    After the fill the GC water marks are pinned just below the free
    pool: an endurance campaign wants the device living in its *steady
    state* — GC active, victim strategies making real choices — from
    epoch one, not after simulating years of fill-up traffic first.
    The fill writes each footprint page once into a device with room
    to spare, so it runs no GC pass and erases no block: no victim
    strategy acts on it, and each fork sets its own (:func:`_fork_state`).
    """
    system = _build_system(config, tracer)
    leg = Leg(system.driver, config.footprint)
    t = round(us(1))
    t = leg.seq_write(t, 0, EpochLog(epoch=0))
    ftl = system.nand.ftl
    low = max(FlashTranslationLayer.GC_LOW_WATER,
              ftl.free_blocks - config.gc_headroom)
    ftl.GC_LOW_WATER = low
    ftl.GC_HIGH_WATER = low + 4
    return system, leg, t


def _wear_baseline(system: NVDIMMCSystem,
                   ) -> dict[tuple[int, int, int], tuple[int, int]]:
    baseline = {}
    for die in system.nand.dies:
        for (plane, block), info in die.blocks.items():
            baseline[(die.die_index, plane, block)] = (
                info.erase_count, info.read_count)
    return baseline


def _fast_forward(system: NVDIMMCSystem,
                  baseline: dict[tuple[int, int, int], tuple[int, int]],
                  accel: int, years: float) -> int:
    """Closed-form aging: amplify the epoch's wear, add parked years.

    Each block's measured erase/read deltas since ``baseline`` are
    multiplied by ``accel`` (the epoch stands for ``accel`` repetitions
    of itself) and every block's retention clock advances by ``years``.
    Bad blocks are out of service and wear no further.  Returns how
    many worn-out *free* blocks the FTL retired afterwards.
    """
    for die in system.nand.dies:
        for key in sorted(die.blocks):
            info = die.blocks[key]
            if info.bad:
                continue
            base_erase, base_reads = baseline.get(
                (die.die_index,) + key, (0, 0))
            erase_delta = info.erase_count - base_erase
            read_delta = info.read_count - base_reads
            if erase_delta > 0:
                info.erase_count += erase_delta * (accel - 1)
            if read_delta > 0:
                info.read_count += read_delta * (accel - 1)
            info.aged_years += years
    return system.nand.ftl.retire_worn_free_blocks()


def _census(outcome: ShardOutcome, system: NVDIMMCSystem,
            log: EpochLog) -> None:
    snap = EnduranceSnapshot.capture(system.nand.ftl)
    log.relocations = snap.scrub_relocations
    log.grown_bad_blocks = snap.grown_bad_blocks
    log.bad_blocks = snap.bad_blocks
    log.free_blocks = snap.free_blocks
    log.max_erase = snap.max_erase_count
    log.mean_erase_x1000 = round(1000 * snap.mean_erase_count)
    log.wear_spread_x1000 = round(1000 * snap.wear_spread)
    log.health = system.health.state.label
    outcome.epoch_log.append(log)


def _age_shard(config: AgingConfig, outcome: ShardOutcome,
               state: dict) -> dict:
    """Run one shard's epochs to read-only or the epoch budget.

    ``state`` is the shard's mutable root set (``system``, ``leg``,
    ``tracer``, ``suite``, ``rng``, ``t``); the *final* root set is
    returned — each epoch boundary captures the set, restores it, and
    *continues on the restored clone*: the closed-form
    fast-forward lands on the snapshot, and the next epoch proves the
    restored graph carried every aging field (read counts, retention
    clocks, victim strategy, block ages) faithfully.
    """
    years = config.years_per_epoch_x1000 / 1000.0
    for epoch in range(1, config.epoch_budget + 1):
        system = state["system"]
        leg = state["leg"]
        log = EpochLog(epoch=epoch)
        baseline = _wear_baseline(system)
        with use_tracer(state["tracer"]):
            t = _churn(leg, state["t"], state["rng"], config.steps,
                       epoch * 1_000_000, log)
            trefi = system.spec.trefi_ps
            idle_from = max(t, system.nvmc.ready_ps)
            system.scrubber.patrol(
                idle_from, idle_from + config.scrub_windows * trefi)
            t = max(idle_from + config.scrub_windows * trefi,
                    system.nvmc.ready_ps)
            t = leg.verify(t, log)
        state["t"] = t
        state = SimSnapshot.capture(state, label="aging-epoch").restore()
        system = state["system"]
        with use_tracer(state["tracer"]):
            log.retired_free_blocks = _fast_forward(
                system, baseline, outcome.wear_accel, years)
        _census(outcome, system, log)
        outcome.epochs_run = epoch
        if system.health.read_only:
            outcome.read_only_epoch = epoch
            break
    system = state["system"]
    monitor = system.health
    outcome.end_state = monitor.state.label
    outcome.ladder = [tr.to_dict() for tr in monitor.timeline]
    stats = system.nand.ftl.stats
    outcome.waf_x1000 = round(1000 * stats.write_amplification)
    outcome.grown_bad_blocks = stats.grown_bad_blocks
    outcome.scrub_relocations = stats.scrub_relocations
    outcome.retired_free_blocks = sum(
        entry.retired_free_blocks for entry in outcome.epoch_log)
    outcome.data_loss = sum(entry.data_loss for entry in outcome.epoch_log)
    final = EnduranceSnapshot.capture(system.nand.ftl)
    outcome.wear_spread_x1000 = round(1000 * final.wear_spread)
    return state


def _shard_outcome(config: AgingConfig, strategy: str,
                   shard: int) -> ShardOutcome:
    mfg = random.Random(_campaign_seed(config.seed, "mfg", shard))
    accel = max(1, config.wear_accel * (850 + mfg.randrange(301)) // 1000)
    return ShardOutcome(strategy=strategy, shard=shard, wear_accel=accel)


def _fork_state(config: AgingConfig, strategy: str, shard: int,
                snap: SimSnapshot) -> dict:
    state = snap.restore()
    nand = state["system"].nand
    # The fill erased nothing, so this arms the static-leveling timer
    # exactly where setting the strategy before the fill would have.
    nand.ftl.set_victim_strategy(
        strategy, static_period=config.static_level_period)
    nand.reseed(_campaign_seed(config.seed, "media", shard))
    state["rng"] = random.Random(_campaign_seed(config.seed, "work", shard))
    return state


# -- the campaign ------------------------------------------------------------------


def run_aging(config: AgingConfig,
              progress: Callable[[ShardOutcome], None] | None = None,
              ) -> AgingResult:
    """Age the whole population and aggregate the fleet telemetry.

    The campaign runs its prefix (bring-up + fill, which consumes no
    workload RNG) once, captures it, and forks every shard of every
    strategy from the capture with the shard's victim strategy, an
    independent media seed and a workload RNG.  The prefix's own suite
    is a template no run continues, so it is not counted: every shard
    counts the violations its forked suite holds, the prefix's among
    them.
    """
    result = AgingResult(config=config)
    tracer = Tracer(enabled=True)
    suite = default_suite()
    with use_tracer(tracer):
        with suite.attach(tracer):
            system, leg, t = _prefix(config, tracer)
            snap = SimSnapshot.capture(
                {"system": system, "leg": leg, "tracer": tracer,
                 "suite": suite, "rng": None, "t": t},
                label="aging-epoch")
    for strategy in config.strategies:
        for shard in range(config.shard_count):
            outcome = _shard_outcome(config, strategy, shard)
            state = _fork_state(config, strategy, shard, snap)
            state = _age_shard(config, outcome, state)
            state["suite"].detach()
            result.violations += len(state["suite"].violations)
            result.shards.append(outcome)
            if progress is not None:
                progress(outcome)
    return result
