"""Synthetic production fleet (paper §5.2, Figures 7, 8, 10).

Figures 7, 8, and 10 describe Meraki's real deployment - several
hundred shards accumulated over nine years - which cannot be obtained
outside the company.  Per DESIGN.md §2, we substitute a synthesizer
whose distributions are calibrated to every summary statistic the
paper reports:

* §5.2.1: ~20x more data in LittleTable than PostgreSQL; totals 320 TB
  vs 14 TB; largest shard 6.7 TB vs 341 GB.
* §5.2.2: ~270 tables per shard; median table 875 MB, largest 704 GB;
  median key 45 B with all keys < 128 B; median value 61 B, 91% of
  tables' average values <= 1 kB, largest values ~75 kB (HLL sketches);
  average row 791 B.
* §5.2.5: >90% of queries look back at most a week; most tables keep
  data for a year or longer, "removing old rows only when limited by
  the available disk space".

Log-normal mixtures reproduce these heavy-tailed shapes; each sampler
is deterministic in its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.util.clock import (
    MICROS_PER_DAY,
    MICROS_PER_HOUR,
    MICROS_PER_WEEK,
)
from repro.util.xorshift import Xorshift64Star

GIB = 1024 ** 3
TIB = 1024 ** 4
MONTH_MICROS = 30 * MICROS_PER_DAY


@dataclass
class ShardStats:
    """One synthesized shard (Figure 7)."""

    shard_id: int
    littletable_bytes: int
    postgres_bytes: int


@dataclass
class TableStats:
    """One synthesized production table (Figures 8 and 10)."""

    table_id: int
    key_bytes: int
    value_bytes: int
    size_bytes: int
    ttl_micros: int
    batch_rows: int


class FleetSynthesizer:
    """Deterministic sampler of production-shaped statistics."""

    def __init__(self, seed: int = 2017):
        self._rng = Xorshift64Star(seed=seed)

    # ------------------------------------------------------- primitives

    def _normal(self) -> float:
        """Standard normal via Box-Muller."""
        u1 = max(self._rng.next_float(), 1e-12)
        u2 = self._rng.next_float()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2 * math.pi * u2)

    def _lognormal(self, median: float, sigma: float) -> float:
        return median * math.exp(sigma * self._normal())

    # ----------------------------------------------------------- shards

    def shards(self, count: int = 220) -> List[ShardStats]:
        """Shard sizes calibrated to §5.2.1.

        Shards are split when LittleTable fills the disks or
        PostgreSQL exceeds RAM, so sizes cluster below a cap with a
        tail of recently-split small shards.
        """
        shards = []
        for shard_id in range(count):
            lt = self._lognormal(median=1.1 * TIB, sigma=0.75)
            lt = min(lt, 6.7 * TIB)
            # PostgreSQL is ~1/20th, with its own spread and cap.
            pg = lt / 20.0 * self._lognormal(median=1.0, sigma=0.35)
            pg = min(pg, 341 * GIB)
            shards.append(ShardStats(shard_id, int(lt), int(pg)))
        return shards

    # ----------------------------------------------------------- tables

    def tables(self, count: int = 270) -> List[TableStats]:
        """Per-table statistics calibrated to §5.2.2 and Figure 8."""
        tables = []
        for table_id in range(count):
            key = int(self._lognormal(median=45, sigma=0.45))
            key = max(8, min(key, 127))  # "all keys are less than 128 B"
            roll = self._rng.next_float()
            if roll < 0.91:
                # Ordinary metric tables: small values.
                value = int(self._lognormal(median=61, sigma=1.1))
                value = max(4, min(value, 1024))
            elif roll < 0.99:
                # Mid-size values (event contents, aggregates).
                value = int(self._lognormal(median=4096, sigma=0.8))
                value = max(1025, min(value, 32 * 1024))
            else:
                # Probabilistic client-set sketches: up to ~75 kB.
                value = int(self._lognormal(median=40 * 1024, sigma=0.4))
                value = max(32 * 1024, min(value, 75 * 1024))
            size = int(self._lognormal(median=875 * 1024 * 1024, sigma=1.6))
            size = min(size, 704 * GIB)
            tables.append(TableStats(
                table_id=table_id,
                key_bytes=key,
                value_bytes=value,
                size_bytes=size,
                ttl_micros=self._sample_ttl(),
                batch_rows=self._sample_batch_rows(),
            ))
        return tables

    def _sample_ttl(self) -> int:
        """Row TTL by table (Figure 10, dashed line).

        Most tables retain a year or more; a minority of high-volume
        tables age out sooner.
        """
        roll = self._rng.next_float()
        if roll < 0.03:
            return int(self._uniform(3 * MICROS_PER_DAY, MICROS_PER_WEEK))
        if roll < 0.08:
            return int(self._uniform(MICROS_PER_WEEK, MONTH_MICROS))
        if roll < 0.18:
            return int(self._uniform(MONTH_MICROS, 6 * MONTH_MICROS))
        if roll < 0.38:
            return int(self._uniform(6 * MONTH_MICROS, 13 * MONTH_MICROS))
        return int(self._uniform(13 * MONTH_MICROS, 26 * MONTH_MICROS))

    def _sample_batch_rows(self) -> int:
        """Insert batch sizes (§5.2.4): bottom 20% single rows, half
        >= 128 rows, top 20% over 6,000 rows."""
        roll = self._rng.next_float()
        if roll < 0.2:
            return 1
        if roll < 0.5:
            return int(self._uniform(2, 127))
        if roll < 0.8:
            return int(self._uniform(128, 6000))
        return int(self._uniform(6001, 60000))

    def _uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self._rng.next_float()

    # ---------------------------------------------------------- queries

    def query_lookbacks(self, count: int = 10_000) -> List[int]:
        """Oldest-time-requested per query (Figure 10, solid line).

        "Over 90% of requests are for data from the most recent week",
        with a forensic tail reaching past a year.
        """
        lookbacks = []
        for _ in range(count):
            roll = self._rng.next_float()
            if roll < 0.45:
                span = self._uniform(MICROS_PER_HOUR, MICROS_PER_DAY)
            elif roll < 0.91:
                span = self._uniform(MICROS_PER_DAY, MICROS_PER_WEEK)
            elif roll < 0.97:
                span = self._uniform(MICROS_PER_WEEK, MONTH_MICROS)
            elif roll < 0.995:
                span = self._uniform(MONTH_MICROS, 13 * MONTH_MICROS)
            else:
                span = self._uniform(13 * MONTH_MICROS, 26 * MONTH_MICROS)
            lookbacks.append(int(span))
        return lookbacks
