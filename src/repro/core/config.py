"""Engine tunables.

Defaults mirror the values the paper states explicitly:

* 16 MB flush size (§3.3: "we set the default flush size to 16 MB,
  which is large enough to sustain roughly 95% of the disk's peak
  write rate");
* 10-minute maximum in-memory tablet age (§3.4.1);
* 128 MB maximum merged tablet size (§5.1.3, "its default settings");
* 90-second delay before a freshly-written tablet may be merged
  (§5.1.3: "LittleTable waits until 90 seconds after a tablet is
  written before merging it");
* 64 kB on-disk blocks (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from ..util.clock import MICROS_PER_MINUTE, micros_from_seconds

KIB = 1024
MIB = 1024 * 1024


@dataclass
class EngineConfig:
    """Tunables for a LittleTable instance."""

    block_size_bytes: int = 64 * KIB
    flush_size_bytes: int = 16 * MIB
    flush_age_micros: int = 10 * MICROS_PER_MINUTE
    max_merged_tablet_bytes: int = 128 * MIB
    merge_min_age_micros: int = micros_from_seconds(90)
    # Server-side limit on rows returned per query command; the client
    # adaptor re-submits with an updated start bound (§3.5).
    server_row_limit: int = 65536
    # Compression codec for blocks and footers: "zlib" stands in for
    # the paper's LZO1X-1 (see DESIGN.md §2); "none" disables.
    compression: str = "zlib"
    # Build per-tablet key Bloom filters (paper §3.4.5's proposed
    # optimization; implemented here, on by default, ablatable).
    bloom_filters: bool = True
    bloom_bits_per_row: int = 10
    # Byte budget for the engine-wide decoded-block read cache (shared
    # across all tables of a database, LRU by decoded payload bytes
    # plus a per-row overhead estimate).  0 disables it.  Warm queries
    # served from the cache skip the disk model, decompression, and
    # row decoding entirely.
    read_cache_bytes: int = 32 * MIB
    # Entry cap for each table's latest(prefix) hot-row cache
    # (invalidated by covering inserts and by any tablet-set or schema
    # mutation via the table's cache generation).  0 disables it.
    latest_cache_entries: int = 1024
    # Fraction of the containing period by which rollover merges are
    # delayed (scaled by a per-table pseudorandom value in [0, 1)).
    merge_rollover_delay_fraction: float = 1.0
    # Verify descriptors and tablet trailers when opening a database,
    # deleting crash garbage (orphan tablets, stale descriptor temps)
    # and quarantining corrupt tablet files into quarantine/.  Prefix
    # durability is preserved: only files the descriptor never
    # referenced are deleted; referenced-but-corrupt files are moved,
    # never destroyed.
    startup_scrub: bool = True
    # Reads that trip a checksum/corruption error quarantine the
    # offending tablet (descriptor drops it, file moves to
    # quarantine/).  The in-flight query still raises; later queries
    # proceed without the bad tablet.
    quarantine_on_corruption: bool = True
    # Ablation switches (DESIGN.md §5).  time_partitioning=False bins
    # all rows into one giant period - the §3.4.2 "too few tablets"
    # failure mode.  merge_policy: "adjacent-half" is the paper's
    # policy; "always-all" merges everything mergeable (maximum write
    # amplification); "never" disables merging (the §3.4.1 seek storm).
    time_partitioning: bool = True
    merge_policy: str = "adjacent-half"

    def validate(self) -> None:
        """Raise ValueError on nonsensical settings."""
        if self.block_size_bytes <= 0:
            raise ValueError("block_size_bytes must be positive")
        if self.flush_size_bytes <= 0:
            raise ValueError("flush_size_bytes must be positive")
        if self.max_merged_tablet_bytes < self.flush_size_bytes:
            raise ValueError("max merged tablet must be >= flush size")
        if self.compression not in ("zlib", "none"):
            raise ValueError(f"unknown compression codec {self.compression!r}")
        if self.merge_policy not in ("adjacent-half", "always-all", "never"):
            raise ValueError(f"unknown merge policy {self.merge_policy!r}")
        if self.server_row_limit <= 0:
            raise ValueError("server_row_limit must be positive")
        if self.read_cache_bytes < 0:
            raise ValueError("read_cache_bytes must be >= 0 (0 disables)")
        if self.latest_cache_entries < 0:
            raise ValueError("latest_cache_entries must be >= 0 (0 disables)")


DEFAULT_CONFIG = EngineConfig()
