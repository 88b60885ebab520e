"""Pinned configuration: identical on both sides of any comparison.

Everything here is a constant on purpose.  A change that edits one of
these values has changed the benchmark, not the program, and its
numbers do not compare with earlier ones.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.config import KIB, MIB, EngineConfig
from repro.core.durability import DurabilityPolicy
from repro.core.maintenance import MaintenancePolicy
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_HOUR

ROOT = Path(__file__).resolve().parent.parent
# Scratch space (server data directories, span dumps): inside the
# checkout, because a run may write nowhere else.
WORK_ROOT = ROOT / ".bench_work"

ENGINE = dict(
    flush_size_bytes=256 * KIB,
    max_merged_tablet_bytes=8 * MIB,
    merge_min_age_micros=0,
    merge_rollover_delay_fraction=0.0,
    read_cache_bytes=4 * MIB,
)
MAINTENANCE = dict(tick_interval_s=0.1, workers=1)
SHARDS = 4

NETWORKS = 64
DEVICES = 16
USAGE_ROWS_PER_CYCLE = 192      # 12 networks x 16 devices per poll cycle
EVENT_ROWS_PER_CYCLE = 64
ROWS_PER_CYCLE = USAGE_ROWS_PER_CYCLE + EVENT_ROWS_PER_CYCLE

# Every device is polled once per simulated minute: 1024 devices / 192
# per cycle = 5.33 cycles per minute.
CYCLE_MICROS = 11_250_000
# The timeline ends on a Wednesday 10:00 UTC so that an 8-day history
# lands in week, day and four-hour periods at once (epoch weeks start
# on Thursdays).
TIMELINE_END = 20_005 * MICROS_PER_DAY + 10 * MICROS_PER_HOUR
HOT_WINDOW_MICROS = MICROS_PER_HOUR
# device_status looks back this far: the server clock is pinned at
# TIMELINE_END, so a device polled early in a run must still count.
LOOKBACK_MICROS = 9 * MICROS_PER_DAY

# Latency limits for slo_miss_share, from each op's due time.
CYCLE_LIMIT_MS = 100.0
READ_LIMIT_MS = 50.0


def engine_config() -> EngineConfig:
    return EngineConfig(**ENGINE)


def maintenance_policy() -> MaintenancePolicy:
    return MaintenancePolicy(**MAINTENANCE)


def wal_policy() -> DurabilityPolicy:
    return DurabilityPolicy(tier="wal", wal_segment_bytes=64 * KIB)
