"""The maintenance vocabulary: policy and typed work reports.

The paper's background merger (§3.3) runs continuously without
stalling the single writer or the dashboard read path.  This module
holds its two API objects:

* :class:`MaintenancePolicy` - one config object for *how* background
  maintenance runs (tick interval, worker count, insert backpressure,
  merge budget), consumed by both :class:`~repro.core.LittleTable`
  and the server front (``policy=``).
* :class:`TableMaintenanceReport` / :class:`MaintenanceReport` - typed
  returns for ``Table.maintenance()`` / ``Database.maintenance()``.
  Read the attributes (``report.tables["usage"].flushed``);
  ``.as_dict()`` is the shape that crosses the wire protocol, and
  quiescence is :attr:`MaintenanceReport.is_quiet`, which accounts for
  *every* kind of work, TTL expiry and errors included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class MaintenancePolicy:
    """How background maintenance runs for one database instance.

    ``tick_interval_s``
        Seconds between scheduler ticks (each tick scans every table
        for due work and feeds the worker pool).
    ``workers``
        Background worker threads.  Tables are independent units of
        work; two workers never touch the same table concurrently.
    ``max_flush_pending``
        Insert backpressure threshold: when a table has this many
        flush-pending memtables, inserts wait (up to
        ``backpressure_wait_s``) for the flushers to drain before
        appending more.  ``None`` disables backpressure.
    ``backpressure_wait_s``
        Longest a single insert batch may stall on backpressure
        before proceeding anyway (maintenance must never turn the
        writer away permanently; the stall is observable via the
        ``insert.backpressure_stalls`` counter).
    ``merge_budget_per_tick``
        Merges one table may execute per maintenance tick.  The
        paper's merger does one at a time; a larger budget drains
        merge debt faster at the cost of burstier I/O.
    ``expire_ttl``
        Whether the scheduler reclaims TTL-expired tablets (on by
        default; benchmarks that measure merge behaviour in isolation
        turn it off).
    ``slo_p99_ms``
        Target p99 latency (milliseconds) for inserts and queries.
        When set, the scheduler runs an adaptive controller
        (:class:`~repro.core.iosched.SLOController`) that tunes the
        merge IO rate and the effective flush-pending limit against
        this target instead of treating ``max_flush_pending`` as a
        fixed depth - ``max_flush_pending`` then acts as the relaxed
        (healthy-system) ceiling.  ``None`` keeps the fixed-depth
        behaviour.
    ``slo_recover_fraction``
        Hysteresis band: the controller only relaxes its throttle
        once the observed p99 drops below this fraction of the SLO.
    """

    tick_interval_s: float = 1.0
    workers: int = 1
    max_flush_pending: Optional[int] = 8
    backpressure_wait_s: float = 5.0
    merge_budget_per_tick: int = 1
    expire_ttl: bool = True
    slo_p99_ms: Optional[float] = None
    slo_recover_fraction: float = 0.7

    def validate(self) -> None:
        """Raise ValueError on nonsensical settings."""
        if self.tick_interval_s <= 0:
            raise ValueError("tick_interval_s must be positive")
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.max_flush_pending is not None and self.max_flush_pending <= 0:
            raise ValueError(
                "max_flush_pending must be positive (or None to disable)")
        if self.backpressure_wait_s < 0:
            raise ValueError("backpressure_wait_s must be >= 0")
        if self.merge_budget_per_tick < 0:
            raise ValueError("merge_budget_per_tick must be >= 0")
        if self.slo_p99_ms is not None and self.slo_p99_ms <= 0:
            raise ValueError(
                "slo_p99_ms must be positive (or None to disable)")
        if not 0 < self.slo_recover_fraction <= 1:
            raise ValueError("slo_recover_fraction must be in (0, 1]")


@dataclass
class TableMaintenanceReport:
    """Work one maintenance pass did on one table.

    ``flushed`` counts tablets written by flushes, ``merged`` counts
    merges executed, ``expired`` counts tablets reclaimed by TTL, and
    ``errors`` holds stringified exceptions from work that failed
    (crash isolation: one failing table never stops the loop).
    """

    table: str = ""
    flushed: int = 0
    merged: int = 0
    expired: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def did_work(self) -> bool:
        """True when any work kind ran (errors count: a failing step
        is work the table still owes)."""
        return bool(self.flushed or self.merged or self.expired
                    or self.errors)

    def merge_from(self, other: "TableMaintenanceReport") -> None:
        """Accumulate another pass over the same table."""
        self.flushed += other.flushed
        self.merged += other.merged
        self.expired += other.expired
        self.errors.extend(other.errors)

    def as_dict(self) -> Dict[str, Any]:
        """The wire encoding."""
        return {"flushed": self.flushed, "merged": self.merged,
                "expired": self.expired, "errors": list(self.errors)}


@dataclass
class MaintenanceReport:
    """One maintenance pass over a whole database, per table."""

    tables: Dict[str, TableMaintenanceReport] = field(default_factory=dict)

    @property
    def flushed(self) -> int:
        return sum(r.flushed for r in self.tables.values())

    @property
    def merged(self) -> int:
        return sum(r.merged for r in self.tables.values())

    @property
    def expired(self) -> int:
        return sum(r.expired for r in self.tables.values())

    @property
    def errors(self) -> List[str]:
        out: List[str] = []
        for name in sorted(self.tables):
            out.extend(f"{name}: {message}"
                       for message in self.tables[name].errors)
        return out

    @property
    def is_quiet(self) -> bool:
        """True when *no* work of any kind ran anywhere.

        This is the quiescence test ``maintenance_until_quiet`` uses;
        unlike the old hand-rolled ``flushed == 0 and merged == 0``
        check it also covers TTL expiry and errors, so a database
        still reclaiming (or still failing) is never declared quiet.
        """
        return not any(r.did_work for r in self.tables.values())

    def add(self, report: TableMaintenanceReport) -> None:
        existing = self.tables.get(report.table)
        if existing is None:
            self.tables[report.table] = report
        else:
            existing.merge_from(report)

    def merge_from(self, other: "MaintenanceReport") -> None:
        for report in other.tables.values():
            self.add(report)

    def totals(self) -> TableMaintenanceReport:
        """All tables folded into one line (the CLI renders this)."""
        total = TableMaintenanceReport(table="*")
        for report in self.tables.values():
            total.merge_from(report)
        return total

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """The wire encoding: ``{table: summary}``."""
        return {name: report.as_dict()
                for name, report in self.tables.items()}
