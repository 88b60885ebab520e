"""Integrity checking: fsck for LittleTable.

Walks a table's descriptor and every on-disk tablet, verifying the
invariants the engine relies on:

* every tablet file exists on its recorded tier and parses;
* footer metadata (row count, timespan, schema version) matches the
  descriptor entry;
* rows are sorted by primary key, unique, and every timestamp lies
  within the tablet's recorded timespan;
* no primary key is held by two live tablets;
* block index last-keys agree with the rows;
* a Bloom filter is present when the table's config expects one
  (warning only - filters are an optimization, §3.4.5).

Exposed to operators through the CLI's ``.fsck`` command.  A healthy
check is also the cheapest possible regression net for the storage
format, so the test suite runs it after every interesting workload.

This module also hosts the **lock-order checker** used by the
concurrency stress suite: a thread-sanitizer-style assertion layer
that wraps a table's locks with rank bookkeeping and raises
:class:`LockOrderError` the instant any thread acquires them against
the documented hierarchy (``_maintenance_lock`` rank 10 -> state
``lock`` rank 20 -> ``_reader_lock`` rank 30).  Deadlocks become
deterministic test failures instead of hung CI jobs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List

from ..disk.storage import StorageError
from .cursor import execute_query
from .database import LittleTable
from .errors import CorruptTabletError
from .readpath import timespan_groups
from .row import KeyRange, Query, QueryStats, RowRun
from .table import Table

ERROR = "error"
WARNING = "warning"


class LockOrderError(AssertionError):
    """A thread acquired locks against the documented hierarchy."""


class _OrderedLock:
    """A lock wrapper that reports acquisitions to a checker.

    Delegates ``_release_save`` / ``_acquire_restore`` / ``_is_owned``
    (with bookkeeping) so a ``threading.Condition`` built over the
    wrapper still works - Condition.wait releases all recursion levels
    through exactly those hooks.
    """

    def __init__(self, inner, name: str, rank: int,
                 checker: "LockOrderChecker"):
        self._inner = inner
        self.name = name
        self.rank = rank
        self._checker = checker

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._checker._before_acquire(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._checker._after_acquire(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._checker._after_release(self)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # threading.Condition integration ---------------------------------

    def _release_save(self):
        state = self._inner._release_save()
        self._checker._forget_all(self)
        return state

    def _acquire_restore(self, state) -> None:
        self._checker._before_acquire(self)
        self._inner._acquire_restore(state)
        self._checker._after_acquire(self)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()


class LockOrderChecker:
    """Rank-based lock-order assertions, one held-stack per thread.

    ``wrap(lock, name, rank)`` returns an :class:`_OrderedLock`; any
    thread that acquires a wrapped lock while holding one of equal or
    higher rank (reentrant re-acquisition of the *same* lock excepted)
    gets a :class:`LockOrderError` immediately - the interleaving that
    *could* deadlock fails deterministically even when the schedule
    that actually would is never hit.
    """

    def __init__(self):
        self._held = threading.local()
        self.violations: List[str] = []

    def _stack(self) -> List["_OrderedLock"]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def wrap(self, lock, name: str, rank: int) -> _OrderedLock:
        return _OrderedLock(lock, name, rank, self)

    def _before_acquire(self, lock: _OrderedLock) -> None:
        stack = self._stack()
        if not stack:
            return
        if any(held is lock for held in stack):  # reentrant: fine
            return
        worst = max(stack, key=lambda held: held.rank)
        if worst.rank >= lock.rank:
            message = (
                f"lock order violation in {threading.current_thread().name}:"
                f" acquiring {lock.name!r} (rank {lock.rank}) while holding"
                f" {worst.name!r} (rank {worst.rank})")
            self.violations.append(message)
            raise LockOrderError(message)

    def _after_acquire(self, lock: _OrderedLock) -> None:
        self._stack().append(lock)

    def _after_release(self, lock: _OrderedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                return

    def _forget_all(self, lock: _OrderedLock) -> None:
        """Condition.wait released every recursion level at once."""
        self._held.stack = [held for held in self._stack()
                            if held is not lock]


def instrument_table_locks(table: Table,
                           checker: LockOrderChecker) -> LockOrderChecker:
    """Wrap one table's locks with order assertions (stress tests).

    Rebuilds the table's flush condition over the wrapped state lock
    so backpressure waits keep working.  Returns the checker.
    """
    table._maintenance_lock = checker.wrap(
        table._maintenance_lock, f"{table.name}._maintenance_lock", 10)
    table.lock = checker.wrap(table.lock, f"{table.name}.lock", 20)
    table._reader_lock = checker.wrap(
        table._reader_lock, f"{table.name}._reader_lock", 30)
    table._flush_cond = threading.Condition(table.lock)
    return checker


@dataclass
class Issue:
    """One finding: severity, location, and what is wrong."""

    severity: str
    table: str
    tablet_id: int  # 0 for table-level findings
    message: str

    def __str__(self) -> str:
        where = (f"{self.table}/tab-{self.tablet_id}" if self.tablet_id
                 else self.table)
        return f"[{self.severity}] {where}: {self.message}"


def check_table(table: Table) -> List[Issue]:
    """Verify one table.  Returns the issues found (empty = healthy)."""
    issues: List[Issue] = []
    name = table.name
    seen_ids = set()
    live = []
    for meta in table.on_disk_tablets:
        if meta.tablet_id in seen_ids:
            issues.append(Issue(ERROR, name, meta.tablet_id,
                                "duplicate tablet id in descriptor"))
            continue
        seen_ids.add(meta.tablet_id)
        live.append(meta)
        issues.extend(_check_tablet(table, meta))
    # Only tablets whose timespans overlap can share a key (``ts`` is
    # part of it).
    for group in timespan_groups(live, ()):
        if len(group) > 1:
            issues.extend(_shared_key(table, [meta for meta, *_ in group]))
    if table.descriptor.next_tablet_id <= max(seen_ids, default=0):
        issues.append(Issue(ERROR, name, 0,
                            "next_tablet_id would reuse an existing id"))
    return issues


def _shared_key(table: Table, run) -> List[Issue]:
    """A primary key two live tablets of ``run`` both hold: one merge
    of their scans, keyed ``(key, tablet id)`` so the copies of a key
    come out side by side.  A tablet that cannot be read was reported
    by its own check."""
    key_of = table.schema.key_of

    def tagged(meta):
        for block in table._reader(meta).scan_runs(KeyRange.all()):
            keys = list(map(key_of, block.rows(block.lo, block.hi)))
            yield RowRun([(key, meta.tablet_id) for key in keys],
                         list(zip(*keys)))
    previous = (None, None)
    try:
        for tagged_keys in execute_query(map(tagged, run), table.schema,
                                         Query(), 0, None, QueryStats()):
            for key, tablet_id in tagged_keys:
                if key == previous[0] and tablet_id != previous[1]:
                    # Table-level: neither copy is damaged, so repair
                    # moves none.
                    return [Issue(ERROR, table.name, 0,
                                  f"primary key {key!r} is held by live "
                                  f"tablets {previous[1]} and {tablet_id}")]
                previous = (key, tablet_id)
    except (CorruptTabletError, StorageError):
        pass
    return []


def _check_tablet(table: Table, meta) -> List[Issue]:
    issues: List[Issue] = []
    name = table.name
    try:
        disk = table._disk_for(meta)
    except CorruptTabletError as exc:
        return [Issue(ERROR, name, meta.tablet_id, str(exc))]
    if not disk.exists(meta.filename):
        return [Issue(ERROR, name, meta.tablet_id,
                      f"missing file {meta.filename!r} on tier "
                      f"{meta.tier!r}")]
    actual_size = disk.size(meta.filename)
    if actual_size != meta.size_bytes:
        issues.append(Issue(
            ERROR, name, meta.tablet_id,
            f"size mismatch: descriptor says {meta.size_bytes}, file is "
            f"{actual_size}"))
    reader = table._reader(meta)
    try:
        reader.ensure_loaded()
    except (CorruptTabletError, StorageError) as exc:
        issues.append(Issue(ERROR, name, meta.tablet_id,
                            f"footer unreadable: {exc}"))
        return issues
    if reader.row_count != meta.row_count:
        issues.append(Issue(
            ERROR, name, meta.tablet_id,
            f"row count mismatch: descriptor {meta.row_count}, footer "
            f"{reader.row_count}"))
    if (reader.min_ts, reader.max_ts) != (meta.min_ts, meta.max_ts):
        issues.append(Issue(
            ERROR, name, meta.tablet_id,
            f"timespan mismatch: descriptor [{meta.min_ts}, {meta.max_ts}]"
            f", footer [{reader.min_ts}, {reader.max_ts}]"))
    if reader.schema.version != meta.schema_version:
        issues.append(Issue(
            ERROR, name, meta.tablet_id,
            f"schema version mismatch: descriptor {meta.schema_version}, "
            f"footer {reader.schema.version}"))
    issues.extend(_check_rows(table, meta, reader))
    if table.config.bloom_filters and reader._bloom is None:
        issues.append(Issue(
            WARNING, name, meta.tablet_id,
            "no Bloom filter although the config expects one"))
    return issues


def _check_rows(table: Table, meta, reader) -> List[Issue]:
    issues: List[Issue] = []
    name = table.name
    schema = reader.schema
    previous_key = None
    count = 0
    min_ts = None
    max_ts = None
    try:
        for row in reader.scan(KeyRange.all()):
            key = schema.key_of(row)
            if previous_key is not None and key <= previous_key:
                issues.append(Issue(
                    ERROR, name, meta.tablet_id,
                    f"rows out of order or duplicated at key {key!r}"))
                break
            previous_key = key
            ts = schema.ts_of(row)
            min_ts = ts if min_ts is None else min(min_ts, ts)
            max_ts = ts if max_ts is None else max(max_ts, ts)
            count += 1
    except (CorruptTabletError, StorageError) as exc:
        issues.append(Issue(ERROR, name, meta.tablet_id,
                            f"row scan failed: {exc}"))
        return issues
    if count != reader.row_count:
        issues.append(Issue(
            ERROR, name, meta.tablet_id,
            f"scanned {count} rows, footer promises {reader.row_count}"))
    if count and (min_ts < meta.min_ts or max_ts > meta.max_ts):
        issues.append(Issue(
            ERROR, name, meta.tablet_id,
            f"rows outside the recorded timespan: data "
            f"[{min_ts}, {max_ts}] vs descriptor "
            f"[{meta.min_ts}, {meta.max_ts}]"))
    return issues


def check_database(db: LittleTable) -> Dict[str, List[Issue]]:
    """Run :func:`check_table` over every table.

    Returns {table_name: issues}; all-empty values mean a clean bill.
    """
    return {name: check_table(db.table(name))
            for name in db.table_names()}


def repair_database(db: LittleTable) -> Dict[str, List[str]]:
    """Quarantine every hot tablet with an error-severity finding.

    The repair a checksummed LSM store can do without replicas:
    isolate what is provably damaged so the table serves everything
    still intact.  Files move to ``quarantine/`` (never deleted) and
    the descriptor drops them, exactly like the read path's automatic
    quarantine.  Cold-tier tablets are reported by :func:`check_table`
    but never auto-quarantined - the archive copy is the only copy,
    and dropping its reference would orphan it.

    Returns {table_name: [quarantined filenames]} for what was moved.
    Backs ``ltdb fsck --repair``.
    """
    moved: Dict[str, List[str]] = {}
    for name, issues in check_database(db).items():
        table = db.table(name)
        bad_ids = {issue.tablet_id for issue in issues
                   if issue.severity == ERROR and issue.tablet_id}
        filenames: List[str] = []
        for meta in list(table.on_disk_tablets):
            if meta.tablet_id in bad_ids and meta.tier == "hot":
                reason = "; ".join(
                    issue.message for issue in issues
                    if issue.tablet_id == meta.tablet_id)
                if table.quarantine_tablet(meta, reason):
                    filenames.append(meta.filename)
        if filenames:
            moved[name] = filenames
    return moved


def is_healthy(db: LittleTable) -> bool:
    """True when no table has any error-severity issue."""
    return all(
        all(issue.severity != ERROR for issue in issues)
        for issues in check_database(db).values()
    )
