"""Keys, key ranges, time ranges, and query descriptions.

Paper §3.1: "every query in LittleTable is an ordered scan of rows
within a two-dimensional bounding box of timestamps in one dimension
and primary keys or prefixes thereof in the other.  These bounds may be
inclusive or exclusive."

Keys are tuples of column values ordered as the schema's key columns
(ending in the timestamp).  A *prefix* bound compares only the first
``len(prefix)`` key columns; tuple truncation preserves lexicographic
order, so a bound cuts any sorted run of keys at one place:
:meth:`KeyRange.span` bisects for it, and is the one way from a key
range to a slice of sorted keys (a block's keys, a block index, a
memtable run).  The per-key predicates remain for testing one key.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import QueryError

ASCENDING = "asc"
DESCENDING = "desc"

Row = Tuple[Any, ...]
Key = Tuple[Any, ...]
#: The unit the read path moves: a stretch of rows in ascending key
#: order and, beside it, their keys.  A source yields its runs in scan
#: order - last run first when descending - but every run ascends.
Run = Tuple[List[Row], List[Key]]
#: A source's first run is at most this long and each later one may be
#: twice the last: the first row of a scan costs a short stretch, a
#: whole scan a few more runs than there are blocks.
FIRST_RUN_ROWS = 64


def rows_of(runs: Iterable[Run], descending: bool = False) -> Iterator[Row]:
    """The rows of ``runs``, one at a time, in scan order."""
    if descending:
        return chain.from_iterable(reversed(rows) for rows, _keys in runs)
    return chain.from_iterable(rows for rows, _keys in runs)


class _Top:
    """Sorts after everything: ``prefix + (_TOP,)`` is a bound just
    past the last key that begins with ``prefix``."""

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


_TOP = _Top()


@dataclass(frozen=True)
class KeyRange:
    """Bounds on the key dimension; either side may be a key prefix.

    ``None`` on a side means unbounded.  ``contains`` compares the row
    key truncated to the bound's length, implementing prefix semantics:
    ``KeyRange.prefix((n, d))`` matches every key that starts with
    network ``n`` and device ``d``.
    """

    min_prefix: Optional[Tuple[Any, ...]] = None
    min_inclusive: bool = True
    max_prefix: Optional[Tuple[Any, ...]] = None
    max_inclusive: bool = True

    @classmethod
    def all(cls) -> "KeyRange":
        """The unbounded key range."""
        return cls()

    @classmethod
    def prefix(cls, prefix: Sequence[Any]) -> "KeyRange":
        """Match exactly the keys beginning with ``prefix``."""
        p = tuple(prefix)
        return cls(min_prefix=p, min_inclusive=True,
                   max_prefix=p, max_inclusive=True)

    def before_range(self, key: Tuple[Any, ...]) -> bool:
        """True if ``key`` lies below the minimum bound."""
        if self.min_prefix is None:
            return False
        truncated = key[:len(self.min_prefix)]
        if self.min_inclusive:
            return truncated < self.min_prefix
        return truncated <= self.min_prefix

    def after_range(self, key: Tuple[Any, ...]) -> bool:
        """True if ``key`` lies above the maximum bound."""
        if self.max_prefix is None:
            return False
        truncated = key[:len(self.max_prefix)]
        if self.max_inclusive:
            return truncated > self.max_prefix
        return truncated >= self.max_prefix

    def contains(self, key: Tuple[Any, ...]) -> bool:
        """True if ``key`` lies within both bounds."""
        return not self.before_range(key) and not self.after_range(key)

    def span(self, keys: Sequence[Tuple[Any, ...]], lo: int = 0,
             hi: Optional[int] = None) -> Tuple[int, int]:
        """Where the keys this range selects start and stop in sorted
        ``keys[lo:hi]`` - a block's keys, a block index's last keys, a
        memtable run - by two C bisects.  A bound is a key *prefix*,
        which as a tuple sorts just before every key it begins: right
        for a low bound that takes those keys in and a high one that
        leaves them out.  The other two add ``_TOP``."""
        if hi is None:
            hi = len(keys)
        low, high = self.min_prefix, self.max_prefix
        if low is not None:
            lo = bisect_left(
                keys, low if self.min_inclusive else low + (_TOP,), lo, hi)
        if high is not None:
            hi = bisect_left(
                keys, high + (_TOP,) if self.max_inclusive else high, lo, hi)
        return lo, hi


@dataclass(frozen=True)
class TimeRange:
    """Bounds on the timestamp dimension, in microseconds."""

    min_ts: Optional[int] = None
    min_inclusive: bool = True
    max_ts: Optional[int] = None
    max_inclusive: bool = True

    @classmethod
    def all(cls) -> "TimeRange":
        """The unbounded time range."""
        return cls()

    @classmethod
    def between(cls, min_ts: Optional[int], max_ts: Optional[int]) -> "TimeRange":
        """The inclusive range [min_ts, max_ts]."""
        return cls(min_ts=min_ts, max_ts=max_ts)

    def contains(self, ts: int) -> bool:
        """True if ``ts`` lies within the range."""
        if self.min_ts is not None:
            if self.min_inclusive:
                if ts < self.min_ts:
                    return False
            elif ts <= self.min_ts:
                return False
        if self.max_ts is not None:
            if self.max_inclusive:
                if ts > self.max_ts:
                    return False
            elif ts >= self.max_ts:
                return False
        return True

    def overlaps(self, span_min: int, span_max: int) -> bool:
        """True if the inclusive span [span_min, span_max] intersects.

        Used to select the tablets whose timespans overlap a query's
        timestamp bounds (§3.2).  Bound exclusivity is ignored here -
        over-selecting a tablet is harmless (rows are filtered), while
        under-selecting would lose results.
        """
        if self.min_ts is not None and span_max < self.min_ts:
            return False
        if self.max_ts is not None and span_min > self.max_ts:
            return False
        return True


@dataclass(frozen=True)
class Query:
    """A two-dimensional bounding-box query (§3.1)."""

    key_range: KeyRange = field(default_factory=KeyRange.all)
    time_range: TimeRange = field(default_factory=TimeRange.all)
    direction: str = ASCENDING
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.direction not in (ASCENDING, DESCENDING):
            raise QueryError(f"bad direction {self.direction!r}")
        if self.limit is not None and self.limit < 0:
            raise QueryError("limit must be non-negative")


@dataclass
class QueryStats:
    """Per-query efficiency counters (drive Figure 9)."""

    rows_scanned: int = 0
    rows_returned: int = 0
    tablets_opened: int = 0
    # Tablets the prune index skipped without opening a reader.
    tablets_pruned: int = 0

    @property
    def scan_ratio(self) -> float:
        """Rows scanned per row returned (1.0 is perfect)."""
        if self.rows_returned == 0:
            return float(self.rows_scanned) if self.rows_scanned else 1.0
        return self.rows_scanned / self.rows_returned


@dataclass
class QueryResult:
    """What one query command returns (§3.5).

    ``more_available`` is set when the server's own row limit stopped
    the scan; the client adaptor re-submits with the start bound moved
    past ``rows[-1]``'s key to retrieve the rest.
    """

    rows: List[Tuple[Any, ...]]
    more_available: bool
    stats: QueryStats
