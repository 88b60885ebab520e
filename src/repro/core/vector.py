"""Vectorized query execution: column batches and aggregate kernels.

The paper's rollup/dashboard queries are scan-and-aggregate shaped
(Fig 9's scan mix is the canonical example).  Block formats v2 and v3
store tablets column-major; this module lets the aggregate path consume
those columns directly instead of round-tripping every value through a
per-row Python tuple and a per-row accumulator call:

* :class:`AggregateSpec` is the pushed-down plan fragment: the 2-D
  bounding box, the grouping dimensions (key columns and/or a timestamp
  bucket), the aggregate functions, and the residual comparisons.
* The kernels (:func:`time_filter`, :func:`residual_filter`,
  :func:`accumulate`; the key bounds are ``KeyRange.span``) work on
  whole decoded columns, refining a selection index list; the hot loops are slice
  operations and list comprehensions with inline comparisons.
* :class:`AggregatePartials` is the mergeable partial-aggregation state
  produced per tablet (and per shard): partial states combine with
  :meth:`~AggregatePartials.merge`, so sharded scatter-gather ships a
  handful of group slots instead of raw rows.

Partial aggregation is correct without any cross-source deduplication
because primary keys are unique across memtables and tablets (§3.4.4):
every logical row is aggregated exactly once no matter which source
holds it.  Each group's partial state is ``[count, total, min, max]``
per aggregate, which finalizes to the exact semantics of the row
oracle's accumulator (COUNT/SUM/AVG/MIN/MAX, AVG = total/count with
0.0 for empty, MIN/MAX None for empty).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .row import KeyRange, TimeRange

# Group label -> per-aggregate [count, total, min, max] slots.
GroupState = Dict[Any, List[List[Any]]]

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class AggregateSpec:
    """A pushed-down aggregate scan over one table's bounding box.

    ``aggregates`` holds ``(FUNC, column_index)`` pairs where the index
    is ``None`` for ``COUNT(*)``.  ``group_indexes`` are schema column
    indexes in GROUP BY order; ``bucket_width`` (microseconds) appends a
    ``ts - ts % width`` time bucket as the last grouping dimension.
    ``residuals`` are ``(column_index, op, value)`` comparisons applied
    after the time filter, exactly like the executor's residual pass.
    """

    key_range: KeyRange
    time_range: TimeRange
    group_indexes: Tuple[int, ...]
    bucket_width: Optional[int]
    aggregates: Tuple[Tuple[str, Optional[int]], ...]
    residuals: Tuple[Tuple[int, str, Any], ...]

    @property
    def group_dims(self) -> int:
        return len(self.group_indexes) + (self.bucket_width is not None)


class AggregatePartials:
    """Mergeable partial-aggregation state for one source (or shard)."""

    __slots__ = ("groups",)

    def __init__(self, groups: Optional[GroupState] = None):
        self.groups: GroupState = groups if groups is not None else {}

    def merge(self, other: "AggregatePartials") -> None:
        """Fold ``other``'s group states into this one."""
        groups = self.groups
        for label, slots in other.groups.items():
            mine = groups.get(label)
            if mine is None:
                groups[label] = [list(slot) for slot in slots]
                continue
            for dst, src in zip(mine, slots):
                dst[0] += src[0]
                dst[1] += src[1]
                if src[2] is not None and (dst[2] is None or src[2] < dst[2]):
                    dst[2] = src[2]
                if src[3] is not None and (dst[3] is None or src[3] > dst[3]):
                    dst[3] = src[3]


def empty_slot() -> List[Any]:
    return [0, 0, None, None]


def finalize_value(func: str, slot: List[Any]) -> Any:
    """One aggregate's final value from its partial slot.

    Mirrors the row oracle's accumulator: AVG of an empty group is 0.0,
    MIN/MAX of an empty group are None, SUM starts from integer zero.
    """
    if func == "COUNT":
        return slot[0]
    if func == "SUM":
        return slot[1]
    if func == "AVG":
        return slot[1] / slot[0] if slot[0] else 0.0
    if func == "MIN":
        return slot[2]
    return slot[3]


def resolve_time_bounds(time_range: TimeRange, cutoff: Optional[int]
                        ) -> Tuple[Optional[int], Optional[int]]:
    """Collapse a TimeRange plus TTL cutoff to inclusive integer bounds.

    Timestamps are integers, so exclusive bounds shift by one and every
    later comparison is a plain ``lo <= ts <= hi``.  ``cutoff`` is the
    expiry threshold (``now - ttl``); rows strictly below it are dead.
    """
    lo = time_range.min_ts
    if lo is not None and not time_range.min_inclusive:
        lo += 1
    hi = time_range.max_ts
    if hi is not None and not time_range.max_inclusive:
        hi -= 1
    if cutoff is not None:
        lo = cutoff if lo is None else max(lo, cutoff)
    return lo, hi


def time_filter(ts_col: List[int], lo: int, hi: int,
                tlo: Optional[int], thi: Optional[int]
                ) -> Optional[List[int]]:
    """Row indexes in ``[lo, hi)`` whose timestamp passes the bounds.

    Returns ``None`` when every row passes (the common case for a scan
    whose tablets were already time-pruned), so callers keep the pure
    slice path.
    """
    if tlo is None and thi is None:
        return None
    window = ts_col[lo:hi]
    if not window:
        return []
    if ((tlo is None or min(window) >= tlo)
            and (thi is None or max(window) <= thi)):
        return None
    rows = range(lo, hi)
    if tlo is None:
        return [i for i in rows if ts_col[i] <= thi]
    if thi is None:
        return [i for i in rows if ts_col[i] >= tlo]
    return [i for i in rows if tlo <= ts_col[i] <= thi]


def residual_filter(columns: List[List[Any]],
                    residuals: Iterable[Tuple[int, str, Any]],
                    sel: Optional[List[int]], lo: int, hi: int
                    ) -> Optional[List[int]]:
    """Refine the selection with residual comparisons, one column pass
    per predicate (inline comparisons, no per-row function calls)."""
    for index, op, value in residuals:
        col = columns[index]
        rows = range(lo, hi) if sel is None else sel
        if op == "=":
            sel = [i for i in rows if col[i] == value]
        elif op == "!=":
            sel = [i for i in rows if col[i] != value]
        elif op == "<":
            sel = [i for i in rows if col[i] < value]
        elif op == "<=":
            sel = [i for i in rows if col[i] <= value]
        elif op == ">":
            sel = [i for i in rows if col[i] > value]
        elif op == ">=":
            sel = [i for i in rows if col[i] >= value]
        else:
            raise ValueError(f"unknown residual operator {op!r}")
    return sel


def _labels(spec: AggregateSpec, columns: List[List[Any]], ts_index: int,
            sel: Optional[List[int]], lo: int, hi: int
            ) -> Optional[List[Any]]:
    """Per-row group labels for the selection; None when ungrouped.

    With a single grouping dimension labels are the raw values; with
    several they are tuples.  The row fallback and the executor use the
    same convention, so partial states merge label-for-label.
    """
    group_indexes = spec.group_indexes
    width = spec.bucket_width
    if not group_indexes and width is None:
        return None
    dims: List[List[Any]] = []
    for index in group_indexes:
        col = columns[index]
        dims.append(col[lo:hi] if sel is None else [col[i] for i in sel])
    if width is not None:
        ts_col = columns[ts_index]
        ts = ts_col[lo:hi] if sel is None else [ts_col[i] for i in sel]
        dims.append([t - t % width for t in ts])
    if len(dims) == 1:
        return list(dims[0])
    return list(zip(*dims))


def row_label(spec: AggregateSpec, row: Tuple[Any, ...], ts: int) -> Any:
    """The group label for one row (fallback sources)."""
    group_indexes = spec.group_indexes
    width = spec.bucket_width
    if not group_indexes and width is None:
        return ()
    if spec.group_dims == 1:
        if width is not None:
            return ts - ts % width
        return row[group_indexes[0]]
    parts = [row[i] for i in group_indexes]
    if width is not None:
        parts.append(ts - ts % width)
    return tuple(parts)


def accumulate(groups: GroupState, spec: AggregateSpec,
               columns: List[List[Any]], ts_index: int,
               sel: Optional[List[int]], lo: int, hi: int) -> None:
    """Fold the selected rows of one column batch into group states.

    Rows arrive key-sorted, so equal labels cluster into runs whenever
    the grouping columns are a key prefix (the streaming case); each run
    is then aggregated with one ``sum``/``min``/``max`` over a slice.
    High-cardinality groupings degrade to short runs but stay correct.
    """
    aggs = spec.aggregates
    agg_cols = [None if (index is None or func == "COUNT")
                else columns[index] for func, index in aggs]
    labels = _labels(spec, columns, ts_index, sel, lo, hi)
    if labels is None:
        count = (hi - lo) if sel is None else len(sel)
        if count:
            _update(groups, (), aggs, agg_cols, sel, lo, 0, count)
        return
    total = len(labels)
    start = 0
    while start < total:
        label = labels[start]
        end = start + 1
        while end < total and labels[end] == label:
            end += 1
        _update(groups, label, aggs, agg_cols, sel, lo, start, end)
        start = end


def _update(groups: GroupState, label: Any,
            aggs: Tuple[Tuple[str, Optional[int]], ...],
            agg_cols: List[Optional[List[Any]]],
            sel: Optional[List[int]], lo: int, start: int, end: int) -> None:
    state = groups.get(label)
    if state is None:
        state = groups[label] = [empty_slot() for _ in aggs]
    count = end - start
    for slot, (func, _index), col in zip(state, aggs, agg_cols):
        slot[0] += count
        if col is None:
            continue
        if sel is None:
            values = col[lo + start:lo + end]
        else:
            values = [col[i] for i in sel[start:end]]
        if func == "SUM" or func == "AVG":
            slot[1] += sum(values)
        elif func == "MIN":
            low = min(values)
            if slot[2] is None or low < slot[2]:
                slot[2] = low
        else:  # MAX
            high = max(values)
            if slot[3] is None or high > slot[3]:
                slot[3] = high


def accumulate_rows(groups: GroupState, spec: AggregateSpec, ts_index: int,
                    rows: Iterable[Tuple[Any, ...]],
                    tlo: Optional[int], thi: Optional[int]
                    ) -> Tuple[int, int, int]:
    """Row-at-a-time fallback for v1 blocks, old-schema tablets, and
    memtable rows.  ``rows`` must already be key-range trimmed.

    Returns ``(scanned, returned, aggregated)`` so callers keep the
    oracle's counting: scanned = in key bounds, returned = alive after
    the time/TTL filter, aggregated = surviving residual predicates.
    """
    aggs = spec.aggregates
    residuals = spec.residuals
    scanned = returned = aggregated = 0
    for row in rows:
        scanned += 1
        ts = row[ts_index]
        if tlo is not None and ts < tlo:
            continue
        if thi is not None and ts > thi:
            continue
        returned += 1
        passed = True
        for index, op, value in residuals:
            if not _OPS[op](row[index], value):
                passed = False
                break
        if not passed:
            continue
        aggregated += 1
        label = row_label(spec, row, ts)
        state = groups.get(label)
        if state is None:
            state = groups[label] = [empty_slot() for _ in aggs]
        for slot, (func, index) in zip(state, aggs):
            slot[0] += 1
            if index is None or func == "COUNT":
                continue
            value = row[index]
            if func == "SUM" or func == "AVG":
                slot[1] += value
            elif func == "MIN":
                if slot[2] is None or value < slot[2]:
                    slot[2] = value
            elif slot[3] is None or value > slot[3]:
                slot[3] = value
    return scanned, returned, aggregated
