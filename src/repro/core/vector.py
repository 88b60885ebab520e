"""The aggregate engine: column batches and aggregate kernels.

The paper's rollup/dashboard queries are scan-and-aggregate shaped
(Fig 9's scan mix is the canonical example).  Block formats v2 and v3
store tablets column-major; this module lets an aggregate consume
those columns directly instead of round-tripping every value through a
per-row Python tuple and a per-row accumulator call.  It is the only
aggregator: sources that exist as rows (memtables, v1 and old-schema
tablets) are transposed a run at a time into the same column batches
(:func:`repro.core.readpath.aggregate`).

* :class:`AggregateSpec` is the pushed-down plan fragment: the 2-D
  bounding box, the grouping dimensions (key columns and/or a timestamp
  bucket), the aggregate functions, and the residual comparisons;
  :func:`build_spec` makes one from column names, checked.
* The kernels (:func:`time_filter`, :func:`residual_filter`,
  :func:`accumulate`; the key bounds are ``KeyRange.span``) work on
  whole columns, refining a selection index list; the hot loops are
  slice operations and list comprehensions with inline comparisons.
* :class:`AggregatePartials` is the mergeable partial-aggregation state
  produced per tablet (and per shard): partial states combine with
  :meth:`~AggregatePartials.merge`, so sharded scatter-gather ships a
  handful of group slots instead of raw rows.

Partial aggregation is correct without any cross-source deduplication
because primary keys are unique across memtables and tablets (§3.4.4):
every logical row is aggregated exactly once no matter which source
holds it.  Each group's partial state is ``[count, total, min, max]``
per aggregate, which finalizes to the exact semantics of the
row-at-a-time reference (``tests/sqlapi/row_oracle.py``:
COUNT/SUM/AVG/MIN/MAX, AVG = total/count with 0.0 for empty, MIN/MAX
None for empty).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import QueryError
from .row import KeyRange, TimeRange
from .schema import Column, ColumnType, Schema

# Group label -> per-aggregate [count, total, min, max] slots.
GroupState = Dict[Any, List[List[Any]]]

AGGREGATE_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
#: The Python types a literal may have to be compared with a column.
_COMPARABLE = {
    ColumnType.INT32: (int,),
    ColumnType.INT64: (int,),
    ColumnType.TIMESTAMP: (int,),
    ColumnType.DOUBLE: (int, float),
    ColumnType.STRING: (str,),
    ColumnType.BLOB: (bytes,),
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


def check_comparable(column: Column, value: Any) -> None:
    """Refuse a literal that cannot be compared with ``column``'s
    values (a kernel would meet it as a ``TypeError`` mid-scan)."""
    if isinstance(value, bool) or not isinstance(
            value, _COMPARABLE[column.type]):
        raise QueryError(f"cannot compare column {column.name!r} "
                         f"({column.type.value}) with {value!r}")


def check_key_prefix(schema: Schema,
                     prefix: Optional[Sequence[Any]]) -> None:
    """Refuse a key bound or prefix that is longer than the key or
    holds a value its key column cannot be compared with.  Every read
    that takes one checks it at the door: a bad value met halfway
    through a bisect is a ``TypeError``, which a shard router would
    read as its worker crashing."""
    if not prefix:
        return
    key_classes = schema.__dict__.get("_key_classes")
    if key_classes is None:
        # Per key column, the exact classes that need no closer look;
        # built once and kept on the schema (beside its codec bundle).
        key_classes = schema.__dict__["_key_classes"] = tuple(
            (frozenset(_COMPARABLE[schema.columns[index].type]),
             schema.columns[index]) for index in schema.key_indexes)
    if len(prefix) > len(key_classes):
        raise QueryError(f"key bound {prefix!r} is longer than the key")
    for value, (classes, column) in zip(prefix, key_classes):
        if type(value) not in classes:
            check_comparable(column, value)


def build_spec(schema: Schema, key_range: KeyRange, time_range: TimeRange,
               group_by: Sequence[str], bucket_width: Optional[int],
               aggregates: Sequence[Tuple[str, Optional[str]]],
               residuals: Sequence[Tuple[str, str, Any]]) -> AggregateSpec:
    """The :class:`AggregateSpec` of a statement that names its columns,
    resolved against ``schema``.

    Both doors come through here - the SQL planner and the wire's
    ``aggregate`` command - so it checks every field as outside input
    and refuses with :class:`QueryError` what the kernels would
    otherwise meet as a ``TypeError`` halfway through a scan.
    """
    def index_of(name: Any) -> int:
        if not isinstance(name, str) or not schema.has_column(name):
            raise QueryError(f"no such column: {name!r}")
        return schema.column_index(name)

    check_key_prefix(schema, key_range.min_prefix)
    check_key_prefix(schema, key_range.max_prefix)
    for ts in (time_range.min_ts, time_range.max_ts):
        if ts is not None and type(ts) is not int:
            raise QueryError(f"ts bounds must be integers, not {ts!r}")
    if bucket_width is not None and (
            type(bucket_width) is not int or bucket_width <= 0):
        raise QueryError("TIME_BUCKET width must be a positive integer "
                         f"(microseconds), not {bucket_width!r}")
    aggs = []
    for func, name in aggregates:
        if func not in AGGREGATE_FUNCS:
            raise QueryError(f"unknown aggregate function {func!r}")
        index = None if name is None else index_of(name)
        if index is not None and func in ("SUM", "AVG"):
            column = schema.columns[index]
            if int not in _COMPARABLE[column.type]:
                raise QueryError(
                    f"{func}({name}) needs a numeric column; {name!r} is "
                    f"{column.type.value}")
        aggs.append((func, index))
    checked = []
    for name, op, value in residuals:
        if op not in COMPARISON_OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        index = index_of(name)
        check_comparable(schema.columns[index], value)
        checked.append((index, op, value))
    return AggregateSpec(
        key_range=key_range, time_range=time_range,
        group_indexes=tuple(index_of(name) for name in group_by),
        bucket_width=bucket_width, aggregates=tuple(aggs),
        residuals=tuple(checked))


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

    Mirrors the reference accumulator: AVG of an empty group is 0.0,
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
    several they are tuples.  The executor and the wire's
    ``aggregate`` reply use the same convention, so partial states
    merge label-for-label.
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
