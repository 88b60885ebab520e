"""Query planner: WHERE clause -> two-dimensional bounding box.

Every LittleTable query is "an ordered scan of rows within a
two-dimensional bounding box of timestamps in one dimension and primary
keys or prefixes thereof in the other" (§3.1).  The planner maps a
conjunction of comparisons onto:

* a :class:`~repro.core.row.TimeRange` from the ``ts`` constraints;
* a :class:`~repro.core.row.KeyRange` from equality constraints on a
  *prefix* of the key columns, optionally extended one more column by
  range constraints;
* residual comparisons evaluated row-by-row (constraints on non-key
  columns, out-of-prefix key columns, and ``!=``).

Choosing keys so queries hit the prefix path is exactly the "little
thought about storage layout up front" the paper asks of developers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..core.errors import QueryError
from ..core.row import KeyRange, TimeRange
from ..core.schema import Schema
from ..core.vector import AggregateSpec, build_spec, check_comparable
from . import ast
from .ast import Comparison
from .lexer import SqlError


@dataclass
class Plan:
    """The planned access path for a SELECT."""

    key_range: KeyRange
    time_range: TimeRange
    residuals: List[Comparison] = field(default_factory=list)

    @property
    def key_prefix_depth(self) -> int:
        """How many key columns the key bounds pin (for diagnostics)."""
        if self.key_range.min_prefix is None:
            return 0
        return len(self.key_range.min_prefix)


def _check_comparable(schema: Schema, comparison: Comparison) -> None:
    try:
        check_comparable(schema.column(comparison.column), comparison.value)
    except QueryError as exc:
        raise SqlError(str(exc)) from None


def _evaluate(op: str, left: Any, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise SqlError(f"unknown operator {op!r}")


def evaluate_residuals(residuals: Sequence[Comparison], schema: Schema,
                       row: Tuple[Any, ...]) -> bool:
    """Apply residual comparisons to one row."""
    for comparison in residuals:
        index = schema.column_index(comparison.column)
        if not _evaluate(comparison.op, row[index], comparison.value):
            return False
    return True


def plan_pushdown(schema: Schema, statement: "ast.Select", plan: Plan,
                  aggregates: Sequence["ast.Aggregate"]) -> AggregateSpec:
    """The :class:`AggregateSpec` of an aggregate SELECT: its bounding
    box, grouping, functions and residuals, as the table's
    ``aggregate_partials`` takes them - in process, across shards or
    over the wire.  Every statement the SQL subset parses has one;
    what it cannot mean (``SUM`` of a string) is refused here, at plan
    time, not halfway through a scan.
    """
    try:
        return build_spec(
            schema, plan.key_range, plan.time_range, statement.group_by,
            statement.group_bucket,
            [(agg.func, None if agg.column == "*" else agg.column)
             for agg in aggregates],
            [(c.column, c.op, c.value) for c in plan.residuals])
    except QueryError as exc:
        raise SqlError(str(exc)) from None


def plan_where(schema: Schema, comparisons: Sequence[Comparison]) -> Plan:
    """Build the bounding box and residual list for a conjunction."""
    for comparison in comparisons:
        if not schema.has_column(comparison.column):
            raise SqlError(f"no such column: {comparison.column!r}")
        _check_comparable(schema, comparison)

    ts_constraints = [c for c in comparisons if c.column == "ts"]
    others = [c for c in comparisons if c.column != "ts"]
    time_range = _plan_time(ts_constraints)
    key_range, residuals = _plan_key(schema, others)
    return Plan(key_range=key_range, time_range=time_range,
                residuals=residuals)


def _plan_time(constraints: Sequence[Comparison]) -> TimeRange:
    min_ts: Optional[int] = None
    min_inclusive = True
    max_ts: Optional[int] = None
    max_inclusive = True
    for c in constraints:
        if not isinstance(c.value, int):
            raise SqlError("ts bounds must be integer microseconds")
        if c.op == "=":
            candidates = (("min", c.value, True), ("max", c.value, True))
        elif c.op in (">", ">="):
            candidates = (("min", c.value, c.op == ">="),)
        elif c.op in ("<", "<="):
            candidates = (("max", c.value, c.op == "<="),)
        elif c.op == "!=":
            raise SqlError("ts != bounds are not supported")
        else:
            raise SqlError(f"unsupported ts operator {c.op!r}")
        for side, value, inclusive in candidates:
            if side == "min":
                if (min_ts is None or value > min_ts
                        or (value == min_ts and not inclusive)):
                    min_ts, min_inclusive = value, inclusive
            else:
                if (max_ts is None or value < max_ts
                        or (value == max_ts and not inclusive)):
                    max_ts, max_inclusive = value, inclusive
    return TimeRange(min_ts=min_ts, min_inclusive=min_inclusive,
                     max_ts=max_ts, max_inclusive=max_inclusive)


def _plan_key(schema: Schema, constraints: Sequence[Comparison]
              ) -> Tuple[KeyRange, List[Comparison]]:
    by_column = {}
    for c in constraints:
        by_column.setdefault(c.column, []).append(c)

    key_columns = [name for name in schema.key if name != "ts"]
    prefix: List[Any] = []
    consumed: set = set()
    lower_extra: Optional[Tuple[Any, bool]] = None
    upper_extra: Optional[Tuple[Any, bool]] = None

    for column in key_columns:
        column_constraints = by_column.get(column, [])
        equality = next((c for c in column_constraints if c.op == "="), None)
        if equality is not None:
            prefix.append(equality.value)
            consumed.add(id(equality))
            continue
        # No equality: optionally extend the box one level with range
        # constraints on this column, then stop.
        lows = [c for c in column_constraints if c.op in (">", ">=")]
        highs = [c for c in column_constraints if c.op in ("<", "<=")]
        if lows:
            best = max(lows, key=lambda c: (c.value, c.op == ">"))
            lower_extra = (best.value, best.op == ">=")
            consumed.add(id(best))
        if highs:
            best = min(highs, key=lambda c: (c.value, c.op == "<="))
            upper_extra = (best.value, best.op == "<")
            consumed.add(id(best))
        break

    min_prefix = None
    min_inclusive = True
    max_prefix = None
    max_inclusive = True
    if prefix or lower_extra or upper_extra:
        base = tuple(prefix)
        if lower_extra is not None:
            min_prefix = base + (lower_extra[0],)
            min_inclusive = lower_extra[1]
        elif base:
            min_prefix = base
        if upper_extra is not None:
            max_prefix = base + (upper_extra[0],)
            max_inclusive = not upper_extra[1]
        elif base:
            max_prefix = base

    residuals = [c for c in constraints if id(c) not in consumed]
    key_range = KeyRange(min_prefix=min_prefix, min_inclusive=min_inclusive,
                         max_prefix=max_prefix, max_inclusive=max_inclusive)
    return key_range, residuals
