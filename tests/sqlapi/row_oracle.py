"""The row-at-a-time aggregator, kept as the reference.

Until PR 24 this was ``SqlSession._select_aggregate_rows`` and
``_Accumulator`` in ``src/repro/sqlapi/executor.py``: a second GROUP BY
engine that scanned rows through ``table.scan`` and folded them one at
a time, selected by ``SqlSession(db, vectorized=False)`` and by every
remote session.  The engine now has one aggregator
(``core/vector.py`` under ``Table.aggregate_partials``); this one moved
here unchanged - but for the ``LIMIT 0`` fix marked below - as what
``test_vectorized_differential.py`` and
``benchmarks/test_aggregate_pushdown.py`` compare it against.  It
works on any table facade that can ``scan``.
"""

from typing import Any, Dict, Iterator, List, Tuple

from repro.core.row import ASCENDING, DESCENDING, Query
from repro.core.schema import Schema
from repro.sqlapi import SqlError, ast
from repro.sqlapi.executor import SqlResult, SqlSession, aggregate_output
from repro.sqlapi.parser import parse
from repro.sqlapi.planner import Plan, evaluate_residuals, plan_where


class RowOracle:
    """``execute(sql)`` like a :class:`SqlSession`, except that an
    aggregate SELECT is answered from a row scan."""

    def __init__(self, db):
        self.db = db
        self._session = SqlSession(db)

    def execute(self, sql: str) -> SqlResult:
        statement = parse(sql)
        if not isinstance(statement, ast.Select):
            return self._session.execute(sql)
        aggregates = [i for i in statement.items
                      if isinstance(i, ast.Aggregate)]
        if not aggregates:
            return self._session.execute(sql)
        table = self.db.table(statement.table)
        plan = plan_where(table.schema, statement.where)
        plain = [i for i in statement.items if isinstance(i, ast.SelectItem)]
        buckets = [i for i in statement.items
                   if isinstance(i, ast.TimeBucket)]
        return _select_aggregate_rows(statement, table, plan, aggregates,
                                      plain, buckets)


def _rows(table, statement: ast.Select, plan: Plan
          ) -> Iterator[Tuple[Any, ...]]:
    direction = DESCENDING if statement.order_desc else ASCENDING
    query = Query(plan.key_range, plan.time_range, direction, None)
    schema = table.schema
    for row in table.scan(query):
        if plan.residuals and not evaluate_residuals(
                plan.residuals, schema, row):
            continue
        yield row


def _select_aggregate_rows(statement: ast.Select, table, plan: Plan,
                           aggregates: List[ast.Aggregate],
                           plain: List[ast.SelectItem],
                           buckets: List[ast.TimeBucket]) -> SqlResult:
    schema = table.schema
    group_by = list(statement.group_by)
    bucket = statement.group_bucket
    ts_index = schema.ts_index

    group_indexes = [schema.column_index(name) for name in group_by]
    # Rows arrive sorted by primary key; if the GROUP BY columns are
    # a prefix of the key, groups are contiguous and we can stream
    # (the §3.1 "perform the aggregation without resorting" path).
    # A time bucket breaks that contiguity, so it always hashes.
    key_without_ts = [name for name in schema.key if name != "ts"]
    streaming = (bucket is None
                 and group_by == key_without_ts[:len(group_by)])

    output_names, bare = aggregate_output(
        statement, aggregates, plain, buckets)
    plain_indexes = [schema.column_index(item.column) for item in plain]
    if bare:
        plain_indexes = group_indexes
    # How many copies of the bucket value each output row carries.
    bucket_copies = len(buckets) + (
        1 if (bare and bucket is not None) else 0)

    rows_out: List[Tuple[Any, ...]] = []

    def finish_group(group_row, bucket_value, accumulators):
        prefix = tuple(group_row[i] for i in plain_indexes)
        prefix += (bucket_value,) * bucket_copies
        rows_out.append(prefix + tuple(a.result() for a in accumulators))

    if streaming:
        current_key = None
        current_row = None
        accumulators = None
        for row in _rows(table, statement, plan):
            group_key = tuple(row[i] for i in group_indexes)
            if group_key != current_key:
                if current_key is not None:
                    finish_group(current_row, None, accumulators)
                    if (statement.limit is not None
                            and len(rows_out) >= statement.limit):
                        # The fix: this returned ``rows_out`` whole, so
                        # LIMIT 0 emitted the first group.
                        return SqlResult(output_names,
                                         rows_out[:statement.limit])
                current_key = group_key
                current_row = row
                accumulators = [_Accumulator(agg, schema)
                                for agg in aggregates]
            for accumulator in accumulators:
                accumulator.add(row)
        if current_key is not None:
            finish_group(current_row, None, accumulators)
    else:
        groups: Dict[Tuple[Any, ...], Tuple[Any, List[_Accumulator]]] = {}
        order: List[Tuple[Any, ...]] = []
        for row in _rows(table, statement, plan):
            group_key = tuple(row[i] for i in group_indexes)
            if bucket is not None:
                ts = row[ts_index]
                group_key += (ts - ts % bucket,)
            if group_key not in groups:
                groups[group_key] = (
                    row, [_Accumulator(agg, schema) for agg in aggregates]
                )
                order.append(group_key)
            for accumulator in groups[group_key][1]:
                accumulator.add(row)
        grouped = bool(group_by) or bucket is not None
        for group_key in sorted(order) if grouped else order:
            group_row, accumulators = groups[group_key]
            bucket_value = group_key[-1] if bucket is not None else None
            finish_group(group_row, bucket_value, accumulators)

    if not group_by and bucket is None and not rows_out:
        # Aggregates over an empty table still return one row.
        rows_out.append(tuple(
            _Accumulator(agg, schema).result() for agg in aggregates))
    if statement.limit is not None:
        rows_out = rows_out[:statement.limit]
    return SqlResult(output_names, rows_out)


class _Accumulator:
    """One aggregate function over one group."""

    def __init__(self, agg: ast.Aggregate, schema: Schema):
        self.func = agg.func
        self.index = (None if agg.column == "*"
                      else schema.column_index(agg.column))
        self.count = 0
        self.total: Any = 0
        self.minimum: Any = None
        self.maximum: Any = None

    def add(self, row: Tuple[Any, ...]) -> None:
        self.count += 1
        if self.index is None:
            return
        value = row[self.index]
        if self.func in ("SUM", "AVG"):
            self.total += value
        elif self.func == "MIN":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif self.func == "MAX":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def result(self) -> Any:
        if self.func == "COUNT":
            return self.count
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return self.total / self.count if self.count else 0.0
        if self.func == "MIN":
            return self.minimum
        if self.func == "MAX":
            return self.maximum
        raise SqlError(f"unknown aggregate {self.func!r}")
