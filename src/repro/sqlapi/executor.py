"""SQL execution against a LittleTable database.

:class:`SqlSession` plays the role of the paper's SQLite adaptor
(§3.1): it knows each table's schema and sort order and translates SQL
into bounding-box queries.  An aggregate SELECT is one of those too:
its box, grouping and functions go to the table's
``aggregate_partials`` - an engine's, a shard router's or a remote
session's - which folds rows where the columns are and hands back
mergeable group states; the session only orders and finalizes them.
Rows are sorted by primary key, so a GROUP BY on a key prefix meets
each group as one contiguous run, the paper's aggregation "without
resorting".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterator, List, Tuple

from ..core.database import LittleTable
from ..core.row import ASCENDING, DESCENDING, Query
from ..core.schema import Column, ColumnType, Schema
from ..core.vector import empty_slot, finalize_value
from ..util.clock import MICROS_PER_SECOND
from . import ast
from .lexer import SqlError
from .parser import parse
from .planner import Plan, evaluate_residuals, plan_pushdown, plan_where

_TYPES = {
    "int32": ColumnType.INT32,
    "int64": ColumnType.INT64,
    "double": ColumnType.DOUBLE,
    "timestamp": ColumnType.TIMESTAMP,
    "string": ColumnType.STRING,
    "blob": ColumnType.BLOB,
}


@dataclass
class SqlResult:
    """The outcome of one statement."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    rows_affected: int = 0

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlError("result is not a single scalar")
        return self.rows[0][0]


class SqlSession:
    """Executes SQL statements against a database facade: a
    :class:`LittleTable`, a shard router or a remote session alike."""

    def __init__(self, db: LittleTable):
        self.db = db

    def execute(self, sql: str) -> SqlResult:
        """Parse and execute one statement."""
        statement = parse(sql)
        if isinstance(statement, ast.Select):
            return self._select(statement)
        if isinstance(statement, ast.Insert):
            return self._insert(statement)
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.DropTable):
            self.db.drop_table(statement.table)
            return SqlResult([], [], 0)
        if isinstance(statement, ast.AddColumn):
            column = _make_column(statement.column)
            self.db.table(statement.table).append_column(column)
            return SqlResult([], [], 0)
        if isinstance(statement, ast.WidenColumn):
            self.db.table(statement.table).widen_column(statement.column)
            return SqlResult([], [], 0)
        if isinstance(statement, ast.SetTtl):
            ttl = statement.ttl_seconds
            self.db.table(statement.table).set_ttl(
                None if ttl is None else ttl * MICROS_PER_SECOND)
            return SqlResult([], [], 0)
        if isinstance(statement, ast.ShowTables):
            names = self.db.table_names()
            return SqlResult(["table"], [(n,) for n in names])
        if isinstance(statement, ast.DescribeTable):
            return self._describe(statement.table)
        if isinstance(statement, ast.Explain):
            return self._explain(statement.select)
        if isinstance(statement, ast.Delete):
            return self._delete(statement)
        if isinstance(statement, ast.Flush):
            table = self.db.table(statement.table)
            if statement.before_ts is None:
                written = table.flush_all()
            else:
                written = table.flush_before(statement.before_ts)
            return SqlResult([], [], len(written))
        raise SqlError(f"unhandled statement {statement!r}")

    def _explain(self, statement: ast.Select) -> SqlResult:
        """Show the planned access path for a SELECT.

        Reveals whether the WHERE clause hit the clustered fast path -
        "a little thought about storage layout up front is a
        relatively small cost to pay for snappy performance" (§7) -
        or degenerated into residual filtering over a wide scan.
        """
        table = self.db.table(statement.table)
        schema = table.schema
        plan = plan_where(schema, statement.where)
        lines = []
        kr = plan.key_range
        if kr.min_prefix is None and kr.max_prefix is None:
            lines.append(("key bounds", "none (full key space)"))
        else:
            low = "-inf" if kr.min_prefix is None else (
                f"{kr.min_prefix!r} "
                f"({'incl' if kr.min_inclusive else 'excl'})")
            high = "+inf" if kr.max_prefix is None else (
                f"{kr.max_prefix!r} "
                f"({'incl' if kr.max_inclusive else 'excl'})")
            lines.append(("key bounds", f"{low} .. {high}"))
        lines.append(("key prefix depth",
                      f"{plan.key_prefix_depth} of "
                      f"{schema.key_width - 1} key columns"))
        tr = plan.time_range
        if tr.min_ts is None and tr.max_ts is None:
            lines.append(("time bounds", "none (all tablets)"))
        else:
            lines.append(("time bounds",
                          f"{tr.min_ts} .. {tr.max_ts}"))
        preview = getattr(table, "prune_preview", None)
        if preview is not None:
            # The same zone-map + time-interval pruning the scan will
            # apply (plain selects and aggregate pushdown alike), so
            # EXPLAIN shows the true open-vs-prune split.
            selected, total = preview(tr, kr)
            lines.append(("tablets", f"{selected} of "
                          f"{total} on disk "
                          f"(+ {table.unflushed_memtable_count} in memory, "
                          f"{total - selected} pruned)"))
        else:
            # Remote adapter: tablet metadata stays server-side.
            lines.append(("tablets", "server-side (remote session)"))
        if plan.residuals:
            residuals = ", ".join(
                f"{c.column} {c.op} {c.value!r}" for c in plan.residuals)
            lines.append(("residual filters", residuals))
        else:
            lines.append(("residual filters", "none"))
        aggregates = [i for i in statement.items
                      if isinstance(i, ast.Aggregate)]
        if (aggregates or statement.group_by
                or statement.group_bucket is not None):
            lines.append(("aggregation",
                          "streaming (group = key prefix)"
                          if _groups_a_key_prefix(schema, statement)
                          else "hashed (group not a key prefix)"))
            # Planned for its refusals (SUM of a string), which are the
            # SELECT's own; there is one way for an aggregate to run.
            plan_pushdown(schema, statement, plan, aggregates)
            lines.append(("pushdown",
                          "vectorized (partial aggregation in scan)"))
        return SqlResult(["property", "value"], lines)

    def _delete(self, statement: ast.Delete) -> SqlResult:
        table = self.db.table(statement.table)
        schema = table.schema
        by_column = {}
        for comparison in statement.where:
            if not schema.has_column(comparison.column):
                raise SqlError(f"no such column: {comparison.column!r}")
            if comparison.column in by_column:
                raise SqlError(
                    f"duplicate predicate on {comparison.column!r}")
            by_column[comparison.column] = comparison.value
        key_columns = [name for name in schema.key if name != "ts"]
        prefix = []
        for name in key_columns:
            if name not in by_column:
                break
            prefix.append(by_column.pop(name))
        if by_column or not prefix:
            raise SqlError(
                "DELETE predicates must cover a leading prefix of the "
                f"key columns {key_columns} (and nothing else)")
        removed = table.bulk_delete(tuple(prefix))
        return SqlResult([], [], removed)

    # --------------------------------------------------------------- DDL

    def _create_table(self, statement: ast.CreateTable) -> SqlResult:
        columns = [_make_column(c) for c in statement.columns]
        schema = Schema(columns, statement.primary_key)
        ttl = (None if statement.ttl_seconds is None
               else statement.ttl_seconds * MICROS_PER_SECOND)
        self.db.create_table(statement.table, schema, ttl_micros=ttl)
        return SqlResult([], [], 0)

    def _describe(self, table_name: str) -> SqlResult:
        table = self.db.table(table_name)
        schema = table.schema
        rows = []
        for column in schema.columns:
            key_position = (
                schema.key.index(column.name) + 1
                if column.name in schema.key else 0
            )
            rows.append((column.name, column.type.value, key_position))
        return SqlResult(["column", "type", "key_position"], rows)

    # ------------------------------------------------------------ INSERT

    def _insert(self, statement: ast.Insert) -> SqlResult:
        table = self.db.table(statement.table)
        dict_rows = [dict(zip(statement.columns, values))
                     for values in statement.rows]
        count = table.insert(dict_rows)
        return SqlResult([], [], count)

    # ------------------------------------------------------------ SELECT

    def _select(self, statement: ast.Select) -> SqlResult:
        table = self.db.table(statement.table)
        schema = table.schema
        plan = plan_where(schema, statement.where)
        aggregates = [i for i in statement.items
                      if isinstance(i, ast.Aggregate)]
        plain = [i for i in statement.items
                 if isinstance(i, ast.SelectItem)]
        for item in plain:
            if not schema.has_column(item.column):
                raise SqlError(f"no such column: {item.column!r}")
        for item in aggregates:
            if item.column != "*" and not schema.has_column(item.column):
                raise SqlError(f"no such column: {item.column!r}")
        for name in statement.group_by:
            if not schema.has_column(name):
                raise SqlError(f"no such column: {name!r}")

        if (aggregates or statement.group_by
                or statement.group_bucket is not None):
            return self._select_aggregate(statement, table, plan,
                                          aggregates, plain)
        if any(isinstance(i, ast.TimeBucket) for i in statement.items):
            raise SqlError(
                "TIME_BUCKET requires GROUP BY TIME_BUCKET and aggregates")
        return self._select_plain(statement, table, plan, plain)

    def _rows(self, table, statement: ast.Select, plan: Plan
              ) -> Iterator[Tuple[Any, ...]]:
        direction = DESCENDING if statement.order_desc else ASCENDING
        limit = None if plan.residuals else statement.limit
        query = Query(plan.key_range, plan.time_range, direction, limit)
        schema = table.schema
        for row in table.scan(query):
            if plan.residuals and not evaluate_residuals(
                    plan.residuals, schema, row):
                continue
            yield row

    def _select_plain(self, statement: ast.Select, table, plan: Plan,
                      plain: List[ast.SelectItem]) -> SqlResult:
        schema = table.schema
        if statement.star or not plain:
            names = [c.name for c in schema.columns]
            indexes = list(range(len(schema.columns)))
        else:
            names = [item.alias or item.column for item in plain]
            indexes = [schema.column_index(item.column) for item in plain]
        rows = [tuple(row[i] for i in indexes)
                for row in islice(self._rows(table, statement, plan),
                                  statement.limit)]
        return SqlResult(names, rows)

    def _select_aggregate(self, statement: ast.Select, table, plan: Plan,
                          aggregates: List[ast.Aggregate],
                          plain: List[ast.SelectItem]) -> SqlResult:
        group_by = list(statement.group_by)
        bucket = statement.group_bucket
        buckets = [i for i in statement.items
                   if isinstance(i, ast.TimeBucket)]
        for item in plain:
            if item.column not in group_by:
                raise SqlError(
                    f"column {item.column!r} must appear in GROUP BY"
                )
        for item in buckets:
            if bucket is None or item.width != bucket:
                raise SqlError(
                    "TIME_BUCKET in the select list must match the "
                    "GROUP BY TIME_BUCKET width")
        if not aggregates and (group_by or bucket is not None):
            raise SqlError("GROUP BY without aggregates is not supported")

        spec = plan_pushdown(table.schema, statement, plan, aggregates)
        output_names, bare = aggregate_output(
            statement, aggregates, plain, buckets)
        dims = spec.group_dims
        # Positions into the group label for each emitted prefix value.
        if bare:
            prefix_positions = list(range(dims))
        else:
            prefix_positions = [group_by.index(item.column)
                                for item in plain]
            prefix_positions += [len(group_by)] * len(buckets)

        groups = table.aggregate_partials(spec).groups
        funcs = [func for func, _index in spec.aggregates]
        # Groups come out in label order, as a key-ordered scan meets
        # them; ORDER BY KEY DESC reverses that where the labels *are*
        # the key order (a key-prefix GROUP BY) and nowhere else.
        descending = (statement.order_desc
                      and _groups_a_key_prefix(table.schema, statement))
        rows_out: List[Tuple[Any, ...]] = []
        for label in sorted(groups, reverse=descending) if dims else groups:
            label_tuple = (label,) if dims == 1 else label
            rows_out.append(
                tuple(label_tuple[p] for p in prefix_positions)
                + tuple(finalize_value(func, slot)
                        for func, slot in zip(funcs, groups[label])))
        if not dims and not rows_out:
            # Aggregates over an empty table still return one row.
            rows_out.append(tuple(
                finalize_value(func, empty_slot()) for func in funcs))
        if statement.limit is not None:
            rows_out = rows_out[:statement.limit]
        return SqlResult(output_names, rows_out)


def aggregate_output(statement: ast.Select,
                     aggregates: List[ast.Aggregate],
                     plain: List[ast.SelectItem],
                     buckets: List[ast.TimeBucket]
                     ) -> Tuple[List[str], bool]:
    """Output column names, and whether the grouping columns are
    emitted implicitly (bare GROUP BY with nothing plain selected).
    """
    group_by = list(statement.group_by)
    bucket = statement.group_bucket
    output_names = (
        [item.alias or item.column for item in plain]
        + [item.alias or "time_bucket" for item in buckets]
        + [agg.alias or _aggregate_name(agg) for agg in aggregates]
    )
    bare = (not plain and not buckets
            and (bool(group_by) or bucket is not None))
    if bare:
        # Bare GROUP BY: emit the grouping columns for usability.
        prefix_names = list(group_by)
        if bucket is not None:
            prefix_names.append("time_bucket")
        output_names = prefix_names + output_names
    return output_names, bare


def _groups_a_key_prefix(schema: Schema, statement: ast.Select) -> bool:
    """Whether a key-ordered scan meets each group as one contiguous
    run of rows (§3.1's aggregation "without resorting")."""
    key_without_ts = [name for name in schema.key if name != "ts"]
    return (statement.group_bucket is None and statement.group_by
            == key_without_ts[:len(statement.group_by)])


def _aggregate_name(agg: ast.Aggregate) -> str:
    return f"{agg.func.lower()}({agg.column})"


def _make_column(definition: ast.ColumnDef) -> Column:
    try:
        column_type = _TYPES[definition.type_name]
    except KeyError:
        raise SqlError(f"unknown type {definition.type_name!r}") from None
    return Column(definition.name, column_type, definition.default)
