"""Remote database adapter: SQL on the client side of the wire.

In the paper the SQL layer lives in the *client* - an adaptor loaded
into SQLite that speaks the binary protocol to the server (§3.1).
:class:`RemoteDatabase` reproduces that architecture: it exposes
enough of the :class:`~repro.core.database.LittleTable` interface for
:class:`~repro.sqlapi.executor.SqlSession` to run unchanged, while
every operation actually crosses the TCP connection:

    client = LittleTableClient(host, port)
    sql = SqlSession(RemoteDatabase(client))
    sql.execute("SELECT ... FROM usage WHERE ...")

Queries stream with the server row limit and more-available
continuation; an aggregate statement is one ``aggregate`` command whose
reply is its groups, not the rows under them; schemas are fetched
lazily and cached until a schema-changing statement invalidates them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.row import Query, QueryResult, QueryStats
from ..core.schema import Column, Schema
from ..core.vector import AggregatePartials, AggregateSpec
from . import protocol
from .client import LittleTableClient, _query_request


class RemoteTable:
    """Client-side handle to one server table."""

    def __init__(self, database: "RemoteDatabase", name: str):
        self._database = database
        self.name = name

    @property
    def _client(self) -> LittleTableClient:
        return self._database.client

    @property
    def schema(self) -> Schema:
        return self._database._schema(self.name)

    @property
    def ttl_micros(self) -> Optional[int]:
        return self._database._ttl(self.name)

    # ----------------------------------------------------------- writes

    def insert(self, rows: Sequence[Dict[str, Any]]) -> int:
        return self._client.insert(self.name, rows)

    def insert_tuples(self, rows: Sequence[Tuple[Any, ...]]) -> int:
        return self._client.insert_tuples(self.name, rows)

    # ---------------------------------------------------------- queries

    def query(self, query: Query) -> "QueryResult":
        """One query command, one round trip (``Table.query`` parity).

        Unlike :meth:`scan`, this does *not* continue past the
        server's row limit - exactly like the in-process
        ``Table.query``, it reports ``more_available`` and leaves the
        continuation to the caller.
        """
        return self._database._query_once(self.name, query)

    def scan(self, query: Query) -> Iterator[Tuple[Any, ...]]:
        """Stream a bounding-box query over the wire.

        The client adaptor transparently continues past the server's
        row limit (§3.5).
        """
        return self._client._scan(self.name, query)

    def latest(self, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None
               ) -> Optional[Tuple[Any, ...]]:
        return self.latest_many((prefix,), max_lookback_micros)[0]

    def latest_many(self, prefixes: Sequence[Sequence[Any]],
                    max_lookback_micros: Optional[int] = None
                    ) -> List[Optional[Tuple[Any, ...]]]:
        """Each prefix's latest row, in order: one frame each way."""
        return self._client.latest_many(self.name, prefixes,
                                        max_lookback_micros)

    def aggregate_partials(self, spec: AggregateSpec) -> AggregatePartials:
        """One aggregate command, one round trip: the server folds the
        rows where the columns are and replies with group states."""
        return self._client.aggregate(self.name, spec)

    # ----------------------------------------------- admin & lifecycle

    def flush_all(self) -> List[int]:
        count = self._client.flush(self.name)
        return list(range(count))

    def flush_before(self, ts: int) -> List[int]:
        count = self._client.flush(self.name, before_ts=ts)
        return list(range(count))

    def bulk_delete(self, prefix: Sequence[Any]) -> int:
        return self._client.bulk_delete(self.name, prefix)

    def append_column(self, column: Column) -> None:
        self._database._alter(self.name, "add_column",
                              column=column)

    def widen_column(self, name: str) -> None:
        self._database._alter(self.name, "widen_column", column_name=name)

    def set_ttl(self, ttl_micros: Optional[int]) -> None:
        self._database._alter(self.name, "set_ttl", ttl_micros=ttl_micros)


class RemoteDatabase:
    """The database-shaped facade over a client connection."""

    def __init__(self, client: LittleTableClient):
        self.client = client

    # ------------------------------------------------------------ cache
    #
    # The client owns the one table-list cache (its rows are typed by
    # those schemas on the wire); this facade only reads it.

    def invalidate(self) -> None:
        """Drop the cached table list (after DDL or a reconnect)."""
        self.client.invalidate_schema_cache()

    def _schema(self, name: str) -> Schema:
        return self.client._schema(name)

    def _ttl(self, name: str) -> Optional[int]:
        self._schema(name)
        return self.client._ttl_cache.get(name)

    def _alter(self, table: str, action: str, **fields: Any) -> None:
        if "column" in fields:
            column = fields.pop("column")
            fields["column"] = {
                "name": column.name,
                "type": column.type.value,
                "default": protocol.encode_value(column.default),
            }
        self.client.alter(table, action, **fields)

    # ---------------------------------------------------------- catalog

    def table_names(self) -> List[str]:
        return sorted(self.client._catalog())

    def has_table(self, name: str) -> bool:
        return name in self.client._catalog()

    def table(self, name: str) -> RemoteTable:
        self._schema(name)  # raises NoSuchTableError when absent
        return RemoteTable(self, name)

    def create_table(self, name: str, schema: Schema,
                     ttl_micros: Optional[int] = None,
                     durability=None) -> RemoteTable:
        self.client.create_table(name, schema, ttl_micros=ttl_micros,
                                 durability=durability)
        return RemoteTable(self, name)

    def drop_table(self, name: str) -> None:
        self.client.drop_table(name)

    # -------------------------------------------------------- operations
    #
    # Exact signatures of the in-process facade
    # (``LittleTable.insert/query/latest/stats/health`` + context
    # manager), so application code written against a local engine
    # runs unchanged over the wire - in front of one engine or a
    # shard router alike.

    def insert(self, table_name: str, rows: Sequence[Dict[str, Any]]) -> int:
        """Insert dict rows into a table (``LittleTable.insert``)."""
        return self.client.insert(table_name, rows)

    def query(self, table_name: str,
              query: Optional[Query] = None) -> QueryResult:
        """One query command against a table (``LittleTable.query``).

        A single round trip: the server's row limit applies and
        ``more_available`` is reported, exactly as in process.  Use
        ``table(name).scan(query)`` for transparent continuation.
        """
        return self._query_once(table_name,
                                query if query is not None else Query())

    def _query_once(self, table_name: str, query: Query) -> QueryResult:
        response = self.client._call(
            _query_request(table_name, query), idempotent=True)
        rows = self.client._decode_page(table_name, response)
        return QueryResult(
            rows=rows,
            more_available=bool(response.get("more_available")),
            stats=QueryStats(rows_scanned=response.get("rows_scanned", 0),
                             rows_returned=len(rows)),
        )

    def latest(self, table_name: str, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None
               ) -> Optional[Tuple[Any, ...]]:
        """Latest row whose key starts with ``prefix`` (§3.4.5)."""
        return self.client.latest_many(table_name, (prefix,),
                                       max_lookback_micros)[0]

    # ------------------------------------------------------ observability

    def stats(self) -> Dict[str, Any]:
        """The server's metrics snapshot (``LittleTable.stats``)."""
        return self.client.stats()

    def health(self) -> Dict[str, Any]:
        """The server's degradation state (``LittleTable.health``)."""
        return self.client.health()

    def wal_status(self) -> Dict[str, Any]:
        """Per-table durability state (``LittleTable.wal_status``)."""
        return self.client.wal_status()

    # --------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self.client.close()

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
