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

It is the one database facade over a connection: the catalog, DDL and
observability calls are written here, and the client underneath is
the transport and its schema cache.  Queries stream with the server
row limit and more-available continuation; an aggregate statement is
one ``aggregate`` command whose reply is its groups, not the rows under
them; the catalog (``table_names``, ``has_table``, a table's TTL) is
read from the server each time it is asked, so another connection's
DDL shows at once.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.durability import DurabilityPolicy
from ..core.errors import NoSuchTableError
from ..core.row import Query, QueryResult, QueryStats, scan_pages
from ..core.schema import Column, Schema
from ..core.vector import AggregatePartials, AggregateSpec
from . import protocol
from .client import (LittleTableClient, _aggregate_request,
                     _dict_insert_request, _latest_request, _query_request)


class RemoteTable:
    """Client-side handle to one server table: the bodies of its row
    operations over the wire, with the client as their transport and
    schema cache."""

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
        """The server's TTL for this table now, read with the catalog
        (another connection may have set it)."""
        for entry in self._client._list_tables():
            if entry["name"] == self.name:
                return entry.get("ttl_micros")
        raise NoSuchTableError(f"no such table: {self.name!r}")

    # ----------------------------------------------------------- writes

    def insert(self, rows: Sequence[Dict[str, Any]]) -> int:
        """Dict rows in one frame.  A row without ``ts`` takes the
        *server's* clock on arrival (§3.1), as in process."""
        if not rows:
            return 0
        return self._client._call(
            _dict_insert_request(self.name, rows))["inserted"]

    def insert_tuples(self, rows: Sequence[Tuple[Any, ...]]) -> int:
        """Positional rows in one frame, as given."""
        if not rows:
            return 0
        client = self._client
        return client._call(
            client._tuple_insert_request(self.name, rows))["inserted"]

    # ---------------------------------------------------------- queries

    def query(self, query: Query) -> QueryResult:
        """One query command, one round trip (``Table.query`` parity):
        the server's row limit applies and ``more_available`` is
        reported, leaving the continuation to the caller."""
        return self._page(query)

    def scan(self, query: Query) -> Iterator[Tuple[Any, ...]]:
        """Stream a bounding-box query over the wire, continued past
        each page the server's row limit cut (§3.5)."""
        return scan_pages(query, self._page,
                          lambda row: self.schema.key_of(row))

    def _page(self, query: Query) -> QueryResult:
        """One ``query`` command: one page, as the server cut it.
        :meth:`scan` pages through this rather than :meth:`query`,
        which ``bench/trace.py`` wraps as a span of its own."""
        client = self._client
        response = client._call(_query_request(self.name, query),
                                idempotent=True)
        rows = client._decode_page(self.name, response)
        return QueryResult(
            rows=rows,
            more_available=bool(response.get("more_available")),
            stats=QueryStats(rows_scanned=response.get("rows_scanned", 0),
                             rows_returned=len(rows)),
        )

    def latest(self, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None
               ) -> Optional[Tuple[Any, ...]]:
        return self.latest_many((prefix,), max_lookback_micros)[0]

    def latest_many(self, prefixes: Sequence[Sequence[Any]],
                    max_lookback_micros: Optional[int] = None
                    ) -> List[Optional[Tuple[Any, ...]]]:
        """Each prefix's latest row, in order, ``None`` where there is
        none: one frame each way however many prefixes."""
        client = self._client
        response = client._call(
            _latest_request(self.name, prefixes, max_lookback_micros),
            idempotent=True)
        return client._decode_latest(self.name, response)

    def aggregate_partials(self, spec: AggregateSpec) -> AggregatePartials:
        """One aggregate command, one round trip: the server folds the
        rows where the columns are and replies with group states -
        never the rows they summarize.  ``spec`` indexes the cached
        schema."""
        response = self._client._call(
            _aggregate_request(self.name, self.schema, spec),
            idempotent=True)
        # One grouping dimension labels a group by the bare value,
        # none or several by a tuple (``vector._labels``).
        decode_label = (protocol.decode_value if spec.group_dims == 1
                        else protocol.decode_key)
        return AggregatePartials({
            decode_label(label): [
                [count, total, protocol.decode_value(low),
                 protocol.decode_value(high)]
                for count, total, low, high in slots]
            for label, slots in response["groups"]})

    # ----------------------------------------------- admin & lifecycle

    def flush_all(self) -> List[int]:
        return self._flush(None)

    def flush_before(self, ts: int) -> List[int]:
        """Rows older than ``ts`` are durable on return (§4.1.2's
        proposed command)."""
        return self._flush(ts)

    def _flush(self, before_ts: Optional[int]) -> List[int]:
        response = self._client._call({"cmd": "flush", "table": self.name,
                                       "before_ts": before_ts})
        return list(range(response["tablets_written"]))

    def bulk_delete(self, prefix: Sequence[Any]) -> int:
        """Delete every row whose key starts with ``prefix`` (§7)."""
        response = self._client._call(
            {"cmd": "bulk_delete", "table": self.name,
             "prefix": protocol.encode_key(tuple(prefix))})
        return response["rows_removed"]

    def append_column(self, column: Column) -> None:
        self._alter("add_column", column={
            "name": column.name,
            "type": column.type.value,
            "default": protocol.encode_value(column.default),
        })

    def widen_column(self, name: str) -> None:
        self._alter("widen_column", column_name=name)

    def set_ttl(self, ttl_micros: Optional[int]) -> None:
        self._alter("set_ttl", ttl_micros=ttl_micros)

    def _alter(self, action: str, **fields: Any) -> None:
        self._database._ddl({"cmd": "alter", "table": self.name,
                             "action": action, **fields})


class RemoteDatabase:
    """The database-shaped facade over a client connection: catalog,
    DDL, stats and lifecycle.  Rows go through :meth:`table`, as they
    go through ``LittleTable.table`` in process."""

    def __init__(self, client: LittleTableClient):
        self.client = client

    def _schema(self, name: str) -> Schema:
        return self.client._schema(name)

    def _ddl(self, request: Dict[str, Any]) -> None:
        """One schema-changing command: never retried (§4.1), and the
        cached schemas are dropped once it is applied."""
        self.client._call(request)
        self.client.invalidate_schema_cache()

    # ---------------------------------------------------------- catalog

    def table_names(self) -> List[str]:
        """The server's tables now, from one ``list_tables``: another
        connection's create or drop shows at once."""
        return sorted(entry["name"] for entry in self.client._list_tables())

    def has_table(self, name: str) -> bool:
        return name in self.table_names()

    def table(self, name: str) -> RemoteTable:
        self._schema(name)  # raises NoSuchTableError when absent
        return RemoteTable(self, name)

    def create_table(self, name: str, schema: Schema,
                     ttl_micros: Optional[int] = None,
                     durability: Optional[DurabilityPolicy] = None
                     ) -> RemoteTable:
        """Create a table on the server.  ``durability`` picks its
        tier; without it the server's default applies."""
        request = {"cmd": "create_table", "table": name,
                   "schema": schema.to_dict(), "ttl_micros": ttl_micros}
        if durability is not None:
            durability.validate()
            encoded = durability.to_dict()
            if encoded:
                request["durability"] = encoded
        self._ddl(request)
        return RemoteTable(self, name)

    def drop_table(self, name: str) -> None:
        self._ddl({"cmd": "drop_table", "table": name})

    # ------------------------------------------------------ observability

    def stats(self) -> Dict[str, Any]:
        """The server's metrics-registry snapshot: exactly what
        ``LittleTable.stats`` returns in process (``counters``,
        ``gauges``, ``histograms``)."""
        return self._stats(tables=False)["metrics"]

    def stats_page(self) -> Dict[str, Any]:
        """One ``stats`` exchange, whole: ``metrics`` (as :meth:`stats`),
        ``health`` (as :meth:`health`) and ``tables``
        (``Table.stats_summary`` each), all read at one instant."""
        response = self._stats(tables=True)
        return {field: response[field]
                for field in ("metrics", "health", "tables")}

    def health(self) -> Dict[str, Any]:
        """The server's degradation state (``LittleTable.health``):
        read-only mode and reason, checksum failures, quarantined
        tablets, last startup scrub."""
        return self._stats(tables=False)["health"]

    def _stats(self, tables: bool) -> Dict[str, Any]:
        return self.client._call({"cmd": "stats", "tables": tables},
                                 idempotent=True)

    def wal_status(self) -> Dict[str, Any]:
        """Per-table durability state (``LittleTable.wal_status``):
        tier, LSNs, segments, buffered records, replication lag when
        the server is a warm standby."""
        return self.client._call({"cmd": "wal_status"},
                                 idempotent=True).get("wal", {})

    # --------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self.client.close()

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
