"""The client adaptor.

Plays the role of the paper's SQLite-side adaptor (§3.1, §3.5):

* keeps a persistent TCP connection so a server crash is detected as a
  disconnection (after which the application re-checks what survived
  and re-inserts, §4.1);
* downloads the table list and schemas on connect;
* batches inserts ("the SQLite adaptor takes clients' inserts and
  transmits them to the LittleTable server in batches", §3.1);
* transparently continues queries that hit the server's row limit by
  re-submitting with the start bound moved past the last returned key
  (§3.5);
* retries *idempotent* commands (queries, aggregates, latest, stats,
  schema listing, ping) through a bounded auto-reconnect with exponential
  backoff and jitter.  Writes and DDL are never retried: a connection
  can break after the server applied an insert but before the reply
  arrived, and a blind resend would duplicate rows - exactly the
  recovery protocol the paper leaves to the application (§4.1).
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core import errors as _errors
from ..core.codec import compiled_ops
from ..core.durability import DurabilityPolicy
from ..core.errors import (
    CorruptTabletError,
    LittleTableError,
    NoSuchTableError,
    OverloadedError,
    ProtocolViolationError,
    ServerError,
    ValidationError,
)
from ..core.row import (ASCENDING, DESCENDING, KeyRange, Query,
                        TimeRange)
from ..core.schema import Schema
from ..core.vector import AggregatePartials, AggregateSpec
from .protocol import (
    PROTOCOL_VERSION,
    ConnectionLost,
    ProtocolError,
    decode_key,
    decode_value,
    encode_frame,
    encode_key,
    encode_row,
    encode_value,
    recv_message,
    row_marshaller,
    send_message,
)

# Local exception classes addressable by wire error code (the code is
# the class name).  Codes outside this map raise ServerError with the
# original code preserved on ``.code`` - never silently degraded.
_LOCAL_ERROR_TYPES: Dict[str, type] = {
    name: cls
    for name, cls in vars(_errors).items()
    if isinstance(cls, type) and issubclass(cls, LittleTableError)
}


def _dict_insert_request(table: str,
                         rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The dict frame: for callers that pass column->value mappings,
    which name their columns and may omit some (every value wrapped
    by type, since no position says which column it belongs to)."""
    columns = sorted({name for row in rows for name in row})
    return {"cmd": "insert", "table": table,
            "rows": [encode_row([row.get(c) for c in columns])
                     for row in rows],
            "columns": columns, "dicts": True}


def _bounds_fields(key_range: KeyRange,
                   time_range: TimeRange) -> Dict[str, Any]:
    """A bounding box's wire fields, the same in every request that
    carries one (read back by ``server.decode_bounds``)."""
    return {
        "key_min": encode_key(key_range.min_prefix),
        "key_max": encode_key(key_range.max_prefix),
        "key_min_inclusive": key_range.min_inclusive,
        "key_max_inclusive": key_range.max_inclusive,
        "ts_min": time_range.min_ts,
        "ts_min_inclusive": time_range.min_inclusive,
        "ts_max": time_range.max_ts,
        "ts_max_inclusive": time_range.max_inclusive,
    }


def _query_request(table: str, query: Query) -> Dict[str, Any]:
    """One query command's wire request."""
    request: Dict[str, Any] = {
        "cmd": "query", "table": table,
        **_bounds_fields(query.key_range, query.time_range),
        "descending": query.direction == DESCENDING,
    }
    if query.limit is not None:
        request["limit"] = query.limit
    return request


def _aggregate_request(table: str, schema: Schema,
                       spec: AggregateSpec) -> Dict[str, Any]:
    """One aggregate command's wire request.  Columns cross by *name*
    and the server resolves them against its own current schema, so
    the positions of the schema this client happens to have cached
    never reach the engine."""
    def name(index: int) -> str:
        return schema.columns[index].name

    return {
        "cmd": "aggregate", "table": table,
        **_bounds_fields(spec.key_range, spec.time_range),
        "group_by": [name(index) for index in spec.group_indexes],
        "bucket": spec.bucket_width,
        "aggregates": [[func, None if index is None else name(index)]
                       for func, index in spec.aggregates],
        "residuals": [[name(index), op, encode_value(value)]
                      for index, op, value in spec.residuals],
    }


def _bounds_query(key_min: Optional[Sequence[Any]] = None,
                  key_max: Optional[Sequence[Any]] = None,
                  key_min_inclusive: bool = True,
                  key_max_inclusive: bool = True,
                  ts_min: Optional[int] = None,
                  ts_max: Optional[int] = None,
                  descending: bool = False,
                  limit: Optional[int] = None) -> Query:
    """The :class:`Query` that :meth:`LittleTableClient.query`'s
    keyword bounds spell."""
    return Query(
        KeyRange(None if key_min is None else tuple(key_min),
                 key_min_inclusive,
                 None if key_max is None else tuple(key_max),
                 key_max_inclusive),
        TimeRange.between(ts_min, ts_max),
        DESCENDING if descending else ASCENDING, limit)


def _latest_request(table: str, prefixes: Sequence[Sequence[Any]],
                    max_lookback_micros: Optional[int]) -> Dict[str, Any]:
    """One latest command's wire request: a batch of key prefixes."""
    return {"cmd": "latest", "table": table,
            "prefixes": [encode_key(prefix) for prefix in prefixes],
            "max_lookback_micros": max_lookback_micros}


def _as_lost(exc: Exception) -> ConnectionLost:
    """A broken socket or a reply that cannot be parsed both leave the
    stream unusable: one error for either."""
    if isinstance(exc, ConnectionLost):
        return exc
    lost = ConnectionLost(str(exc))
    lost.__cause__ = exc
    return lost


def _error_from_response(response: Dict[str, Any]) -> LittleTableError:
    """Map a wire error response to the exception to raise.

    Known codes (the names of the :mod:`repro.core.errors` classes)
    become their local class.  An unknown code raises
    :class:`ServerError` carrying the original code string on
    ``.code`` so nothing is lost.
    """
    code = response.get("error", "")
    message = response.get("message", "server error")
    cls = _LOCAL_ERROR_TYPES.get(code)
    if cls is not None:
        error = cls(message)
        if isinstance(error, OverloadedError):
            # Shed responses carry the server's backoff hint; the
            # retry loop sleeps exactly this long instead of guessing.
            retry_after = response.get("retry_after")
            if isinstance(retry_after, (int, float)):
                error.retry_after_s = float(retry_after)
        return error
    error = ServerError(f"{code}: {message}" if code else message)
    error.code = code or None
    return error


@dataclass
class ClientConfig:
    """Connection behaviour, in one place.

    * ``insert_batch_rows`` - buffered-insert flush threshold (§3.1);
    * ``connect_timeout_s`` - bound on connection establishment,
      the ``hello`` exchange included;
    * ``request_timeout_s`` - bound on each round trip (None = wait
      forever, the historic behaviour);
    * ``max_retries`` / ``retry_backoff_s`` / ``retry_backoff_max_s``
      / ``auto_reconnect`` - the idempotent-only retry loop: broken
      idempotent requests resend through a fresh connection with
      jittered exponential backoff; writes never auto-retry (§4.1);
    * ``pipeline_depth`` - max in-flight requests a
      :meth:`LittleTableClient.pipeline` batch keeps before draining;
    * ``durability`` - default :class:`~repro.core.durability
      .DurabilityPolicy` applied to tables this client creates (a
      per-call ``create_table(durability=...)`` still overrides it);
      None leaves tier selection entirely to the server.
    """

    insert_batch_rows: int = 512
    connect_timeout_s: float = 10.0
    request_timeout_s: Optional[float] = None
    max_retries: int = 3
    retry_backoff_s: float = 0.05
    retry_backoff_max_s: float = 2.0
    auto_reconnect: bool = True
    pipeline_depth: int = 128
    durability: Optional[DurabilityPolicy] = None

    def validate(self) -> None:
        if self.insert_batch_rows < 1:
            raise ValueError("insert_batch_rows must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.durability is not None:
            self.durability.validate()


class LittleTableClient:
    """A connection to a LittleTable server."""

    def __init__(self, host: str, port: int, *,
                 config: Optional[ClientConfig] = None):
        """Connect to a server.  Behaviour knobs travel in ``config``
        (a :class:`ClientConfig`)."""
        if config is None:
            config = ClientConfig()
        config.validate()
        self.config = config
        self._address = (host, port)
        self._sock: Optional[socket.socket] = None
        self.server_shards = 1
        self._request_ids = itertools.count(1)
        # Injectable for deterministic tests (resilience suite swaps
        # these to count sleeps instead of waiting them out).
        self._sleep = time.sleep
        self._rng = random.Random()
        self._pending: Dict[str, List[Tuple[Any, ...]]] = {}
        # Lazily-filled table -> Schema cache: positional rows are
        # typed by it in both directions, and query continuation reads
        # keys through it.  Dropped by every DDL call, on reconnect, on
        # a server ValidationError and on a reply whose column types
        # differ from it (another client's DDL), so a stale schema
        # never outlives the first sign of it.
        self._schema_cache: Dict[str, Schema] = {}
        self._ttl_cache: Dict[str, Optional[int]] = {}
        self._catalog_loaded = False
        self.connect()

    # ------------------------------------------------------- connection

    def connect(self) -> None:
        """(Re)establish the persistent connection."""
        self.close()
        sock = socket.create_connection(
            self._address, timeout=self.config.connect_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        # The server may have restarted with different tables.
        self.invalidate_schema_cache()
        # The hello exchange still runs under the connect timeout: a
        # peer that accepts and never answers must not hang connect().
        self._handshake()
        # From here on, the per-request read timeout; None restores
        # blocking mode.
        sock.settimeout(self.config.request_timeout_s)

    def _handshake(self) -> None:
        """Check that the peer is a LittleTable server of this
        protocol version, and learn how many shards it fronts."""
        response = self._exchange(
            {"cmd": "hello", "version": PROTOCOL_VERSION})
        if not response.get("ok"):
            problem = f"server refused hello: {response.get('message')}"
        elif response.get("version") != PROTOCOL_VERSION:
            problem = (f"server speaks protocol version "
                       f"{response.get('version')!r}, this client "
                       f"{PROTOCOL_VERSION}")
        else:
            self.server_shards = int(response.get("shards", 1))
            return
        self.close()
        raise ProtocolViolationError(problem)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "LittleTableClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _call(self, message: Dict[str, Any],
              idempotent: bool = False) -> Dict[str, Any]:
        """One request/response exchange, with bounded retries.

        All attempts share ONE overall deadline derived from
        ``request_timeout_s`` at entry: each attempt's socket timeout
        is the *remaining* budget and backoff sleeps never overrun it,
        so the caller waits at most ~``request_timeout_s`` total - not
        attempts x timeout, as the old per-attempt re-arm allowed.

        Only ``idempotent`` requests survive a broken connection:
        they are resent through a fresh connection up to
        ``max_retries`` times with jittered exponential backoff.
        Non-idempotent requests (inserts, DDL) always surface the
        first :class:`ConnectionLost` - the server may have applied
        them, so only the application can safely decide to resend
        (the paper's §4.1 recovery protocol).  :class:`OverloadedError`
        sheds are the exception: the server guarantees a shed request
        was never started, so *any* request retries through them,
        honouring the server's ``retry_after`` hint.
        """
        config = self.config
        deadline: Optional[float] = None
        if config.request_timeout_s is not None:
            deadline = time.monotonic() + config.request_timeout_s
            # Propagate the budget so the server can shed (rather than
            # execute) a request that already overran it while queued.
            message = dict(message)
        retry_connection = idempotent and config.auto_reconnect
        last_error: Optional[Exception] = None
        for attempt in range(config.max_retries + 1):
            try:
                if self._sock is None:
                    can_reconnect = config.auto_reconnect and (
                        idempotent or isinstance(last_error,
                                                 OverloadedError))
                    if not can_reconnect:
                        raise ConnectionLost("not connected")
                    self.connect()
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 and last_error is not None:
                        break
                    self._sock.settimeout(max(remaining, 0.001))
                    message["deadline_ms"] = max(
                        int(remaining * 1000), 1)
                response = self._exchange(message)
                if response.get("ok"):
                    return response
                raise self._error(response)
            except (ConnectionLost, OSError) as exc:
                self.close()
                last_error = exc
                if not retry_connection:
                    break
            except OverloadedError as exc:
                # Shed before execution - never partially applied, so
                # even non-idempotent requests resend safely.
                last_error = exc
            if attempt >= config.max_retries:
                break
            if not self._backoff_within(attempt, deadline,
                                        getattr(last_error,
                                                "retry_after_s", None)):
                break  # the shared budget cannot fund another attempt
        if isinstance(last_error, OverloadedError):
            raise last_error
        raise _as_lost(last_error)

    def _exchange(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame and read one back.  Anything short of a
        parsed reply - a broken socket, a timeout, bytes that are not a
        frame - closes the connection and surfaces as
        :class:`ConnectionLost`, so the caller (or ``_call``'s retry
        loop) can run recovery (§4.1)."""
        try:
            send_message(self._sock, message)
            return recv_message(self._sock)
        except (ConnectionLost, ProtocolError, OSError) as exc:
            self.close()
            raise _as_lost(exc)

    def _error(self, response: Dict[str, Any]) -> LittleTableError:
        error = _error_from_response(response)
        if isinstance(error, ValidationError):
            # A refused row may have been shaped by a stale schema.
            self.invalidate_schema_cache()
        return error

    def _backoff_within(self, attempt: int, deadline: Optional[float],
                        retry_after_s: Optional[float] = None) -> bool:
        """Sleep before the next attempt, bounded by the shared
        deadline.  A server-supplied ``retry_after`` hint replaces the
        jittered exponential guess.  Returns False - without sleeping
        past the budget - when the deadline cannot fund the wait plus
        a meaningful attempt."""
        if retry_after_s is not None:
            delay = float(retry_after_s)
        else:
            delay = min(self.config.retry_backoff_max_s,
                        self.config.retry_backoff_s * (2 ** attempt))
            delay *= (0.5 + 0.5 * self._rng.random())
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if delay >= remaining:
                return False
        if delay > 0:
            self._sleep(delay)
        return True

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._call({"cmd": "ping"},
                               idempotent=True).get("pong"))

    # ------------------------------------------------------- pipelining

    def pipeline(self, depth: Optional[int] = None) -> "Pipeline":
        """A batch of pipelined requests over this connection.

        Enqueued requests are written back to back without waiting
        for responses (up to ``depth`` in flight, then the batch
        drains), and responses - which may arrive out of order - are
        matched by request id.

            with client.pipeline() as batch:
                replies = [batch.insert("t", rows) for rows in chunks]
            inserted = sum(r.result() for r in replies)
        """
        return Pipeline(self,
                        depth if depth is not None
                        else self.config.pipeline_depth)

    # ------------------------------------------------------ observability

    def stats(self) -> Dict[str, Any]:
        """The server's metrics-registry snapshot.

        Returns exactly what ``db.metrics.snapshot()`` returns in
        process: ``{"counters": ..., "gauges": ..., "histograms": ...}``.
        """
        return self._call({"cmd": "stats", "tables": False},
                          idempotent=True)["metrics"]

    def table_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-table shape summaries (``Table.stats_summary`` each)."""
        return self._call({"cmd": "stats", "tables": True},
                          idempotent=True)["tables"]

    def health(self) -> Dict[str, Any]:
        """The server's degradation state (``db.health_summary()``):
        read-only mode + reason, checksum failures, quarantined
        tablets, last startup scrub.  Empty dict from servers that
        predate the fault-tolerance layer."""
        return self._call({"cmd": "stats", "tables": False},
                          idempotent=True).get("health", {})

    def wal_status(self) -> Dict[str, Any]:
        """Per-table durability/WAL state (``db.wal_status()``): tier,
        LSNs, segments, buffered records, replication lag when the
        server is a warm standby."""
        return self._call({"cmd": "wal_status"},
                          idempotent=True).get("wal", {})

    # ----------------------------------------------------------- schema

    def list_tables(self) -> Dict[str, Schema]:
        """Download the table list and schemas (connect-time step)."""
        response = self._call({"cmd": "list_tables"}, idempotent=True)
        return {
            entry["name"]: Schema.from_dict(entry["schema"])
            for entry in response["tables"]
        }

    def create_table(self, name: str, schema: Schema,
                     ttl_micros: Optional[int] = None,
                     durability: Optional[DurabilityPolicy] = None) -> None:
        policy = durability if durability is not None \
            else self.config.durability
        request = {"cmd": "create_table", "table": name,
                   "schema": schema.to_dict(), "ttl_micros": ttl_micros}
        if policy is not None:
            policy.validate()
            encoded = policy.to_dict()
            if encoded:
                request["durability"] = encoded
        self._call(request)
        self.invalidate_schema_cache()

    def drop_table(self, name: str) -> None:
        self._call({"cmd": "drop_table", "table": name})
        self.invalidate_schema_cache()

    def alter(self, table: str, action: str, **fields: Any) -> None:
        """Schema DDL (add_column / widen_column / set_ttl).

        ``fields`` go into the wire request verbatim (a ``column``
        value must already be wire-encoded).  Invalidates the schema
        cache, like every other DDL entry point.
        """
        request: Dict[str, Any] = {"cmd": "alter", "table": table,
                                   "action": action}
        request.update(fields)
        self._call(request)
        self.invalidate_schema_cache()

    def invalidate_schema_cache(self) -> None:
        """Forget cached schemas (after DDL or reconnect)."""
        self._schema_cache.clear()
        self._ttl_cache.clear()
        self._catalog_loaded = False

    # ----------------------------------------------------------- writes

    def insert(self, table: str, rows: Sequence[Dict[str, Any]]) -> int:
        """Insert dict rows immediately (no client-side batching)."""
        if not rows:
            return 0
        return self._call(_dict_insert_request(table, rows))["inserted"]

    def insert_tuples(self, table: str,
                      rows: Sequence[Sequence[Any]]) -> int:
        """Insert positional rows immediately: one frame, the rows as
        given (``$b``-wrapped at BLOB positions only)."""
        if not rows:
            return 0
        return self._call(self._tuple_insert_request(table, rows))["inserted"]

    def _tuple_insert_request(self, table: str,
                              rows: Sequence[Sequence[Any]]
                              ) -> Dict[str, Any]:
        return {"cmd": "insert", "table": table,
                "rows": row_marshaller(self._schema(table)).wrap(rows)}

    def buffer_insert(self, table: str, row: Tuple[Any, ...]) -> None:
        """Queue one positional row; flushes at the batch size (§3.1)."""
        queue = self._pending.setdefault(table, [])
        queue.append(tuple(row))
        if len(queue) >= self.config.insert_batch_rows:
            self.flush_inserts(table)

    def flush_inserts(self, table: Optional[str] = None) -> int:
        """Send buffered rows now.  Returns rows sent."""
        tables = [table] if table is not None else list(self._pending)
        sent = 0
        for name in tables:
            queue = self._pending.get(name)
            if not queue:
                continue
            self._pending[name] = []
            sent += self.insert_tuples(name, queue)
        return sent

    @property
    def pending_rows(self) -> int:
        return sum(len(q) for q in self._pending.values())

    # ---------------------------------------------------------- queries

    def query(self, table: str,
              key_min: Optional[Sequence[Any]] = None,
              key_max: Optional[Sequence[Any]] = None,
              key_min_inclusive: bool = True,
              key_max_inclusive: bool = True,
              ts_min: Optional[int] = None,
              ts_max: Optional[int] = None,
              descending: bool = False,
              limit: Optional[int] = None) -> Iterator[Tuple[Any, ...]]:
        """Stream rows, transparently continuing past the server limit.

        The continuation re-submits with the start bound moved to the
        last returned key, exclusive (§3.5) - for descending queries,
        the *end* bound moves instead.
        """
        return self._scan(table, _bounds_query(
            key_min, key_max, key_min_inclusive, key_max_inclusive,
            ts_min, ts_max, descending, limit))

    def _scan(self, table: str, query: Query) -> Iterator[Tuple[Any, ...]]:
        """:meth:`query` for a :class:`Query` value."""
        limit = query.limit
        returned = 0
        while True:
            response = self._call(_query_request(table, query),
                                  idempotent=True)
            last_row: Optional[Tuple[Any, ...]] = None
            for row in self._decode_page(table, response):
                yield row
                last_row = row
                returned += 1
                if limit is not None and returned >= limit:
                    return
            if not response.get("more_available") or last_row is None:
                return
            # Continue from just past the last key we saw (the row's
            # leading columns, per the lazily fetched schema).
            key = self._schema(table).key_of(last_row)
            key_range = query.key_range
            if query.direction == DESCENDING:
                key_range = replace(key_range, max_prefix=key,
                                    max_inclusive=False)
            else:
                key_range = replace(key_range, min_prefix=key,
                                    min_inclusive=False)
            query = replace(
                query, key_range=key_range,
                limit=None if limit is None else limit - returned)

    def latest(self, table: str, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None
               ) -> Optional[Tuple[Any, ...]]:
        """Latest row for a key prefix (§3.4.5)."""
        return self.latest_many(table, (prefix,), max_lookback_micros)[0]

    def latest_many(self, table: str, prefixes: Sequence[Sequence[Any]],
                    max_lookback_micros: Optional[int] = None
                    ) -> List[Optional[Tuple[Any, ...]]]:
        """Each prefix's latest row, in order, ``None`` where there is
        none: one request however many prefixes."""
        response = self._call(
            _latest_request(table, prefixes, max_lookback_micros),
            idempotent=True)
        return self._decode_latest(table, response)

    def aggregate(self, table: str, spec: AggregateSpec) -> AggregatePartials:
        """Partial aggregation where the columns are: one request, one
        reply of group states - never the rows they summarize.  ``spec``
        indexes this client's cached schema of ``table``."""
        response = self._call(
            _aggregate_request(table, self._schema(table), spec),
            idempotent=True)
        # One grouping dimension labels a group by the bare value,
        # none or several by a tuple (``vector._labels``).
        decode_label = decode_value if spec.group_dims == 1 else decode_key
        return AggregatePartials({
            decode_label(label): [
                [count, total, decode_value(low), decode_value(high)]
                for count, total, low, high in slots]
            for label, slots in response["groups"]})

    def flush(self, table: str, before_ts: Optional[int] = None) -> int:
        """Force rows to disk; with ``before_ts``, only rows older
        than it must be durable on return (§4.1.2's proposed command).
        Returns the number of tablets written."""
        response = self._call({"cmd": "flush", "table": table,
                               "before_ts": before_ts})
        return response["tablets_written"]

    def bulk_delete(self, table: str, prefix: Sequence[Any]) -> int:
        """Delete all rows whose key starts with ``prefix`` (§7's
        compliance feature).  Returns rows removed."""
        response = self._call({"cmd": "bulk_delete", "table": table,
                               "prefix": encode_key(tuple(prefix))})
        return response["rows_removed"]

    # ---------------------------------------------------------- helpers

    def _catalog(self) -> Dict[str, Schema]:
        """Every table's schema (and TTL, for :class:`~repro.net
        .remote.RemoteDatabase`), from one ``list_tables`` per
        invalidation."""
        if not self._catalog_loaded:
            response = self._call({"cmd": "list_tables"}, idempotent=True)
            for entry in response["tables"]:
                self._schema_cache[entry["name"]] = Schema.from_dict(
                    entry["schema"])
                self._ttl_cache[entry["name"]] = entry.get("ttl_micros")
            self._catalog_loaded = True
        return self._schema_cache

    def _schema(self, table: str) -> Schema:
        cache = self._schema_cache
        if table not in cache:
            # Possibly created by another client since the last load.
            self.invalidate_schema_cache()
            cache = self._catalog()
        if table not in cache:
            raise NoSuchTableError(f"no such table: {table!r}")
        return cache[table]

    def _typed_schema(self, table: str,
                      response: Dict[str, Any]) -> Schema:
        """The cached schema of ``table``, which must have the column
        ``types`` the reply was encoded with.  Other types say the
        table changed under the cache (another client's DDL): reload
        it, once."""
        types = response.get("types")
        schema = self._schema(table)
        if row_marshaller(schema).types != types:
            self.invalidate_schema_cache()
            schema = self._schema(table)
            if row_marshaller(schema).types != types:
                raise ProtocolViolationError(
                    f"reply rows of types {types!r}, table {table!r} now "
                    f"has {row_marshaller(schema).types!r}")
        return schema

    def _decode_page(self, table: str,
                     response: Dict[str, Any]) -> List[Tuple[Any, ...]]:
        """A ``query`` reply's rows, from its block attachment (none
        for an empty page).  A block that does not decode by the
        reply's types yields no rows at all."""
        block = response.get("block")
        if block is None:
            return []
        ops = compiled_ops(self._typed_schema(table, response))
        try:
            columns = ops.decode_block_columns(block)
        except CorruptTabletError as exc:
            raise ProtocolViolationError(
                f"undecodable result block: {exc}") from None
        return list(zip(*columns))

    def _decode_latest(self, table: str, response: Dict[str, Any]
                       ) -> List[Optional[Tuple[Any, ...]]]:
        """A ``latest`` reply's rows: a JSON row or ``null`` for each
        prefix asked about."""
        rows = response["rows"]
        found = [row for row in rows if row is not None]
        if found:
            row_marshaller(self._typed_schema(table, response)).unwrap(found)
        return [None if row is None else tuple(row) for row in rows]


class PendingReply:
    """A response slot for one pipelined request."""

    __slots__ = ("request_id", "_response", "_error", "_decode", "_done")

    def __init__(self, request_id: int, decode: Optional[Any] = None):
        self.request_id = request_id
        self._response: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        self._decode = decode
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    def _resolve(self, response: Dict[str, Any]) -> None:
        self._response = response
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True

    def result(self) -> Any:
        """The decoded response; raises what the request raised.

        Draining happens in :meth:`Pipeline.drain` (or on pipeline
        exit); calling ``result()`` earlier on an un-drained reply is
        an error rather than an implicit flush.
        """
        if not self._done:
            raise RuntimeError(
                "pipelined reply not drained yet (call Pipeline.drain "
                "or exit the pipeline block first)")
        if self._error is not None:
            raise self._error
        if self._decode is not None:
            return self._decode(self._response)
        return self._response


class Pipeline:
    """Many in-flight requests over one connection.

    Writes are *not* auto-retried here for the same §4.1 reason as in
    :meth:`LittleTableClient._call`: a batch may be half-applied when
    the connection breaks, so every outstanding reply fails with
    :class:`ConnectionLost` and recovery belongs to the application.
    Per-request server errors (validation, duplicate keys...) resolve
    only their own reply - the rest of the batch stands.
    """

    def __init__(self, client: LittleTableClient, depth: int):
        self._client = client
        self._depth = max(1, depth)
        self._frames: List[bytes] = []
        self._awaiting: Dict[int, PendingReply] = {}

    # ------------------------------------------------------------ core

    def call(self, message: Dict[str, Any],
             idempotent: bool = False,
             decode: Optional[Any] = None) -> PendingReply:
        """Enqueue one raw protocol request.  ``idempotent`` changes
        nothing: a pipeline never resends (see the class docstring)."""
        request_id = next(self._client._request_ids)
        tagged = dict(message)
        tagged["id"] = request_id
        reply = PendingReply(request_id, decode)
        # Encoded before it is awaited: a value json refuses must not
        # leave drain() waiting for a response to a frame never sent.
        self._frames.append(encode_frame(tagged))
        self._awaiting[request_id] = reply
        if len(self._awaiting) >= self._depth:
            self.drain()
        return reply

    def drain(self) -> None:
        """Send everything buffered and collect every response."""
        if not self._awaiting:
            return
        sock = self._client._sock
        if sock is None:
            self._fail_all(ConnectionLost("not connected"))
            raise ConnectionLost("not connected")
        try:
            if self._frames:
                data = b"".join(self._frames)
                self._frames = []
                sock.sendall(data)
            while self._awaiting:
                response = recv_message(sock)
                request_id = response.get("id")
                reply = self._awaiting.pop(request_id, None)
                if reply is None:
                    # A response we never asked for: framing is gone.
                    raise ConnectionLost(
                        f"unmatched response id {request_id!r}")
                if response.get("ok"):
                    reply._resolve(response)
                else:
                    reply._fail(self._client._error(response))
        except (ConnectionLost, ProtocolError, OSError) as exc:
            self._client.close()
            lost = _as_lost(exc)
            self._fail_all(lost)
            raise lost

    def _fail_all(self, error: BaseException) -> None:
        for reply in self._awaiting.values():
            reply._fail(error)
        self._awaiting.clear()
        self._frames = []

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        # Don't mask an in-flight exception with a drain failure; but
        # a clean exit must deliver every response.
        if exc_type is None:
            self.drain()

    # ------------------------------------------------- typed commands

    def ping(self) -> PendingReply:
        return self.call({"cmd": "ping"},
                         decode=lambda r: bool(r.get("pong")))

    def insert(self, table: str,
               rows: Sequence[Tuple[Any, ...]]) -> PendingReply:
        """Positional-tuple batch insert; resolves to rows inserted."""
        return self.call(self._client._tuple_insert_request(table, rows),
                         decode=lambda r: r["inserted"])

    def insert_dicts(self, table: str,
                     rows: Sequence[Dict[str, Any]]) -> PendingReply:
        return self.call(_dict_insert_request(table, rows),
                         decode=lambda r: r["inserted"])

    def query_page(self, table: str, **bounds: Any) -> PendingReply:
        """One query command (no continuation) over the keyword
        bounds of :meth:`LittleTableClient.query`; resolves to
        ``(rows, more_available)``."""
        return self.call(
            _query_request(table, _bounds_query(**bounds)),
            decode=lambda r: (self._client._decode_page(table, r),
                              bool(r.get("more_available"))))

    def latest(self, table: str, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None) -> PendingReply:
        """Resolves to the prefix's latest row, or ``None``."""
        return self.call(
            _latest_request(table, (prefix,), max_lookback_micros),
            decode=lambda r: self._client._decode_latest(table, r)[0])

    def latest_many(self, table: str, prefixes: Sequence[Sequence[Any]],
                    max_lookback_micros: Optional[int] = None
                    ) -> PendingReply:
        """Resolves to each prefix's latest row, in order."""
        return self.call(
            _latest_request(table, prefixes, max_lookback_micros),
            decode=lambda r: self._client._decode_latest(table, r))
