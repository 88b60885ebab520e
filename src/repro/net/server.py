"""The LittleTable server's command layer.

"LittleTable is a relational database, run as an independent server
process" (§3.1).  :class:`RequestDispatcher` maps the adaptor protocol
onto a :class:`~repro.core.LittleTable` instance - table listing,
schema download, batched inserts, bounding-box queries with the server
row limit and more-available flag (§3.5), and latest-row lookups -
behind :class:`AdmissionController`'s overload protection; the socket
front that feeds it is :mod:`repro.net.async_server`.

Tables do their own locking (the paper's small-lock design, §3.4.4):
inserts serialize through each table's state lock, queries snapshot
the table's immutable version and run off-lock, and background
maintenance - the served database's own loop, started with its
``start_maintenance()`` and not by this layer - builds new tablets
outside the lock entirely.  Queries concurrent with an insert may see
some, all, or none of its rows (§3.1).
"""

from __future__ import annotations

import base64
import dataclasses
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..core import errors as _errors
from ..core.codec import compiled_ops
from ..core.database import LittleTable
from ..core.durability import DurabilityPolicy
from ..core.errors import LittleTableError, OverloadedError
from ..core.row import ASCENDING, DESCENDING, KeyRange, Query, TimeRange
from ..core.schema import Schema
from ..core.vector import build_spec
from . import protocol

# One replication fetch is bounded so a follower's poll can never pin
# a frame larger than the protocol maximum.
REPL_CHUNK_BYTES = 4 * 1024 * 1024


#: Commands admission control never sheds: the handshake, liveness
#: probes, and the stats read an operator needs in order to *see* the
#: overload.  All three are cheap and touch no table state.
_ADMISSION_EXEMPT = frozenset({"hello", "ping", "stats"})


class AdmissionController:
    """Bounded in-flight requests plus a queue-time deadline.

    Overload protection at the front door: at most ``max_inflight``
    requests execute concurrently; a request that cannot get a slot
    within ``queue_timeout_s`` (or its own propagated deadline,
    whichever is sooner) is *shed* with :class:`OverloadedError` -
    before any handler runs, so a shed request is never partially
    applied and is always safe to retry.  The error carries a
    ``retry_after_s`` hint the client's backoff honours.

    Also usable standalone in tests.
    Metrics: ``server.admission.inflight`` (gauge),
    ``server.admission.shed``, ``server.admission.queue_wait_us``.
    """

    def __init__(self, max_inflight: int, queue_timeout_s: float = 0.25,
                 metrics=None, clock=time.monotonic):
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if queue_timeout_s < 0:
            raise ValueError("queue_timeout_s must be >= 0")
        self.max_inflight = max_inflight
        self.queue_timeout_s = queue_timeout_s
        self._clock = clock
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0
        self._g_inflight = self._m_shed = self._h_wait = None
        if metrics is not None:
            self._g_inflight = metrics.gauge("server.admission.inflight")
            self._m_shed = metrics.counter("server.admission.shed")
            self._h_wait = metrics.histogram("server.admission.queue_wait_us")

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def retry_after_s(self) -> float:
        """The backoff hint sent with sheds: long enough for the
        current in-flight wave to drain, cheap to compute."""
        return max(self.queue_timeout_s, 0.05)

    def admit(self, deadline: Optional[float] = None) -> float:
        """Take an execution slot or raise :class:`OverloadedError`.

        Waits at most ``queue_timeout_s`` - clamped to the request's
        own ``deadline`` (absolute, on this controller's clock) when
        one was propagated.  Returns the seconds spent queued.
        """
        arrived = self._clock()
        give_up = arrived + self.queue_timeout_s
        if deadline is not None:
            give_up = min(give_up, deadline)
        with self._cond:
            while self._inflight >= self.max_inflight:
                remaining = give_up - self._clock()
                if remaining <= 0:
                    if self._m_shed is not None:
                        self._m_shed.inc()
                    raise OverloadedError(
                        f"server overloaded: {self.max_inflight} requests "
                        "in flight and the queue-time budget is spent",
                        retry_after_s=self.retry_after_s())
                self._cond.wait(remaining)
            self._inflight += 1
            if self._g_inflight is not None:
                self._g_inflight.set(self._inflight)
        waited = self._clock() - arrived
        if self._h_wait is not None and waited > 0:
            self._h_wait.observe(waited * 1e6)
        return waited

    def release(self) -> None:
        with self._cond:
            self._inflight -= 1
            if self._g_inflight is not None:
                self._g_inflight.set(self._inflight)
            self._cond.notify()


def _malformed(request: Dict[str, Any],
               problem: str) -> _errors.ProtocolViolationError:
    return _errors.ProtocolViolationError(
        f"malformed {request.get('cmd')} request: {problem}")


def _flag(request: Dict[str, Any], name: str, default: bool) -> bool:
    """A boolean field, ``default`` when absent."""
    value = request.get(name, default)
    if type(value) is not bool:
        raise _malformed(request, f"{name} must be a boolean, not {value!r}")
    return value


def _integer(request: Dict[str, Any], name: str,
             minimum: Optional[int] = None) -> Optional[int]:
    """An integer field (a bool is not one), ``None`` when absent."""
    value = request.get(name)
    if value is not None and (type(value) is not int or (
            minimum is not None and value < minimum)):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise _malformed(
            request, f"{name} must be an integer{at_least}, not {value!r}")
    return value


def _key(request: Dict[str, Any], name: str,
         required: bool = False) -> Optional[Tuple[Any, ...]]:
    """A key bound or prefix: a list of wire values (``None`` when an
    optional one is absent)."""
    value = request.get(name)
    if value is None and not required:
        return None
    if type(value) is not list:
        raise _malformed(request, f"{name} must be a list, not {value!r}")
    return protocol.decode_key(value)


def decode_bounds(request: Dict[str, Any]) -> Tuple[KeyRange, TimeRange]:
    """The bounding box of a request that carries one (written by
    ``client._bounds_fields``), every field checked as outside input."""
    key_range = KeyRange(
        min_prefix=_key(request, "key_min"),
        min_inclusive=_flag(request, "key_min_inclusive", True),
        max_prefix=_key(request, "key_max"),
        max_inclusive=_flag(request, "key_max_inclusive", True),
    )
    time_range = TimeRange(
        min_ts=_integer(request, "ts_min"),
        min_inclusive=_flag(request, "ts_min_inclusive", True),
        max_ts=_integer(request, "ts_max"),
        max_inclusive=_flag(request, "ts_max_inclusive", True),
    )
    return key_range, time_range


class RequestDispatcher:
    """Maps protocol commands onto a database-shaped object.

    Fed by :class:`~repro.net.async_server.AsyncLittleTableServer`, and
    callable without a socket.  ``db`` may be a single
    :class:`~repro.core.database.LittleTable` engine or a
    :class:`~repro.net.shard.ShardRouter` spanning many — both expose
    the same catalog and DDL facade, and rows go through its
    ``table(name)``.

    Never raises: engine errors and malformed requests come back as
    error responses, keeping the server up (a bad client must not look
    like a server crash to the other clients).
    """

    def __init__(self, db: Any,
                 admission: Optional[AdmissionController] = None):
        self.db = db
        self.metrics = db.metrics
        self.admission = admission
        self._m_requests = self.metrics.counter("server.requests")
        self._m_errors = self.metrics.counter("server.errors")

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        command = request.get("cmd")
        handler = getattr(self, f"_cmd_{command}", None)
        self._m_requests.inc()
        request_id = request.get("id")

        def refuse(kind: str, message: str, **fields: Any) -> Dict[str, Any]:
            self._m_errors.inc()
            return self._tag(
                protocol.error_response(kind, message, **fields), request_id)

        if handler is None:
            return refuse("ProtocolViolationError",
                          f"unknown command {command!r}")
        # Deadline propagation: the client stamps its remaining budget
        # (``deadline_ms``); the TCP front stamps the frame's arrival
        # time so waiting behind earlier frames counts against it too.
        arrival = request.pop("_arrival_monotonic", None)
        deadline = None
        deadline_ms = request.get("deadline_ms")
        if isinstance(deadline_ms, (int, float)) and deadline_ms > 0:
            deadline = ((arrival if arrival is not None
                         else time.monotonic()) + deadline_ms / 1000.0)
        admitted = False
        if self.admission is not None and command not in _ADMISSION_EXEMPT:
            try:
                self.admission.admit(deadline)
                admitted = True
            except OverloadedError as exc:
                return refuse("OverloadedError", str(exc),
                              retry_after=exc.retry_after_s)
        try:
            # A read-only database refuses every write and DDL at its
            # table door (Table, LittleTable, ShardRouter).  A flush
            # passes that door - close() must still flush in process -
            # so a client's flush is refused here.  Reads, stats and
            # the maintenance command keep serving: TTL expiry and
            # deferred deletes are how space gets freed again.
            if command == "flush" and self.db.read_only:
                self.metrics.counter("fault.read_only_rejections").inc()
                return refuse(
                    "ReadOnlyModeError",
                    f"server is read-only: {self.db.read_only_reason}")
            # A request that overran its deadline while queued is shed
            # *before* the handler: nothing was executed, so nothing is
            # partially applied and the client may retry freely.
            if deadline is not None and time.monotonic() > deadline:
                self.metrics.counter("server.admission.deadline_sheds").inc()
                return refuse("OverloadedError",
                              "request deadline expired before execution",
                              retry_after=0.0)
            started = time.perf_counter()
            try:
                response = handler(request)
            except LittleTableError as exc:
                fields = {}
                retry_after = getattr(exc, "retry_after_s", None)
                if retry_after is not None:
                    fields["retry_after"] = retry_after
                return refuse(type(exc).__name__, str(exc), **fields)
            except Exception as exc:  # defensive: keep the server up
                return refuse("ServerError", str(exc))
            # Latency is recorded after the handler so a STATS snapshot
            # never includes the request that carried it.
            self.metrics.histogram(
                f"server.cmd.{command}.latency_us").observe(
                (time.perf_counter() - started) * 1e6)
            return self._tag(response, request_id)
        finally:
            if admitted:
                self.admission.release()

    @staticmethod
    def _tag(response: Dict[str, Any],
             request_id: Optional[Any]) -> Dict[str, Any]:
        """Echo the request id so a pipelining client can match the
        response; an untagged request gets none back."""
        if request_id is not None:
            response["id"] = request_id
        return response

    def _cmd_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The connect-time identity check: this is a LittleTable
        server speaking the client's protocol version, over this many
        shards.  Any other version is refused, not adapted to."""
        version = request.get("version")
        if version != protocol.PROTOCOL_VERSION:
            raise _errors.ProtocolViolationError(
                f"hello names protocol version {version!r}; this server "
                f"speaks {protocol.PROTOCOL_VERSION}")
        return protocol.ok_response(
            version=protocol.PROTOCOL_VERSION,
            shards=getattr(self.db, "shard_count", 1))

    def _cmd_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return protocol.ok_response(pong=True)

    def _cmd_list_tables(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tables = []
        for name in self.db.table_names():
            table = self.db.table(name)
            tables.append({
                "name": name,
                "schema": table.schema.to_dict(),
                "ttl_micros": table.ttl_micros,
            })
        return protocol.ok_response(tables=tables)

    def _cmd_create_table(self, request: Dict[str, Any]) -> Dict[str, Any]:
        schema = Schema.from_dict(request["schema"])
        kwargs: Dict[str, Any] = {}
        if request.get("durability"):
            try:
                kwargs["durability"] = DurabilityPolicy.from_dict(
                    request["durability"])
            except (ValueError, TypeError) as exc:
                raise _errors.ProtocolViolationError(
                    f"bad durability policy: {exc}") from exc
        self.db.create_table(request["table"], schema,
                             ttl_micros=request.get("ttl_micros"),
                             **kwargs)
        return protocol.ok_response()

    def _cmd_drop_table(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.db.drop_table(request["table"])
        return protocol.ok_response()

    def _cmd_insert(self, request: Dict[str, Any]) -> Dict[str, Any]:
        table = self.db.table(request["table"])
        if request.get("dicts"):
            columns = request["columns"]
            inserted = table.insert(
                [dict(zip(columns, protocol.decode_row(row)))
                 for row in request["rows"]])
        else:
            # Positional rows go to the engine as the JSON lists they
            # arrived as; its compiled validator checks them once and
            # builds the stored tuples.
            inserted = table.insert_tuples(
                protocol.row_marshaller(table.schema).unwrap(
                    request["rows"]))
        return protocol.ok_response(inserted=inserted)

    def _cmd_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # Queries run off-lock against a pinned immutable version; a
        # concurrent merge or TTL reclaim defers its file deletions
        # until the scan's pinned generation drains, so a merge never
        # blocks this command (§3.4.4).
        table = self.db.table(request["table"])
        key_range, time_range = decode_bounds(request)
        direction = (DESCENDING if _flag(request, "descending", False)
                     else ASCENDING)
        query = Query(key_range, time_range, direction,
                      _integer(request, "limit", minimum=0))
        result = table.query(query)
        # The schema is read after the query, so it is never older
        # than the rows it types.
        schema = table.schema
        response = protocol.ok_response(
            types=protocol.row_marshaller(schema).types,
            more_available=result.more_available,
            rows_scanned=result.stats.rows_scanned,
        )
        if result.rows:     # a v3 block holds at least one row
            response["block"] = compiled_ops(schema).encode_rows(result.rows)
        return response

    def _cmd_aggregate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Partial aggregation over a bounding box: the reply is
        ``[[label, slots], ...]``, one entry a group, never rows.

        Columns arrive by name and are resolved - and every field
        checked as outside input - against the table's current schema
        by the same :func:`~repro.core.vector.build_spec` the SQL
        planner uses.  ``db.table(...)`` answers for one engine and
        for a shard router (pinned shard, or scatter-gather merge)."""
        table = self.db.table(request["table"])
        try:
            key_range, time_range = decode_bounds(request)
            group_by = list(request.get("group_by") or ())
            aggregates = [(func, name)
                          for func, name in request["aggregates"]]
            residuals = [(name, op, protocol.decode_value(value))
                         for name, op, value in request.get("residuals") or ()]
        except (KeyError, TypeError, ValueError) as exc:
            raise _errors.ProtocolViolationError(
                f"malformed aggregate request: {exc!r}") from None
        spec = build_spec(table.schema, key_range, time_range, group_by,
                          request.get("bucket"), aggregates, residuals)
        groups = table.aggregate_partials(spec).groups
        encode = protocol.encode_value
        encode_label = encode if spec.group_dims == 1 else protocol.encode_key
        return protocol.ok_response(groups=[
            [encode_label(label),
             [[count, total, encode(low), encode(high)]
              for count, total, low, high in slots]]
            for label, slots in groups.items()])

    def _cmd_latest(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """A batch of prefixes in, each one's latest row out, in order:
        a page of device statuses is one round trip.  The rows are JSON,
        not a block: a batch is one row per prefix, sixteen for a page,
        and at that size the block codec costs more than it saves."""
        table = self.db.table(request["table"])
        prefixes = request.get("prefixes")
        if type(prefixes) is not list:
            raise _malformed(request,
                             f"prefixes must be a list, not {prefixes!r}")
        for prefix in prefixes:
            if type(prefix) is not list:
                raise _malformed(
                    request, f"prefixes must hold lists, not {prefix!r}")
        max_lookback_micros = _integer(request, "max_lookback_micros")
        rows = table.latest_many(
            [protocol.decode_key(prefix) for prefix in prefixes],
            max_lookback_micros) if prefixes else []
        marshaller = protocol.row_marshaller(table.schema)
        return protocol.ok_response(types=marshaller.types, rows=[
            None if row is None else list(marshaller.wrap((row,))[0])
            for row in rows])

    def _cmd_maintenance(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One synchronous maintenance pass over every table."""
        return protocol.ok_response(work=self.db.maintenance().as_dict())

    def _cmd_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The observability surface: one registry snapshot.

        ``metrics`` is exactly ``db.metrics.snapshot()`` - the same
        view an in-process user reads - plus per-table shape summaries
        when ``tables`` is requested.
        """
        response: Dict[str, Any] = {"metrics": self.db.metrics.snapshot(),
                                    "health": self.db.health()}
        if request.get("tables", True):
            response["tables"] = {
                name: self.db.table(name).stats_summary()
                for name in self.db.table_names()
            }
        return protocol.ok_response(**response)

    def _cmd_flush(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The §4.1.2 proposed flush command: force rows to disk."""
        table = self.db.table(request["table"])
        before_ts = _integer(request, "before_ts")
        if before_ts is None:
            written = table.flush_all()
        else:
            written = table.flush_before(before_ts)
        return protocol.ok_response(tablets_written=len(written))

    def _cmd_bulk_delete(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The §7 compliance bulk delete, by key prefix."""
        table = self.db.table(request["table"])
        removed = table.bulk_delete(_key(request, "prefix", required=True))
        return protocol.ok_response(rows_removed=removed)

    def _cmd_alter(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Schema changes (§3.5): append column, widen int32, set TTL."""
        from ..core.schema import Column, ColumnType

        table = self.db.table(request["table"])
        action = request.get("action")
        if action == "add_column":
            spec = request["column"]
            table.append_column(Column(
                spec["name"], ColumnType(spec["type"]),
                protocol.decode_value(spec.get("default"))))
        elif action == "widen_column":
            table.widen_column(request["column_name"])
        elif action == "set_ttl":
            table.set_ttl(request.get("ttl_micros"))
        else:
            raise _errors.ProtocolViolationError(
                f"unknown alter action {action!r}")
        return protocol.ok_response()

    # ------------------------------------------------- durability admin

    def _cmd_wal_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Per-table WAL/durability state (``db.wal_status()`` shape)."""
        return protocol.ok_response(wal=self.db.wal_status())

    # ---------------------------------------------------- replication
    #
    # A warm standby (repro.net.replica.Follower) converges off three
    # commands: the manifest (every table's descriptor, and how far a
    # ``wal`` table's log reaches), tablet bytes, and sealed WAL
    # records past an LSN.  They serve raw state, never mutate, and
    # exist only on a single-engine server (a sharded router's workers
    # each run their own replication).

    def _require_engine(self) -> LittleTable:
        if not isinstance(self.db, LittleTable):
            raise _errors.ProtocolViolationError(
                "replication commands require a single-engine server")
        return self.db

    def _cmd_repl_manifest(self, request: Dict[str, Any]) -> Dict[str, Any]:
        db = self._require_engine()
        tables: Dict[str, Any] = {}
        for table in db.tables():
            version = table.descriptor
            # The cold tier is shared archive storage, not copied.
            hot = dataclasses.replace(version, tablets=[
                meta for meta in version.tablets if meta.tier == "hot"])
            entry = tables[table.name] = {"descriptor": hot.to_json()}
            if table.wal is not None:
                entry["durable_lsn"] = table.wal.durable_lsn
        return protocol.ok_response(tables=tables)

    def _cmd_repl_fetch_wal(self, request: Dict[str, Any]) -> Dict[str, Any]:
        db = self._require_engine()
        table = db.table(request["table"])
        if table.wal is None:
            raise _errors.ProtocolViolationError(
                f"table {request['table']!r} has no WAL")
        after = _integer(request, "after", minimum=0) or 0
        limit = min(_integer(request, "limit_bytes", minimum=1)
                    or REPL_CHUNK_BYTES, REPL_CHUNK_BYTES)
        frames, last_lsn = table.wal.read_records_after(
            after, limit_bytes=limit)
        return protocol.ok_response(
            frames=base64.b64encode(frames).decode("ascii"),
            last_lsn=last_lsn,
            durable_lsn=table.wal.durable_lsn,
        )

    def _cmd_repl_fetch_tablet(self, request: Dict[str, Any]
                               ) -> Dict[str, Any]:
        db = self._require_engine()
        table = db.table(request["table"])
        filename = request["filename"]
        with table.lock:
            referenced = {meta.filename for meta in
                          table.descriptor.tablets if meta.tier == "hot"}
        if filename not in referenced:
            # Also a path-traversal guard: only names the descriptor
            # itself references ever leave this handler.
            raise _errors.ProtocolViolationError(
                f"tablet {filename!r} is not referenced by "
                f"{request['table']!r}")
        offset = _integer(request, "offset", minimum=0) or 0
        length = min(_integer(request, "length", minimum=1)
                     or REPL_CHUNK_BYTES, REPL_CHUNK_BYTES)
        # Raw storage read: streaming a replica is an admin pass and
        # must not consume armed workload failpoints.
        size = db.disk.storage.size(filename)
        data = (db.disk.storage.read(filename, offset, length)
                if offset < size else b"")
        return protocol.ok_response(
            data=base64.b64encode(data).decode("ascii"),
            eof=offset + len(data) >= size,
            size=size,
        )
