"""Rows on the wire are typed by the schema both peers hold.

The wire must be invisible: whatever goes in through a client comes
back row for row as the embedded engine would return it, an insert's
bytes are the ones the per-value ``encode_row`` path produced, a query
page is one v3 block body exactly as a tablet would store those rows, a
malformed row is refused with the engine's own error, and a client
whose cached schema went stale finds out at the first sign of it.
"""

import itertools
import json
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Column,
    ColumnType,
    EngineConfig,
    LittleTable,
    ProtocolViolationError,
    Schema,
    ValidationError,
)
from repro.core.codec import compiled_ops
from repro.core.row import DESCENDING, KeyRange, Query, TimeRange
from repro.dashboard.schemas import usage_schema
from repro.net import (
    AsyncLittleTableServer,
    LittleTableClient,
    RemoteDatabase,
    ShardRouter,
)
from repro.net import client as client_module
from repro.net.protocol import (decode_payload, encode_frame, encode_key,
                                encode_row)
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY
ROW_LIMIT = 16      # small, so scans continue past it


def blob_schema():
    return Schema(
        [Column("dev", ColumnType.STRING),
         Column("ts", ColumnType.TIMESTAMP),
         Column("payload", ColumnType.BLOB),
         Column("n", ColumnType.INT32),
         Column("tag", ColumnType.BLOB)],
        key=["dev", "ts"])


def string_schema():
    return Schema(
        [Column("host", ColumnType.STRING),
         Column("ts", ColumnType.TIMESTAMP),
         Column("load", ColumnType.DOUBLE)],
        key=["host", "ts"])


def blob_rows():
    return [(f"dev-{d}", BASE + s, bytes([d, s, 0xFF]) * (s % 3),
             d * 100 + s, b"\x00tag")
            for d in range(6) for s in range(9)]


def string_rows():
    return [(f"hé-{d}", BASE + s, d + s / 4)
            for d in range(6) for s in range(9)]


def usage_rows():
    return [(n, d, BASE + s, BASE + s - 60, 1000 * s + d, (d + s) / 8)
            for n in range(2) for d in range(3) for s in range(9)]


SCHEMAS = {
    "blob": (blob_schema, blob_rows),
    "string": (string_schema, string_rows),
    "usage": (usage_schema, usage_rows),
}


def _engine():
    return LittleTable(clock=VirtualClock(start=BASE + MICROS_PER_DAY),
                       config=EngineConfig(server_row_limit=ROW_LIMIT))


def _async():
    db = _engine()
    return db, AsyncLittleTableServer(db)


def _sharded():
    router = ShardRouter(shards=4,
                         clock=VirtualClock(start=BASE + MICROS_PER_DAY),
                         config=EngineConfig(server_row_limit=ROW_LIMIT))
    return router, AsyncLittleTableServer(router)


FRONTS = {"async": _async, "sharded": _sharded}


@pytest.fixture(params=sorted(FRONTS))
def front(request):
    db, server = FRONTS[request.param]()
    with server:
        yield server
    db.close()


@pytest.fixture
def remote(front):
    with RemoteDatabase(LittleTableClient(*front.address)) as remote:
        yield remote


@pytest.fixture
def embedded():
    db = _engine()
    yield db
    db.close()


def prefixes(schema, rows):
    width = schema.key_width - 1
    return sorted({schema.key_of(row)[:width] for row in rows})


class TestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_every_path_matches_the_embedded_engine(self, kind, remote,
                                                    embedded):
        make_schema, make_rows = SCHEMAS[kind]
        schema, rows = make_schema(), make_rows()
        third = len(rows) // 3
        tuples, dicts, piped = (rows[:third], rows[third:2 * third],
                                rows[2 * third:])
        as_dicts = [schema.row_to_dict(row) for row in dicts]
        oracle = embedded.create_table("t", schema)
        oracle.insert_tuples(tuples)
        oracle.insert(as_dicts)
        oracle.insert_tuples(piped)

        table = remote.create_table("t", schema)
        assert table.insert_tuples(tuples) == len(tuples)
        assert table.insert(as_dicts) == len(dicts)
        client = remote.client
        with client.pipeline() as batch:
            replies = [batch.insert("t", piped[:5]),
                       batch.insert("t", piped[5:])]
        assert sum(reply.result() for reply in replies) == len(piped)

        everything = list(oracle.scan(Query()))
        assert sorted(everything) == sorted(rows)
        for query in (Query(),
                      Query(direction=DESCENDING),
                      Query(KeyRange.prefix(prefixes(schema, rows)[1])),
                      Query(limit=5)):
            page = table.query(query)
            expected = oracle.query(query)
            assert page.rows == expected.rows
            assert page.more_available == expected.more_available
            assert list(table.scan(query)) == list(oracle.scan(query))
        for prefix in prefixes(schema, rows):
            assert table.latest(prefix) == oracle.latest(prefix)
        missing = ("nobody",) if kind != "usage" else (99, 99)
        assert table.latest(missing) is None
        asked = prefixes(schema, rows) + [missing]
        assert table.latest_many(asked) == oracle.latest_many(asked) == [
            oracle.latest(prefix) for prefix in asked]
        with client.pipeline() as batch:
            page = batch.query_page("t", Query(limit=7))
            newest = batch.latest_many("t", [prefixes(schema, rows)[0]])
            many = batch.latest_many("t", asked)
        assert page.result() == (everything[:7], False)
        assert newest.result() == [oracle.latest(prefixes(schema, rows)[0])]
        assert many.result() == oracle.latest_many(asked)
        for row in table.query(Query()).rows:
            assert type(row) is tuple
            assert [type(v) for v in row] == [type(v) for v in rows[0]]


def parent_tuple_insert(table, rows):
    """The positional insert request the parent's client built."""
    return {"cmd": "insert", "table": table,
            "rows": [encode_row(row) for row in rows]}


#: A dict insert exactly as the parent commit's client framed it for
#: two rows of ``blob_schema()``: ``dicts: true``, columns sorted by
#: name, every value through ``encode_value``.
PARENT_DICT_FRAME = (
    b'\x00\x00\x00\xeb{"cmd": "insert", "table": "t", "rows": '
    b'[["dev-0", 7, {"$b": "AAEC"}, {"$b": "AHRhZw=="}, 864000000000000], '
    b'["dev-1", 8, {"$b": ""}, {"$b": "AHRhZw=="}, 864000000000001]], '
    b'"columns": ["dev", "n", "payload", "tag", "ts"], "dicts": true}')


class TestBytesOnTheWire:
    @pytest.fixture
    def sent(self, monkeypatch):
        """Every frame the client puts on the wire, as bytes."""
        frames = []
        real = client_module.send_message

        def recording(sock, message):
            frames.append(encode_frame(message))
            real(sock, message)

        monkeypatch.setattr(client_module, "send_message", recording)
        return frames

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_requests_and_responses_equal_the_per_value_path(
            self, kind, remote, front, embedded, sent):
        make_schema, make_rows = SCHEMAS[kind]
        schema, rows = make_schema(), make_rows()[:12]
        oracle = embedded.create_table("t", schema)
        oracle.insert_tuples(rows)
        table = remote.create_table("t", schema)
        table.schema                    # the one list_tables happens here
        del sent[:]

        table.insert_tuples(rows)
        assert sent == [encode_frame(parent_tuple_insert("t", rows))]

        dispatch = front.dispatcher.dispatch
        prefix = prefixes(schema, rows)[0]
        types = [column.type.value for column in schema.columns]
        response = dispatch({"cmd": "query", "table": "t"})
        expected = oracle.query(Query())
        header = json.dumps({
            "ok": True, "types": types,
            "more_available": expected.more_available,
            "rows_scanned": response["rows_scanned"]}).encode("utf-8")
        payload = (b"\x00" + struct.pack(">I", len(header)) + header
                   + compiled_ops(schema).encode_rows(expected.rows))
        frame = encode_frame(response)
        assert frame == struct.pack(">I", len(payload)) + payload
        assert decode_payload(frame[4:]) == response
        # A batched latest: one JSON row, or null, per prefix asked.
        missing = ("nobody",) if kind != "usage" else (99, 99)
        response = dispatch({"cmd": "latest", "table": "t",
                             "prefixes": [encode_key(prefix),
                                          encode_key(missing)],
                             "max_lookback_micros": None})
        assert encode_frame(response) == encode_frame({
            "ok": True, "types": types,
            "rows": [encode_row(oracle.latest(prefix)), None]})
        del sent[:]
        assert table.latest_many([prefix, missing]) == [
            oracle.latest(prefix), None]
        assert sent == [encode_frame({
            "cmd": "latest", "table": "t",
            "prefixes": [encode_key(prefix), encode_key(missing)],
            "max_lookback_micros": None})]

    def test_a_frame_from_the_parent_client_is_still_accepted(
            self, remote, front):
        remote.create_table("t", blob_schema())
        assert int.from_bytes(PARENT_DICT_FRAME[:4], "big") == \
            len(PARENT_DICT_FRAME) - 4
        response = front.dispatcher.dispatch(
            decode_payload(PARENT_DICT_FRAME[4:]))
        assert response == {"ok": True, "inserted": 2}
        assert remote.table("t").query(Query()).rows == [
            ("dev-0", BASE, b"\x00\x01\x02", 7, b"\x00tag"),
            ("dev-1", BASE + 1, b"", 8, b"\x00tag")]


class TestRefusedRows:
    """What the engine refuses, the wire refuses the same way."""

    def _tables(self, remote, embedded, schema):
        return (remote.create_table("t", schema),
                embedded.create_table("t", schema))

    def _same_refusal(self, table, oracle, send, bad_rows):
        with pytest.raises(ValidationError) as embedded_error:
            oracle.insert_tuples(bad_rows)
        with pytest.raises(ValidationError) as wire_error:
            send(bad_rows)
        assert str(wire_error.value) == str(embedded_error.value)
        assert table.query(Query()).rows == []

    def test_wrapped_bytes_outside_a_blob_column(self, remote, embedded):
        table, oracle = self._tables(remote, embedded, blob_schema())
        wrapped = {"$b": "AAEC"}

        def raw(rows):
            remote.client._call(parent_tuple_insert("t", rows))

        self._same_refusal(table, oracle, raw,
                           [(wrapped, BASE, b"", 1, b"")])
        self._same_refusal(table, oracle, raw,
                           [("dev", BASE, b"", wrapped, b"")])
        # ... while at a BLOB position the same object is bytes.
        raw([("dev", BASE, wrapped, 1, wrapped)])
        assert table.query(Query()).rows == [
            ("dev", BASE, b"\x00\x01\x02", 1, b"\x00\x01\x02")]

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_short_row_and_missing_ts(self, kind, remote, embedded):
        make_schema, make_rows = SCHEMAS[kind]
        schema, rows = make_schema(), make_rows()
        table, oracle = self._tables(remote, embedded, schema)
        no_ts = list(rows[0])
        no_ts[schema.ts_index] = None
        for bad in (rows[0][:-1], rows[0][:1], (), tuple(no_ts)):
            self._same_refusal(table, oracle, table.insert_tuples, [bad])

    def test_rows_that_are_not_lists_never_reach_an_engine(self, remote,
                                                           front):
        remote.create_table("t", string_schema())
        for rows in ([5], ["ab"], [{"host": "h"}], "rows", None):
            response = front.dispatcher.dispatch(
                {"cmd": "insert", "table": "t", "rows": rows})
            assert not response["ok"]
        assert front.db.health_summary().get("degraded_shards", {}) == {}
        assert remote.table("t").insert_tuples(string_rows()[:1]) == 1

    def test_a_refused_row_keeps_only_what_came_before_it(self, remote,
                                                          embedded):
        table, oracle = self._tables(remote, embedded, string_schema())
        good, later = ("a", BASE, 1.0), ("a", BASE + 2, 2.0)
        batch = [good, ("a", BASE + 1, "not a double"), later]
        with pytest.raises(ValidationError):
            oracle.insert_tuples(batch)
        with pytest.raises(ValidationError):
            table.insert_tuples(batch)
        assert table.query(Query()).rows == oracle.query(Query()).rows \
            == [good]


class TestStaleSchema:
    """Another client's DDL under this client's cached schema."""

    WIDE = Column("extra", ColumnType.BLOB, b"dflt")

    @pytest.fixture
    def other(self, front):
        with RemoteDatabase(LittleTableClient(*front.address)) as other:
            yield other

    def _list_tables_calls(self, client, monkeypatch):
        calls = []
        real = client._call

        def counting(message, idempotent=False):
            if message.get("cmd") == "list_tables":
                calls.append(message)
            return real(message, idempotent=idempotent)

        monkeypatch.setattr(client, "_call", counting)
        return calls

    def test_refused_insert_drops_the_cache(self, remote, other,
                                            monkeypatch):
        table = remote.create_table("t", string_schema())
        table.insert_tuples([("a", BASE, 1.0)])
        other.table("t").append_column(self.WIDE)
        other.table("t").insert_tuples([("b", BASE, 2.0, b"\x01\x02")])
        calls = self._list_tables_calls(remote.client, monkeypatch)

        with pytest.raises(ValidationError):
            table.insert_tuples([("a", BASE + 1, 1.5)])
        assert remote.client._schema_cache == {}
        assert table.schema.has_column("extra")
        assert table.insert_tuples([("a", BASE + 1, 1.5, b"\xff")]) == 1
        assert table.query(Query()).rows == [
            ("a", BASE, 1.0, b"dflt"), ("a", BASE + 1, 1.5, b"\xff"),
            ("b", BASE, 2.0, b"\x01\x02")]
        assert len(calls) == 1

    @pytest.mark.parametrize("read", ["query", "scan", "latest",
                                      "pipeline"])
    def test_wider_result_rows_refresh_it_once(self, read, remote, other,
                                               monkeypatch):
        table = remote.create_table("t", string_schema())
        table.insert_tuples([("a", BASE, 1.0)])
        assert table.query(Query()).rows == [("a", BASE, 1.0)]
        other.table("t").append_column(self.WIDE)
        other.table("t").insert_tuples([("a", BASE + 1, 2.0, b"\x01\x02")])
        calls = self._list_tables_calls(remote.client, monkeypatch)

        expected = [("a", BASE, 1.0, b"dflt"),
                    ("a", BASE + 1, 2.0, b"\x01\x02")]
        client = remote.client
        for _again in range(2):
            if read == "query":
                assert table.query(Query()).rows == expected
            elif read == "scan":
                assert list(table.scan(Query())) == expected
            elif read == "latest":
                assert table.latest(("a",)) == expected[-1]
            else:
                with client.pipeline() as batch:
                    page = batch.query_page("t", Query())
                    newest = batch.latest_many("t", [("a",)])
                assert page.result() == (expected, False)
                assert newest.result() == [expected[-1]]
        assert len(calls) == 1
        assert table.schema.has_column("extra")

    @pytest.mark.parametrize("read", ["query", "scan", "latest",
                                      "pipeline"])
    def test_a_table_recreated_at_the_same_width_refreshes_it_once(
            self, read, remote, other, monkeypatch):
        """Same width, another type: only the reply's ``types`` says
        the cache is stale (read by it, the BLOB would come back as
        ``{"$b": ...}``)."""
        table = remote.create_table("t", string_schema())
        table.insert_tuples([("h", BASE, 1.0)])
        assert table.query(Query()).rows == [("h", BASE, 1.0)]
        other.drop_table("t")
        other.create_table("t", Schema(
            [Column("host", ColumnType.STRING),
             Column("ts", ColumnType.TIMESTAMP),
             Column("payload", ColumnType.BLOB)],
            key=["host", "ts"]))
        other.table("t").insert_tuples([("h", BASE + 2, b"\x01\x02")])
        calls = self._list_tables_calls(remote.client, monkeypatch)

        newest = ("h", BASE + 2, b"\x01\x02")
        client = remote.client
        for _again in range(2):
            if read == "query":
                assert table.query(Query()).rows == [newest]
            elif read == "scan":
                assert list(table.scan(Query())) == [newest]
            elif read == "latest":
                assert table.latest(("h",)) == newest
            else:
                with client.pipeline() as batch:
                    page = batch.query_page("t", Query())
                    latest = batch.latest_many("t", [("h",)])
                assert page.result() == ([newest], False)
                assert latest.result() == [newest]
        assert len(calls) == 1
        assert table.schema.has_column("payload")


# ------------------------------------------------------------ block pages

def every_type_schema():
    return Schema(
        [Column("k", ColumnType.INT64),
         Column("s", ColumnType.STRING),
         Column("ts", ColumnType.TIMESTAMP),
         Column("i", ColumnType.INT32),
         Column("f", ColumnType.DOUBLE),
         Column("b", ColumnType.BLOB)],
        key=["k", "s", "ts"])


INT64 = (-(1 << 63), (1 << 63) - 1)
INT32 = (-(1 << 31), (1 << 31) - 1)
texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=12)
every_type_row = st.tuples(
    st.integers(*INT64) | st.sampled_from(INT64 + (-1, 0)),
    st.just("") | texts | st.builds(lambda c, n: c * n, texts,
                                    st.integers(100, 400)),
    st.integers(BASE - MICROS_PER_DAY, BASE + MICROS_PER_DAY),
    st.integers(*INT32) | st.sampled_from(INT32),
    st.floats(allow_nan=False)
    | st.sampled_from((-0.0, 0.0, math.inf, -math.inf)),
    st.just(b"") | st.binary(max_size=24),
)
table_names = itertools.count()


@pytest.fixture(scope="module", params=sorted(FRONTS))
def served_front(request):
    """A front and an embedded oracle shared by every example: each
    example makes its own table on both, and drops them."""
    db, server = FRONTS[request.param]()
    oracle = _engine()
    with server:
        with RemoteDatabase(LittleTableClient(*server.address)) as remote:
            yield remote, oracle
    db.close()
    oracle.close()


def same(wire_rows, embedded_rows):
    """Value for value and type for type (``-0.0`` is not ``0.0``)."""
    assert repr(wire_rows) == repr(embedded_rows)


class TestBlockPages:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.lists(every_type_row, max_size=40,
                         unique_by=lambda row: row[:3]),
           limit=st.integers(0, 40))
    def test_every_type_round_trips_as_the_embedded_engine_returns_it(
            self, served_front, rows, limit):
        remote, oracle = served_front
        name = f"t{next(table_names)}"
        schema = every_type_schema()
        table = remote.create_table(name, schema)
        embedded = oracle.create_table(name, schema)
        try:
            assert table.insert_tuples(rows) == embedded.insert_tuples(rows)
            newest = max((row[2] for row in rows), default=BASE)
            for query in (Query(), Query(direction=DESCENDING),
                          Query(limit=limit),
                          Query(direction=DESCENDING, limit=limit),
                          Query(time_range=TimeRange.between(newest + 1,
                                                             None))):
                page, expected = table.query(query), embedded.query(query)
                same(page.rows, expected.rows)
                assert page.more_available == expected.more_available
                same(list(table.scan(query)), list(embedded.scan(query)))
        finally:
            remote.drop_table(name)
            oracle.drop_table(name)


class TestDamagedBlocks:
    """A page that does not decode is refused whole: no row of it
    reaches the caller, and the connection stays usable."""

    @pytest.mark.parametrize("damage", [
        lambda block: block[:-1],
        lambda block: block + b"\x00",
        lambda block: bytes([block[0] ^ 0x80]) + block[1:],
        lambda block: block[:1] + bytes([block[1] ^ 0x01]) + block[2:],
        lambda block: b"",
    ], ids=["truncated", "trailing", "format-bit", "row-count-bit", "empty"])
    def test_a_damaged_block_yields_no_rows(self, damage, remote, front,
                                            monkeypatch):
        table = remote.create_table("t", string_schema())
        table.insert_tuples(string_rows()[:10])
        real = type(front.dispatcher)._cmd_query

        def damaging(dispatcher, request):
            response = real(dispatcher, request)
            response["block"] = damage(response["block"])
            return response

        monkeypatch.setattr(type(front.dispatcher), "_cmd_query", damaging)
        client = remote.client
        with pytest.raises(ProtocolViolationError, match="result block"):
            table.query(Query())
        scanned = []
        with pytest.raises(ProtocolViolationError, match="result block"):
            for row in table.scan(Query()):
                scanned.append(row)
        assert scanned == []
        with client.pipeline() as batch:
            page = batch.query_page("t", Query())
        with pytest.raises(ProtocolViolationError, match="result block"):
            page.result()
        assert client.ping()

    def test_a_reply_typed_unlike_the_table_is_refused(self, remote, front,
                                                       monkeypatch):
        """Types that even a fresh schema lacks: one reload, then a
        refusal - never rows decoded by the wrong types."""
        table = remote.create_table("t", string_schema())
        table.insert_tuples(string_rows()[:3])
        real = type(front.dispatcher)._cmd_query

        def mistyped(dispatcher, request):
            response = real(dispatcher, request)
            response["types"] = ["string", "timestamp", "int64"]
            return response

        monkeypatch.setattr(type(front.dispatcher), "_cmd_query", mistyped)
        commands = []
        real_call = remote.client._call

        def recording(message, idempotent=False):
            commands.append(message["cmd"])
            return real_call(message, idempotent=idempotent)

        monkeypatch.setattr(remote.client, "_call", recording)
        with pytest.raises(ProtocolViolationError, match="int64"):
            table.query(Query())
        assert commands == ["query", "list_tables"]
