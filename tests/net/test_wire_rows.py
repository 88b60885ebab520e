"""Positional rows on the wire are typed by the schema both peers hold.

The wire must be invisible: whatever goes in through a client comes
back row for row as the embedded engine would return it, the bytes on
the wire are the ones the per-value ``encode_row`` path produced, a
malformed row is refused with the engine's own error, and a client
whose cached schema went stale finds out at the first sign of it.
"""

import pytest

from repro.core import (
    Column,
    ColumnType,
    EngineConfig,
    LittleTable,
    Schema,
    ValidationError,
)
from repro.core.row import DESCENDING, KeyRange, Query
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
        assert list(client.query("t")) == everything
        for prefix in prefixes(schema, rows):
            assert table.latest(prefix) == oracle.latest(prefix)
        assert table.latest(("nobody",) if kind != "usage"
                            else (99, 99)) is None
        with client.pipeline() as batch:
            page = batch.query_page("t", limit=7)
            newest = batch.latest("t", prefixes(schema, rows)[0])
        assert page.result() == (everything[:7], False)
        assert newest.result() == oracle.latest(prefixes(schema, rows)[0])
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
        response = dispatch({"cmd": "query", "table": "t"})
        expected = oracle.query(Query())
        assert encode_frame(response) == encode_frame({
            "ok": True,
            "rows": [encode_row(row) for row in expected.rows],
            "more_available": expected.more_available,
            "rows_scanned": response["rows_scanned"]})
        response = dispatch({"cmd": "latest", "table": "t",
                             "prefix": encode_key(prefix),
                             "max_lookback_micros": None})
        assert encode_frame(response) == encode_frame({
            "ok": True, "row": encode_row(oracle.latest(prefix))})

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
                                      "client.query", "pipeline"])
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
            elif read == "client.query":
                assert list(client.query("t")) == expected
            else:
                with client.pipeline() as batch:
                    page = batch.query_page("t")
                    newest = batch.latest("t", ("a",))
                assert page.result() == (expected, False)
                assert newest.result() == expected[-1]
        assert len(calls) == 1
        assert table.schema.has_column("extra")
