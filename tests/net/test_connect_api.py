"""The unified client API: repro.connect, ClientConfig, facade parity.

Parity is the point of the redesign, so the central test runs ONE
workload function against three deployments - in-process engine,
single-engine server, sharded server - and asserts the facade behaves
identically (same rows, same shapes, same context-
manager semantics).
"""

import pytest

import repro
from repro import ClientConfig, connect
from repro.core import (
    Column,
    ColumnType,
    EngineConfig,
    LittleTable,
    NoSuchTableError,
    Query,
    Schema,
)
from repro.dashboard.schemas import ensure_table
from repro.net import (
    AsyncLittleTableServer,
    LittleTableClient,
    ShardRouter,
)
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY


def usage_schema():
    return Schema(
        [Column("device", ColumnType.STRING),
         Column("ts", ColumnType.TIMESTAMP),
         Column("bytes", ColumnType.INT64)],
        key=["device", "ts"],
    )


SAMPLE = [
    {"device": f"dev-{d:02d}", "ts": BASE + s * 1_000_000,
     "bytes": d * 10 + s}
    for d in range(8)
    for s in range(6)
]


def run_workload(db):
    """The facade surface every deployment must serve identically."""
    usage = db.create_table("usage", usage_schema())
    assert usage.insert(SAMPLE) == len(SAMPLE)

    result = usage.query(Query(limit=1000))
    assert len(result.rows) == len(SAMPLE)
    assert not result.more_available
    keys = [r[:2] for r in result.rows]
    assert keys == sorted(keys)

    # A client-imposed limit is a complete result, not a truncation
    # (engine semantics: more_available means the SERVER limit cut
    # the scan) - and every deployment must agree on that.
    page = usage.query(Query(limit=10))
    assert len(page.rows) == 10 and not page.more_available

    # ... and so is a limit of nothing: an empty page that does not
    # claim the server limit cut it short.
    empty = usage.query(Query(limit=0))
    assert empty.rows == [] and not empty.more_available
    assert list(usage.scan(Query(limit=0))) == []

    # The handle create_table returned and a lookup by name are one
    # table.
    table_page = db.table("usage").query(Query(limit=10))
    assert table_page.rows == page.rows

    latest = usage.latest(("dev-03",))
    assert latest[2] == 35

    snapshot = db.stats()
    assert set(snapshot) >= {"counters", "gauges", "histograms"}
    health = db.health()
    assert health["read_only"] is False
    return [r[:2] for r in result.rows]


class TestFacadeParity:
    def test_in_process(self):
        with LittleTable(clock=VirtualClock(start=BASE)) as db:
            run_workload(db)

    def test_single_engine_server(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        with AsyncLittleTableServer(db) as server:
            with connect(server.address) as remote:
                assert run_workload(remote) is not None
        db.close()

    def test_async_sharded_server(self):
        router = ShardRouter(shards=3, clock=VirtualClock(start=BASE))
        with AsyncLittleTableServer(router) as server:
            with connect(server.address) as remote:
                assert run_workload(remote) is not None
        router.close()

    def test_all_three_agree_row_for_row(self):
        results = []
        with LittleTable(clock=VirtualClock(start=BASE)) as db:
            results.append(run_workload(db))
        db = LittleTable(clock=VirtualClock(start=BASE))
        with AsyncLittleTableServer(db) as server:
            with connect(server.address) as remote:
                results.append(run_workload(remote))
        db.close()
        router = ShardRouter(shards=4, clock=VirtualClock(start=BASE))
        with AsyncLittleTableServer(router) as server:
            with connect(server.address) as remote:
                results.append(run_workload(remote))
        router.close()
        assert results[0] == results[1] == results[2]


def served_database(deployment):
    if deployment == "engine":
        return LittleTable(clock=VirtualClock(start=BASE))
    return ShardRouter(shards=2, clock=VirtualClock(start=BASE))


class TestLiveCatalog:
    """Another connection's DDL shows in this one's catalog at once:
    ``table_names``, ``has_table`` and a table's ``ttl_micros`` ask the
    server, as ``table(name)`` does on a miss."""

    HOUR = 3600 * 1_000_000

    @pytest.mark.parametrize("deployment", ["engine", "two-shards"])
    def test_another_connections_create_and_drop_show(self, deployment):
        served = served_database(deployment)
        with AsyncLittleTableServer(served) as server, \
                connect(server.address) as a, connect(server.address) as b:
            a.create_table("usage", usage_schema())
            assert a.table_names() == ["usage"]

            b.create_table("events", usage_schema())
            assert a.table_names() == ["events", "usage"]
            assert a.has_table("events")
            # What ``dashboard.schemas.ensure_table`` does over the wire.
            assert ensure_table(a, "events", usage_schema()).name == "events"

            b.drop_table("events")
            assert not a.has_table("events")
            assert a.table_names() == ["usage"]
            with pytest.raises(NoSuchTableError):
                a.table("events")
        served.close()

    @pytest.mark.parametrize("deployment", ["engine", "two-shards"])
    def test_another_connections_set_ttl_shows(self, deployment):
        served = served_database(deployment)
        with AsyncLittleTableServer(served) as server, \
                connect(server.address) as a, connect(server.address) as b:
            usage = a.create_table("usage", usage_schema())
            assert usage.ttl_micros is None

            b.table("usage").set_ttl(self.HOUR)
            assert usage.ttl_micros == self.HOUR
            assert served.table("usage").ttl_micros == self.HOUR

            b.drop_table("usage")
            with pytest.raises(NoSuchTableError):
                usage.ttl_micros
        served.close()


class TestBlobDefaultOnTheWire:
    """An ``add_column`` default is a value like any other: it travels
    as ``protocol.encode_value`` spells it (``{"$b": ...}``), where it
    once had a ``{"b64": ...}`` spelling of its own."""

    BLOB = Column("payload", ColumnType.BLOB, b"\x00\xff dflt")

    @pytest.mark.parametrize("deployment", ["engine", "two-shards"])
    def test_blob_default_round_trips(self, deployment, monkeypatch):
        served = served_database(deployment)
        with AsyncLittleTableServer(served) as server:
            with connect(server.address) as db:
                db.create_table("usage", usage_schema())
                db.table("usage").insert(SAMPLE)
                sent = []
                real = db.client._call

                def recording(message, idempotent=False):
                    sent.append(message)
                    return real(message, idempotent=idempotent)

                monkeypatch.setattr(db.client, "_call", recording)
                db.table("usage").append_column(self.BLOB)
                alter, = [m for m in sent if m["cmd"] == "alter"]
                assert set(alter["column"]["default"]) == {"$b"}
                assert db.table("usage").schema.column(
                    "payload").default == self.BLOB.default
                db.table("usage").insert([{"device": "dev-99", "ts": BASE,
                                           "bytes": 1, "payload": b"\x01"}])
                rows = db.table("usage").query(Query(limit=1000)).rows
                assert [r[3] for r in rows] == (
                    [self.BLOB.default] * len(SAMPLE) + [b"\x01"])
        served.close()


class TestConnectAddresses:
    @pytest.fixture
    def server(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        with AsyncLittleTableServer(db) as running:
            yield running
        db.close()

    def test_host_port_string(self, server):
        host, port = server.address
        with connect(f"{host}:{port}") as db:
            assert db.client.ping()

    def test_port_only_string_defaults_localhost(self, server):
        _host, port = server.address
        with connect(f":{port}") as db:
            assert db.client.ping()

    def test_tuple_address(self, server):
        with connect(server.address) as db:
            assert db.client.ping()

    def test_config_passes_through(self, server):
        config = ClientConfig(max_retries=7, pipeline_depth=3)
        with connect(server.address, config=config) as db:
            assert db.client.config.max_retries == 7
            assert db.client.config.pipeline_depth == 3

    def test_bad_addresses_rejected(self, capsys):
        """One reading of a server address: ``repro.connect`` and the
        CLI's ``stats --connect`` and ``serve --follow`` refuse the
        same strings, the CLI with exit 2 before it dials anything."""
        from repro.cli import serve_main, stats_main

        for address in ("no-port-here", "7421", "host:not-a-number",
                        "host:"):
            with pytest.raises(ValueError):
                connect(address)
            assert stats_main(["--connect", address]) == 2
            assert serve_main(["--follow", address, "--port", "0"]) == 2
            assert capsys.readouterr().err.count("wants HOST:PORT") == 2

    def test_close_is_idempotent(self, server):
        db = connect(server.address)
        db.close()
        db.close()

    def test_clientconfig_reexported_at_top_level(self):
        assert repro.ClientConfig is ClientConfig


class TestClientConfigShim:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LittleTableClient("127.0.0.1", 1,
                              config=ClientConfig(max_retries=-1))
        with pytest.raises(ValueError):
            LittleTableClient("127.0.0.1", 1,
                              config=ClientConfig(pipeline_depth=0))

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            LittleTableClient("127.0.0.1", 1, not_a_setting=True)


class TestServeCli:
    def test_serve_subcommand_round_trip(self):
        import threading

        from repro.cli import serve_main

        stop = threading.Event()
        seen = {}

        def on_ready(server):
            def probe():
                try:
                    with connect(server.address) as db:
                        usage = db.create_table("usage", usage_schema())
                        usage.insert(SAMPLE[:6])
                        seen["rows"] = len(usage.query(Query()).rows)
                        seen["shards"] = db.client.server_shards
                finally:
                    stop.set()

            threading.Thread(target=probe, daemon=True).start()

        rc = serve_main(["--port", "0", "--shards", "2"],
                        stop_event=stop, on_ready=on_ready)
        assert rc == 0
        assert seen == {"rows": 6, "shards": 2}

    def test_served_database_runs_maintenance_unasked(self, tmp_path):
        """No flag turns maintenance on: a served database flushes by
        age, merges and expires on its own (§3.3's always-on merger).
        An aged memtable reaches disk under the default policy."""
        import threading
        import time

        from repro.cli import serve_main
        from repro.util.clock import MICROS_PER_HOUR

        stop = threading.Event()
        seen = {}

        def on_ready(server):
            def probe():
                try:
                    with connect(server.address) as db:
                        db.create_table("usage", usage_schema())
                        db.table("usage").insert(SAMPLE[:6])
                    engine, = server.db.engines
                    table = engine.table("usage")
                    seen["on_disk_before"] = len(table.on_disk_tablets)
                    with table.lock:
                        for memtable in table._filling.values():
                            memtable.first_insert_at -= MICROS_PER_HOUR
                    deadline = time.monotonic() + 10
                    while (not table.on_disk_tablets
                           and time.monotonic() < deadline):
                        time.sleep(0.05)
                    seen["on_disk_after"] = len(table.on_disk_tablets)
                    seen["files"] = len(list(tmp_path.rglob("*.lt")))
                finally:
                    stop.set()

            threading.Thread(target=probe, daemon=True).start()

        rc = serve_main(["--port", "0", "--shards", "1",
                         "--data", str(tmp_path)],
                        stop_event=stop, on_ready=on_ready)
        assert rc == 0
        assert seen == {"on_disk_before": 0, "on_disk_after": 1,
                        "files": 1}

    def test_serve_has_no_maintenance_flag(self):
        from repro.cli import serve_main

        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--maintenance", "--port", "0"])
        assert excinfo.value.code == 2      # argparse: unrecognized

    def test_serve_rejects_bad_shards(self):
        from repro.cli import serve_main

        assert serve_main(["--shards", "0", "--port", "0"]) == 2

    def test_serve_has_one_front(self):
        from repro.cli import serve_main

        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--legacy", "--port", "0"])
        assert excinfo.value.code == 2      # argparse: unrecognized
