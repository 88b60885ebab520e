"""The asyncio front end: the hello check, pipelined (id-tagged) and
in-order (untagged) requests on one connection.
"""

import pytest

from repro.core import (
    Column,
    ColumnType,
    DuplicateKeyError,
    EngineConfig,
    LittleTable,
    NoSuchTableError,
    ProtocolViolationError,
    Query,
    Schema,
    ServerError,
)
from repro.net import (
    AsyncLittleTableServer,
    ClientConfig,
    LittleTableClient,
    ShardRouter,
)
from repro.net import protocol
from repro.net.server import RequestDispatcher
from repro.util.clock import MICROS_PER_DAY, VirtualClock

from ..conftest import remote_table

BASE = 10_000 * MICROS_PER_DAY


def usage_schema():
    return Schema(
        [Column("device", ColumnType.STRING),
         Column("ts", ColumnType.TIMESTAMP),
         Column("bytes", ColumnType.INT64)],
        key=["device", "ts"],
    )


@pytest.fixture
def single_server():
    db = LittleTable(clock=VirtualClock(start=BASE))
    with AsyncLittleTableServer(db) as server:
        yield server
    db.close()


@pytest.fixture
def sharded_server():
    router = ShardRouter(shards=3, clock=VirtualClock(start=BASE),
                         config=EngineConfig(server_row_limit=32))
    with AsyncLittleTableServer(router) as server:
        yield server
    router.close()


def connect_client(server, **config_fields):
    host, port = server.address
    client = LittleTableClient(host, port,
                               config=ClientConfig(**config_fields))
    client.connect()
    return client


class TestHello:
    def test_v2_negotiation(self, sharded_server):
        client = connect_client(sharded_server)
        assert client.server_shards == 3
        client.close()
        dispatcher = sharded_server.dispatcher
        assert dispatcher.dispatch(
            {"cmd": "hello", "version": protocol.PROTOCOL_VERSION}) == {
                "ok": True, "version": protocol.PROTOCOL_VERSION,
                "shards": 3}

    def test_refused_hello_raises_typed_at_connect(
            self, single_server, monkeypatch):
        """A peer that does not know ``hello`` is not a server this
        client can talk to: no silent downgrade."""
        monkeypatch.delattr(RequestDispatcher, "_cmd_hello")
        with pytest.raises(ProtocolViolationError, match="refused hello"):
            connect_client(single_server)

    @pytest.mark.parametrize("theirs", [1, 2, 3, 4, 6])
    def test_server_refuses_a_client_of_another_version(
            self, single_server, monkeypatch, theirs):
        monkeypatch.setattr("repro.net.client.PROTOCOL_VERSION", theirs)
        with pytest.raises(ProtocolViolationError,
                           match=f"refused hello.*speaks "
                                 f"{protocol.PROTOCOL_VERSION}"):
            connect_client(single_server)

    @pytest.mark.parametrize("theirs", [1, 2, 3, 4, 6])
    def test_client_refuses_a_server_of_another_version(
            self, single_server, monkeypatch, theirs):
        monkeypatch.setattr(
            RequestDispatcher, "_cmd_hello",
            lambda self, request: protocol.ok_response(version=theirs,
                                                       shards=1))
        with pytest.raises(ProtocolViolationError, match="version"):
            connect_client(single_server)


class TestPipelining:
    def test_pipelined_inserts_and_reads(self, sharded_server):
        client = connect_client(sharded_server)
        client.create_table("usage", usage_schema())
        with client.pipeline(depth=16) as batch:
            replies = [
                batch.insert("usage", [
                    (f"dev-{d:02d}", BASE + s, d * 100 + s)
                    for s in range(5)])
                for d in range(20)
            ]
        assert sum(r.result() for r in replies) == 100
        rows = list(remote_table(client, "usage").scan(Query()))
        assert len(rows) == 100
        keys = [r[:2] for r in rows]
        assert keys == sorted(keys)
        client.close()

    def test_pipelined_latest_round_trips(self, sharded_server):
        client = connect_client(sharded_server)
        client.create_table("usage", usage_schema())
        remote_table(client, "usage").insert([
            {"device": f"dev-{d}", "ts": BASE + d, "bytes": d}
            for d in range(10)])
        with client.pipeline() as batch:
            replies = [batch.latest_many("usage", [(f"dev-{d}",)])
                       for d in range(10)]
        for d, reply in enumerate(replies):
            assert reply.result()[0][2] == d
        client.close()

    def test_pipeline_error_isolated_to_its_request(self, sharded_server):
        client = connect_client(sharded_server)
        client.create_table("usage", usage_schema())
        with client.pipeline() as batch:
            good = batch.insert("usage", [("a", BASE, 1)])
            bad = batch.latest_many("missing", [("x",)])
            also_good = batch.ping()
        assert good.result() == 1
        with pytest.raises(NoSuchTableError):
            bad.result()
        assert also_good.result() is not None
        client.close()

    def test_pipeline_depth_metric_observed(self, sharded_server):
        client = connect_client(sharded_server)
        with client.pipeline(depth=4) as batch:
            for _ in range(8):
                batch.ping()
        snapshot = sharded_server.metrics.snapshot()
        depth = snapshot["histograms"].get("server.pipeline_depth")
        assert depth is not None and depth["count"] >= 8
        counters = snapshot["counters"]
        assert counters.get("server.pipelined_requests", 0) >= 8
        client.close()


class TestSequentialInterop:
    def test_legacy_sequential_commands_still_served(self, sharded_server):
        """Requests with no ids at all against the async front end."""
        client = connect_client(sharded_server)
        client.create_table("usage", usage_schema())
        usage = remote_table(client, "usage")
        usage.insert([{"device": "a", "ts": BASE, "bytes": 7}])
        assert usage.latest(("a",))[2] == 7
        assert client.stats()["counters"] is not None
        counters = sharded_server.metrics.snapshot()["counters"]
        assert counters.get("server.sequential_requests", 0) > 0
        client.close()

    def test_errors_cross_the_wire_typed(self, sharded_server):
        client = connect_client(sharded_server)
        client.create_table("usage", usage_schema())
        usage = remote_table(client, "usage")
        usage.insert([{"device": "a", "ts": BASE, "bytes": 1}])
        with pytest.raises(DuplicateKeyError):
            usage.insert([{"device": "a", "ts": BASE, "bytes": 2}])
        with pytest.raises(NoSuchTableError):
            client.drop_table("nope")
        client.close()

    def test_unknown_error_code_preserved_on_server_error(
            self, single_server, monkeypatch):
        def weird(self, request):
            from repro.net import protocol

            return protocol.error_response("FutureFancyError",
                                           "from the year 3000")

        monkeypatch.setattr(RequestDispatcher, "_cmd_ping", weird)
        client = connect_client(single_server)
        with pytest.raises(ServerError) as excinfo:
            client.ping()
        assert excinfo.value.code == "FutureFancyError"
        assert "year 3000" in str(excinfo.value)
        client.close()


class TestLifecycle:
    def test_restart_and_port_reuse(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        server = AsyncLittleTableServer(db)
        server.start()
        first = server.address
        client = connect_client(server)
        assert client.ping()
        client.close()
        server.stop()
        assert server.is_stopped
        # A second server over the same engine serves the same data.
        with AsyncLittleTableServer(db) as second:
            assert second.address != first or True  # ephemeral port
            client = connect_client(second)
            assert client.ping()
            client.close()
        db.close()

    def test_a_stopped_server_starts_again(self):
        """stop() shuts the dispatch pool down; start() must build a
        new one, or the restarted server accepts and drops requests."""
        db = LittleTable(clock=VirtualClock(start=BASE))
        server = AsyncLittleTableServer(db)
        for _ in range(2):
            server.start()
            client = connect_client(server)
            assert client.ping()
            client.close()
            server.stop()
            assert server.is_stopped
        db.close()

    def test_connection_gauge_returns_to_zero(self, single_server):
        client = connect_client(single_server)
        assert client.ping()
        client.close()
        import time

        deadline = time.time() + 5
        while time.time() < deadline:
            gauges = single_server.metrics.snapshot()["gauges"]
            if gauges.get("server.active_connections", 0) == 0:
                break
            time.sleep(0.02)
        assert single_server.metrics.snapshot()["gauges"].get(
            "server.active_connections", 0) == 0
