"""Network resilience: timeouts, retry/reconnect, degraded servers.

The client's sleep and RNG are injectable, so backoff is asserted by
inspecting recorded delays instead of waiting them out; server
"crashes" are real stop()/restart cycles against the same engine
(which is exactly what a client of the paper's system observes: the
persistent connection breaks, §3.1/§4.1).
"""

import socket
import threading

import pytest

from repro.core import (
    Column,
    ColumnType,
    EngineConfig,
    LittleTable,
    Query,
    ReadOnlyModeError,
    Schema,
)
from repro.disk import DiskFullError, FaultyVFS
from repro.net import (AsyncLittleTableServer, ClientConfig, ConnectionLost,
                       LittleTableClient, protocol)
from repro.util.clock import MICROS_PER_DAY, VirtualClock

from ..conftest import remote_table

BASE = 10_000 * MICROS_PER_DAY


def event_schema():
    return Schema(
        [Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("value", ColumnType.INT64)],
        key=["device", "ts"],
    )


def make_db(disk=None):
    return LittleTable(disk=disk, clock=VirtualClock(start=BASE),
                       config=EngineConfig(server_row_limit=16))


def fast_client(server, **overrides):
    """A client whose backoff sleeps are recorded, not slept."""
    host, port = server.address
    overrides.setdefault("retry_backoff_s", 0.001)
    client = LittleTableClient(host, port,
                               config=ClientConfig(**overrides))
    client.sleeps = []
    client._sleep = client.sleeps.append
    return client


@pytest.fixture
def db():
    database = make_db()
    yield database
    database.close()


@pytest.fixture
def server(db):
    with AsyncLittleTableServer(db) as running:
        yield running


class TestTimeoutKnobs:
    def test_request_timeout_reaches_socket(self, server):
        client = fast_client(server, request_timeout_s=1.5)
        with client:
            assert client._sock.gettimeout() == 1.5
            assert client.ping()

    def test_default_is_blocking_reads(self, server):
        with fast_client(server) as client:
            assert client._sock.gettimeout() is None

    def test_connect_timeout_is_used(self, server, monkeypatch):
        import socket as socket_module
        seen = {}
        real = socket_module.create_connection

        def spying(address, timeout=None, **kwargs):
            seen["timeout"] = timeout
            return real(address, timeout=timeout, **kwargs)

        monkeypatch.setattr("repro.net.client.socket.create_connection",
                            spying)
        with fast_client(server, connect_timeout_s=2.5):
            assert seen["timeout"] == 2.5


class TestBrokenPeers:
    def test_silent_peer_cannot_hang_connect(self):
        """The hello exchange runs under ``connect_timeout_s``: a peer
        that accepts (here: the kernel's listen queue) and never
        answers is a lost connection, not a constructor that never
        returns."""
        outcome = []

        def attempt(address):
            try:
                LittleTableClient(*address, config=ClientConfig(
                    connect_timeout_s=0.2))
            except BaseException as exc:
                outcome.append(exc)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            thread = threading.Thread(
                target=attempt, args=(listener.getsockname(),), daemon=True)
            thread.start()
            thread.join(timeout=2)
            assert not thread.is_alive(), "connect() is still waiting"
        assert isinstance(outcome[0], ConnectionLost)

    @pytest.fixture
    def garbling_server(self):
        """Answers hello, then one frame that is not JSON."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                protocol.recv_message(conn)
                protocol.send_message(conn, protocol.ok_response(
                    version=protocol.PROTOCOL_VERSION, shards=1))
                protocol.recv_message(conn)
                conn.sendall(b"\x00\x00\x00\x08not json")
                conn.recv(1)    # hold the socket open until the client drops it

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield listener.getsockname()
        listener.close()
        thread.join(timeout=5)

    def test_unparseable_reply_is_a_lost_connection(self, garbling_server):
        client = LittleTableClient(*garbling_server, config=ClientConfig(
            auto_reconnect=False))
        with pytest.raises(ConnectionLost):
            client.ping()
        assert not client.connected

    def test_unparseable_reply_fails_the_whole_pipeline(
            self, garbling_server):
        client = LittleTableClient(*garbling_server)
        batch = client.pipeline()
        replies = [batch.ping() for _ in range(3)]
        with pytest.raises(ConnectionLost):
            batch.drain()
        assert not client.connected
        for reply in replies:
            with pytest.raises(ConnectionLost):
                reply.result()


class TestBackoff:
    def test_exponential_with_cap(self, server):
        client = fast_client(server, retry_backoff_s=0.1,
                             retry_backoff_max_s=0.3)
        with client:
            client._rng = type("R", (), {"random": lambda self: 1.0})()
            for attempt in range(4):
                client._backoff_within(attempt, None)
            assert client.sleeps == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_halves_at_minimum(self, server):
        client = fast_client(server, retry_backoff_s=0.2,
                             retry_backoff_max_s=1.0)
        with client:
            client._rng = type("R", (), {"random": lambda self: 0.0})()
            client._backoff_within(0, None)
            assert client.sleeps == [pytest.approx(0.1)]


class TestServerRestart:
    def test_idempotent_query_survives_restart(self, db, server):
        client = fast_client(server)
        with client:
            client.create_table("t", event_schema())
            table = remote_table(client, "t")
            table.insert([{"device": 1, "ts": BASE + i, "value": i}
                          for i in range(10)])
            host, port = server.address
            server.stop()
            assert server.is_stopped
            # Same engine, fresh server on the same port: the client's
            # persistent connection is dead but the data is not.
            with AsyncLittleTableServer(db, port=port):
                rows = list(table.scan(Query()))
            assert [row[1] for row in rows] == [BASE + i for i in range(10)]
            assert len(client.sleeps) >= 1  # it actually retried

    def test_reconnect_invalidates_schema_cache(self, db, server):
        client = fast_client(server)
        with client:
            client.create_table("t", event_schema())
            # Warms the schema cache.
            list(remote_table(client, "t").scan(Query()))
            client._schema_cache["t"] = "stale-sentinel"
            host, port = server.address
            server.stop()
            with AsyncLittleTableServer(db, port=port):
                assert client.ping()
                # The reconnect dropped the poisoned entry; the next
                # lookup re-fetches the real schema from the server.
                assert "t" not in client._schema_cache
                assert client._schema("t") == event_schema()

    def test_retries_are_bounded(self, server):
        client = fast_client(server, max_retries=2)
        with client:
            server.stop()  # nothing ever comes back on this port
            with pytest.raises(ConnectionLost):
                client.ping()
            assert len(client.sleeps) == 2

    def test_insert_is_never_retried(self, db, server):
        client = fast_client(server)
        with client:
            client.create_table("t", event_schema())
            table = remote_table(client, "t")
            host, port = server.address
            server.stop()
            with AsyncLittleTableServer(db, port=port):
                # Even with a healthy server back up, a write through a
                # broken connection must surface, not silently resend:
                # the old server may have applied it (§4.1).
                with pytest.raises(ConnectionLost):
                    table.insert([{"device": 1, "ts": BASE, "value": 0}])
            assert client.sleeps == []  # zero backoff = zero retries

    def test_auto_reconnect_false_disables_retries(self, db, server):
        client = fast_client(server, auto_reconnect=False)
        with client:
            host, port = server.address
            server.stop()
            with AsyncLittleTableServer(db, port=port):
                with pytest.raises(ConnectionLost):
                    client.ping()
            assert client.sleeps == []


class TestReadOnlyServer:
    def test_enospc_degrades_but_reads_serve(self):
        disk = FaultyVFS()
        db = make_db(disk=disk)
        with AsyncLittleTableServer(db) as server:
            client = fast_client(server)
            with client:
                client.create_table("t", event_schema())
                remote = remote_table(client, "t")
                remote.insert([{"device": 1, "ts": BASE + i, "value": i}
                               for i in range(8)])
                disk.failpoints.set("disk.write", "enospc", count=-1)
                table = db.table("t")
                with pytest.raises(DiskFullError):
                    table.flush_all()
                assert db.read_only
                # Writes are refused with the typed error...
                with pytest.raises(ReadOnlyModeError):
                    remote.insert([{"device": 2, "ts": BASE, "value": 0}])
                with pytest.raises(ReadOnlyModeError):
                    client.create_table("u", event_schema())
                # ...while reads and health keep serving.
                assert len(list(remote.scan(Query()))) == 8
                health = client.health()
                assert health["read_only"]
                assert "disk full" in health["read_only_reason"]
                # Operator clears space; the engine becomes writable.
                disk.failpoints.clear()
                db.exit_read_only()
                remote.insert([{"device": 2, "ts": BASE, "value": 0}])
                assert len(list(remote.scan(Query()))) == 9
        db.close()

    def test_health_on_healthy_server(self, server):
        with fast_client(server) as client:
            health = client.health()
            assert health["read_only"] is False
            assert health["quarantined_tablets"] == 0


class _WedgedThread:
    """Stands in for a serve thread that refuses to exit."""

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return True


class TestServerShutdown:
    def test_is_stopped_lifecycle(self, db):
        server = AsyncLittleTableServer(db)
        assert server.is_stopped  # never started
        server.start()
        assert not server.is_stopped
        server.close()  # the stop() alias
        assert server.is_stopped

    def test_wedged_thread_warns_and_keeps_handle(self, db, caplog):
        server = AsyncLittleTableServer(db)
        server.start()
        real_thread = server._thread
        server._thread = _WedgedThread()
        with caplog.at_level("WARNING", logger="repro.net.server"):
            server.stop()
        assert "did not exit" in caplog.text
        # The handle is kept so is_stopped tells the truth instead of
        # pretending the leak did not happen (the old behaviour).
        assert server._thread is not None
        assert not server.is_stopped
        real_thread.join(timeout=5)  # the real thread did stop
        assert not real_thread.is_alive()
