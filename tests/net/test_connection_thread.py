"""The thread that serves one TCP connection: replies in request order,
one send for the frames of one read, the client reading them back a
refill at a time, a pipeline read on while its
replies wait, a half-closed client answered, bad framing dropping only
its connection, ``stop()`` dropping idle clients, and connections that
come and go at once.
"""

import socket
import sys
import struct
import threading
import time

import pytest

from repro.core import Column, ColumnType, LittleTable, Schema
from repro.net import (
    AsyncLittleTableServer,
    ClientConfig,
    ConnectionLost,
    LittleTableClient,
)
from repro.net import protocol
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY


@pytest.fixture
def server():
    db = LittleTable(clock=VirtualClock(start=BASE))
    with AsyncLittleTableServer(db) as server:
        yield server
    db.close()


def connect_client(server, **config_fields):
    return LittleTableClient(*server.address,
                             config=ClientConfig(**config_fields))


def raw_connection(server):
    """A bare socket past the hello exchange: the server's connection
    thread is then waiting in its read."""
    sock = socket.create_connection(server.address, timeout=5)
    sock.sendall(protocol.encode_frame(
        {"cmd": "hello", "version": protocol.PROTOCOL_VERSION}))
    assert protocol.recv_message(sock)["ok"]
    return sock


def tagged_burst(count):
    """``count`` tagged requests of uneven cost, as one byte string."""
    commands = ("stats", "ping", "list_tables", "ping")
    return b"".join(
        protocol.encode_frame({"cmd": commands[i % 4], "id": i})
        for i in range(count))


def test_tagged_replies_arrive_in_request_order(server):
    with raw_connection(server) as sock:
        sock.sendall(tagged_burst(24))
        replies = [protocol.recv_message(sock) for _ in range(24)]
    assert [reply["id"] for reply in replies] == list(range(24))
    assert all(reply["ok"] for reply in replies)


def test_one_read_of_frames_is_answered_by_one_send(server, monkeypatch):
    sends = []

    def spy(name):
        real = getattr(socket.socket, name)

        def spying(sock, data, *args):
            if threading.current_thread().name == "ltdb-connection":
                sends.append((name, len(data)))
            return real(sock, data, *args)
        return spying

    with raw_connection(server) as sock:
        burst = tagged_burst(16)
        for name in ("send", "sendall"):
            monkeypatch.setattr(socket.socket, name, spy(name))
        sock.sendall(burst)
        replies = [protocol.recv_message(sock) for _ in range(16)]
    assert [reply["id"] for reply in replies] == list(range(16))
    assert len(sends) == 1



def test_a_client_reads_a_pipelines_replies_a_refill_at_a_time(
        server, monkeypatch):
    """The client reads replies through a read-ahead buffer: 64
    pipelined pings take fewer ``recv`` calls than replies, where a
    frame read straight off the socket takes two."""
    client = connect_client(server, pipeline_depth=64)
    recvs = []
    real = socket.socket.recv

    def spying(sock, *args):
        if threading.current_thread().name != "ltdb-connection":
            recvs.append(args)
        return real(sock, *args)

    monkeypatch.setattr(socket.socket, "recv", spying)
    with client.pipeline() as pipe:
        replies = [pipe.ping() for _ in range(64)]
    monkeypatch.undo()
    client.close()
    for reply in replies:
        reply.result()
    assert 1 <= len(recvs) < 64


BIG = "x" * (256 * 1024)


def latest_burst(server, count, padding=""):
    """``count`` tagged ``latest`` requests, as one byte string, each
    answered with a row of 256 KiB."""
    if not server.db.has_table("t"):
        server.db.create_table("t", Schema(
            [Column("k", ColumnType.INT64),
             Column("ts", ColumnType.TIMESTAMP),
             Column("s", ColumnType.STRING)], key=["k", "ts"]))
        server.db.table("t").insert_tuples([(1, BASE, BIG)])
    return b"".join(protocol.encode_frame(
        {"cmd": "latest", "table": "t", "prefixes": [[1]], "id": i,
         "padding": padding}) for i in range(count))


def test_a_long_pipeline_is_read_while_its_replies_wait(server):
    """A client that sends its whole pipeline before it reads a reply:
    megabytes each way, more than the socket buffers hold, so a server
    that stopped reading until its replies left would wait for a peer
    that waits for it."""
    with raw_connection(server) as sock:
        sock.settimeout(10)
        sock.sendall(latest_burst(server, 128, padding=BIG))
        replies = [protocol.recv_message(sock) for _ in range(128)]
    assert [reply["id"] for reply in replies] == list(range(128))
    assert all(reply["rows"][0][2] == BIG for reply in replies)


@pytest.mark.parametrize("count, burst", [
    (32, lambda server, count: tagged_burst(count)),
    (128, latest_burst),
], ids=["small-replies", "replies-beyond-the-socket-buffers"])
def test_a_half_closed_client_gets_every_reply(server, count, burst):
    with raw_connection(server) as sock:
        sock.sendall(burst(server, count))
        sock.shutdown(socket.SHUT_WR)
        replies = []
        while True:
            try:
                replies.append(protocol.recv_message(sock))
            except ConnectionLost:
                break
    assert [reply["id"] for reply in replies] == list(range(count))


@pytest.mark.parametrize("garbage", [
    struct.pack(">I", protocol.MAX_FRAME_BYTES + 1),
    struct.pack(">I", 6) + b"\xff{nope",
], ids=["oversized-length", "undecodable-payload"])
def test_bad_framing_drops_only_its_connection(server, garbage):
    bystander = connect_client(server)
    with raw_connection(server) as sock:
        sock.sendall(protocol.encode_frame({"cmd": "ping", "id": 1})
                     + garbage)
        # What came before the bad frame is answered, then EOF.
        assert protocol.recv_message(sock)["id"] == 1
        with pytest.raises(ConnectionLost):
            protocol.recv_message(sock)
    assert bystander.ping()
    with connect_client(server) as newcomer:
        assert newcomer.ping()
    bystander.close()


def test_stop_drops_idle_clients_promptly():
    db = LittleTable(clock=VirtualClock(start=BASE))
    server = AsyncLittleTableServer(db)
    server.start()
    clients = [connect_client(server, max_retries=0) for _ in range(3)]
    gauges = server.metrics.snapshot()["gauges"]
    assert gauges["server.active_connections"] == 3
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 2.0
    assert server.is_stopped
    assert server.metrics.snapshot()["gauges"][
        "server.active_connections"] == 0
    for client in clients:
        with pytest.raises(ConnectionLost):
            client.ping()
        client.close()
    db.close()


def test_connections_come_and_go_under_thread_switches(server):
    """More client threads than cores connect, ping and close at once,
    under a short switch interval: every ping is answered, and the
    connection registry and gauge end empty."""
    errors = []

    def churn():
        try:
            for _ in range(15):
                with connect_client(server) as client:
                    assert client.ping()
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    def open_connections():
        return (len(server._connections), server.metrics.snapshot()[
            "gauges"]["server.active_connections"])

    deadline = time.monotonic() + 5
    while open_connections() != (0, 0) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert open_connections() == (0, 0)
