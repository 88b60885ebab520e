"""The client's one transport, driven without a socket.

Over the loopback (``tests/net/loopback.py``) every frame is encoded,
cut and parsed as on TCP, so these properties cost no server thread:

* §4.1's recovery rule: under any seeded schedule of lost requests,
  lost acks, late replies, sheds and broken reply bytes, a writer that
  re-checks its rows after a ``ConnectionLost`` and re-inserts only the
  missing ones ends with exactly its rows, on one engine and on a
  2-shard router.  The client never resends an insert by itself; if it
  did, a lost ack would come back as a ``DuplicateKeyError``;
* any bytes at all decode to a message or a ``ProtocolError``, and on
  the client's receive path to messages or a ``ConnectionLost``;
* a pipeline is one send for many requests.
"""

import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import DuplicateKeyError, LittleTable, OverloadedError, Query
from repro.net import ClientConfig, ConnectionLost, ShardRouter, protocol
from repro.net.remote import RemoteTable
from repro.util.clock import MICROS_PER_DAY, VirtualClock

from ..conftest import usage_schema
from .loopback import FAULTS, Faults, loopback_connect

BASE = 10_000 * MICROS_PER_DAY

#: Reads retry at once; a read timeout is set, so a late reply counts.
CONFIG = ClientConfig(request_timeout_s=60.0, retry_backoff_s=0.0)

DEPLOYMENTS = {
    "engine": lambda: LittleTable(clock=VirtualClock(start=BASE)),
    "router": lambda: ShardRouter(shards=2, clock=VirtualClock(start=BASE)),
}

#: What a broken exchange raises at the application: a lost
#: connection, or sheds past the retry budget (never started).
BROKEN = (ConnectionLost, OverloadedError)


def answered(operation, attempts=200):
    """``operation()``, tried until an exchange carries it through."""
    for _ in range(attempts):
        try:
            return operation()
        except BROKEN:
            pass
    raise AssertionError(f"no answer in {attempts} attempts")


def insert_as_in_section_4_1(table, batch):
    """Insert ``batch``; when the connection breaks, read back what
    arrived and re-insert only the rows that did not."""
    pending = batch
    while pending:
        try:
            table.insert_tuples(pending)
            return
        except BROKEN:
            present = set(answered(lambda: list(table.scan(Query()))))
            pending = [row for row in batch if row not in present]


def batches_of(sizes):
    """Row batches whose first key column spreads them over shards."""
    rows, batches = 0, []
    for number, size in enumerate(sizes):
        batch = []
        for _ in range(size):
            rows += 1
            batch.append((rows % 3, rows, BASE + number, rows, rows / 4))
        batches.append(batch)
    return batches


def write(deployment, seed, sizes, kinds=FAULTS, rate=0.3):
    """Every batch written the §4.1 way through a faulty loopback;
    returns what the engine holds, what was meant, and the faults."""
    db = DEPLOYMENTS[deployment]()
    try:
        db.create_table("usage", usage_schema())
        remote = loopback_connect(db, config=CONFIG,
                                  faults=Faults(seed, kinds, rate))
        table = answered(lambda: remote.table("usage"))
        batches = batches_of(sizes)
        for batch in batches:
            insert_as_in_section_4_1(table, batch)
        held = sorted(db.table("usage").scan(Query()))
        injected = [fault for transport in remote.client.transports
                    for fault in transport.injected]
        return held, sorted(row for batch in batches for row in batch), \
            injected
    finally:
        db.close()


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1),
       sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6))
def test_a_writer_that_rechecks_ends_with_exactly_its_rows(
        deployment, seed, sizes):
    held, meant, _injected = write(deployment, seed, sizes)
    assert held == meant


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_every_fault_is_drawn_and_recovered(deployment):
    held, meant, injected = write(deployment, 7, [4] * 30)
    assert held == meant
    assert set(injected) == set(FAULTS)


def test_a_client_that_resent_inserts_would_double_them(monkeypatch):
    """What the property guards against: an insert the client resent
    by itself after a lost ack meets the row it already wrote."""
    def resending(self, rows):
        client = self._client
        return client._call(client._tuple_insert_request(self.name, rows),
                            idempotent=True)["inserted"]

    monkeypatch.setattr(RemoteTable, "insert_tuples", resending)
    with pytest.raises(DuplicateKeyError):
        write("engine", 0, [3] * 8, kinds=("lose_ack",), rate=0.5)


# ------------------------------------------------------------ decoding

#: Frames whose nesting is deeper than the JSON decoder's stack.
TOO_DEEP = [b"[" * 100_000, b'{"a":' * 100_000]


def framed(payload):
    return struct.pack(">I", len(payload)) + payload


PAYLOADS = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda length, rest: b"\x00" + struct.pack(">I", length)
              + rest, st.integers(0, 40), st.binary(max_size=48)),
    st.builds(lambda text: text.encode("utf-8"),
              st.text(alphabet='{}[]":,0123456789 aoktrue', max_size=48)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=PAYLOADS)
@example(payload=TOO_DEEP[0])
@example(payload=TOO_DEEP[1])
def test_a_payload_is_a_message_or_a_protocol_error(payload):
    try:
        message = protocol.decode_payload(payload)
    except protocol.ProtocolError:
        return
    assert isinstance(message, dict)


@pytest.fixture(scope="module")
def engine():
    db = LittleTable(clock=VirtualClock(start=BASE))
    yield db
    db.close()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=st.one_of(st.binary(max_size=64), PAYLOADS.map(framed)))
@example(stream=framed(TOO_DEEP[0]))
@example(stream=framed(TOO_DEEP[1]))
def test_a_reply_stream_is_messages_or_a_lost_connection(engine, stream):
    client = loopback_connect(engine).client
    client._transport.replies.data += stream
    try:
        reply, = client._exchange(b"", 1)
    except ConnectionLost:
        assert not client.connected
        return
    assert isinstance(reply, dict)


# ---------------------------------------------------------- pipelining

def test_a_pipeline_is_one_send_and_a_receive_a_reply(engine):
    client = loopback_connect(engine).client
    transport = client._transport
    sends, receives = transport.sends, transport.receives
    with client.pipeline(depth=128) as batch:
        replies = [batch.ping() for _ in range(128)]
    assert all(reply.result() for reply in replies)
    assert (transport.sends - sends, transport.receives - receives) \
        == (1, 128)

    sends, receives = transport.sends, transport.receives
    assert all(client.ping() for _ in range(128))
    assert (transport.sends - sends, transport.receives - receives) \
        == (128, 128)
