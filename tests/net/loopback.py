"""The wire without a socket: transports a test drives deterministically.

:class:`LoopbackTransport` stands where the client's
:class:`~repro.net.client.TcpTransport` stands, and every byte path but
the socket runs: each request frame is cut from the sent bytes and
parsed by ``protocol.recv_message``, stamped with its arrival as the
TCP front stamps it (the time the bytes were read), handed to
``RequestDispatcher.dispatch`` on the caller's thread - as the TCP
front dispatches on the thread that read the frame - and answered with
the server's own ``protocol.reply_frame``; the client reads the reply
bytes back through ``protocol.recv_message`` as it reads a socket.

:class:`FaultyTransport` wraps one and breaks exchanges under a seed:
the request is lost before it is sent, or the server applies it and its
ack is lost, or the reply is late past the read timeout, or the server
sheds the request, or the reply bytes arrive truncated or corrupt.

:func:`loopback_connect` is the one spelling of a connection over
them: a :class:`~repro.net.remote.RemoteDatabase` whose client dials a
fresh loopback (and, with ``faults``, a fresh faulty one) on every
connect, as the TCP client dials a fresh socket.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.net import LittleTableClient, RemoteDatabase, protocol
from repro.net.client import ClientConfig
from repro.net.server import RequestDispatcher


class ByteStream:
    """Bytes waiting to be read, behind the one call
    ``protocol.recv_message`` makes of a socket: ``recv(n)`` hands out
    at most ``n`` of them, and nothing once they run out (the peer
    closed)."""

    def __init__(self, data: bytes = b""):
        self.data = bytearray(data)

    def recv(self, size: int) -> bytes:
        chunk = bytes(self.data[:size])
        del self.data[:size]
        return chunk


class LoopbackTransport:
    """A server in the caller's thread, spoken to in frames.

    ``sends`` and ``receives`` count the transport calls the client
    made, which is what a pipeline saves."""

    def __init__(self, dispatcher: RequestDispatcher):
        self.dispatcher = dispatcher
        self.replies = ByteStream()
        self.timeout: Optional[float] = None
        self.sends = 0
        self.receives = 0

    def send(self, data: bytes) -> None:
        self.sends += 1
        requests = ByteStream(data)
        while requests.data:
            try:
                request = protocol.recv_message(requests)
            except (protocol.ProtocolError, protocol.ConnectionLost):
                return  # framing is gone: the server drops the connection
            request["_arrival_monotonic"] = time.monotonic()
            self.replies.data += protocol.reply_frame(
                self.dispatcher.dispatch(request))

    def recv(self) -> Dict[str, Any]:
        self.receives += 1
        return protocol.recv_message(self.replies)

    def settimeout(self, timeout: Optional[float]) -> None:
        self.timeout = timeout

    def close(self) -> None:
        """Nothing to release: the next dial makes a new loopback."""


#: Every way :class:`FaultyTransport` can break an exchange.
FAULTS = ("drop_request", "lose_ack", "delay", "shed", "truncate",
          "corrupt")


class FaultyTransport:
    """Breaks a seeded share of the exchanges through ``inner``.

    Each send draws, with probability ``rate``, one of ``kinds``:

    * ``drop_request`` - the connection resets before the request
      leaves: nothing was applied;
    * ``lose_ack`` - the server applies the request, then the
      connection resets before the reply arrives (§4.1's case);
    * ``delay`` - the server applies the request and the reply comes
      later than the client's read timeout (no effect when reads do not
      time out);
    * ``shed`` - the server answers ``OverloadedError`` without
      starting the request, as admission control does;
    * ``truncate`` - the server applies the request and the reply bytes
      stop part way, then the connection closes;
    * ``corrupt`` - the server applies the request and a byte of the
      first reply's framing or JSON arrives as ``0xff``.

    The ``hello`` that opens a connection passes untouched, so a dial
    always succeeds.  ``injected`` lists the faults drawn, in order.
    """

    def __init__(self, inner: LoopbackTransport, seed: Any,
                 kinds: Sequence[str] = FAULTS, rate: float = 0.25):
        unknown = set(kinds) - set(FAULTS)
        if unknown:
            raise ValueError(f"unknown faults {sorted(unknown)}")
        self.inner = inner
        self.kinds = tuple(kinds)
        self.rate = rate
        self.injected: List[str] = []
        self._rng = random.Random(seed)
        self._failure: Optional[OSError] = None

    def send(self, data: bytes) -> None:
        requests = _requests_in(data)
        if (requests[0].get("cmd") == "hello"
                or self._rng.random() >= self.rate):
            self.inner.send(data)
            return
        fault = self._rng.choice(self.kinds)
        self.injected.append(fault)
        if fault == "drop_request":
            raise ConnectionResetError("reset before the request was sent")
        if fault == "shed":
            for request in requests:
                shed = protocol.error_response(
                    "OverloadedError", "shed by the faulty transport",
                    retry_after=0.0)
                if request.get("id") is not None:
                    shed["id"] = request["id"]
                self.inner.replies.data += protocol.encode_frame(shed)
            return
        self.inner.send(data)
        replies = self.inner.replies.data
        if fault == "lose_ack":
            del replies[:]
            self._failure = ConnectionResetError(
                "reset before the reply arrived")
        elif fault == "delay" and self.inner.timeout is not None:
            del replies[:]
            self._failure = socket.timeout("timed out")
        elif fault == "truncate":
            del replies[self._rng.randrange(len(replies)):]
        elif fault == "corrupt":
            (length,) = protocol._LENGTH.unpack_from(replies)
            if replies[4:5] == protocol._BLOCK_MARK:
                length = protocol._BLOCK_HEAD.size   # the attachment head
            replies[4 + self._rng.randrange(length)] = 0xFF

    def recv(self) -> Dict[str, Any]:
        if self._failure is not None:
            raise self._failure
        return self.inner.recv()

    def settimeout(self, timeout: Optional[float]) -> None:
        self.inner.settimeout(timeout)

    def close(self) -> None:
        self.inner.close()


def _requests_in(data: bytes) -> List[Dict[str, Any]]:
    frames = ByteStream(data)
    requests = []
    while frames.data:
        requests.append(protocol.recv_message(frames))
    return requests


@dataclass
class Faults:
    """A fault schedule for :func:`loopback_connect`: every connection
    the client dials gets a :class:`FaultyTransport` seeded from
    ``seed`` and its dial number."""

    seed: int
    kinds: Sequence[str] = FAULTS
    rate: float = 0.25


class LoopbackClient(LittleTableClient):
    """A :class:`~repro.net.client.LittleTableClient` that dials the
    loopback instead of a socket.  ``transports`` lists every transport
    it dialed, the live one last."""

    def __init__(self, dispatcher: RequestDispatcher,
                 config: Optional[ClientConfig] = None,
                 faults: Optional[Faults] = None):
        self.dispatcher = dispatcher
        self.faults = faults
        self.transports: List[Any] = []
        super().__init__("loopback", 0, config=config)

    def _dial(self):
        transport: Any = LoopbackTransport(self.dispatcher)
        if self.faults is not None:
            transport = FaultyTransport(
                transport, f"{self.faults.seed}/{len(self.transports)}",
                self.faults.kinds, self.faults.rate)
        self.transports.append(transport)
        return transport


def loopback_connect(db: Any, config: Optional[ClientConfig] = None,
                     faults: Optional[Faults] = None) -> RemoteDatabase:
    """``repro.connect`` without a server: a
    :class:`~repro.net.remote.RemoteDatabase` over an engine or a
    :class:`~repro.net.shard.ShardRouter`, every request a frame through
    ``db``'s command dispatcher on this thread."""
    return RemoteDatabase(LoopbackClient(RequestDispatcher(db), config,
                                         faults))
