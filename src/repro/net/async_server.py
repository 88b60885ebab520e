"""The TCP front end: one thread per connection, requests answered in
arrival order.

"Async" is the client's side of it: a client may tag requests with
``id`` fields and send many before it reads a reply (a pipeline).  The
server reads, dispatches and answers each connection's requests on
that connection's thread, so no request crosses a thread between its
bytes and its reply.  The thread reads through
:class:`~repro.net.protocol.BufferedSocket`, dispatches every whole
frame one ``recv`` brought, and sends their replies in one ``send``
before it reads again: it never blocks on a read while it holds a
reply, nor on a send while the client has requests for it to read.

Observability: ``server.pipeline_depth`` (histogram: replies held + 1,
at each tagged request) records how deep clients actually pipeline,
and ``server.active_connections`` gauges the open connections.
"""

from __future__ import annotations

import logging
import select
import socket
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from . import protocol
from .server import AdmissionController, RequestDispatcher

logger = logging.getLogger(__name__)

# The client's frame parser under another name: ``bench/trace.py``
# wraps ``protocol.recv_message`` as a client waiting for a reply.
_read_request = protocol.recv_message


class AsyncLittleTableServer:
    """Serves a database (or shard router) over TCP.

    ``start``/``stop``/``close``, ``address`` and the context manager
    are synchronous: one thread accepts, one thread per connection
    serves it, so tests and the CLI drive the server from ordinary
    code.  A stopped server can be started again.  Background
    maintenance is the database's, not the front's:
    ``db.start_maintenance()``.
    """

    def __init__(self, db: Any, host: str = "127.0.0.1", port: int = 0,
                 max_inflight_requests: Optional[int] = None,
                 admission_queue_timeout_s: float = 0.25):
        self.db = db
        # Bound concurrently-executing requests and shed (typed,
        # retryable) what cannot start within its budget.
        self.admission: Optional[AdmissionController] = None
        if max_inflight_requests is not None:
            self.admission = AdmissionController(
                max_inflight_requests,
                queue_timeout_s=admission_queue_timeout_s,
                metrics=db.metrics)
        self.dispatcher = RequestDispatcher(db, admission=self.admission)
        self.metrics = db.metrics
        self._host = host
        self._port = port
        self._address: Optional[tuple] = None
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        # Every open connection's socket and thread.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._m_connections = self.metrics.gauge("server.active_connections")
        self._m_depth = self.metrics.histogram("server.pipeline_depth")
        self._m_pipelined = self.metrics.counter("server.pipelined_requests")
        self._m_sequential = self.metrics.counter(
            "server.sequential_requests")

    # -------------------------------------------------------- lifecycle

    @property
    def address(self) -> tuple:
        """The (host, port) actually bound (after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    def start(self) -> None:
        """Bind, then accept on a dedicated thread."""
        if self._thread is not None:
            return
        family = socket.AF_INET6 if ":" in self._host else socket.AF_INET
        listener = socket.create_server((self._host, self._port),
                                        family=family, backlog=128)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._accept_loop, args=(listener,), daemon=True,
            name="ltdb-accept")
        self._thread.start()

    def stop(self) -> None:
        """Stop serving; drops connections like a crash (§3.1): every
        connection socket is shut down, whatever its thread is doing."""
        with self._lock:
            listener, self._listener = self._listener, None
            for sock in [listener, *self._connections]:
                if sock is not None:
                    try:
                        sock.shutdown(socket.SHUT_RDWR)  # wakes its thread
                    except OSError:
                        pass  # already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
            if self._thread.is_alive():
                logger.warning("server thread did not exit in 10s")
            else:
                self._thread = None
        self._address = None

    @property
    def is_stopped(self) -> bool:
        return self._thread is None or not self._thread.is_alive()

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "AsyncLittleTableServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------ connections

    def _accept_loop(self, listener: socket.socket) -> None:
        """Accept until :meth:`stop` shuts ``listener`` down, then wait
        for the connection threads, so a live accept thread means
        something is still being served."""
        try:
            while True:
                try:
                    sock, _peer = listener.accept()
                except OSError as exc:
                    if self._listener is not listener:
                        return
                    logger.warning("accept failed: %s", exc)
                    time.sleep(0.1)
                    continue
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                thread = threading.Thread(
                    target=self._serve_connection, args=(sock,),
                    daemon=True, name="ltdb-connection")
                with self._lock:
                    if self._listener is not listener:
                        sock.close()
                        return
                    self._connections[sock] = thread
                    self._m_connections.inc()
                thread.start()
        finally:
            listener.close()
            with self._lock:
                threads = list(self._connections.values())
            for thread in threads:
                thread.join()

    def _serve_connection(self, sock: socket.socket) -> None:
        """Read, dispatch and answer one connection's requests in
        arrival order, until the peer closes it or sends bytes that
        are not a frame."""
        replies = _Replies(sock)
        reader = protocol.BufferedSocket(sock, before_wait=replies.send)
        try:
            while True:
                request = _read_request(reader)
                # The read that brought the frame: time behind earlier
                # frames counts against its deadline.
                request["_arrival_monotonic"] = reader.read_at
                if request.get("id") is not None:
                    self._m_pipelined.inc()
                    self._m_depth.observe(len(replies.held) + 1)
                else:
                    self._m_sequential.inc()
                replies.held.append(protocol.reply_frame(
                    self.dispatcher.dispatch(request)))
        except (protocol.ProtocolError, protocol.ConnectionLost):
            # Bad framing, or the peer sends no more: what it asked
            # before is answered (a peer that half-closed reads on).
            replies.flush()
        finally:
            with self._lock:
                del self._connections[sock]
                sock.close()
                self._m_connections.dec()


class _Replies:
    """The replies a connection owes, in request order: ``held`` for the
    frames of the current read, sent together by :meth:`send`.  A
    client that pipelines may read no reply before it has sent its last
    request, so what the socket cannot take at once waits in
    ``unsent`` while the client has more for the server to read."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.held: List[bytes] = []
        self.unsent: Deque[memoryview] = deque()

    def send(self) -> None:
        """Send what is owed; return early only when the socket has
        bytes to read, so the read that follows cannot block."""
        if self.held:
            self.unsent.append(memoryview(b"".join(self.held)))
            self.held.clear()
        while self.unsent:
            try:
                sent = self.sock.send(self.unsent[0], socket.MSG_DONTWAIT)
            except BlockingIOError:
                poller = select.poll()
                poller.register(self.sock, select.POLLIN | select.POLLOUT)
                if any(events & select.POLLIN for _, events in poller.poll()):
                    return
                continue
            self.unsent[0] = self.unsent[0][sent:]
            if not self.unsent[0]:
                self.unsent.popleft()

    def flush(self) -> None:
        """Send what is owed, however long the peer takes to read it."""
        try:
            for chunk in (*self.unsent, *self.held):
                self.sock.sendall(chunk)
        except OSError:
            pass  # the connection is broken
