"""The TCP front end: many pipelined requests per connection.

A single event loop owns every connection: a client may tag requests
with ``id`` fields and keep many in flight, and responses stream back
as each command finishes (possibly out of order).  Engine calls still
block - tables lock themselves, the simulated disk seeks - so dispatch
runs on a bounded thread pool, giving inter-request parallelism across
connections *and* within one pipelined connection.

:class:`~repro.net.server.RequestDispatcher` handles the commands,
over a single :class:`~repro.core.database.LittleTable` or a
:class:`~repro.net.shard.ShardRouter` alike; requests without an id
are served by the same connection loop, one at a time in arrival
order.

Observability: ``server.pipeline_depth`` (histogram, sampled at each
enqueue) records how deep clients actually pipeline, and
``server.active_connections`` gauges the open connections.
"""

from __future__ import annotations

import asyncio
import logging
import os
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from . import protocol
from .server import AdmissionController, RequestDispatcher

logger = logging.getLogger(__name__)

_LENGTH = struct.Struct(">I")


class AsyncLittleTableServer:
    """Serves a database (or shard router) over asyncio TCP.

    ``start``/``stop``/``close``, ``address`` and the context manager
    are synchronous: the event loop runs on a dedicated thread, so
    tests and the CLI drive the server from ordinary code.  A stopped
    server can be started again.  Background maintenance is the
    database's, not the front's: ``db.start_maintenance()``.
    """

    def __init__(self, db: Any, host: str = "127.0.0.1", port: int = 0,
                 max_workers: Optional[int] = None,
                 max_inflight_requests: Optional[int] = None,
                 admission_queue_timeout_s: float = 0.25):
        self.db = db
        # Admission control: bound concurrently-executing requests and
        # shed (typed, retryable) what cannot start within its budget.
        # Queue time on the dispatch executor counts against each
        # request's propagated deadline via the arrival stamp below.
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
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        if max_workers is None:
            max_workers = min(32, (os.cpu_count() or 4) * 4)
        self._max_workers = max_workers
        self._executor: Optional[ThreadPoolExecutor] = None
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
        """Bind and serve on a dedicated event-loop thread."""
        if self._thread is not None:
            return
        self._ready.clear()
        self._startup_error = None
        # Built here, not in __init__: stop() shuts the pool down, and
        # a restarted server needs a live one.
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_workers,
            thread_name_prefix="ltdb-dispatch")
        self._thread = threading.Thread(
            target=self._thread_main, daemon=True,
            name="ltdb-async-server")
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5)
            self._thread = None
            raise error
        if self._address is None:
            raise RuntimeError("async server failed to start in 10s")

    def stop(self) -> None:
        """Stop serving; drops connections like a crash (§3.1)."""
        loop, self._loop = self._loop, None
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
            if self._thread.is_alive():
                logger.warning("async server thread did not exit in 10s")
            else:
                self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
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

    # -------------------------------------------------------- event loop

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # startup failures surface in start()
            self._startup_error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._port)
        self._address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            self._loop = None

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._m_connections.inc()
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown cancelled us mid-read: the connection
            # drops like a crash (§3.1).  Ending the task cleanly
            # instead of cancelled keeps asyncio.streams from logging
            # a spurious callback error during loop teardown.
            pass
        finally:
            self._m_connections.dec()
            try:
                writer.close()
            except Exception:
                pass

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        in_flight: set = set()
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    header = await reader.readexactly(_LENGTH.size)
                    (length,) = _LENGTH.unpack(header)
                    if length > protocol.MAX_FRAME_BYTES:
                        return  # hopeless framing; drop the connection
                    payload = await reader.readexactly(length)
                    request = protocol.decode_payload(payload)
                except (asyncio.IncompleteReadError, ConnectionError,
                        protocol.ProtocolError):
                    return
                # Stamp the frame's arrival so time spent queued on the
                # dispatch executor counts against the request's
                # propagated deadline (the dispatcher pops this key).
                request["_arrival_monotonic"] = time.monotonic()
                if request.get("id") is not None:
                    # Tagged: run concurrently, answer when done.
                    self._m_pipelined.inc()
                    self._m_depth.observe(len(in_flight) + 1)
                    task = asyncio.ensure_future(self._dispatch_and_reply(
                        request, writer, write_lock))
                    in_flight.add(task)
                    task.add_done_callback(in_flight.discard)
                else:
                    # Untagged: strict request/response order.
                    self._m_sequential.inc()
                    if not await self._dispatch_and_reply(
                            request, writer, write_lock):
                        return
        finally:
            # Let in-flight work finish so pipelined responses are not
            # silently dropped by our own teardown (the peer may have
            # half-closed after sending a burst).
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)

    async def _dispatch_and_reply(self, request: Dict[str, Any],
                                  writer: asyncio.StreamWriter,
                                  write_lock: asyncio.Lock) -> bool:
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(
                self._executor, self.dispatcher.dispatch, request)
        except RuntimeError:
            # Executor shut down mid-request (server stopping).
            return False
        frame = protocol.reply_frame(response)
        async with write_lock:
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                return False
        return True
