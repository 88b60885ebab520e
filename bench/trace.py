"""External span recorder: boundary spans without touching ``src/``.

``Recorder.install`` replaces public per-batch and per-block functions
of the program with timing wrappers (never per-row ones) and
``uninstall`` puts the originals back.  Each thread keeps a stack of
open spans, so a span knows the span that caused it; work handed to a
thread pool inherits the submitter's open span.  A span around a
function that returns an iterator counts only the time spent inside
``__next__`` as busy.  Spans stay in memory until the run ends.

A request crosses threads and processes, where no stack can follow
it.  Sites on such a hop carry link keys instead: the producer of a
value (a frame's bytes, a request dict) tags its span with a key
derived from the value, the consumer tags its span with the key of
what it received, and ``SpanSet`` joins the two after the run.  All
timestamps are ``time.perf_counter()``, which on Linux reads
CLOCK_MONOTONIC and therefore compares across processes of one host.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter

# Span names used by more than one function below.
CLIENT_ENCODE = "net.protocol.encode_frame"
CLIENT_RECV = "net.protocol.recv_message"
SERVER_RESIDENCE = "net.server.residence"
# Span ids of a child server start here, so that they never collide
# with the load generator's and tell which process recorded a span.
SERVER_SPAN_BASE = 1 << 40


@dataclass
class Site:
    """One function to wrap: ``getattr(owner, attr)`` becomes a span."""

    owner: Any
    attr: str
    name: str
    iterator: bool = False
    link_in: Optional[Callable[[tuple], Any]] = None
    link_out: Optional[Callable[[Any], Any]] = None


class Recorder:
    """Records spans for the functions it is installed on."""

    def __init__(self, id_base: int = 0):
        self.records: List[tuple] = []
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install

    def install(self, sites: Iterable[Site]) -> None:
        for site in sites:
            original = getattr(site.owner, site.attr)
            traced = (self._wrap_iterator(original, site.name)
                      if site.iterator else
                      self._wrap(original, site.name, site.link_in,
                                 site.link_out))
            self._replace(site.owner, site.attr, original, traced)
            if isinstance(site.owner, type(sys)):
                # ``from module import name`` copies: rebind those too.
                for module in list(sys.modules.values()):
                    if (module is not site.owner
                            and getattr(module, "__name__", "")
                            .startswith("repro.")
                            and getattr(module, site.attr, None) is original):
                        self._replace(module, site.attr, original, traced)
        self._replace(ThreadPoolExecutor, "submit", ThreadPoolExecutor.submit,
                      self._propagating_submit(ThreadPoolExecutor.submit))

    def _replace(self, owner: Any, attr: str, original: Any,
                 traced: Any) -> None:
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- wrappers

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _wrap(self, fn: Callable, name: str,
              link_in: Optional[Callable], link_out: Optional[Callable]):
        records, ids, stack_of = self.records, self._ids, self._stack
        ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            lin = link_in(args) if link_in is not None and not parent \
                else None
            stack.append(sid)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = _clock()
                stack.pop()
                records.append((sid, parent, name, t0, t1, t1 - t0,
                                ident(), lin, None, False))
                raise
            t1 = _clock()
            stack.pop()
            lout = link_out(result) if link_out is not None else None
            records.append((sid, parent, name, t0, t1, t1 - t0, ident(),
                            lin, lout, False))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_iterator(self, fn: Callable, name: str):
        records, ids, stack_of = self.records, self._ids, self._stack
        ident = threading.get_ident

        def iterate(iterator, sid, parent, stack):
            push, pop, step = stack.append, stack.pop, iterator.__next__
            busy = 0.0
            first = last = _clock()
            try:
                while True:
                    push(sid)
                    t0 = _clock()
                    try:
                        item = step()
                    finally:
                        last = _clock()
                        busy += last - t0
                        pop()
                    yield item
            except StopIteration:
                pass
            finally:
                records.append((sid, parent, name, first, last, busy,
                                ident(), None, None, True))

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            return iterate(iter(fn(*args, **kwargs)), sid, parent, stack)

        traced.__wrapped__ = fn
        return traced

    def _propagating_submit(self, submit: Callable):
        stack_of = self._stack

        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = stack_of()
            if not stack:
                return submit(pool, fn, *args, **kwargs)
            parent = stack[-1]

            def run(*a, **k):
                inner = stack_of()
                inner.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    inner.pop()

            return submit(pool, run, *args, **kwargs)

        return traced_submit


# ----------------------------------------------------------------- link keys

def frame_key(frame: bytes) -> Tuple[str, int, int]:
    """Key of an encoded frame, computed from its payload bytes."""
    return ("f", len(frame) - 4, zlib.crc32(memoryview(frame)[4:]))


def payload_key(args: tuple) -> Tuple[str, int, int]:
    payload = args[-1]
    return ("f", len(payload), zlib.crc32(payload))


def object_key(value: Any) -> Tuple[str, int, int]:
    """Key of a live object handed between threads of one process."""
    return ("o", os.getpid(), id(value))


def last_arg_key(args: tuple) -> Tuple[str, int, int]:
    return object_key(args[-1])


def program_sites() -> List[Site]:
    """The layer boundaries of the program, by public function."""
    from repro.core.table import Table
    from repro.core.tablet import TabletReader, TabletWriter
    from repro.core.wal import WriteAheadLog
    from repro.dashboard import views
    from repro.disk.vfs import SimulatedDisk
    from repro.net import protocol
    from repro.net.remote import RemoteTable
    from repro.net.server import RequestDispatcher
    from repro.net.shard import ShardedTable
    from repro.sqlapi.executor import SqlSession

    return [
        Site(views, "device_status", "dashboard.device_status"),
        Site(views, "usage_graph", "dashboard.usage_graph"),
        Site(SqlSession, "execute", "sqlapi.execute"),
        Site(RemoteTable, "insert_tuples", "net.client.insert"),
        Site(RemoteTable, "latest", "net.client.latest"),
        Site(RemoteTable, "query", "net.client.query"),
        Site(RemoteTable, "scan", "net.client.scan", iterator=True),
        Site(protocol, "encode_frame", CLIENT_ENCODE,
             link_in=last_arg_key, link_out=frame_key),
        Site(protocol, "decode_payload", "net.protocol.decode_payload",
             link_in=payload_key, link_out=object_key),
        Site(protocol, "recv_message", CLIENT_RECV),
        Site(RequestDispatcher, "dispatch", "net.server.dispatch",
             link_in=last_arg_key, link_out=object_key),
        Site(ShardedTable, "insert", "net.shard.insert"),
        Site(ShardedTable, "insert_tuples", "net.shard.insert"),
        Site(ShardedTable, "query", "net.shard.query"),
        Site(ShardedTable, "latest", "net.shard.latest"),
        Site(Table, "insert", "core.table.insert"),
        Site(Table, "insert_tuples", "core.table.insert"),
        Site(Table, "scan", "core.table.scan", iterator=True),
        Site(Table, "query", "core.table.query"),
        Site(Table, "latest", "core.table.latest"),
        Site(Table, "aggregate_partials", "core.vector.aggregate"),
        Site(Table, "flush_memtable", "core.maintenance.flush"),
        Site(Table, "maybe_merge", "core.maintenance.merge"),
        Site(Table, "maintenance", "core.maintenance.tick"),
        Site(WriteAheadLog, "log_batch_block", "core.wal.append"),
        Site(WriteAheadLog, "commit", "core.wal.commit"),
        Site(TabletReader, "read_block_payload", "core.tablet.read"),
        Site(TabletReader, "decode_payload", "core.tablet.read"),
        Site(TabletReader, "scan_block_columns", "core.tablet.read"),
        Site(TabletWriter, "write", "core.tablet.write"),
        Site(SimulatedDisk, "write_file", "disk.write"),
        Site(SimulatedDisk, "append", "disk.write"),
        Site(SimulatedDisk, "read", "disk.read"),
    ]


# ------------------------------------------------------------------ analysis

class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "busy", "tid",
                 "lin", "lout", "children", "iterator")

    def __init__(self, record: Iterable[Any]):
        (self.sid, self.parent, self.name, self.t0, self.t1, self.busy,
         self.tid, lin, lout, self.iterator) = record
        # JSON turns key tuples into lists
        self.lin = tuple(lin) if lin is not None else None
        self.lout = tuple(lout) if lout is not None else None
        self.children: List["Span"] = []


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class SpanSet:
    """The spans of one run, joined into request trees."""

    def __init__(self, records: Iterable[Iterable[Any]]):
        self.spans = sorted((Span(r) for r in records), key=lambda s: s.t0)
        self.by_id: Dict[int, Span] = {s.sid: s for s in self.spans}
        self.orphans = 0
        self.linked = 0
        self._join()
        for span in self.spans:
            parent = self.by_id.get(span.parent)
            if parent is not None:
                parent.children.append(span)

    def _join(self) -> None:
        """Give every span that arrived over a hop its causal parent.

        A server-side request (decode, dispatch, encode) happens while
        the client sits in ``recv_message``, so its spans are grouped
        under a synthetic residence span whose parent is that wait.
        """
        recv_of: Dict[int, Span] = {}       # client encode sid -> its recv
        open_encode: Dict[int, Span] = {}   # tid -> last encode with a parent
        for span in self.spans:
            if span.name == CLIENT_ENCODE and span.parent:
                open_encode[span.tid] = span
            elif span.name == CLIENT_RECV and span.tid in open_encode:
                recv_of[open_encode.pop(span.tid).sid] = span
        producers: Dict[tuple, Span] = {}
        residence: Dict[int, Span] = {}     # member sid -> residence span
        next_id = itertools.count(max(self.by_id, default=0) + 1)
        for span in list(self.spans):
            if span.lin is not None and not span.parent:
                source = producers.get(span.lin)
                if source is None:
                    self.orphans += 1
                elif source.sid in residence:
                    home = residence[source.sid]
                    span.parent = home.sid
                    home.t1 = max(home.t1, span.t1)
                    home.busy = home.t1 - home.t0
                    residence[span.sid] = home
                    self.linked += 1
                elif source.sid in recv_of:
                    home = Span((next(next_id), recv_of[source.sid].sid,
                                 SERVER_RESIDENCE, span.t0, span.t1,
                                 span.t1 - span.t0, span.tid, None, None,
                                 False))
                    self.by_id[home.sid] = home
                    self.spans.append(home)
                    span.parent = home.sid
                    residence[span.sid] = home
                    self.linked += 1
                else:
                    self.orphans += 1
            if span.lout is not None:
                producers[span.lout] = span

    # A span's self time is its busy time minus the part its children
    # cover.  Children of one span may run in parallel on pool threads;
    # the parent only waited for their union.

    @staticmethod
    def _covered(span: Span) -> Tuple[float, float]:
        """(time covered by children, sum of child interval lengths)."""
        intervals = [(max(c.t0, span.t0), min(c.t1, span.t1))
                     for c in span.children if not c.iterator]
        intervals = [(lo, hi) for lo, hi in intervals if hi > lo]
        lazy = sum(c.busy for c in span.children if c.iterator)
        return (_union(intervals) + lazy,
                sum(hi - lo for lo, hi in intervals) + lazy)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, over every span recorded."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered, _ = self._covered(span)
            totals[span.name] = totals.get(span.name, 0.0) + max(
                span.busy - covered, 0.0)
        return totals

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def budget(self, roots: Iterable[Span]) -> Tuple[Dict[str, float], float]:
        """Blocking-path time per span name under ``roots``, and their
        wall time.  A child counts for the part of it that lies inside
        its parent (a server starts on a request while the client is
        still returning from ``sendall``; that part blocks nobody), and
        parallel children share the time their parent waited for them
        in proportion to their durations, so the rows add up to the
        wall time."""
        stages: Dict[str, float] = {}
        wall = 0.0
        for root in roots:
            wall += root.busy
            pending = [(root, 1.0)]
            while pending:
                span, weight = pending.pop()
                covered, total = self._covered(span)
                stages[span.name] = stages.get(span.name, 0.0) + weight * max(
                    span.busy - covered, 0.0)
                share = weight * (covered / total if total > 0 else 1.0)
                for child in span.children:
                    inside = (min(child.t1, span.t1) - max(child.t0, span.t0)
                              if not child.iterator else 1.0)
                    length = child.t1 - child.t0 if not child.iterator else 1.0
                    if inside > 0 and length > 0:
                        pending.append((child, share * inside / length))
        return stages, wall

    def intervals(self, names: Iterable[str]) -> List[Tuple[float, float]]:
        wanted = set(names)
        return sorted((s.t0, s.t1) for s in self.spans if s.name in wanted)


def overlap_share(ops: List[Tuple[float, float]],
                  busy: List[Tuple[float, float]]) -> float:
    """Share of ``ops`` intervals that overlap any ``busy`` interval."""
    if not ops:
        return 0.0
    hits = sum(1 for start, end in ops
               if any(lo < end and hi > start for lo, hi in busy))
    return hits / len(ops)
