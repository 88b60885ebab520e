"""Warm-standby replication: a read-only follower of a primary.

``ltdb serve --follow host:port`` runs one of these next to a normal
server: the :class:`Follower` polls the primary's ``repl_manifest``
(every table's descriptor, and how far a ``wal`` table's log reaches),
copies each table's version as a snapshot or the warm spare does
(:func:`~repro.core.snapshot.copy_version`, over ``repl_fetch_tablet``),
and tails each ``wal`` table's log - applying streamed records into
its own memtables through the same path crash replay uses.  The
local engine stays in read-only mode the whole time, so the standby
serves ``query``/``latest``/``stats`` but rejects writes; replication
lag is reported through ``wal_status()`` and ``health()``.

Convergence per table, each poll:

1. If the primary's descriptor changed, the follower *resyncs*: it
   copies the version (a tablet that vanished since the manifest
   fails the poll; the next one retries), opens it as a fresh table,
   WAL-less while it follows, queues the files the version drops
   behind the replaced table's in-flight reads, and rewinds its
   applied LSN to the version's ``wal_low_water - 1``: a primary
   recycles records only below a low water its descriptor shows.
2. It then tails the log: fetch framed records past the applied LSN,
   apply, advance.  A streamed row a copied tablet already holds drops
   through the primary-key uniqueness check.

A table the manifest no longer lists is dropped.  Divergence - the
primary's durable LSN moving *backwards* (it was restored or replaced)
- raises :class:`~repro.core.errors.ReplicaDivergedError` and halts
the sync loop; re-seed the standby from a fresh snapshot.

``promote()`` turns the standby into a primary: the sync loop stops,
read-only mode clears, every ``wal`` table is re-opened with the
durability policy carried over from the old primary (streamed rows
are flushed first, so the fresh WAL's LSN space starts clean), and
the local engine - whose on-disk state is always a valid LittleTable
directory (``ltdb fsck`` passes) - starts taking writes with the same
protection the old primary acknowledged them under.
"""

from __future__ import annotations

import base64
import functools
import threading
import time
from typing import Any, Dict, Optional

from ..core.descriptor import TableDescriptor
from ..core.errors import LittleTableError, ReplicaDivergedError
from ..core.snapshot import copy_version
from ..core.wal import iter_records
from .client import LittleTableClient
from .protocol import ConnectionLost


class Follower:
    """Streams one primary's tables, over ``client``, into ``db``."""

    def __init__(self, db, client: LittleTableClient,
                 poll_interval_s: float = 0.2):
        self.db = db
        self.address = "{}:{}".format(*client._address)
        self.poll_interval_s = poll_interval_s
        self._client = client
        self._applied: Dict[str, int] = {}
        self._primary_durable: Dict[str, int] = {}
        self._last_sync: Optional[float] = None
        self.error: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._m_records = db.metrics.counter("repl.records_applied")
        self._m_tablets = db.metrics.counter("repl.tablets_fetched")
        self._m_resyncs = db.metrics.counter("repl.resyncs")
        self._m_polls = db.metrics.counter("repl.polls")
        # The standby is read-only for its whole lifetime; the server
        # dispatcher rejects write commands off this flag.
        db.enter_read_only(f"following {self.address}")
        db.replication = self

    # ----------------------------------------------------------- control

    def start(self) -> "Follower":
        """Run the sync loop in a background thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="ltdb-follower", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop polling; the local engine stays read-only."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._client.close()

    def promote(self):
        """Turn this standby into a primary: stop following, exit
        read-only, re-arm durability, start taking writes.  Returns
        the local engine."""
        self.stop()
        self.db.exit_read_only()
        self.db.replication = None
        self._rearm_durability()
        return self.db

    def _rearm_durability(self) -> None:
        """Re-open followed tables with their persisted durability.

        While following, tables run WAL-less (replication is this
        copy's durability), but a promoted primary must log
        acknowledged writes again - otherwise failover silently
        downgrades every ``wal`` table to the ``none`` tier.
        Streamed-but-unflushed rows are sealed into tablets first so
        the fresh WAL starts with a clean LSN space (streamed
        memtables carry the *old primary's* LSNs, which mean nothing
        to the new log)."""
        db = self.db
        for name in db.table_names():
            table = db.table(name)
            if not db.effective_durability(table.descriptor).wal_enabled:
                continue
            table.flush_all()
            # The reopened log numbers records from the version's
            # low water on, past any segments left on this side.
            db.open_table(TableDescriptor.load(db.disk, name))

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.sync_once()
            except ReplicaDivergedError as exc:
                self.error = str(exc)
                return  # halted: operator must re-seed
            except (ConnectionLost, OSError, LittleTableError) as exc:
                # Primary down or transient: keep serving reads at the
                # last applied state and retry next poll.
                self.error = f"{type(exc).__name__}: {exc}"
            else:
                self.error = None
            self._stop.wait(self.poll_interval_s)

    # -------------------------------------------------------------- sync

    def sync_once(self) -> Dict[str, int]:
        """One convergence pass; returns records applied per table."""
        manifest = self._client._call(
            {"cmd": "repl_manifest"}, idempotent=True)["tables"]
        self._m_polls.inc()
        for name in set(self.db.table_names()) - set(manifest):
            # Dropped on the primary.  Read-only mode refuses DDL, so
            # not through ``drop_table``.
            self._applied.pop(name, None)
            self._primary_durable.pop(name, None)
            self.db._tables.pop(name).drop()
        applied_now = {name: self._sync_table(name, manifest[name])
                       for name in sorted(manifest)}
        self._last_sync = time.monotonic()
        return applied_now

    def _sync_table(self, name: str, info: Dict[str, Any]) -> int:
        # No durable LSN: a ``none`` table, which has tablets only.
        durable = info.get("durable_lsn")
        applied = self._applied.get(name, 0)
        if durable is not None and durable < applied:
            raise ReplicaDivergedError(
                f"{name}: primary durable LSN {durable} < applied "
                f"{applied}; the primary was restored or replaced - "
                f"re-seed this standby from a fresh snapshot")
        local = self.db._tables.get(name)
        if local is None or local.descriptor.to_json() != info["descriptor"]:
            version = TableDescriptor.from_json(info["descriptor"])
            self._resync_table(version, local)
            # The fresh table holds the tablets only: the records from
            # its low water on are fetched again.
            applied = version.wal_low_water - 1
        records_applied = 0
        table = self.db._tables[name]
        while durable is not None and applied < durable:
            response = self._client._call(
                {"cmd": "repl_fetch_wal", "table": name,
                 "after": applied}, idempotent=True)
            frames = base64.b64decode(response["frames"])
            if not frames:
                break
            issues: list = []
            records = list(iter_records(frames, f"repl:{name}", issues))
            last = int(response["last_lsn"])
            if not records or last <= applied:
                break
            if records[0].lsn > applied + 1:
                # A flush raced this poll and recycled the records in
                # between: the next manifest's version resyncs first.
                break
            table.apply_wal_records(records)
            records_applied += len(records)
            applied = last
        self._m_records.inc(records_applied)
        self._applied[name] = applied
        if durable is not None:
            self._primary_durable[name] = durable
        return records_applied

    def _resync_table(self, version: TableDescriptor, local) -> None:
        """Install the primary's version of a table in place of
        ``local`` (None when the standby has no such table yet)."""
        self._m_resyncs.inc()
        copied, dropped = copy_version(
            version, functools.partial(self._fetch_tablet, version.name),
            self.db.disk)
        self._m_tablets.inc(len(copied))
        self.db.open_table(version, standby=True)
        if local is not None:
            # Behind the replaced table's pinned generations: a read in
            # flight keeps its files until it ends.  A dropped file it
            # does not list (an orphan of a poll cut short, or still
            # queued by an earlier table) is the startup scrub's to
            # reclaim.  Closed, so that read's quarantine cannot save
            # the replaced version over the new table's descriptor.
            version = local._close()
            local._retire(version.generation, [
                (local._disk_for(meta), meta) for meta in version.tablets
                if meta.filename in dropped])

    def _fetch_tablet(self, name: str, filename: str) -> bytes:
        chunks = bytearray()
        while True:
            response = self._client._call(
                {"cmd": "repl_fetch_tablet", "table": name,
                 "filename": filename, "offset": len(chunks)},
                idempotent=True)
            data = base64.b64decode(response["data"])
            chunks += data
            if response.get("eof") or not data:
                return bytes(chunks)

    # ------------------------------------------------------------ status

    def lag_records(self) -> int:
        """Total records the standby is behind, across all tables."""
        return sum(max(0, self._primary_durable.get(n, 0)
                       - self._applied.get(n, 0))
                   for n in self._primary_durable)

    def status(self) -> Dict[str, Any]:
        """JSON-safe replication state for wal_status()/health."""
        age = (None if self._last_sync is None
               else time.monotonic() - self._last_sync)
        return {
            "following": self.address,
            "tables": {
                name: {
                    "applied_lsn": self._applied.get(name, 0),
                    "primary_durable_lsn": durable,
                    "lag_records": max(
                        0, durable - self._applied.get(name, 0)),
                }
                for name, durable in sorted(self._primary_durable.items())
            },
            "lag_records": self.lag_records(),
            "last_sync_age_s": age,
            "error": self.error,
        }
