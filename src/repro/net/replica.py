"""Warm-standby replication: a read-only follower of a primary.

``ltdb serve --follow host:port`` runs one of these next to a normal
server: the :class:`Follower` polls the primary for its replication
manifest (which ``replicated``-tier tables exist, which sealed tablets
they reference, how far their logs reach), mirrors tablet files it
lacks, and tails each table's WAL - applying streamed records into its
own memtables through the same dedup'd path crash replay uses.  The
local engine stays in read-only mode the whole time, so the standby
serves ``query``/``latest``/``stats`` but rejects writes; replication
lag is reported through ``wal_status()`` and ``health_summary()``.

Convergence per table, each poll:

1. If the primary's tablet set changed - or records the follower
   still needs were recycled (``applied < low_water - 1``) - the
   follower *resyncs*: it fetches missing tablet files, installs the
   primary's descriptor (the primary's table-level durability fields
   are persisted in it, but the live follower table runs WAL-less:
   replication is this copy's durability while it follows), swaps in
   a fresh table object, and
   fast-forwards its applied LSN to the log's low-water mark.  Stale
   local tablet files are left for the next startup scrub; in-flight
   local reads keep their COW snapshot.
2. It then tails the log: fetch framed records past the applied LSN,
   apply, advance.  Rows both streamed and later re-fetched inside a
   tablet dedup through the primary-key uniqueness check.

Divergence - the primary's durable LSN moving *backwards* (it was
restored or replaced) - raises
:class:`~repro.core.errors.ReplicaDivergedError` and halts the sync
loop; re-seed the standby from a fresh snapshot.

``promote()`` turns the standby into a primary: the sync loop stops,
read-only mode clears, every replicated table is re-opened with the
durability policy carried over from the old primary (streamed rows
are flushed first, so the fresh WAL's LSN space starts clean), and
the local engine - whose on-disk state is always a valid LittleTable
directory (``ltdb fsck`` passes) - starts taking writes with the same
protection the old primary acknowledged them under.
"""

from __future__ import annotations

import base64
import threading
import time
from typing import Any, Dict, Optional

from ..core.descriptor import TableDescriptor
from ..core.errors import LittleTableError, ReplicaDivergedError
from ..core.schema import Schema
from ..core.tablet import TabletMeta
from ..core.wal import iter_records
from .client import ClientConfig, LittleTableClient
from .protocol import ConnectionLost


class Follower:
    """Streams one primary's replicated tables into a local engine."""

    def __init__(self, db, host: str, port: int,
                 poll_interval_s: float = 0.2,
                 client: Optional[LittleTableClient] = None):
        self.db = db
        self.address = f"{host}:{port}"
        self.poll_interval_s = poll_interval_s
        self._client = client if client is not None else LittleTableClient(
            host, port, config=ClientConfig(request_timeout_s=10.0))
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
        downgrades every replicated table to the ``none`` tier.
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
            # Replaying primes LSN/segment bookkeeping past any
            # segment files that survived on this side; replayed rows
            # dedup against the tablets just flushed.
            db.open_table(TableDescriptor.load(db.disk, name))

    def __enter__(self) -> "Follower":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

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
        applied_now: Dict[str, int] = {}
        for name in sorted(manifest):
            applied_now[name] = self._sync_table(name, manifest[name])
        self._last_sync = time.monotonic()
        return applied_now

    def _sync_table(self, name: str, info: Dict[str, Any]) -> int:
        durable = int(info["durable_lsn"])
        low = int(info["low_water"])
        applied = self._applied.get(name, 0)
        if durable < applied:
            raise ReplicaDivergedError(
                f"{name}: primary durable LSN {durable} < applied "
                f"{applied}; the primary was restored or replaced - "
                f"re-seed this standby from a fresh snapshot")
        remote_files = [m["filename"] for m in info["tablets"]]
        local = self.db._tables.get(name)
        local_files = ([] if local is None else
                       [m.filename for m in local.descriptor.tablets])
        if (local is None or sorted(local_files) != sorted(remote_files)
                or applied < low - 1):
            self._resync_table(name, info)
            applied = max(applied, low - 1)
        table = self.db._tables[name]
        records_applied = 0
        while applied < durable:
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
                # The records between our applied LSN and this batch
                # were recycled into sealed tablets after we read the
                # manifest (a flush raced this poll).  Applying the
                # batch would silently skip them, so stop here; the
                # next poll's manifest shows the new tablet set and
                # resyncs before tailing again.
                break
            table.apply_wal_records(records)
            records_applied += len(records)
            applied = last
        self._m_records.inc(records_applied)
        self._applied[name] = applied
        self._primary_durable[name] = durable
        return records_applied

    def _resync_table(self, name: str, info: Dict[str, Any]) -> None:
        """Mirror the primary's tablet set and swap in a fresh table."""
        self._m_resyncs.inc()
        for meta in info["tablets"]:
            filename = meta["filename"]
            if not self.db.disk.exists(filename):
                self._fetch_tablet(name, filename)
        descriptor = TableDescriptor(
            name=name,
            schema=Schema.from_dict(info["schema"]),
            ttl_micros=info.get("ttl_micros"),
            tablets=[TabletMeta.from_dict(m) for m in info["tablets"]],
            next_tablet_id=int(info.get("next_tablet_id", 1)),
            # The primary's table-level durability fields persist here
            # so promote() re-arms the same protection; the live
            # follower table still runs WAL-less (streaming is its
            # durability while it follows).
            durability=info.get("durability") or None,
        )
        descriptor.save(self.db.disk)
        self.db.open_table(descriptor, standby=True)

    def _fetch_tablet(self, name: str, filename: str) -> None:
        chunks = bytearray()
        offset = 0
        while True:
            response = self._client._call(
                {"cmd": "repl_fetch_tablet", "table": name,
                 "filename": filename, "offset": offset},
                idempotent=True)
            data = base64.b64decode(response["data"])
            chunks += data
            offset += len(data)
            if response.get("eof") or not data:
                break
        self.db.disk.write_file(filename, bytes(chunks))
        self._m_tablets.inc()

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
