"""Point-in-time snapshots: consistent copies, O(1) capture.

A snapshot *is* a LittleTable data directory: per-table descriptors,
the sealed tablets they reference, and a root manifest
(``snapshot-manifest.json``) binding it all together with a checksum.
``ltdb fsck`` passes on one, and ``repro.restore`` (or
``LittleTable.restore``) installs it into any engine.

Capture is two-phase per table:

1. **O(1) cut** - under the table's state lock, the COW tablet list,
   descriptor fields, and the published state of every unflushed
   memtable (``MemTable.capture``: a tuple of sorted runs, laid out as
   rows once the lock is let go) are captured.  The hold touches no
   row: it grows neither with memtable row count nor on-disk size.
2. **Off-lock copy** - while holding only the table's maintenance
   lock (which stalls background flush/merge for that table but not
   inserts or queries), sealed tablets are hard-linked into the
   destination when both sides are real directories (``os.link``;
   tablet files are immutable-once-published, so sharing blocks is
   safe) or byte-copied otherwise, and the captured memtable rows are
   written as ordinary *sidecar tablets* through the normal
   :class:`~repro.core.tablet.TabletWriter` path.

Because flush/merge swaps are excluded for the duration of one
table's copy, every captured tablet file still exists when it is
copied; inserts that land mid-snapshot are simply after the cut,
exactly the point-in-time semantics the name promises.

Restore is all-or-nothing: conflicts and manifest damage are detected
*before* any file lands, a storage error mid-copy unwinds every file
landed so far (descriptors are written last per table and deleted
first, so no torn table is ever visible to a later startup), and a
failed restore installs no tables
(:class:`~repro.core.errors.SnapshotError`).
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from ..disk.storage import FileStorage, Storage, StorageError
from ..disk.vfs import SimulatedDisk
from ..util.checksum import crc32c
from .descriptor import TableDescriptor
from .errors import SnapshotError

SNAPSHOT_MANIFEST = "snapshot-manifest.json"
MANIFEST_VERSION = 1


def _as_storage(target) -> Storage:
    """Accept a directory path or a Storage instance."""
    if isinstance(target, Storage):
        return target
    if isinstance(target, str):
        return FileStorage(target)
    raise SnapshotError(f"not a path or Storage: {target!r}")


def _link_or_copy(src_storage: Storage, dest_storage: Storage,
                  name: str) -> str:
    """Move one immutable file across; returns "linked" or "copied"."""
    if isinstance(src_storage, FileStorage) and isinstance(
            dest_storage, FileStorage):
        src_path = src_storage._path(name)
        dest_path = dest_storage._path(name)
        os.makedirs(os.path.dirname(dest_path), exist_ok=True)
        try:
            os.link(src_path, dest_path)
            return "linked"
        except OSError:
            pass  # cross-device, exists, or no hard links: fall back
    dest_storage.write_file(name, src_storage.read_all(name))
    return "copied"


def verify_manifest(storage: Storage) -> Optional[str]:
    """Check the snapshot manifest's structure and checksum.

    Returns a human-readable problem, or None when sound.  Used by the
    startup scrub (a manifest is a *recognized* root file, reported
    when damaged, never reclaimed) and by restore.
    """
    try:
        raw = storage.read_all(SNAPSHOT_MANIFEST)
    except StorageError:
        return "missing manifest"
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        return f"unparseable manifest: {exc}"
    if not isinstance(data, dict) or "tables" not in data:
        return "manifest missing 'tables'"
    stored_crc = data.pop("checksum", None)
    if stored_crc is None:
        return "manifest missing checksum"
    body = json.dumps(data, sort_keys=True)
    if crc32c(body.encode("utf-8")) != stored_crc:
        return "manifest checksum mismatch"
    return None


def load_manifest(storage: Storage) -> Dict[str, Any]:
    """Verified manifest contents; raises SnapshotError on damage."""
    problem = verify_manifest(storage)
    if problem is not None:
        raise SnapshotError(f"{SNAPSHOT_MANIFEST}: {problem}")
    return json.loads(storage.read_all(SNAPSHOT_MANIFEST).decode("utf-8"))


def _capture_table(table) -> Tuple[TableDescriptor, List[Tuple], int]:
    """Phase 1: the cut, then the rows.

    Under the table's state lock: a descriptor copy and each non-empty
    memtable's published state (``MemTable.capture``, O(log n)).  Off
    it: one ``(schema, rows, sizes)`` run per captured memtable (its
    own schema: one that predates a schema change holds rows of the
    old width), without batches admitted since.  Returns (descriptor
    copy, runs, row total).  Caller already holds the maintenance lock.
    """
    with table.lock:
        snap = TableDescriptor(
            name=table.descriptor.name,
            schema=table.schema,
            ttl_micros=table.descriptor.ttl_micros,
            tablets=list(table.descriptor.tablets),
            next_tablet_id=table.descriptor.next_tablet_id,
            durability=(dict(table.descriptor.durability)
                        if table.descriptor.durability else None),
        )
        captured = [(m, m.capture())
                    for m in table._unflushed.values() if not m.empty]
    runs = [(m.schema, *m.sorted_run(state)) for m, state in captured]
    return snap, runs, sum(len(rows) for _schema, rows, _sizes in runs)


def create_snapshot(db, dest) -> Dict[str, Any]:
    """Capture a consistent point-in-time snapshot of ``db`` into
    ``dest`` (a directory path or Storage).  See the module docstring
    for the mechanism; returns a JSON-safe summary."""
    dest_storage = _as_storage(dest)
    existing = dest_storage.list()
    if existing:
        raise SnapshotError(
            f"snapshot destination not empty ({len(existing)} files)")
    # A private disk over the destination: the TabletWriter path needs
    # one, and it must carry no failpoints (snapshotting is an admin
    # pass, like the scrub).
    snap_disk = SimulatedDisk(dest_storage)
    now = db.clock.now()
    summary_tables: Dict[str, Any] = {}
    linked = copied = 0
    for name in db.table_names():
        table = db.table(name)
        with table._maintenance_lock:
            snap_desc, runs, mem_rows = _capture_table(table)
            metas = []
            for meta in snap_desc.tablets:
                source = (table.cold_disk.storage
                          if meta.tier == "cold" and table.cold_disk
                          is not None else db.disk.storage)
                how = _link_or_copy(source, dest_storage, meta.filename)
                if how == "linked":
                    linked += 1
                else:
                    copied += 1
                # The bytes now live inside the snapshot directory, so
                # a restored engine must read them locally regardless
                # of the original tier.
                metas.append(dataclasses.replace(meta, tier="hot")
                             if meta.tier != "hot" else meta)
            # Captured memtable rows become ordinary sidecar tablets
            # (each under its memtable's schema, as a flush writes
            # it): the snapshot needs no WAL and no replay.
            for schema, rows, sizes in runs:
                tablet_id = snap_desc.allocate_tablet_id()
                writer = table._tablet_writer(snap_disk, schema)
                meta = writer.write(
                    snap_desc.tablet_filename(tablet_id), rows,
                    tablet_id, created_at=now,
                    expected_rows=len(rows), sizes=sizes)
                if meta is not None:
                    metas.append(meta)
            snap_desc.tablets = metas
            snap_desc.save(snap_disk)
        summary_tables[name] = {
            "tablets": len(metas),
            "memtable_rows_captured": mem_rows,
        }
    manifest: Dict[str, Any] = {
        "version": MANIFEST_VERSION,
        "created_at": now,
        "tables": summary_tables,
    }
    body = json.dumps(manifest, sort_keys=True)
    manifest["checksum"] = crc32c(body.encode("utf-8"))
    dest_storage.write_file(
        SNAPSHOT_MANIFEST,
        (json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"))
    return {
        "tables": summary_tables,
        "tablets_linked": linked,
        "tablets_copied": copied,
        "created_at": now,
    }


def restore_into(db, src) -> Dict[str, Any]:
    """Install every table of the snapshot at ``src`` into ``db``.

    All-or-nothing: the manifest is verified and name conflicts are
    detected before a single file is copied.  Returns a summary."""
    src_storage = _as_storage(src)
    manifest = load_manifest(src_storage)
    names = sorted(manifest.get("tables", {}))
    if not names:
        raise SnapshotError("snapshot holds no tables")
    conflicts = [name for name in names if db.has_table(name)]
    if conflicts:
        raise SnapshotError(
            f"tables already exist: {', '.join(conflicts)}")
    db._check_writable()
    copied = 0
    landed: List[str] = []
    try:
        for name in names:
            prefix = f"tables/{name}/"
            files = src_storage.list(prefix)
            if not any(f.endswith("descriptor.json") for f in files):
                raise SnapshotError(
                    f"snapshot missing descriptor for {name!r}")
            # Data files land first, the descriptor last: a table only
            # becomes real to a future startup once its descriptor
            # exists, so an interruption mid-table leaves nothing but
            # orphans the scrub reclaims.
            for filename in sorted(
                    files, key=lambda f: f.endswith("descriptor.json")):
                db.disk.write_file(filename, src_storage.read_all(filename))
                landed.append(filename)
                copied += 1
    except Exception as exc:
        # All-or-nothing: unwind every file landed so far, descriptors
        # first (they were landed last), so no partially restored
        # table - or completed earlier table - survives to be opened
        # as real on the next startup.  A simulated CrashPoint
        # (BaseException) bypasses this on purpose: nothing runs after
        # a crash, and descriptor-last ordering already keeps the
        # in-flight table invisible.
        for filename in reversed(landed):
            try:
                if db.disk.exists(filename):
                    db.disk.delete(filename)
            except StorageError:
                pass
        if isinstance(exc, SnapshotError):
            raise
        raise SnapshotError(
            f"restore aborted, no tables installed: {exc}") from exc
    # Open the freshly landed tables exactly as a normal startup would.
    for name in names:
        db.open_table(TableDescriptor.load(db.disk, name))
    return {"tables": names, "files_copied": copied,
            "created_at": manifest.get("created_at")}
