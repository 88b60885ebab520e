"""One way to copy a database: snapshots, the warm spare, the standby.

A table's state is a *version*: a descriptor and the immutable tablets
it lists (§3.2).  :func:`copy_version` copies the files a version lists
that the target lacks, then writes the descriptor - last, so a copy cut
short leaves the target's previous version whole and the new files
orphans the startup scrub reclaims.  It is the paper's rsync from shard
to spare (§2.2, §3.5), safe for the same reasons: a tablet never
changes once written, and one descriptor names them atomically.  A
local source is pinned by the table's read plan (``plan.version`` is
the frozen version it pins; its files stay on disk until the plan is
released, so flush and merge run on); the warm spare
(:mod:`repro.dashboard.failover`) copies every
table until a pass copies nothing, and a standby
(:mod:`repro.net.replica`) copies the descriptor a ``repl_manifest``
reply carries, fetching tablets over the wire.

A **snapshot** (:func:`create_snapshot`) pins each table and captures
its unflushed memtables in one state-lock hold (``MemTable.capture``:
no row is touched), writes the captured rows into the destination as
*sidecar tablets* through the normal
:class:`~repro.core.tablet.TabletWriter` path, then copies a descriptor
listing both: a data directory needing no WAL and no replay (``ltdb
fsck`` passes on it), bound by a checksummed ``snapshot-manifest.json``.
Tablets are hard-linked when both sides are real directories; cold-tier
ones come in as hot.  Restore (:func:`restore_into`) is the same copy
back, all-or-nothing: conflicts and manifest damage are found before
any file lands, and a storage error mid-copy unwinds every table landed
so far, descriptors first (:class:`~repro.core.errors.SnapshotError`).
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from ..disk.storage import FileStorage, Storage, StorageError
from ..disk.vfs import SimulatedDisk
from ..util.checksum import crc32c
from .descriptor import DESCRIPTOR_FILENAME, TableDescriptor
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


def _link_or_copy(read, target: SimulatedDisk, name: str) -> None:
    """Move one immutable file across."""
    if isinstance(read, FileStorage) and isinstance(target.storage,
                                                    FileStorage):
        dest_path = target.storage._path(name)
        os.makedirs(os.path.dirname(dest_path), exist_ok=True)
        try:
            os.link(read._path(name), dest_path)
            return
        except OSError:
            pass  # cross-device, exists, or no hard links: fall back
    target.write_file(name, read.read_all(name)
                      if isinstance(read, Storage) else read(name))


def copy_version(descriptor: TableDescriptor, read,
                 target: SimulatedDisk) -> Tuple[List[str], List[str]]:
    """Copy one version of a table into ``target``: every hot tablet
    ``descriptor`` lists that the target lacks, read from ``read`` (a
    source Storage, which allows a hard link, or a function from a file
    name to its bytes), then the descriptor.

    Tablets are immutable, so a name the target holds is the file -
    unless the target's own descriptor lists it with other metadata:
    the table was dropped and created again under the name.  (Like
    rsync's quick check, size and creation time stand for the bytes.)
    Cold-tier tablets live in the shared archive and are not copied.
    Returns the files copied and the target's files under the table's
    directory that the new descriptor no longer lists, which are the
    caller's to dispose of.
    """
    held = {}
    if target.exists(descriptor.path()):
        held = {meta.filename: meta for meta in
                TableDescriptor.load(target, descriptor.name).tablets}
    copied = []
    for meta in descriptor.tablets:
        if meta.tier != "hot":
            continue
        if target.exists(meta.filename):
            if held.get(meta.filename, meta) == meta:
                continue
            target.delete(meta.filename)
        _link_or_copy(read, target, meta.filename)
        copied.append(meta.filename)
    descriptor.save(target)
    listed = {meta.filename for meta in descriptor.tablets}
    listed.add(descriptor.path())
    dropped = [name for name in target.list(descriptor.directory() + "/")
               if name not in listed]
    return copied, dropped


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


def _tablet_source(table, version: TableDescriptor):
    """Where a snapshot reads ``version``'s tablets: the hot disk, and
    the cold store for those migrated there."""
    cold = {meta.filename: table._disk_for(meta).storage
            for meta in version.tablets if meta.tier == "cold"}
    hot = table.disk.storage
    return (lambda name: cold.get(name, hot).read_all(name)) if cold else hot


def create_snapshot(db, dest) -> Dict[str, Any]:
    """Capture a consistent point-in-time snapshot of ``db`` into
    ``dest`` (a directory path or Storage).  See the module docstring
    for the mechanism; returns a JSON-safe summary."""
    dest_storage = _as_storage(dest)
    existing = dest_storage.list()
    if existing:
        raise SnapshotError(
            f"snapshot destination not empty ({len(existing)} files)")
    # A private disk over the destination, with no failpoints: a
    # snapshot is an admin pass, like the scrub.
    snap_disk = SimulatedDisk(dest_storage)
    now = db.clock.now()
    summary_tables: Dict[str, Any] = {}
    copied = 0
    for table in db.tables():
        # The cut: the version pinned and each unflushed memtable's
        # published state captured in one state-lock hold.
        with table.lock:
            plan = table._read_plan()
            captured = [(memtable, memtable.capture())
                        for memtable in plan.memtables]
        with plan:
            version = plan.version
            # The bytes land inside the snapshot, so a restored engine
            # reads every tablet locally, whatever its tier was.
            metas = [dataclasses.replace(meta, tier="hot")
                     for meta in version.tablets]
            # Captured rows become sidecar tablets, each under its
            # memtable's schema, as a flush writes it, numbered from
            # the version's next id.
            rows_captured = 0
            tablet_id = version.next_tablet_id
            for memtable, state in captured:
                rows, sizes = memtable.sorted_run(state)
                rows_captured += len(rows)
                meta = table._tablet_writer(snap_disk, memtable.schema).write(
                    version.tablet_filename(tablet_id), rows, tablet_id,
                    created_at=now, expected_rows=len(rows), sizes=sizes)
                tablet_id += 1
                if meta is not None:
                    metas.append(meta)
            files, _dropped = copy_version(
                dataclasses.replace(version, tablets=metas,
                                    next_tablet_id=tablet_id),
                _tablet_source(table, version), snap_disk)
        copied += len(files)
        summary_tables[table.name] = {
            "tablets": len(metas),
            "memtable_rows_captured": rows_captured,
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
    db.check_writable()
    source = SimulatedDisk(src_storage)
    copied = 0
    landed: List[str] = []
    try:
        for name in names:
            landed.append(name)
            files, _dropped = copy_version(
                TableDescriptor.load(source, name), src_storage, db.disk)
            copied += len(files)
    except Exception as exc:
        # Unwind every table landed so far, descriptor first.  A
        # simulated CrashPoint (BaseException) bypasses this on
        # purpose: nothing runs after a crash, and the descriptor-last
        # copy already keeps the in-flight table invisible.
        for name in reversed(landed):
            for filename in sorted(
                    db.disk.list(f"tables/{name}/"),
                    key=lambda f: not f.endswith(DESCRIPTOR_FILENAME)):
                try:
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
    return {"tables": names, "tablets_copied": copied,
            "created_at": manifest.get("created_at")}
