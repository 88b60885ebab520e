"""Startup scrub: crash-garbage collection and corruption quarantine.

LittleTable's durability anchor is the atomic descriptor swap
(paper §3.2): a crash leaves either the old or the new descriptor,
never a torn one.  Everything else on disk falls into exactly three
classes after a crash:

* **Durable tablets** - files the descriptor references.  These were
  fully written and fsynced before the swap that published them.
* **Crash garbage** - tablet files no descriptor references (a flush
  or merge died before its swap) and stale ``descriptor.json.tmp-*``
  files (a save died between write and rename).  Neither was ever
  durable, so deleting them cannot lose acknowledged data; deleting
  the stale temps also prevents a name collision with the reopened
  table's own first save (generations restart at 1 after reopen).
* **Damaged durables** - referenced files that are missing, truncated,
  or fail their trailer/footer checksums (format v2.1).  The scrub
  moves damaged files into ``quarantine/`` (never deletes them - an
  operator may recover blocks by hand) and drops them from the
  descriptor so the table reopens serving everything that is still
  intact.  A referenced file that is *missing* outright is reported
  but left referenced: there is nothing to preserve, and the first
  read fails loudly rather than silently shrinking the result set.

The scrub verifies descriptors (their own body CRC checks inside
``TableDescriptor.from_json``) and tablet *trailers and footers* only;
per-block CRCs are verified lazily on read, and exhaustively by
``ltdb fsck``.  A corrupt published descriptor still raises
:class:`CorruptTabletError` out of the scrub - the root metadata has
no redundant copy to fall back to, and limping on without it would
silently drop every tablet of the table.

All verification reads and garbage moves go through the raw storage
backend and the model's bookkeeping calls, not ``SimulatedDisk``
reads: the scrub is an administrative pass whose cost is not part of
the paper's workload measurements, and it must not consume armed
failpoints meant for the workload under test.  Descriptor rewrites
(dropping quarantined tablets) do use the normal atomic save path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..disk.storage import StorageError
from ..disk.vfs import SimulatedDisk
from ..obs.metrics import NULL_REGISTRY
from .descriptor import DESCRIPTOR_FILENAME, TableDescriptor
from .durability import DurabilityPolicy
from .errors import CorruptTabletError
from .tablet import TabletMeta, read_footer
from .wal import is_wal_filename

QUARANTINE_PREFIX = "quarantine/"


@dataclass
class ScrubReport:
    """What one startup scrub found and did."""

    orphans_removed: List[str] = field(default_factory=list)
    temps_removed: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    issues: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the scrub found nothing to fix or report."""
        return not (self.orphans_removed or self.temps_removed
                    or self.quarantined or self.issues)

    def as_dict(self) -> dict:
        return {
            "orphans_removed": list(self.orphans_removed),
            "temps_removed": list(self.temps_removed),
            "quarantined": list(self.quarantined),
            "issues": list(self.issues),
        }


def verify_tablet_file(storage, meta: TabletMeta) -> Optional[str]:
    """Cheap integrity check of one tablet file against its metadata.

    Returns a human-readable problem description, or None when the
    file looks sound.  Checks existence, exact size, trailer sanity,
    and (for v2.1 files) the footer CRC - the structures a reader
    must trust before it can even locate blocks.  Block payload CRCs
    are left to the read path and ``ltdb fsck``.
    """
    try:
        size = storage.size(meta.filename)
    except StorageError:
        return "missing file"
    if size != meta.size_bytes:
        return f"size {size} != descriptor size {meta.size_bytes}"
    try:
        read_footer(storage, meta.filename, size)
    except CorruptTabletError as exc:
        return str(exc).removeprefix(f"{meta.filename}: ")
    return None


def quarantine_file(disk: SimulatedDisk, filename: str) -> str:
    """Move ``filename`` under ``quarantine/``; returns the new name.

    Raw storage move plus model bookkeeping (see module docstring).
    An older quarantined copy of the same name is replaced - the
    freshest evidence wins.
    """
    destination = f"{QUARANTINE_PREFIX}{filename}"
    if disk.storage.exists(destination):
        disk.storage.delete(destination)
        disk.model.release(destination)
    disk.storage.rename(filename, destination)
    disk.model.rename(filename, destination)
    return destination


def startup_scrub(disk: SimulatedDisk, metrics=None) -> ScrubReport:
    """Verify every table's on-disk state; clean up crash aftermath.

    See the module docstring for the exact rules.  Raises
    :class:`~repro.core.errors.CorruptTabletError` if a published
    descriptor is itself corrupt; everything else is handled and
    reported in the returned :class:`ScrubReport`.
    """
    registry = metrics if metrics is not None else NULL_REGISTRY
    report = ScrubReport()
    storage = disk.storage
    for name in TableDescriptor.list_tables(disk):
        directory = f"tables/{name}/"
        files = [f for f in storage.list(directory)
                 if not f.startswith(QUARANTINE_PREFIX)]
        # 1. Stale descriptor temps: a save died between write and
        # rename.  Never durable; also a collision hazard (reopened
        # tables restart their generation counter).
        temp_prefix = f"{directory}{DESCRIPTOR_FILENAME}.tmp-"
        for temp in [f for f in files if f.startswith(temp_prefix)]:
            storage.delete(temp)
            disk.model.release(temp)
            report.temps_removed.append(temp)
        # 2. The descriptor itself.  Corrupt -> fail loudly (the body
        # CRC inside from_json, or a parse error, raises here).
        descriptor = TableDescriptor.load(disk, name)
        # 3. Referenced hot tablets: verify, quarantine the damaged.
        kept: List[TabletMeta] = []
        changed = False
        for meta in descriptor.tablets:
            if meta.tier != "hot":
                kept.append(meta)
                continue
            problem = verify_tablet_file(storage, meta)
            if problem is None:
                kept.append(meta)
            elif problem == "missing file":
                # Nothing to preserve; keep the reference so reads
                # fail loudly instead of silently losing the range.
                report.issues.append(f"{meta.filename}: missing file")
                kept.append(meta)
            else:
                moved = quarantine_file(disk, meta.filename)
                report.quarantined.append(meta.filename)
                report.issues.append(
                    f"{meta.filename}: {problem} (moved to {moved})")
                changed = True
        # 4. Orphan tablet files: present on disk, referenced by no
        # tier of the descriptor.  A flush/merge died before its swap;
        # the rows were never durable (still memtable-resident or
        # still covered by the pre-merge tablets).
        referenced = {meta.filename for meta in descriptor.tablets}
        for filename in files:
            if (filename.startswith(f"{directory}tab-")
                    and filename.endswith(".lt")
                    and filename not in referenced):
                storage.delete(filename)
                disk.model.release(filename)
                report.orphans_removed.append(filename)
        # 5. WAL segments: recognized by name, never treated as orphan
        # tablets.  For a wal-tier table they belong to replay and are
        # left exactly in place.  A zero-byte segment holds nothing (an
        # append crashed before writing a single frame) and is safe to
        # reclaim.  Segments under a table whose descriptor says tier
        # ``none`` are unreachable - no replay will ever read them - so
        # they are *quarantined*, not deleted: they may hold
        # acknowledged rows from a session that ran with a stronger
        # database-default policy.
        try:
            wal_tier = DurabilityPolicy.from_dict(
                descriptor.durability).wal_enabled
        except ValueError:
            wal_tier = True  # unparseable policy: keep, don't quarantine
        for filename in files:
            if not is_wal_filename(filename):
                continue
            try:
                size = storage.size(filename)
            except StorageError:
                continue
            if size == 0:
                storage.delete(filename)
                disk.model.release(filename)
                report.orphans_removed.append(filename)
            elif not wal_tier:
                moved = quarantine_file(disk, filename)
                report.quarantined.append(filename)
                report.issues.append(
                    f"{filename}: WAL segment for a none-tier table"
                    f" (moved to {moved})")
        if changed:
            descriptor.tablets = kept
            descriptor.save(disk)
    # A snapshot manifest marks this directory as (also) a snapshot:
    # recognized by name, verified, reported when damaged - never
    # reclaimed as an unrecognized orphan.  Lazy import: snapshot.py
    # uses this module's tablet verifier.
    from .snapshot import SNAPSHOT_MANIFEST, verify_manifest

    if storage.exists(SNAPSHOT_MANIFEST):
        problem = verify_manifest(storage)
        if problem is not None:
            report.issues.append(f"{SNAPSHOT_MANIFEST}: {problem}")
    registry.counter("storage.scrub_runs").inc()
    if report.orphans_removed or report.temps_removed:
        registry.counter("storage.scrub_orphans_removed").inc(
            len(report.orphans_removed) + len(report.temps_removed))
    if report.quarantined:
        registry.counter("storage.scrub_quarantined").inc(
            len(report.quarantined))
    return report
