"""Fault tolerance and load balancing (paper §2.2).

"To protect against data loss, every shard has a warm spare ...
Dashboard uses PostgreSQL's built-in continuous archiving ... [and,
for LittleTable,] every 10 minutes Dashboard runs rsync from shard to
spare repeatedly until a sync completes without copying any files"
(§3.5).  "Each spare also takes hourly backups that it stores locally.
Finally ... every night the spare signs and encrypts a backup of each
database and stores it in Amazon S3."  On failure, "an automated
failover sequence ... brings the spare out of continuous archival mode
and redirects traffic to it by updating DNS records.  Once initiated,
this process takes only a minute or two."

This module reproduces that machinery over the simulated substrate:
continuous archival, local hourly snapshots, offsite signed backups
(HMAC stands in for the signature, zlib for the encryption envelope -
the point is integrity checking, not secrecy), and a DNS-redirect
failover that promotes the spare.  Archival, the hourly snapshot and
its restore are one copy, :func:`~repro.core.snapshot.copy_version` per
table, plus a ``wal`` table's live log segments, which a promoted spare
replays.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.database import LittleTable
from ..core.descriptor import DESCRIPTOR_FILENAME, TableDescriptor
from ..core.snapshot import copy_version
from ..disk.storage import MemoryStorage, Storage
from ..disk.vfs import SimulatedDisk
from ..util.clock import Clock, micros_from_seconds

FAILOVER_SECONDS = 90  # "only a minute or two, including the DNS TTL"


class BackupError(Exception):
    """A backup failed verification."""


def _mirror(versions: Iterable[Tuple[Any, TableDescriptor]],
            source: Storage, target: Storage) -> int:
    """Make ``target`` hold exactly ``versions``, each a pin (held
    while its table is copied) and a descriptor: copy each version, then
    its live log segments (a ``wal`` table's; the same size is the same
    bytes, as a segment only grows), delete the files neither lists,
    and delete every other table, descriptors first, so a removal cut
    short leaves orphans, not a torn table.  Returns files copied."""
    disk = SimulatedDisk(target)
    copied = 0
    names = set()
    for pin, version in versions:
        with pin:
            files, dropped = copy_version(version, source, disk)
        segments = source.list(f"{version.directory()}/wal-")
        for name in segments:
            if not target.exists(name) or (
                    target.size(name) != source.size(name)):
                target.write_file(name, source.read_all(name))
                files.append(name)
        for name in set(dropped) - set(segments):
            target.delete(name)
        copied += len(files)
        names.add(version.name)
    for filename in sorted(target.list("tables/"), key=lambda f: (
            not f.endswith(f"/{DESCRIPTOR_FILENAME}"))):
        if filename.split("/")[1] not in names:
            target.delete(filename)
    return copied


def _stored(storage: Storage) -> Iterator[Tuple[Any, TableDescriptor]]:
    """The versions a storage holds; nothing else writes there, so
    they need no pin."""
    disk = SimulatedDisk(storage)
    for name in TableDescriptor.list_tables(disk):
        yield contextlib.nullcontext(), TableDescriptor.load(disk, name)


class WarmSpare:
    """The §2.2 spare: continuously archived, hourly snapshots,
    nightly signed offsite backups."""

    def __init__(self, clock: Clock, signing_key: bytes = b"meraki-spare",
                 max_local_snapshots: int = 24):
        self.clock = clock
        self.storage: Storage = MemoryStorage()
        self.signing_key = signing_key
        self.max_local_snapshots = max_local_snapshots
        self.snapshots: List[Storage] = []
        self.last_sync_at: Optional[int] = None

    # ------------------------------------------------ continuous archival

    def sync_from(self, primary: LittleTable) -> int:
        """One 10-minute archival run: copy passes until one copies
        nothing.

        A pass pins each table's current version while it copies it,
        so flush and merge run on.  Returns the number of files copied.
        Works because "an rsync that copies no files is quick relative
        to the rate of new tablets being written to disk" (§3.5).
        """
        copied = 0
        while True:
            plans = (table._read_plan() for table in primary.tables())
            pass_copied = _mirror(((plan, plan.version) for plan in plans),
                                  primary.disk.storage, self.storage)
            copied += pass_copied
            if not pass_copied:
                break
        self.last_sync_at = self.clock.now()
        return copied

    # ----------------------------------------------------------- backups

    def take_local_snapshot(self) -> Storage:
        """The hourly local backup, for recovery from "programming or
        operational errors" (restoring state from before a bad write):
        the spare's tables copied into a fresh storage."""
        snapshot = MemoryStorage()
        _mirror(_stored(self.storage), self.storage, snapshot)
        self.snapshots.append(snapshot)
        if len(self.snapshots) > self.max_local_snapshots:
            self.snapshots.pop(0)
        return snapshot

    def restore_snapshot(self, snapshot: Storage) -> None:
        """Roll the spare's storage back to a snapshot."""
        _mirror(_stored(snapshot), snapshot, self.storage)

    def offsite_backup(self) -> bytes:
        """The nightly signed, encrypted backup blob for S3.

        Layout: 32-byte HMAC-SHA256 signature, then the zlib-wrapped
        JSON manifest of all files (hex-encoded).
        """
        manifest = {name: self.storage.read_all(name).hex()
                    for name in self.storage.list()}
        body = zlib.compress(
            json.dumps({"taken_at": self.clock.now(),
                        "files": manifest}).encode("utf-8"))
        signature = hmac.new(self.signing_key, body,
                             hashlib.sha256).digest()
        return signature + body

    def restore_offsite(self, blob: bytes) -> int:
        """Verify and restore an offsite backup.  Returns file count."""
        if len(blob) < 32:
            raise BackupError("backup blob too short")
        signature, body = blob[:32], blob[32:]
        expected = hmac.new(self.signing_key, body,
                            hashlib.sha256).digest()
        if not hmac.compare_digest(signature, expected):
            raise BackupError("backup signature verification failed")
        payload = json.loads(zlib.decompress(body).decode("utf-8"))
        for name in self.storage.list():
            self.storage.delete(name)
        for name, data_hex in payload["files"].items():
            self.storage.write_file(name, bytes.fromhex(data_hex))
        return len(payload["files"])


@dataclass
class DashboardDns:
    """The customer/device -> shard mapping (§2.1): dashboard.meraki.com
    redirects each customer to the host currently serving their shard."""

    records: Dict[str, str] = field(default_factory=dict)

    def point(self, shard_name: str, host: str) -> None:
        self.records[shard_name] = host

    def resolve(self, shard_name: str) -> str:
        return self.records[shard_name]


class FailoverController:
    """Runs the §2.2 automated failover sequence."""

    def __init__(self, shard_name: str, primary: LittleTable,
                 spare: WarmSpare, dns: DashboardDns,
                 clock: Clock):
        self.shard_name = shard_name
        self.primary = primary
        self.spare = spare
        self.dns = dns
        self.clock = clock
        self.failed_over = False
        dns.point(shard_name, "primary")

    def run_archival_tick(self) -> int:
        """The every-10-minutes sync (call from the shard's cron)."""
        if self.failed_over:
            return 0
        return self.spare.sync_from(self.primary)

    def initiate_failover(self) -> LittleTable:
        """Promote the spare: stop archival, repoint DNS, and open a
        LittleTable over the spare's storage.

        Customers "cannot view or reconfigure their networks" during
        the window; the returned database serves from then on.
        """
        if self.failed_over:
            raise RuntimeError("failover already completed")
        self.failed_over = True
        # The window covers automation plus the DNS cache TTL.
        if hasattr(self.clock, "advance"):
            self.clock.advance(micros_from_seconds(FAILOVER_SECONDS))
        self.dns.point(self.shard_name, "spare")
        # The cold tier (§6) is shared archive infrastructure (e.g.
        # S3), not per-shard hardware: the promoted database keeps
        # using the same one.
        return LittleTable(disk=SimulatedDisk(self.spare.storage),
                           config=self.primary.config,
                           clock=self.clock,
                           cold_disk=self.primary.cold_disk)
