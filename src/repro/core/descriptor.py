"""Table descriptor files.

Paper §3.2: "LittleTable caches the range of timestamps each tablet
contains, which we call a tablet's timespan, and it writes the list of
on-disk tablets and their timespans to a table descriptor file after
every change.  Once written, LittleTable atomically renames this file
to replace the previous version."

The descriptor is the table's only persistent metadata: current schema,
TTL, and the tablet list.  Because every change replaces it atomically,
a crash leaves either the old or the new version - never a torn one -
which is the anchor of LittleTable's crash-recovery story.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..disk.vfs import SimulatedDisk
from ..util.checksum import crc32c
from .errors import (SUPPORTED_FORMAT, ChecksumError, CorruptTabletError,
                     UnsupportedFormatError)
from .schema import Schema
from .tablet import TabletMeta

DESCRIPTOR_FILENAME = "descriptor.json"


@dataclass(frozen=True)
class TableDescriptor:
    """One version of one table's persistent state: a frozen value,
    replaced whole by :meth:`repro.core.table.Table._publish`."""

    name: str
    schema: Schema
    ttl_micros: Optional[int] = None
    tablets: Tuple[TabletMeta, ...] = ()
    next_tablet_id: int = 1
    # Advanced by every publish, never persisted: names the save's
    # temp file, keys the prune index, pins reads.
    generation: int = 0
    # The table's DurabilityPolicy as a dict (durability.py), or None.
    # Only present when the policy differs from the paper-faithful
    # default, so ``none``-tier descriptors are byte-identical to
    # those written before durability tiers existed.
    durability: Optional[dict] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tablets", tuple(self.tablets))

    def directory(self) -> str:
        return f"tables/{self.name}"

    def path(self) -> str:
        return f"{self.directory()}/{DESCRIPTOR_FILENAME}"

    def tablet_filename(self, tablet_id: int) -> str:
        return f"{self.directory()}/tab-{tablet_id:08d}.lt"

    def to_json(self) -> str:
        # The descriptor's own CRC (v2.1 checksummed storage) covers
        # the canonical sorted-keys dump of every other field, so bit
        # rot in the root metadata is detected, not parsed into a
        # plausible-but-wrong tablet list.  json.dumps is canonical
        # for JSON-safe values with sort_keys, so a load/dump round
        # trip re-verifies.
        payload = {
            "name": self.name,
            "schema": self.schema.to_dict(),
            "ttl_micros": self.ttl_micros,
            "tablets": [t.to_dict() for t in self.tablets],
            "next_tablet_id": self.next_tablet_id,
        }
        if self.durability:
            payload["durability"] = self.durability
        body = json.dumps(payload, sort_keys=True)
        payload["checksum"] = crc32c(body.encode("utf-8"))
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TableDescriptor":
        try:
            data = json.loads(text)
            stored_crc = data.pop("checksum", None)
            if stored_crc is not None:
                body = json.dumps(data, sort_keys=True)
                if crc32c(body.encode("utf-8")) != stored_crc:
                    raise ChecksumError("descriptor checksum mismatch")
            descriptor = cls(
                name=data["name"],
                schema=Schema.from_dict(data["schema"]),
                ttl_micros=data.get("ttl_micros"),
                tablets=[TabletMeta.from_dict(t) for t in data["tablets"]],
                next_tablet_id=data["next_tablet_id"],
                durability=data.get("durability"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptTabletError(f"bad descriptor: {exc}") from exc
        if stored_crc is None:
            # Sound JSON without the CRC every writer since v2.1 adds.
            raise UnsupportedFormatError(
                f"descriptor of table {descriptor.name!r}: no checksum "
                f"(pre-v2.1); {SUPPORTED_FORMAT}")
        return descriptor

    def save(self, disk: SimulatedDisk) -> None:
        """Write and atomically rename over the previous version; a
        failure removes the temp (a ``CrashPoint`` leaves it)."""
        temp = f"{self.path()}.tmp-{self.generation}"
        disk.fire("descriptor.before_write")
        try:
            disk.write_file(temp, self.to_json().encode("utf-8"))
            disk.fire("descriptor.before_rename")
            disk.rename(temp, self.path())
        except Exception:
            if disk.storage.exists(temp):
                disk.storage.delete(temp)
                disk.model.release(temp)
            raise
        disk.fire("descriptor.after_rename")

    @classmethod
    def load(cls, disk: SimulatedDisk, name: str) -> "TableDescriptor":
        """Read a table's descriptor from disk."""
        path = f"tables/{name}/{DESCRIPTOR_FILENAME}"
        disk.open(path)
        raw = disk.read_all(path)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptTabletError(f"bad descriptor: {exc}") from exc
        return cls.from_json(text)

    @staticmethod
    def exists(disk: SimulatedDisk, name: str) -> bool:
        return disk.exists(f"tables/{name}/{DESCRIPTOR_FILENAME}")

    @staticmethod
    def list_tables(disk: SimulatedDisk) -> List[str]:
        """Discover tables by their descriptor files."""
        names = []
        suffix = f"/{DESCRIPTOR_FILENAME}"
        for path in disk.list("tables/"):
            if path.endswith(suffix):
                names.append(path[len("tables/"):-len(suffix)])
        return sorted(names)
