"""The simulated disk: a storage backend plus the disk cost model.

``SimulatedDisk`` is what the engine talks to.  Every operation both
performs the real byte movement against the backend *and* charges
modeled time to the :class:`~repro.disk.model.DiskModel`.  Benchmarks
read the model's elapsed time and stats to report paper-comparable
numbers; tests mostly ignore the model and use the real bytes.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs.metrics import NULL_REGISTRY
from .model import DiskModel, DiskParameters, IoStats
from .storage import MemoryStorage, Storage


class SimulatedDisk:
    """A file namespace with spinning-disk time accounting."""

    def __init__(self, storage: Optional[Storage] = None,
                 params: Optional[DiskParameters] = None):
        self.storage = storage if storage is not None else MemoryStorage()
        self.model = DiskModel(params)
        # A FailpointRegistry (disk/faults.py) when fault injection is
        # armed; None in normal operation.  Duck-typed to avoid a
        # vfs -> faults import cycle.
        self.failpoints = None
        self._init_metrics(NULL_REGISTRY)

    def _init_metrics(self, registry) -> None:
        self._m_reads = registry.counter("disk.reads")
        self._m_read_bytes = registry.counter("disk.read_bytes")
        self._m_writes = registry.counter("disk.writes")
        self._m_write_bytes = registry.counter("disk.write_bytes")
        self._m_deletes = registry.counter("disk.deletes")

    def attach_metrics(self, registry) -> None:
        """Record I/O into ``registry`` (a database attaches its own)."""
        self._init_metrics(registry)

    # Convenience passthroughs -----------------------------------------

    @property
    def stats(self) -> IoStats:
        return self.model.stats

    @property
    def elapsed_s(self) -> float:
        """Total modeled disk time consumed so far."""
        return self.model.elapsed_s

    def drop_caches(self) -> None:
        """Clear the modeled page cache (as the paper does between runs)."""
        self.model.drop_caches()

    # Fault injection ---------------------------------------------------

    def fire(self, site: str) -> None:
        """Hit a named failpoint site; no-op unless one is armed."""
        if self.failpoints is not None:
            self.failpoints.fire(site)

    # File operations ---------------------------------------------------

    def write_file(self, name: str, data: bytes) -> float:
        """Write a whole new file; returns modeled seconds."""
        crash_after = None
        if self.failpoints is not None:
            data, crash_after = self.failpoints.intercept_write(name, data)
        self.storage.write_file(name, data)
        self.model.allocate(name, len(data))
        self._m_writes.inc()
        self._m_write_bytes.inc(len(data))
        seconds = self.model.charge_write(name, len(data))
        if crash_after is not None:
            raise crash_after
        return seconds

    def append(self, name: str, data: bytes) -> float:
        """Append durable bytes to a log file; returns modeled seconds.

        The write-ahead log's one primitive.  Charged as a sequential
        write at the file's tail (group commit exists precisely to
        amortize this).  Fires the ``wal.before_append`` site so the
        crash matrix can kill the process with bytes buffered but not
        yet durable.
        """
        self.fire("wal.before_append")
        self.storage.append(name, data)
        self._m_writes.inc()
        self._m_write_bytes.inc(len(data))
        return self.model.charge_append(name, len(data))

    def open(self, name: str) -> None:
        """Charge the inode-read seek for first open of a file.

        The engine calls this before reading a tablet's footer; it is
        how the paper's "three seeks to read a tablet's footer" (inode,
        trailer, footer) arises in the model.
        """
        self.model.charge_open(name)

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read bytes, charging modeled time for uncached chunks."""
        self.fire("disk.read")
        data = self.storage.read(name, offset, length)
        self.model.charge_read(name, offset, len(data))
        self._m_reads.inc()
        self._m_read_bytes.inc(len(data))
        return data

    def read_all(self, name: str) -> bytes:
        return self.read(name, 0, self.size(name))

    def size(self, name: str) -> int:
        return self.storage.size(name)

    def exists(self, name: str) -> bool:
        return self.storage.exists(name)

    def delete(self, name: str) -> None:
        self.fire("disk.delete")
        self.storage.delete(name)
        self.model.release(name)
        self._m_deletes.inc()

    def rename(self, old: str, new: str) -> None:
        """Atomic rename (free in the model: metadata only)."""
        self.fire("disk.rename")
        self.storage.rename(old, new)
        self.model.rename(old, new)

    def list(self, prefix: str = "") -> List[str]:
        return self.storage.list(prefix)

    def close(self) -> None:
        """Release what the backend holds open (it stays usable)."""
        self.storage.close()
