"""Storage backends: where file bytes actually live.

The disk *model* (``repro.disk.model``) accounts for time; a storage
backend holds the actual bytes.  Two implementations:

* :class:`MemoryStorage` - a dict of immutable byte strings.  Fast and
  hermetic; the default for tests and benchmarks.
* :class:`FileStorage` - real files under a directory, with POSIX
  atomic rename.  Used by the durability/recovery tests and by anyone
  who wants data to survive the process.

Both expose the same minimal write-once interface that LittleTable
needs: tablets are written exactly once and never modified, and the
table descriptor is replaced via atomic rename (paper §3.2).
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import BinaryIO, Dict, List

#: Append handles one :class:`FileStorage` keeps open at most (a WAL
#: tier table has one growing segment; the least recently used goes).
MAX_APPEND_HANDLES = 64


class StorageError(Exception):
    """Raised for missing files and other backend failures."""


class Storage:
    """Interface for a flat namespace of write-once files."""

    def write_file(self, name: str, data: bytes) -> None:
        """Create ``name`` with ``data``.  Fails if it exists."""
        raise NotImplementedError

    def append(self, name: str, data: bytes) -> None:
        """Append ``data`` to ``name``, creating it if missing.

        The one exception to the write-once rule: write-ahead log
        segments grow by appending durable records.  A crash mid-append
        may persist a prefix of ``data``; the WAL's per-record CRC
        framing detects and discards such torn tails on replay.
        """
        raise NotImplementedError

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read up to ``length`` bytes at ``offset``."""
        raise NotImplementedError

    def read_all(self, name: str) -> bytes:
        """Read the whole file."""
        return self.read(name, 0, self.size(name))

    def size(self, name: str) -> int:
        """Return the file's size in bytes."""
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        """Return True if the file exists."""
        raise NotImplementedError

    def delete(self, name: str) -> None:
        """Remove the file."""
        raise NotImplementedError

    def rename(self, old: str, new: str) -> None:
        """Atomically rename ``old`` to ``new``, replacing ``new``."""
        raise NotImplementedError

    def list(self, prefix: str = "") -> List[str]:
        """List file names starting with ``prefix``, sorted."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open.  It stays usable."""


class MemoryStorage(Storage):
    """Files held in memory.  Deterministic and fast."""

    def __init__(self) -> None:
        self._files: Dict[str, bytes] = {}

    def write_file(self, name: str, data: bytes) -> None:
        if name in self._files:
            raise StorageError(f"file exists: {name!r}")
        self._files[name] = bytes(data)

    def append(self, name: str, data: bytes) -> None:
        self._files[name] = self._files.get(name, b"") + bytes(data)

    def read(self, name: str, offset: int, length: int) -> bytes:
        try:
            data = self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None
        return data[offset:offset + length]

    def size(self, name: str) -> int:
        try:
            return len(self._files[name])
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        if name not in self._files:
            raise StorageError(f"no such file: {name!r}")
        del self._files[name]

    def rename(self, old: str, new: str) -> None:
        if old not in self._files:
            raise StorageError(f"no such file: {old!r}")
        self._files[new] = self._files.pop(old)

    def list(self, prefix: str = "") -> List[str]:
        return sorted(name for name in self._files if name.startswith(prefix))


class FileStorage(Storage):
    """Files on the real filesystem under ``root``.

    Logical names may contain ``/``; they map to subdirectories.
    Writes go through a temp file + rename so that a partially-written
    tablet is never visible, mirroring the paper's atomic descriptor
    replacement.

    A file being appended to (a WAL segment) keeps its handle open
    between appends.  A handle in ``_appenders`` is idle by
    construction: an append takes it out for the duration of its write
    and puts it back after, so dropping one never closes a file under a
    writer.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self._appenders: Dict[str, BinaryIO] = {}   # LRU, oldest first
        self._drops = 0

    def _path(self, name: str) -> str:
        path = os.path.normpath(os.path.join(self.root, name))
        if not path.startswith(os.path.normpath(self.root)):
            raise StorageError(f"name escapes storage root: {name!r}")
        return path

    def _drop_appender(self, name: str) -> None:
        """``name`` is about to stop being the file its append handle
        writes to.  Bumping ``_drops`` also keeps a handle that is out
        with a writer right now from being put back."""
        with self._lock:
            self._drops += 1
            handle = self._appenders.pop(name, None)
        if handle is not None:
            handle.close()

    def close(self) -> None:
        with self._lock:
            self._drops += 1
            handles = list(self._appenders.values())
            self._appenders.clear()
        for handle in handles:
            handle.close()

    def write_file(self, name: str, data: bytes) -> None:
        path = self._path(name)
        if os.path.exists(path):
            raise StorageError(f"file exists: {name!r}")
        self._drop_appender(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.rename(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def append(self, name: str, data: bytes) -> None:
        path = self._path(name)
        with self._lock:
            handle = self._appenders.pop(name, None)
            drops = self._drops
        if handle is None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle = open(path, "ab")
        try:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        except BaseException:
            handle.close()
            raise
        with self._lock:
            if drops == self._drops and name not in self._appenders:
                self._appenders[name] = handle
                handle = None
                if len(self._appenders) > MAX_APPEND_HANDLES:
                    handle = self._appenders.pop(next(iter(self._appenders)))
        if handle is not None:
            handle.close()

    def read(self, name: str, offset: int, length: int) -> bytes:
        try:
            with open(self._path(name), "rb") as handle:
                handle.seek(offset)
                return handle.read(length)
        except FileNotFoundError:
            raise StorageError(f"no such file: {name!r}") from None

    def size(self, name: str) -> int:
        try:
            return os.path.getsize(self._path(name))
        except FileNotFoundError:
            raise StorageError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def delete(self, name: str) -> None:
        self._drop_appender(name)
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            raise StorageError(f"no such file: {name!r}") from None

    def rename(self, old: str, new: str) -> None:
        old_path = self._path(old)
        new_path = self._path(new)
        if not os.path.exists(old_path):
            raise StorageError(f"no such file: {old!r}")
        self._drop_appender(old)
        self._drop_appender(new)
        os.makedirs(os.path.dirname(new_path), exist_ok=True)
        os.replace(old_path, new_path)

    def list(self, prefix: str = "") -> List[str]:
        found: List[str] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                full = os.path.join(dirpath, filename)
                name = os.path.relpath(full, self.root)
                name = name.replace(os.sep, "/")
                if name.startswith(prefix):
                    found.append(name)
        return sorted(found)
