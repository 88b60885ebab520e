"""Failpoint injection for fault-tolerance testing.

LittleTable's durability story (§3 of the paper) is *prefix
durability*: no WAL, so a crash may lose a suffix of recent inserts
but must never punch holes or serve garbage.  Proving that under real
crashes, torn writes, bit rot, ``EIO``, and ``ENOSPC`` needs a way to
inject those faults deterministically.  This module provides it:

* :class:`FailpointRegistry` - named sites armed with an action
  (``crash``, ``torn``, ``bitflip``, ``eio``, ``enospc``), a skip
  count ("fire on the nth hit"), and a fire count.
* :class:`FaultyVFS` - a :class:`~repro.disk.vfs.SimulatedDisk` with
  a registry pre-attached.  Any ``SimulatedDisk`` works the same way
  once its ``failpoints`` attribute is set.
* ``LITTLETABLE_FAILPOINTS`` - an environment hook the database reads
  at open time, so chaos runs can arm faults without touching code:
  ``LITTLETABLE_FAILPOINTS="disk.write=crash@2;flush.before_descriptor=eio*3"``.

Crashes are simulated by raising :class:`CrashPoint`, which derives
from ``BaseException`` on purpose: the engine's crash-isolation
handlers (``except Exception`` in maintenance and flush) must *not*
swallow a simulated ``kill -9``, exactly as they could not catch a
real one.  Torn writes persist a prefix of the payload and then
crash; bit flips silently corrupt the payload and let the process
live (bit rot).  ``eio``/``enospc`` raise typed
:class:`~repro.disk.storage.StorageError` subclasses the engine's
read-only degradation keys off.
"""

from __future__ import annotations

import errno
from typing import Dict, Optional, Tuple

from .storage import StorageError
from .vfs import SimulatedDisk


class CrashPoint(BaseException):
    """A simulated ``kill -9`` at a failpoint.

    Derives from ``BaseException`` so ``except Exception`` crash
    isolation in the engine cannot swallow it - only the test harness
    (or nothing) catches a simulated kill.
    """


class InjectedIOError(StorageError):
    """An injected ``EIO``-class I/O failure."""

    errno = errno.EIO


class DiskFullError(StorageError):
    """The disk is full (``ENOSPC``), injected or real."""

    errno = errno.ENOSPC


#: Actions a failpoint can take when it fires.
ACTIONS = ("crash", "torn", "bitflip", "eio", "enospc")

#: Actions that mutate written bytes and therefore only make sense at
#: the ``disk.write`` interception site.
_WRITE_ONLY_ACTIONS = frozenset({"torn", "bitflip"})

#: The catalog of sites the engine fires, for the crash matrix and
#: docs.  ``disk.*`` sites are hit by the VFS itself on every
#: operation; the rest are named engine sites fired at semantic
#: boundaries (the ``fsync`` class of faults in the issue maps onto
#: the write/rename/descriptor boundaries below, since the simulated
#: disk models whole-file writes, not separate syncs).
KNOWN_SITES = (
    "disk.write",
    "disk.read",
    "disk.rename",
    "disk.delete",
    "tablet.write",
    "descriptor.before_write",
    "descriptor.before_rename",
    "descriptor.after_rename",
    "flush.before_write",
    "flush.before_descriptor",
    "flush.after_descriptor",
    "merge.before_write",
    "merge.before_descriptor",
    "merge.after_descriptor",
    "ttl.before_descriptor",
    "ttl.after_descriptor",
    "rewrite.before_descriptor",
    "migrate.before_descriptor",
    "wal.before_append",
    "wal.before_seal",
    "wal.before_recycle",
)


class _Failpoint:
    __slots__ = ("site", "action", "skip", "count", "arg")

    def __init__(self, site: str, action: str, skip: int, count: int,
                 arg: float):
        self.site = site
        self.action = action
        self.skip = skip
        self.count = count
        self.arg = arg


class FailpointRegistry:
    """Named fault-injection sites, armed from tests or the env.

    Each armed site carries:

    * ``action`` - one of :data:`ACTIONS`.
    * ``skip`` - hits to let pass before firing ("kill at the nth
      write" arms ``disk.write`` with ``skip=n-1``).
    * ``count`` - how many times to fire (``-1`` = every hit from
      then on; persistent ``EIO``/``ENOSPC`` use this).
    * ``arg`` - action parameter: the surviving fraction for ``torn``
      writes, the relative offset of the flipped bit for ``bitflip``.
    """

    def __init__(self) -> None:
        self._sites: Dict[str, _Failpoint] = {}
        self.fired: Dict[str, int] = {}
        self._m_injected = None

    def attach_metrics(self, registry) -> None:
        """Count fired faults as ``fault.injected`` in *registry*."""
        self._m_injected = registry.counter("fault.injected")

    def set(self, site: str, action: str, skip: int = 0, count: int = 1,
            arg: float = 0.5) -> None:
        """Arm *site*; replaces any previous arming of the site."""
        if action not in ACTIONS:
            raise ValueError(f"unknown failpoint action {action!r} "
                             f"(want one of {ACTIONS})")
        if action in _WRITE_ONLY_ACTIONS and site != "disk.write":
            raise ValueError(
                f"action {action!r} mutates written bytes and only "
                f"applies at site 'disk.write', not {site!r}")
        self._sites[site] = _Failpoint(site, action, skip, count, arg)

    def clear(self, site: Optional[str] = None) -> None:
        """Disarm one site, or every site when *site* is None."""
        if site is None:
            self._sites.clear()
        else:
            self._sites.pop(site, None)

    def _take(self, site: str) -> Optional[_Failpoint]:
        """Consume one hit at *site*; the failpoint if it fires."""
        fp = self._sites.get(site)
        if fp is None:
            return None
        if fp.skip > 0:
            fp.skip -= 1
            return None
        if fp.count == 0:
            return None
        if fp.count > 0:
            fp.count -= 1
        self.fired[site] = self.fired.get(site, 0) + 1
        if self._m_injected is not None:
            self._m_injected.inc()
        return fp

    def fire(self, site: str) -> None:
        """Hit a named engine site; raises if an armed fault fires."""
        fp = self._take(site)
        if fp is not None:
            _raise_for(fp, site)

    def intercept_write(self, name: str,
                        data: bytes) -> Tuple[bytes, Optional[BaseException]]:
        """Hit the ``disk.write`` site for a write of *data*.

        Returns ``(data_to_write, exception_to_raise_after_write)``;
        raising actions (crash/eio/enospc) raise immediately, *before*
        any bytes land.  ``torn`` truncates the payload and returns a
        :class:`CrashPoint` to raise after the truncated write lands;
        ``bitflip`` flips one bit and lets the write proceed.
        """
        fp = self._take("disk.write")
        if fp is None:
            return data, None
        if fp.action == "torn":
            keep = max(0, min(len(data), int(len(data) * fp.arg)))
            return data[:keep], CrashPoint(
                f"torn write of {name!r}: {keep}/{len(data)} bytes persisted")
        if fp.action == "bitflip":
            if not data:
                return data, None
            position = min(len(data) - 1, int(len(data) * fp.arg))
            mutated = bytearray(data)
            mutated[position] ^= 0x01
            return bytes(mutated), None
        _raise_for(fp, f"disk.write({name!r})")
        raise AssertionError("unreachable")

    @classmethod
    def from_env(cls, text: str) -> "FailpointRegistry":
        """Parse a ``LITTLETABLE_FAILPOINTS`` value.

        Grammar, ``;``-separated: ``site=action[@skip][*count][:arg]``
        e.g. ``disk.write=crash@2`` (crash on the 3rd write),
        ``flush.before_descriptor=eio*-1`` (EIO forever),
        ``disk.write=torn:0.25`` (tear the next write at 25%).
        """
        registry = cls()
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            site, sep, spec = clause.partition("=")
            if not sep or not site or not spec:
                raise ValueError(f"bad failpoint clause {clause!r} "
                                 f"(want site=action[@skip][*count][:arg])")
            skip, count, arg = 0, 1, 0.5
            if ":" in spec:
                spec, _sep, raw = spec.rpartition(":")
                arg = float(raw)
            if "*" in spec:
                spec, _sep, raw = spec.rpartition("*")
                count = int(raw)
            if "@" in spec:
                spec, _sep, raw = spec.rpartition("@")
                skip = int(raw)
            registry.set(site.strip(), spec.strip(), skip=skip, count=count,
                         arg=arg)
        return registry


def _raise_for(fp: _Failpoint, where: str) -> None:
    if fp.action == "crash":
        raise CrashPoint(f"simulated crash at {where}")
    if fp.action == "eio":
        raise InjectedIOError(f"injected EIO at {where}")
    if fp.action == "enospc":
        raise DiskFullError(f"injected ENOSPC at {where}")
    raise ValueError(f"action {fp.action!r} cannot fire at {where}")


class FaultyVFS(SimulatedDisk):
    """A :class:`SimulatedDisk` with a failpoint registry attached."""

    def __init__(self, storage=None, params=None,
                 failpoints: Optional[FailpointRegistry] = None):
        super().__init__(storage=storage, params=params)
        self.failpoints = (failpoints if failpoints is not None
                           else FailpointRegistry())


def classify_storage_error(exc: BaseException) -> Optional[str]:
    """``"enospc"``, ``"eio"``, or None for non-resource errors.

    Drives read-only degradation: injected faults carry class-level
    errno, real ``OSError`` from :class:`~repro.disk.storage.FileStorage`
    carries the kernel's.
    """
    code = getattr(exc, "errno", None)
    if code == errno.ENOSPC:
        return "enospc"
    if code == errno.EIO:
        return "eio"
    return None
