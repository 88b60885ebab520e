"""Durability tiers: the policy object behind the WAL.

The paper ships exactly one durability story - *prefix durability*
(§3): inserts are acknowledged from memory, a crash may lose the most
recent writes, and the atomic descriptor rename guarantees the
surviving prefix is never corrupt.  This module turns that constant
into a dial.  A :class:`DurabilityPolicy` selects one of two tiers:

* ``none`` - the paper-faithful default.  No WAL file is ever created;
  behavior is byte-identical to an engine without this module.
* ``wal`` - every acknowledged insert is first appended to a
  segmented, CRC32C-framed, LSN-stamped write-ahead log
  (:mod:`repro.core.wal`) with group commit; replay at open restores
  rows a crash would otherwise lose.  A warm standby
  (:mod:`repro.net.replica`) also tails it.

One policy object travels the whole stack: ``LittleTable(durability=)``
sets the database default, ``create_table(durability=)`` overrides per
table (persisted in the table descriptor), ``ClientConfig.durability``
carries it over the wire, and ``ltdb serve --durability`` sets it for
a server.  Scrub-at-open is an engine setting, not a durability tier:
it lives on :class:`EngineConfig` alone, and content checksums are
not a setting at all (every tablet carries them).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, FrozenSet, Optional

#: Valid values for :attr:`DurabilityPolicy.tier`.
TIERS = ("none", "wal")

_MIB = 1024 * 1024


class _Unset:
    """Sentinel default distinguishing "not passed" from an explicit
    value, so ``DurabilityPolicy(tier="none")`` can override a
    database default of ``wal`` back down (the resolved default value
    alone cannot carry that intent)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unset>"


_UNSET = _Unset()

#: The resolved value each field takes when not passed explicitly.
_DEFAULTS: Dict[str, Any] = {
    "tier": "none",
    "wal_segment_bytes": 4 * _MIB,
}


@dataclass(frozen=True)
class DurabilityPolicy:
    """How hard a table tries not to lose acknowledged writes.

    Frozen: hand the same instance to as many tables, databases, and
    clients as you like.  Use :func:`dataclasses.replace` to derive
    variants.

    Every field defaults to an *unset* sentinel resolved to its real
    default in ``__post_init__``; the set of explicitly passed fields
    is kept so :meth:`merged_with` can tell "unset" apart from
    "explicitly set to the default value".  Reading a field always
    sees the resolved value, never the sentinel.
    """

    #: One of :data:`TIERS`.  ``none`` (the default) keeps the paper's
    #: prefix durability and guarantees no WAL file is ever created.
    tier: str = _UNSET  # type: ignore[assignment]
    #: Roll the active WAL segment once it exceeds this size (default
    #: 4 MiB); sealed segments are what replication streams and
    #: recycling reclaims.
    wal_segment_bytes: int = _UNSET  # type: ignore[assignment]

    def __post_init__(self) -> None:
        explicit = frozenset(name for name in _DEFAULTS
                             if getattr(self, name) is not _UNSET)
        object.__setattr__(self, "_explicit", explicit)
        for name in _DEFAULTS:
            if name not in explicit:
                object.__setattr__(self, name, _DEFAULTS[name])

    @property
    def explicit_fields(self) -> FrozenSet[str]:
        """Names of fields passed explicitly at construction (a policy
        derived via :func:`dataclasses.replace` counts every field as
        explicit - it is fully resolved)."""
        return self._explicit  # type: ignore[attr-defined]

    def validate(self) -> None:
        """Raise ValueError on nonsensical settings."""
        if self.tier not in TIERS:
            raise ValueError(
                f"unknown durability tier {self.tier!r} (want one of {TIERS})")
        if self.wal_segment_bytes <= 0:
            raise ValueError("wal_segment_bytes must be positive")

    @property
    def wal_enabled(self) -> bool:
        """True when inserts must hit the log before acknowledgment."""
        return self.tier == "wal"

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict for descriptors and the wire protocol.

        Only explicitly set fields are emitted, so an all-default
        policy serializes to ``{}`` (descriptors written before this
        module existed round-trip unchanged) while an explicit
        ``tier="none"`` survives the trip and still overrides a
        database default at merge time.
        """
        explicit = self.explicit_fields
        return {spec.name: getattr(self, spec.name)
                for spec in fields(self) if spec.name in explicit}

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "DurabilityPolicy":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so old
        engines can open descriptors written by newer ones."""
        if not data:
            return cls()
        known = {spec.name for spec in fields(cls)}
        policy = cls(**{key: value for key, value in data.items()
                        if key in known})
        policy.validate()
        return policy

    def merged_with(self, override: Optional["DurabilityPolicy"]
                    ) -> "DurabilityPolicy":
        """This policy with *override*'s explicitly set fields applied
        - how a per-table policy layers over the database default.
        Explicit beats non-default: ``DurabilityPolicy(tier="none")``
        layered over a ``wal`` default yields ``none``."""
        if override is None:
            return self
        explicit = override.explicit_fields
        changes = {spec.name: getattr(override, spec.name)
                   for spec in fields(override) if spec.name in explicit}
        return replace(self, **changes) if changes else self


#: The paper-faithful default shared by every entry point.
DEFAULT_DURABILITY = DurabilityPolicy()
