"""Exception hierarchy for the LittleTable engine."""

from __future__ import annotations


class LittleTableError(Exception):
    """Base class for all engine errors."""


class SchemaError(LittleTableError):
    """Invalid schema definition or incompatible schema change."""


class ValidationError(LittleTableError):
    """A row does not conform to its table's schema."""


class DuplicateKeyError(LittleTableError):
    """An insert would violate primary-key uniqueness (paper §3.4.4)."""


class NoSuchTableError(LittleTableError):
    """The named table does not exist."""


class TableExistsError(LittleTableError):
    """A table with that name already exists."""


class CorruptTabletError(LittleTableError):
    """An on-disk tablet or descriptor failed to parse."""


class ChecksumError(CorruptTabletError):
    """A stored CRC (block, footer, or descriptor) did not match the
    bytes read back - bit rot or a torn write slipped past structural
    parsing.  The offending tablet is quarantined; this error reports
    the detection to the in-flight reader."""


class ReadOnlyModeError(LittleTableError):
    """The engine has degraded to read-only (disk full or persistent
    I/O errors).  Writes are rejected; reads keep serving.  Clears via
    ``LittleTable.exit_read_only()`` once the disk recovers."""


class QueryError(LittleTableError):
    """Malformed query bounds or options."""


class ProtocolViolationError(LittleTableError):
    """The server rejected a request it could not understand (unknown
    command, bad alter action, malformed fields).  Reported by the
    client adaptor for *server-side* protocol complaints - distinct
    from :class:`repro.net.protocol.ProtocolError`, which is a local
    framing failure."""


class ServerError(LittleTableError):
    """The server hit an unexpected internal failure handling a
    request.  The connection stays up; the command did not happen.

    When the failure came back over the wire with an error code the
    client does not recognize, the original code string is preserved
    on :attr:`code` (never silently discarded)."""

    #: The wire error code as the server sent it, when this error
    #: crossed the network with a code the client could not map to a
    #: local exception class.  None for locally-raised ServerErrors.
    code = None


class SnapshotError(LittleTableError):
    """A point-in-time snapshot or restore failed: the destination is
    not empty, the source is not a valid snapshot, or its manifest
    fails verification.  The live database is never modified by a
    failed snapshot; a failed ``restore`` installs no tables."""


class ReplicaDivergedError(LittleTableError):
    """A warm standby detected that it can no longer converge with its
    primary: the primary's LSNs regressed (it was restored or
    replaced), or streamed records contradict already-applied state.
    The follower stops applying; re-seed it from a fresh snapshot."""


class OverloadedError(LittleTableError):
    """The server front shed this request *before executing it* -
    admission control found the in-flight cap saturated, or the
    request overran its queue-time deadline.  No engine and no shard
    router raises it.

    Always retryable regardless of idempotence: a shed request was
    never started, so nothing - not even partially - was applied.
    :attr:`retry_after_s` carries the server's hint for how long to
    back off before retrying (also sent on the wire as
    ``retry_after``)."""

    #: Suggested client backoff in seconds, or None when the server
    #: offered no hint.
    retry_after_s = None

    def __init__(self, message: str = "server overloaded",
                 retry_after_s=None):
        super().__init__(message)
        if retry_after_s is not None:
            self.retry_after_s = retry_after_s


class ShardDegradedError(LittleTableError):
    """The shard worker owning the requested keys has crashed or hit
    unrecoverable storage errors.  The router stays up: keys on other
    shards keep serving, and this shard's tables are degraded until
    the operator revives the worker (``ShardRouter.revive_shard``)."""
