"""repro: a reproduction of "LittleTable: A Time-Series Database and
Its Uses" (SIGMOD 2017).

Subpackages:

* ``repro.core`` - the LittleTable engine (the paper's contribution);
* ``repro.disk`` - the simulated spinning-disk substrate;
* ``repro.sqlapi`` - the SQL front end (the paper's SQLite adaptor role);
* ``repro.net`` - the TCP client/server protocol;
* ``repro.dashboard`` - the three applications of Section 4;
* ``repro.workloads`` - workload and synthetic-fleet generators;
* ``repro.bench`` - the evaluation harness;
* ``repro.obs`` - the metrics registry and trace hooks;
* ``repro.util`` - clocks, PRNG, HLL, Bloom filters, stats.
"""

from typing import Any, Optional, Tuple, Union

from .core import (
    Column,
    ColumnType,
    DurabilityPolicy,
    EngineConfig,
    KeyRange,
    LittleTable,
    Query,
    Schema,
    TimeRange,
)
from .disk import DiskParameters, FileStorage, MemoryStorage, SimulatedDisk
from .obs import MetricsRegistry, Tracer

__version__ = "1.0.0"


def connect(address: Union[str, Tuple[str, int]], *,
            config: Optional[Any] = None) -> "Any":
    """Connect to a LittleTable server; returns a database facade.

    The single entry point of the client API::

        import repro

        with repro.connect("127.0.0.1:7421") as db:
            usage = db.table("usage")
            usage.insert(rows)
            result = usage.query(Query(...))

    ``address`` is ``"host:port"`` (host defaults to ``127.0.0.1``
    when omitted, as in ``":7421"``) or a ``(host, port)`` tuple -
    e.g. ``server.address`` straight from an
    :class:`~repro.net.async_server.AsyncLittleTableServer`.
    ``config`` is a :class:`~repro.net.client.ClientConfig` for
    timeouts, retries, batching, and pipelining.

    The returned :class:`~repro.net.remote.RemoteDatabase` has the
    same ``table``/``create_table``/``stats``/``health`` facade and
    context-manager semantics as an in-process :class:`LittleTable`,
    and its ``table(name)`` the same row operations as a ``Table``,
    so application code runs unchanged against a local engine, one
    server, or a sharded deployment.
    """
    from .net.client import LittleTableClient
    from .net.remote import RemoteDatabase

    if isinstance(address, str):
        host, sep, port_text = address.rpartition(":")
        if not sep:
            raise ValueError(
                f"address must be 'host:port' or (host, port), "
                f"got {address!r}")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"invalid port in address {address!r}")
    else:
        host, port = address[0], int(address[1])
    client = LittleTableClient(host, port, config=config)
    return RemoteDatabase(client)


def restore(src: Union[str, Any], data_dir: Optional[str] = None,
            **open_kwargs: Any) -> LittleTable:
    """Open a database restored from a point-in-time snapshot.

    ``src`` is a snapshot directory written by ``db.snapshot(dest)``
    (or any :class:`~repro.disk.storage.Storage` over one).  With
    ``data_dir`` the snapshot's tables are copied into a persistent
    database at that path; without it they land in a fresh in-memory
    database.  Extra keyword arguments (``config=``, ``durability=``)
    pass through to :class:`LittleTable`::

        db = repro.restore("/backups/2026-08-08", data_dir="/var/lib/lt")

    Raises :class:`~repro.core.errors.SnapshotError` when the
    snapshot manifest is missing/corrupt or a table already exists in
    the destination.
    """
    if data_dir is None:
        db = LittleTable(**open_kwargs)
    else:
        db = LittleTable(disk=SimulatedDisk(FileStorage(data_dir)),
                         **open_kwargs)
    try:
        db.restore(src)
    except BaseException:
        db.close()
        raise
    return db


def __getattr__(name: str) -> Any:
    # ClientConfig lives in repro.net but belongs to the top-level
    # vocabulary next to connect(); import it lazily so importing
    # repro never drags the network stack in.
    if name == "ClientConfig":
        from .net.client import ClientConfig

        return ClientConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Column",
    "ColumnType",
    "ClientConfig",
    "DurabilityPolicy",
    "EngineConfig",
    "KeyRange",
    "LittleTable",
    "Query",
    "Schema",
    "TimeRange",
    "DiskParameters",
    "FileStorage",
    "MemoryStorage",
    "SimulatedDisk",
    "MetricsRegistry",
    "Tracer",
    "connect",
    "restore",
    "__version__",
]
