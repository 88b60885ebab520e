"""TCP client/server protocol (the paper's adaptor <-> server link).

:class:`AsyncLittleTableServer` is the one server front: an asyncio
loop that runs id-tagged requests concurrently and untagged ones in
arrival order, handing every command to :class:`RequestDispatcher`.  :class:`ShardRouter` partitions tables
across N engines behind the same database facade, so the front scales
out without a protocol change.
"""

from .async_server import AsyncLittleTableServer
from .client import ClientConfig, LittleTableClient, Pipeline, PendingReply
from .protocol import PROTOCOL_VERSION, ConnectionLost, ProtocolError
from .remote import RemoteDatabase, RemoteTable
from .server import RequestDispatcher
from .shard import ShardRouter, ShardedTable

__all__ = [
    "AsyncLittleTableServer",
    "ClientConfig",
    "ConnectionLost",
    "LittleTableClient",
    "PendingReply",
    "Pipeline",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "RemoteDatabase",
    "RemoteTable",
    "RequestDispatcher",
    "ShardRouter",
    "ShardedTable",
]
