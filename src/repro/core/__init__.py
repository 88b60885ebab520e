"""The LittleTable engine: schemas, tablets, merge policy, tables.

Public entry point: :class:`LittleTable` (the database) plus the
schema/query vocabulary (:class:`Schema`, :class:`Column`,
:class:`ColumnType`, :class:`Query`, :class:`KeyRange`,
:class:`TimeRange`).
"""

from .check import (Issue, LockOrderChecker, LockOrderError, check_database,
                    check_table, instrument_table_locks, is_healthy,
                    repair_database)
from .config import EngineConfig
from .database import LittleTable
from .descriptor import TableDescriptor
from .durability import DEFAULT_DURABILITY, DurabilityPolicy
from .errors import (
    ChecksumError,
    CorruptTabletError,
    DuplicateKeyError,
    LittleTableError,
    NoSuchTableError,
    OverloadedError,
    ProtocolViolationError,
    QueryError,
    ReadOnlyModeError,
    ReplicaDivergedError,
    SchemaError,
    ServerError,
    ShardDegradedError,
    ShardLayoutError,
    SnapshotError,
    TableExistsError,
    UnsupportedFormatError,
    ValidationError,
)
from .maintenance import (MaintenancePolicy, MaintenanceReport,
                          TableMaintenanceReport)
from .merge import MergePlan, choose_merge, pending_merge_runs
from .periods import Period, PeriodLevel, period_for
from .scheduler import MaintenanceScheduler
from .readcache import LatestRowCache, ReadCache, TabletPruneIndex
from .recovery import ScrubReport, startup_scrub
from .snapshot import create_snapshot, load_manifest, restore_into
from .wal import WalRecord, WalReplayReport, WriteAheadLog
from .row import (ASCENDING, DESCENDING, KeyRange, Query, QueryResult,
                  QueryStats, TimeRange)
from .schema import Column, ColumnType, Schema
from .table import Table
from .tablet import TabletMeta, TabletReader, TabletWriter

__all__ = [
    "Issue",
    "LockOrderChecker",
    "LockOrderError",
    "check_database",
    "check_table",
    "instrument_table_locks",
    "is_healthy",
    "repair_database",
    "ScrubReport",
    "startup_scrub",
    "MaintenancePolicy",
    "MaintenanceReport",
    "MaintenanceScheduler",
    "TableMaintenanceReport",
    "pending_merge_runs",
    "EngineConfig",
    "LittleTable",
    "TableDescriptor",
    "DEFAULT_DURABILITY",
    "DurabilityPolicy",
    "WalRecord",
    "WalReplayReport",
    "WriteAheadLog",
    "create_snapshot",
    "load_manifest",
    "restore_into",
    "ChecksumError",
    "CorruptTabletError",
    "DuplicateKeyError",
    "ReadOnlyModeError",
    "ReplicaDivergedError",
    "SnapshotError",
    "LittleTableError",
    "NoSuchTableError",
    "OverloadedError",
    "ProtocolViolationError",
    "QueryError",
    "SchemaError",
    "ServerError",
    "ShardDegradedError",
    "ShardLayoutError",
    "TableExistsError",
    "UnsupportedFormatError",
    "ValidationError",
    "MergePlan",
    "choose_merge",
    "LatestRowCache",
    "ReadCache",
    "TabletPruneIndex",
    "Period",
    "PeriodLevel",
    "period_for",
    "ASCENDING",
    "DESCENDING",
    "KeyRange",
    "Query",
    "QueryStats",
    "TimeRange",
    "Column",
    "ColumnType",
    "Schema",
    "QueryResult",
    "Table",
    "TabletMeta",
    "TabletReader",
    "TabletWriter",
]
