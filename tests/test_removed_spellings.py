"""Spellings that once worked behind a shim are plain ``TypeError``s.

Each was a second way to say something one config object already
says (``ClientConfig``, ``EngineConfig``, ``MaintenancePolicy``) or a
selector for a code path that no longer exists (the v1 and v2 block
writers, the v1 wire dialect, the read cache's footer side cache, the
IO rate limiter and its SLO controller, the tablet sink's row-at-a-time
entry, the maintenance scheduler's queue and its work probe, the
memtable's skip list, the row-at-a-time read cursor and its heap, a
server front or shard router that starts maintenance under a policy
of its own, the SQL session's row-at-a-time aggregator and the engine's
per-row aggregate fallback, a read-cache entry of row and key tuples,
a query reply's JSON rows, a ``latest`` request of one ``prefix``
answered by one ``row``, protocol version 3, the readers of v1 and v2
blocks, pre-v2.1 tablets and ``KIND_ROWS`` WAL records, a row
operation spelled on a database or a client rather than on its table,
a second and third way to copy a database, the ``replicated``
tier that marked a ``wal`` table as one a standby may follow, the
client's buffered insert and database calls of its own beside the
one database facade over it, a WAL low water kept outside the
table's version, and the server front's event loop and dispatch pool)
or an option
nothing read or no caller set (or, like ``checksums``, could only
turn a guard off);
none of them connects, opens or binds anything before failing.

The names themselves stay out of ``src/``: a second path, a shim or an
option nothing reads coming back fails here, in any tier-1 run.  So
does the evaluation: the figure harness, the workload generators and
the statistics helpers live in ``benchmarks/``, and the library's
packages are the system's alone.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.core import (DurabilityPolicy, EngineConfig, LittleTable,
                        MaintenancePolicy, MaintenanceReport,
                        TableMaintenanceReport)
from repro.core.readcache import CachedBlock, ReadCache
from repro.core.table import Table
from repro.core.tablet import TabletReader, TabletWriter
from repro.dashboard.schemas import usage_schema
from repro.net import (AsyncLittleTableServer, ClientConfig,
                       LittleTableClient, RemoteDatabase, ShardRouter)
from repro.net.client import Pipeline
from repro.net.server import RequestDispatcher
from repro.sqlapi import SqlSession


@pytest.mark.parametrize("old_spelling", [
    pytest.param(
        lambda: LittleTableClient("127.0.0.1", 1, pipeline_depth=1),
        id="client-loose-kwarg"),
    pytest.param(lambda: ClientConfig(insert_batch_rows=512),
                 id="config-insert-batch-rows"),
    pytest.param(lambda: ClientConfig(auto_reconnect=False),
                 id="config-auto-reconnect"),
    pytest.param(lambda: ClientConfig(durability=DurabilityPolicy()),
                 id="config-durability"),
    pytest.param(lambda: LittleTableClient("127.0.0.1", 1, 64),
                 id="client-positional-int"),
    pytest.param(lambda: LittleTable(startup_scrub=False),
                 id="db-startup-scrub"),
    pytest.param(lambda: DurabilityPolicy(checksums=False),
                 id="policy-checksums"),
    pytest.param(lambda: EngineConfig(block_format_version=1),
                 id="config-block-format"),
    pytest.param(lambda: EngineConfig(checksums=True),
                 id="config-checksums"),
    pytest.param(
        lambda: AsyncLittleTableServer(LittleTable(),
                                       maintenance_interval_s=1),
        id="server-interval"),
    pytest.param(lambda: TableMaintenanceReport(flushed=1)["flushed"],
                 id="table-report-item"),
    pytest.param(lambda: MaintenanceReport()["usage"], id="report-item"),
    pytest.param(lambda: ClientConfig(negotiate=False),
                 id="client-negotiate"),
    pytest.param(lambda: ReadCache(0, footer_cache=False),
                 id="readcache-footer-cache"),
    pytest.param(lambda: EngineConfig(io_rate_limit_bytes_s=1 << 20),
                 id="config-io-rate-limit"),
    pytest.param(lambda: MaintenancePolicy(slo_p99_ms=25.0),
                 id="maintenance-slo-p99"),
    pytest.param(lambda: MaintenancePolicy(slo_recover_fraction=0.7),
                 id="maintenance-slo-recover"),
    pytest.param(lambda: MaintenancePolicy(expire_ttl=False),
                 id="maintenance-expire-ttl"),
    pytest.param(lambda: DurabilityPolicy(group_commit_ms=2.0),
                 id="policy-group-commit"),
    pytest.param(lambda: DurabilityPolicy(follow_addr="127.0.0.1:1"),
                 id="policy-follow-addr"),
    pytest.param(lambda: Table(None, None, None, None, io_limiter=None),
                 id="table-io-limiter"),
    pytest.param(
        lambda: TabletWriter(None, None, 0, "none", io_limiter=None),
        id="tablet-writer-io-limiter"),
    pytest.param(
        lambda: TabletWriter(None, None, 0, "none").write(
            "t/tab.lt", (), 1, 0, sized_pairs=()),
        id="tablet-writer-sized-pairs"),
    pytest.param(
        lambda: AsyncLittleTableServer(LittleTable(),
                                       policy=MaintenancePolicy()),
        id="server-policy"),
    pytest.param(lambda: AsyncLittleTableServer(LittleTable(), max_workers=4),
                 id="server-max-workers"),
    pytest.param(
        lambda: ShardRouter.start_maintenance(None, MaintenancePolicy()),
        id="router-start-maintenance-policy"),
    pytest.param(lambda: SqlSession(LittleTable(), vectorized=False),
                 id="session-vectorized"),
    pytest.param(
        lambda: ReadCache(1 << 20).put_block(1, 0, [(1, 2)],
                                             payload_bytes=10, keys=[(1,)]),
        id="readcache-put-rows-and-keys"),
    pytest.param(
        lambda: TabletReader(None, "t/tab.lt").scan_block_columns(
            0, need_keys=False),
        id="scan-block-columns-need-keys"),
])
def test_old_spelling_is_a_type_error(old_spelling):
    with pytest.raises(TypeError):
        old_spelling()


def test_a_cached_block_holds_no_key_tuples():
    """A cache entry is its walked body, the columns decoded from it and
    rows built as scans take them (and the lock its changes take); keys
    are bisected in the columns, never cached as tuples."""
    assert set(CachedBlock.__slots__) == {"body", "columns", "rows",
                                          "nbytes", "lock"}


SRC = Path(__file__).parent.parent / "src"


@pytest.mark.parametrize("pattern, exempt", [
    pytest.param(
        r"DeprecationWarning|legacy_kwargs|block_format_version|--legacy",
        (), id="second-path-or-shim"),
    pytest.param(r"\._fault_listener = ", ("table.py",),
                 id="second-table-wiring"),
    pytest.param(
        "negotiate|server_version|FEATURE_|_ParsedFooter|put_footer"
        "|_tablet_uids", (), id="wire-dialect-or-footer-cache"),
    pytest.param(
        "io_limiter|IORateLimiter|SLOController|slo_p99_ms"
        "|slo_recover_fraction|io_rate_limit_bytes_s|group_commit_ms"
        "|follow_addr", (), id="io-limiter-or-slo-controller"),
    pytest.param(
        "decode_range|_decode_restart_value|_read_block_uncached"
        "|mark_overloaded|overload_cooldown_s|cooldown_skips"
        "|overload_sheds|encode_prefix_columns", (),
        id="partial-decoder-or-shard-cooldown"),
    pytest.param(
        "_gen_encode_rows_v2|_gen_decode_block_v2|_emit_read_uvarint"
        "|RESTART_INTERVAL|blocks_upgraded_v1_to_v2", (),
        id="v2-block-writer"),
    pytest.param(r"\badd_row\b|_note_row|sized_pairs|sorted_sized", (),
                 id="row-at-a-time-sink"),
    pytest.param(
        "maintenance_due|work_due|is_quiescent|PriorityQueue|_PRIORITY_"
        r"|sched\.flush_priority_runs|sched\.merge_priority_runs"
        r"|maintenance\.queue_depth|sched\.merge_debt_bytes", (),
        id="maintenance-queue-or-probe"),
    pytest.param("SkipList|skiplist|items_from", (),
                 id="skip-list-memtable"),
    # The read cursor moves runs; nothing under src/ has a heap left
    # (the modeled-disk figure harness keeps its own, in benchmarks/).
    pytest.param(
        r"merge_sorted\b|_scan_asc|_scan_desc|key_bounds|\bheapq\b"
        "|seek_min|first_block_for|last_block_for", (),
        id="row-at-a-time-cursor"),
    # One aggregate engine (the kernels in core/vector.py under every
    # table facade's aggregate_partials); the row-at-a-time one is the
    # reference in tests/sqlapi/row_oracle.py.
    pytest.param(
        r"vectorized\s*=|_Accumulator|accumulate_rows|row_label"
        "|supports_partials|_select_aggregate_rows|PushdownDecision"
        "|fallback_queries", (), id="row-at-a-time-aggregator"),
    # A cached block is its columns plus rows built span by span: no
    # cached keys, no whole-block transpose kept beside the rows.
    pytest.param(r"need_keys|cached\.keys|\.columns = list\(zip\(", (),
                 id="row-cache-keys-or-lazy-transpose"),
    # A query page crosses the wire as one v3 block; the client decodes
    # it in ``_decode_page`` and has no JSON-rows decoder beside it.
    pytest.param(r"_decode_rows?\b|def tuples\b", (),
                 id="json-result-rows"),
    # A ``latest`` request is a batch of prefixes and its reply a row
    # per prefix (protocol version 4); the one-prefix, one-row form of
    # version 3 is gone, not kept beside it.
    pytest.param(
        r'PROTOCOL_VERSION = 3\b|"version": 3\b|\.get\("row"\)'
        r'|\["row"\]|\brow=(None|protocol)', (),
        id="single-prefix-latest"),
    # One on-disk format: v3 blocks in checksummed (v2.1) tablets and
    # v3 KIND_BLOCK WAL records.  Older bytes are refused with
    # UnsupportedFormatError, not read beside them or upgraded.
    pytest.param(
        "BLOCK_FORMAT_V1|BLOCK_FORMAT_V2|KIND_ROWS|_decode_v2"
        "|_parse_v2_layout|decode_rows|BlockBuilder|blocks_upgraded"
        "|note_upgraded_blocks|has_checksums|have_zone_maps", (),
        id="old-format-reader"),
    # One spelling per row operation: ``db.table(name)`` on every
    # deployment.  No database-level insert/query/latest, no second
    # row API on the client, one §3.5 continuation loop
    # (``row.scan_pages``), one keyword-free ``Pipeline.query_page``.
    pytest.param(
        r"def (insert|query|latest)\(self, table_name"
        r"|def (insert_tuples|query|latest|aggregate|flush|bulk_delete)"
        r"\(self, table\b|def list_tables\(self|def _scan\(|_query_once"
        r"|_bounds_query|insert_dicts|table_stats", (),
        id="database-or-client-row-operation"),
    # One way to copy a database: ``snapshot.copy_version`` under the
    # snapshot, the warm spare and the standby.  No rsync of its own on
    # the engine, no file-dict snapshot on the spare, and no tier that
    # marks a ``wal`` table as one a standby may follow.
    pytest.param(
        r"archive_to|class Snapshot\b|[\"'`]replicated|replicated[\"'`]",
        (), id="second-copy-or-replicated-tier"),
    # One database facade per deployment: the client is the transport,
    # rows reach a table as one batch through ``db.table(name)``, and
    # ``health()`` is the one health call on every facade.
    pytest.param(
        "buffer_insert|flush_inserts|pending_rows|insert_batch_rows"
        "|health_summary", (), id="second-database-facade"),
    # One transport under the client: the retry loop is not optional
    # (``max_retries=0`` resends nothing) and a table's tier is chosen
    # per ``create_table``, not by the connection.
    pytest.param(r"auto_reconnect|config\.durability", (),
                 id="client-options-no-caller-set"),
    # What a ``wal`` table has made durable is one number in its
    # version (``TableDescriptor.wal_low_water``): no walk of the
    # memtables after a flush, no copy inside the log, and no low water
    # in ``repl_manifest`` beside the descriptor the follower compares.
    pytest.param(
        r"_advance_wal_low_water|\badvance_low_water|\._low_water\b"
        r'|\b(info|entry)(\.get\(|\[)"low_water"', (),
        id="low-water-outside-the-version"),
])
def test_removed_name_stays_out_of_src(pattern, exempt):
    removed = re.compile(pattern)
    found = [f"{path.relative_to(SRC)}:{number}: {line.strip()}"
             for path in sorted(SRC.rglob("*.py"))
             if path.name not in exempt
             for number, line in enumerate(
                 path.read_text().splitlines(), 1)
             if removed.search(line)]
    assert not found, "\n".join(found)


def test_the_server_front_runs_no_event_loop():
    """A connection is served on its own thread, read to reply: no
    module under ``repro/net`` imports ``asyncio`` (no event loop, no
    dispatch pool behind it)."""
    importers = []
    for path in sorted((SRC / "repro" / "net").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            if any(name.split(".")[0] == "asyncio" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers


def test_one_copy_and_two_tiers():
    """The spare's file-dict snapshot and the engine's rsync are gone,
    and ``replicated`` is an unknown tier, refused like any other."""
    from repro.core.durability import TIERS
    from repro.dashboard import failover

    assert not hasattr(LittleTable, "archive_to")
    assert not hasattr(failover, "Snapshot")
    assert TIERS == ("none", "wal")
    with pytest.raises(ValueError, match="unknown durability tier"):
        DurabilityPolicy(tier="replicated").validate()
    with pytest.raises(ValueError, match="unknown durability tier"):
        DurabilityPolicy.from_dict({"tier": "replicated"})


def test_a_query_reply_carries_no_json_rows():
    """``_cmd_query`` answers with a block attachment; a ``rows``
    field - the JSON page protocol version 2 sent - is not kept beside
    it, under any version or option."""
    server = ast.parse((SRC / "repro" / "net" / "server.py").read_text())
    handler, = [node for node in ast.walk(server)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_cmd_query"]
    rows_fields = [node.lineno for node in ast.walk(handler)
                   if isinstance(node, ast.keyword) and node.arg == "rows"
                   or isinstance(node, ast.Constant) and node.value == "rows"]
    assert not rows_fields


def _functions(path, names):
    tree = ast.parse((SRC / "repro" / "net" / path).read_text())
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in names]


def test_a_latest_exchange_names_no_single_prefix_or_row():
    """The request builder, the server handler and the reply decoder
    of ``latest`` spell ``prefixes`` and ``rows``; the version-3
    ``prefix`` / ``row`` fields are not read or written beside them."""
    found = _functions("client.py", {"_latest_request", "_decode_latest"}) \
        + _functions("server.py", {"_cmd_latest"})
    assert len(found) == 3
    fields = [(function.name, node.lineno) for function in found
              for node in ast.walk(function)
              if isinstance(node, ast.keyword) and node.arg in ("row",
                                                                "prefix")
              or isinstance(node, ast.Constant)
              and node.value in ("row", "prefix")]
    assert not fields


def test_a_single_prefix_latest_request_is_refused():
    """A version-3 ``latest`` frame is a malformed request, never read
    as a batch of one."""
    db = LittleTable()
    db.create_table("t", usage_schema())
    response = RequestDispatcher(db).dispatch(
        {"cmd": "latest", "table": "t", "prefix": [1, 2]})
    assert response["error"] == "ProtocolViolationError"
    assert response["message"].startswith(
        "malformed latest request: prefixes ")


@pytest.mark.parametrize("owner, names", [
    (LittleTable, ("insert", "query", "latest")),
    (ShardRouter, ("insert", "query", "latest", "_insert", "_query",
                   "_scan", "_pinned_shard", "_merge_results")),
    (RemoteDatabase, ("insert", "query", "latest", "_query_once")),
    (LittleTableClient, ("insert", "insert_tuples", "query", "_scan",
                         "latest", "latest_many", "aggregate", "flush",
                         "bulk_delete", "list_tables", "table_stats")),
    (Pipeline, ("insert_dicts", "latest")),
], ids=["LittleTable", "ShardRouter", "RemoteDatabase", "LittleTableClient",
        "Pipeline"])
def test_rows_go_through_the_table_alone(owner, names):
    """A database, a router and a client keep the catalog, DDL,
    maintenance, health and transport; every row operation is their
    table facade's (``Table``, ``ShardedTable``, ``RemoteTable``)."""
    assert [name for name in names if hasattr(owner, name)] == []


def _public(owner):
    return {name for name in vars(owner)
            if not name.startswith("_") or name in ("__enter__",
                                                     "__exit__")}


def test_the_client_is_only_the_transport():
    """``RemoteDatabase`` is the one database facade over a connection:
    the client under it shares no operation with it but its lifecycle,
    and its config holds connection behaviour alone."""
    assert _public(LittleTableClient) & _public(RemoteDatabase) == {
        "close", "__enter__", "__exit__"}
    assert len(dataclasses.fields(ClientConfig)) == 6
    for facade in (LittleTable, ShardRouter, RemoteDatabase):
        assert [name for name in vars(facade) if "health" in name] == [
            "health"]


def test_a_pipeline_call_takes_no_idempotent_flag():
    """A pipeline never resends, so there is nothing for the flag to
    change; ``query_page`` takes a ``Query`` like every facade."""
    assert list(inspect.signature(Pipeline.call).parameters) == [
        "self", "message", "decode"]
    assert list(inspect.signature(Pipeline.query_page).parameters) == [
        "self", "table", "query"]


@pytest.mark.parametrize("module", [
    "repro.bench", "repro.workloads", "repro.util.stats"])
def test_the_evaluation_is_not_importable_from_the_library(module):
    """The figure harness, the workload generators and the statistics
    helpers are ``benchmarks.harness`` / ``benchmarks.rows`` /
    ``benchmarks.fleet``; the one statistic the engine reports with is
    ``repro.obs.metrics.percentile``."""
    with pytest.raises(ImportError):
        importlib.import_module(module)


def test_the_library_packages_are_the_system_alone():
    """What the package build finds under ``src/`` is the system, so
    evaluation code cannot creep back into the library."""
    setuptools = pytest.importorskip("setuptools")
    assert sorted(setuptools.find_packages(str(SRC))) == [
        "repro", "repro.core", "repro.dashboard", "repro.disk",
        "repro.net", "repro.obs", "repro.sqlapi", "repro.util"]
