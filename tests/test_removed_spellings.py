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
answered by one ``row``, protocol version 3) or an option nothing read;
none of them connects, opens or binds anything before failing.

The names themselves stay out of ``src/``: a second path, a shim or an
option nothing reads coming back fails here, in any tier-1 run.
"""

import ast
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
                       LittleTableClient, ShardRouter)
from repro.net.server import RequestDispatcher
from repro.sqlapi import SqlSession


@pytest.mark.parametrize("old_spelling", [
    pytest.param(
        lambda: LittleTableClient("127.0.0.1", 1, insert_batch_rows=1),
        id="client-loose-kwarg"),
    pytest.param(lambda: LittleTableClient("127.0.0.1", 1, 64),
                 id="client-positional-int"),
    pytest.param(lambda: LittleTable(startup_scrub=False),
                 id="db-startup-scrub"),
    pytest.param(lambda: DurabilityPolicy(checksums=False),
                 id="policy-checksums"),
    pytest.param(lambda: EngineConfig(block_format_version=1),
                 id="config-block-format"),
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
    """A cache entry is columns plus rows built as scans take them;
    keys are bisected in the columns, never cached as tuples."""
    assert set(CachedBlock.__slots__) == {"columns", "rows", "nbytes"}


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
    # The read cursor moves runs; the engine has no heap left (the
    # modeled-disk harness under src/repro/bench keeps its own).
    pytest.param(
        r"merge_sorted\b|_scan_asc|_scan_desc|key_bounds|\bheapq\b"
        "|seek_min|first_block_for|last_block_for", ("harness.py",),
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
