"""Each table decision is written once: mechanical guards.

A table's version is one frozen ``TableDescriptor``, and a live
table's version changes in one method (``Table._publish``): it alone
binds ``table.descriptor`` after the constructor and writes a
descriptor (``create_table`` writes a new table's first version, before
any ``Table`` holds it).  Removed files are queued behind the pinned
generations in one place, reads obtain their version and memtables in
one place (``Table._read_plan``), and a ``Table`` gets its engine - the
fault listener and the read-only check of its write door - in one
place (its constructor, called by ``LittleTable.open_table``).
``recovery.py`` writes descriptors of its own and is out of scope.
Across all of ``src/``: a table's
files are copied between storages in one function
(``snapshot.copy_version``, the only caller of ``_link_or_copy``),
which snapshot, restore, the warm spare and the standby all call, a
tablet file's trailer is told apart
(v2.1 or legacy) in one function, a ``query`` request is built in
one, a bounding box is put on the wire in one and read off it in one
(``query`` and ``aggregate`` share both), a query page becomes a block
in one server function and rows again in one client function, a query
is resumed past its last returned key in one (``row.scan_pages``,
which both paged ``scan`` methods call), values
are folded into an aggregate slot in one (``vector._update``), and the
shard router hands work to its pool at one site.  In
``tablet.py`` a block is decoded in one function (``decode_payload``,
into columns) and enters the read cache in one (``_scan_block``), and
in all of ``src/`` row tuples are built from a cached block's columns
in one (``TabletReader._built_rows``).  Background maintenance starts
in one place
(``LittleTable.start_maintenance`` builds the only
``MaintenanceScheduler``) and a failing table is isolated in one (the
pass, ``LittleTable.maintenance``), not again in the loop around it.
Sorted runs from several sources are put in order in one function
(``cursor.take_stretch``), which the read cursor and the merge
executor both call.  A ``latest`` request is built in one client
function, the server answers it with ``latest_many`` alone, and every
facade's ``latest`` is a batch of one for its ``latest_many``.  The
client has no row operations of its own: they are ``RemoteTable``'s.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core.descriptor import TableDescriptor
from repro.core.schema import Column, ColumnType, Schema

CORE = Path(__file__).parent.parent / "src" / "repro" / "core"
FAMILY = [CORE / name for name in (
    "table.py", "readpath.py", "maintenance.py", "merge.py",
    "uniqueness.py", "database.py")]


def sites(predicate):
    found = []
    for path in FAMILY:
        for node in ast.walk(ast.parse(path.read_text())):
            if predicate(node):
                found.append(f"{path.name}:{node.lineno}")
    return found


def is_attr(node, name, of=None):
    return (isinstance(node, ast.Attribute) and node.attr == name
            and (of is None or is_attr(node.value, of)))


def test_one_method_publishes_a_version():
    assert functions_where(lambda n: isinstance(n, ast.Assign) and any(
        is_attr(t, "descriptor") for t in n.targets), FAMILY) == {
        "table.py:__init__", "table.py:_publish"}
    assert functions_where(calls("save"), FAMILY) == {
        "table.py:_publish", "database.py:create_table"}


def test_a_version_is_frozen():
    version = TableDescriptor("t", Schema(
        [Column("k", ColumnType.INT64), Column("ts", ColumnType.TIMESTAMP)],
        key=["k", "ts"]))
    for name in ("tablets", "schema", "ttl_micros", "next_tablet_id",
                 "generation", "durability"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(version, name, getattr(version, name))


def test_one_site_queues_deferred_deletes():
    assert len(sites(lambda n: isinstance(n, ast.Call) and (
        is_attr(n.func, "append") or is_attr(n.func, "extend"))
        and is_attr(n.func.value, "_pending_deletes"))) == 1


def test_reads_get_their_sources_from_the_plan_only():
    """Outside ``Table`` itself nothing in the read path or the
    maintenance operations touches the memtable maps."""
    for path in (CORE / "readpath.py", CORE / "maintenance.py"):
        names = {n.attr for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Attribute)}
        assert not names & {"_unflushed", "_filling", "_flush_pending"}, path


def test_only_the_constructor_wires_a_table():
    """No caller pokes an engine into a built table."""
    for path in CORE.parent.rglob("*.py"):
        if path.name == "table.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            for target in getattr(node, "targets", ()):
                assert not is_attr(target, "_engine"), \
                    f"{path}:{node.lineno}"


def functions_where(predicate, paths=None):
    """``file:function`` of every function in ``src/`` - or in
    ``paths`` - (enclosing ones included) with a node that satisfies
    ``predicate``."""
    found = set()
    for path in paths or sorted(CORE.parent.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(predicate(n) for n in ast.walk(function)):
                found.add(f"{path.name}:{function.name}")
    return found


def test_one_function_copies_a_table_between_storages():
    assert functions_where(calls("_link_or_copy")) == {
        "snapshot.py:copy_version"}
    assert functions_where(calls("copy_version")) == {
        "snapshot.py:create_snapshot", "snapshot.py:restore_into",
        "failover.py:_mirror", "replica.py:_resync_table"}


def test_one_function_tells_the_trailer_formats_apart():
    assert functions_where(lambda n: isinstance(n, ast.Compare) and any(
        isinstance(name, ast.Name) and name.id == "CHECKSUM_MAGIC"
        for name in ast.walk(n))) == {"tablet.py:read_footer"}


def test_one_function_builds_a_query_request():
    def is_query_request(node):
        return isinstance(node, ast.Dict) and any(
            isinstance(key, ast.Constant) and key.value == "cmd"
            and isinstance(value, ast.Constant) and value.value == "query"
            for key, value in zip(node.keys, node.values))

    assert functions_where(is_query_request) == {"client.py:_query_request"}


def test_one_function_builds_a_latest_request():
    def is_latest_request(node):
        return isinstance(node, ast.Dict) and any(
            isinstance(key, ast.Constant) and key.value == "cmd"
            and isinstance(value, ast.Constant) and value.value == "latest"
            for key, value in zip(node.keys, node.values))

    assert functions_where(is_latest_request) == {
        "client.py:_latest_request"}


def test_the_server_answers_latest_with_latest_many_alone():
    server = [CORE.parent / "net" / "server.py"]
    assert functions_where(calls("latest_many"), server) == {
        "server.py:_cmd_latest"}
    assert functions_where(calls("latest"), server) == set()


def test_every_latest_is_a_batch_of_one():
    """Wherever ``latest_many`` is defined, ``latest`` beside it has no
    body of its own: it returns the first answer of a one-prefix
    ``latest_many``, so the two cannot come to disagree.  A
    ``Pipeline`` answers with pending replies, not rows; its two
    methods share the one request builder instead."""
    owners = []
    for path in sorted(CORE.parent.rglob("*.py")):
        for owner in ast.walk(ast.parse(path.read_text())):
            if not isinstance(owner, ast.ClassDef):
                continue
            methods = {node.name: node for node in owner.body
                       if isinstance(node, ast.FunctionDef)}
            if "latest_many" not in methods or owner.name == "Pipeline":
                continue
            owners.append(f"{path.name}:{owner.name}")
            body = [node for node in methods["latest"].body
                    if not (isinstance(node, ast.Expr)
                            and isinstance(node.value, ast.Constant))]
            assert len(body) == 1 and isinstance(body[0], ast.Return), \
                owners[-1]
            value = body[0].value
            assert isinstance(value, ast.Subscript) \
                and calls("latest_many")(value.value), owners[-1]
    assert set(owners) == {"table.py:Table", "shard.py:ShardedTable",
                           "remote.py:RemoteTable"}


def test_one_function_each_side_carries_a_bounding_box():
    """``query`` and ``aggregate`` requests spell their key and time
    bounds through one builder, and the server reads both through one
    decoder, so the two commands cannot come to disagree about a
    default or an inclusive flag."""
    def names_a_bound(node):
        return isinstance(node, ast.Constant) \
            and node.value == "key_min_inclusive"

    assert functions_where(names_a_bound) == {
        "client.py:_bounds_fields", "server.py:decode_bounds"}


def test_one_function_folds_values_into_an_aggregate_slot():
    """A slot is ``[count, total, min, max]``.  Column values reach
    one in ``vector._update`` alone - there is no second, row-at-a-time
    aggregator in ``src/`` (the reference one is
    ``tests/sqlapi/row_oracle.py``); ``AggregatePartials.merge`` adds a
    slot to a slot and reads no rows."""
    def adds_to_a_total(node):
        return (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Subscript)
                and isinstance(node.target.slice, ast.Constant)
                and node.target.slice.value == 1)

    def from_a_slot(node):
        return adds_to_a_total(node) and isinstance(
            node.value, ast.Subscript)

    assert functions_where(adds_to_a_total) == {
        "vector.py:_update", "vector.py:merge"}
    assert functions_where(from_a_slot) == {"vector.py:merge"}


def test_one_site_submits_to_the_shard_pool():
    """Fan-outs and multi-shard inserts share one scatter
    (``ShardRouter._scatter``), so the up-front refusal for a downed
    shard and the error ranking cannot drift apart again."""
    shard = ast.parse((CORE.parent / "net" / "shard.py").read_text())
    assert sum(isinstance(n, ast.Call)
               and is_attr(n.func, "submit", of="_pool")
               for n in ast.walk(shard)) == 1


def calls(name):
    return lambda n: isinstance(n, ast.Call) and (
        is_attr(n.func, name)
        or isinstance(n.func, ast.Name) and n.func.id == name)


def test_one_function_each_side_carries_a_result_block():
    """A ``query`` page crosses the wire as one v3 block: the server
    encodes it in ``_cmd_query`` and the client decodes it in
    ``_decode_page``, which the remote table's one page fetch
    (``RemoteTable._page``, under its ``query`` and ``scan``) and
    ``Pipeline.query_page`` call."""
    net = sorted((CORE.parent / "net").glob("*.py"))
    assert functions_where(calls("encode_rows"), net) == {
        "server.py:_cmd_query"}
    assert functions_where(calls("decode_block_columns"), net) == {
        "client.py:_decode_page"}
    assert functions_where(calls("_decode_page"), net) == {
        "remote.py:_page", "client.py:query_page"}


def test_one_function_resumes_a_query_past_its_last_key():
    """The §3.5 continuation - move the start bound just past the last
    returned key (the end bound, descending) and ask again - is
    written once, and the router's and the remote table's ``scan``
    both page through it rather than each keeping a loop."""
    def starts_past_a_key(node):
        return (isinstance(node, ast.keyword)
                and node.arg == "min_inclusive"
                and isinstance(node.value, ast.Constant)
                and node.value.value is False)

    assert functions_where(starts_past_a_key) == {"row.py:scan_pages"}
    assert functions_where(calls("scan_pages")) == {
        "shard.py:scan", "remote.py:scan"}


def test_one_way_from_a_block_to_its_rows():
    """There is one block format, so nothing in ``tablet.py`` reads one
    back to choose a decoder; one function admits a decoded block to
    the read cache, and a block body is decompressed where it is
    decoded: the one decode into columns, and the footer (its own
    parser).  Old bytes are refused in one function per layer: the
    trailer (``read_footer``), the footer (``_parse_footer_body``) and
    the WAL record (``iter_records``)."""
    def in_tablet(predicate):
        return functions_where(predicate, [CORE / "tablet.py"])

    assert in_tablet(lambda n: is_attr(n, "block_format") and isinstance(
        n.ctx, ast.Load)) == set()
    assert functions_where(calls("put_block")) == {"tablet.py:_scan_block"}
    assert in_tablet(calls("decompress")) == {
        "tablet.py:decode_payload", "tablet.py:_parse_footer"}
    assert functions_where(calls("UnsupportedFormatError"),
                           [CORE / "tablet.py", CORE / "wal.py"]) == {
        "tablet.py:read_footer", "tablet.py:_parse_footer_body",
        "wal.py:iter_records"}


def test_one_function_builds_rows_from_cached_columns():
    """A cached block holds columns and a row list that scans fill as
    they take stretches of it.  The fill - zip a stretch of the columns,
    store it back by one slice assignment - is written once, so the
    rule that makes it safe without a lock (build whole, store whole)
    cannot be half-copied somewhere else."""
    def stores_rows(node):
        return isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Subscript)
            and is_attr(target.value, "rows") for target in node.targets)

    assert functions_where(stores_rows) == {"tablet.py:_built_rows"}


def test_one_function_sorts_positions_by_key():
    """The stretch merge - take from every source up to the nearest
    far end, stable-sort positions - is written once: the read cursor
    loops over it and the merge executor calls it between block
    passthroughs, rather than each keeping a copy."""
    def sorts_positions(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and any(keyword.arg == "key"
                        and is_attr(keyword.value, "__getitem__")
                        for keyword in node.keywords))

    assert functions_where(sorts_positions, sorted(CORE.glob("*.py"))) == {
        "cursor.py:take_stretch"}
    merge = ast.parse((CORE / "merge.py").read_text())
    assert any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "take_stretch" for n in ast.walk(merge))


def test_one_site_builds_the_maintenance_scheduler():
    def builds_scheduler(node):
        return isinstance(node, ast.Call) and (
            is_attr(node.func, "MaintenanceScheduler")
            or isinstance(node.func, ast.Name)
            and node.func.id == "MaintenanceScheduler")

    assert functions_where(builds_scheduler) == {
        "database.py:start_maintenance"}


def test_the_loop_isolates_nothing_itself():
    """Per-table crash isolation is the pass's; ``scheduler.py`` is
    threads around it and catches nothing."""
    scheduler = ast.parse((CORE / "scheduler.py").read_text())
    assert not [n.lineno for n in ast.walk(scheduler)
                if isinstance(n, ast.ExceptHandler)]


def test_a_memtable_publishes_its_state_in_two_places():
    """Readers race ``MemTable._state`` off-lock, so it is stored whole
    where it is born and where a batch is sealed, and nowhere else; and
    what is behind it (the hash index, the runs) is nobody else's to
    read: outside ``memtable.py`` only a ``self.`` of some other class
    may spell one of its underscore names."""
    memtable = CORE / "memtable.py"

    def targets(node):
        return getattr(node, "targets", None) or [
            getattr(node, "target", None)]

    assert functions_where(
        lambda n: isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and any(is_attr(t, "_state") for t in targets(n)),
        [memtable]) == {"memtable.py:__init__", "memtable.py:seal"}

    private = {t.attr for n in ast.walk(ast.parse(memtable.read_text()))
               if isinstance(n, (ast.Assign, ast.AnnAssign))
               for t in targets(n)
               if isinstance(t, ast.Attribute) and t.attr.startswith("_")}
    assert {"_state", "_index"} <= private
    for path in sorted(CORE.parent.rglob("*.py")):
        if path == memtable:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in private:
                assert isinstance(node.value, ast.Name) \
                    and node.value.id == "self", f"{path}:{node.lineno}"
