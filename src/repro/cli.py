"""littletable - a SQL shell over a LittleTable data directory.

Usage:

    python -m repro.cli --data /var/lib/littletable            # REPL
    python -m repro.cli --data ./lt -e "SHOW TABLES"           # one-shot
    echo "SELECT * FROM usage LIMIT 5" | python -m repro.cli --data ./lt
    python -m repro.cli stats --connect 127.0.0.1:7878         # live stats
    python -m repro.cli stats --data ./lt --json               # offline

(The ``ltdb`` console script installs the same entry point.)

The data directory holds real files (descriptors and tablets) via
:class:`~repro.disk.storage.FileStorage`, so databases persist across
invocations - create a table in one run, query it in the next.  With
no ``--data``, an in-memory database lasts for the session.

Statements are the SQL subset of :mod:`repro.sqlapi` plus shell
commands ``.help``, ``.tables``, ``.maintenance``, and ``.quit``.

The ``stats`` subcommand renders the observability registry - the
very same ``db.metrics.snapshot()`` view the STATS protocol command
and ``LittleTableClient.stats()`` return.  ``--connect host:port``
reads a running server's live registry over TCP; ``--data`` opens the
directory in process (engine counters start at zero in a fresh
process, but table shape summaries are always meaningful).
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Optional, TextIO

from .core.database import LittleTable
from .core.errors import LittleTableError
from .disk.storage import FileStorage
from .disk.vfs import SimulatedDisk
from .sqlapi.executor import SqlResult, SqlSession
from .sqlapi.lexer import SqlError

_HELP = """\
Statements end with ';'.  Supported SQL:
  CREATE TABLE t (col TYPE [DEFAULT v], ..., PRIMARY KEY (.., ts)) [WITH TTL s]
  INSERT INTO t (cols) VALUES (...), (...)
  SELECT cols|aggregates FROM t [WHERE ...] [GROUP BY ...]
         [ORDER BY KEY [DESC]] [LIMIT n]
  DELETE FROM t WHERE <key prefix equalities>
  FLUSH t [BEFORE ts] | ALTER TABLE ... | DROP TABLE t
  SHOW TABLES | DESCRIBE t
Shell commands:
  .help         this text
  .tables       list tables
  .maintenance  run one flush/merge/expiry tick
  .stats [t..]  table shape and activity summaries
  .metrics      engine metrics registry snapshot + recent operations
  .fsck         check descriptor/tablet integrity
  .quit         exit
"""


def format_result(result: SqlResult) -> str:
    """Render a result like the benchmark tables."""
    if not result.columns:
        return f"ok ({result.rows_affected} affected)"
    if not result.rows:
        return "(no rows)"
    rendered = [[_render_cell(cell) for cell in row] for row in result.rows]
    widths = [len(name) for name in result.columns]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(name.ljust(width)
                  for name, width in zip(result.columns, widths)),
        "  ".join("-" * width for width in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rendered
    )
    lines.append(f"({len(result.rows)} rows)")
    return "\n".join(lines)


def _render_cell(cell) -> str:
    if isinstance(cell, bytes):
        if len(cell) > 16:
            return f"X'{cell[:16].hex()}...' ({len(cell)} bytes)"
        return f"X'{cell.hex()}'"
    if isinstance(cell, float):
        return f"{cell:g}"
    return str(cell)


class Shell:
    """Reads statements, executes them, prints results."""

    def __init__(self, db: LittleTable, out: Optional[TextIO] = None):
        self.db = db
        self.session = SqlSession(db)
        self.out = out if out is not None else sys.stdout
        self._buffer = ""

    def _print(self, text: str) -> None:
        print(text, file=self.out)

    def execute_line(self, line: str) -> bool:
        """Run one statement or shell command.

        Returns False when the shell should exit.
        """
        line = line.strip()
        if not line:
            return True
        if line in (".quit", ".exit"):
            return False
        if line == ".help":
            self._print(_HELP)
            return True
        if line == ".tables":
            names = self.db.table_names()
            self._print("\n".join(names) if names else "(no tables)")
            return True
        if line == ".fsck":
            from .core.check import check_database

            findings = check_database(self.db)
            total = sum(len(found) for found in findings.values())
            if total == 0:
                self._print("ok: all tables healthy")
            else:
                for _table, found in sorted(findings.items()):
                    for issue in found:
                        self._print(str(issue))
            return True
        if line == ".stats" or line.startswith(".stats "):
            names = (line.split(None, 1)[1].split()
                     if " " in line else self.db.table_names())
            for name in names:
                try:
                    summary = self.db.table(name).stats_summary()
                except LittleTableError as exc:
                    self._print(f"error: {exc}")
                    continue
                self._print(f"{name}:")
                for key, value in summary.items():
                    if key == "name":
                        continue
                    self._print(f"  {key}: {value}")
            if not names:
                self._print("(no tables)")
            return True
        if line == ".metrics":
            from .dashboard.metrics_view import metrics_page, \
                render_metrics_page

            self._print(render_metrics_page(metrics_page(self.db)))
            return True
        if line == ".maintenance":
            totals = self.db.maintenance().totals()
            self._print(f"flushed {totals.flushed}, merged {totals.merged}, "
                        f"expired {totals.expired}")
            for message in totals.errors:
                self._print(f"error: {message}")
            return True
        if line.startswith("."):
            self._print(f"unknown command {line!r} (try .help)")
            return True
        try:
            result = self.session.execute(line)
        except (SqlError, LittleTableError) as exc:
            self._print(f"error: {exc}")
            return True
        self._print(format_result(result))
        return True

    def feed(self, line: str) -> bool:
        """Feed one input line; ';' terminates statements, shell
        commands (leading '.') need no terminator.  Partial statements
        accumulate across calls.  Returns False after ``.quit``.
        """
        self._buffer += line
        if self._buffer.lstrip().startswith("."):
            command = self._buffer.strip()
            self._buffer = ""
            return self.execute_line(command)
        while ";" in self._buffer:
            statement, _sep, self._buffer = self._buffer.partition(";")
            if not self.execute_line(statement):
                return False
        return True

    def run(self, lines: Iterable[str]) -> bool:
        """Feed many lines (script mode); flushes a trailing partial
        statement at EOF.  Returns False if a ``.quit`` fired."""
        for line in lines:
            if not self.feed(line):
                return False
        if self._buffer.strip():
            remaining = self._buffer
            self._buffer = ""
            return self.execute_line(remaining)
        return True


def open_database(data_dir: Optional[str],
                  durability=None) -> LittleTable:
    """A persistent database over ``data_dir``, or in-memory."""
    kwargs = {} if durability is None else {"durability": durability}
    if data_dir is None:
        return LittleTable(**kwargs)
    return LittleTable(disk=SimulatedDisk(FileStorage(data_dir)), **kwargs)


def _parse_durability(args) -> Optional["object"]:
    """Fold the serve durability flags into one policy (or None)."""
    if args.durability is None and args.wal_segment_bytes is None:
        return None
    from .core.durability import DurabilityPolicy

    fields = {}
    if args.durability is not None:
        fields["tier"] = args.durability
    if args.wal_segment_bytes is not None:
        fields["wal_segment_bytes"] = args.wal_segment_bytes
    policy = DurabilityPolicy(**fields)
    policy.validate()
    return policy


def stats_main(argv: list) -> int:
    """The ``stats`` subcommand: render the registry snapshot.

    With ``--connect`` the snapshot comes from a live server via the
    STATS protocol command; with ``--data`` (or nothing) a database is
    opened in process and its own registry is snapshotted.  Either
    way it is the same view as ``db.metrics.snapshot()``.
    """
    parser = argparse.ArgumentParser(
        prog="littletable stats",
        description="show the engine's observability registry")
    parser.add_argument("--data", metavar="DIR", default=None,
                        help="data directory to open in process")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="read a running server's live registry")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw snapshot as JSON")
    args = parser.parse_args(argv)
    if args.connect is not None:
        from .net.client import LittleTableClient

        host, _sep, port = args.connect.rpartition(":")
        if not port.isdigit():
            print(f"error: --connect wants HOST:PORT, got {args.connect!r}",
                  file=sys.stderr)
            return 2
        try:
            with LittleTableClient(host or "127.0.0.1", int(port)) as client:
                page = {"metrics": client.stats(),
                        "tables": client.table_stats(), "spans": [],
                        "health": client.health()}
        except OSError as exc:
            print(f"error: cannot reach {args.connect}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        from .dashboard.metrics_view import metrics_page

        with open_database(args.data) as db:
            page = metrics_page(db)
    from .dashboard.metrics_view import (admission_summary, cache_summary,
                                         codec_summary, fault_summary,
                                         maintenance_summary,
                                         pushdown_summary)

    page["cache"] = cache_summary(page.get("metrics", {}))
    page["codec"] = codec_summary(page.get("metrics", {}))
    page["maintenance"] = maintenance_summary(page.get("metrics", {}),
                                              page.get("tables", {}))
    page["fault"] = fault_summary(page.get("metrics", {}))
    page["query"] = pushdown_summary(page.get("metrics", {}))
    page["admission"] = admission_summary(page.get("metrics", {}))
    if args.json:
        import json as _json

        print(_json.dumps(page, indent=2, sort_keys=True))
    else:
        from .dashboard.metrics_view import render_metrics_page

        print(render_metrics_page(page))
    return 0


def fsck_main(argv: list) -> int:
    """The ``fsck`` subcommand: offline integrity check and repair.

    Runs the startup scrub (crash-garbage collection + trailer/footer
    verification) when opening the directory, then the exhaustive
    :func:`~repro.core.check.check_database` row-level verification.
    ``--repair`` additionally quarantines every hot tablet with an
    error-severity finding.  Exit status 0 = healthy, 1 = problems
    found (or repaired), 2 = usage/corrupt-root errors.
    """
    parser = argparse.ArgumentParser(
        prog="littletable fsck",
        description="verify descriptor and tablet integrity")
    parser.add_argument("--data", metavar="DIR", required=True,
                        help="data directory to check")
    parser.add_argument("--repair", action="store_true",
                        help="quarantine tablets with error findings")
    args = parser.parse_args(argv)
    from .core.check import ERROR, check_database, repair_database
    from .core.config import EngineConfig
    from .core.errors import CorruptTabletError

    # Without --repair the check is strictly read-only: no startup
    # scrub (it deletes crash garbage and moves damaged files) and no
    # read-path quarantine.
    config = EngineConfig(startup_scrub=args.repair,
                          quarantine_on_corruption=args.repair)
    try:
        db = LittleTable(disk=SimulatedDisk(FileStorage(args.data)),
                         config=config)
    except CorruptTabletError as exc:
        print(f"fsck: unrecoverable: {exc}", file=sys.stderr)
        return 2
    with db:
        scrub = db.last_scrub
        for temp in scrub.temps_removed:
            print(f"scrub: removed stale descriptor temp {temp}")
        for orphan in scrub.orphans_removed:
            print(f"scrub: removed orphan file {orphan}")
        for moved in scrub.quarantined:
            print(f"scrub: quarantined {moved}")
        for issue in scrub.issues:
            print(f"scrub: {issue}")
        findings = check_database(db)
        problems = 0
        for _table, found in sorted(findings.items()):
            for issue in found:
                problems += issue.severity == ERROR
                print(str(issue))
        if args.repair and problems:
            for table_name, moved in sorted(repair_database(db).items()):
                for filename in moved:
                    print(f"repaired: {table_name}: quarantined {filename}")
        if problems == 0 and scrub.clean:
            print("ok: all tables healthy")
            return 0
        return 1


def serve_main(argv: list, *, stop_event=None, on_ready=None) -> int:
    """The ``serve`` subcommand: run a LittleTable server.

    Serves a :class:`~repro.net.shard.ShardRouter` (``--shards N``;
    N=1 still routes, through a single worker) through the asyncio
    pipelined front end, with every engine's background maintenance
    (flush by age, merge, TTL expiry: §3.3's always-on merger) running
    under its default :class:`~repro.core.maintenance.MaintenancePolicy`.

    ``--durability TIER`` (with ``--wal-segment-bytes``) sets the
    served engines' default
    :class:`~repro.core.durability.DurabilityPolicy`.  ``--follow
    HOST:PORT`` runs a warm standby instead: a single read-only
    engine that streams sealed WAL segments and tablet manifests from
    the primary at that address, serves ``query``/``latest``/``stats``
    locally, and reports replication lag through ``wal_status``.

    ``stop_event``/``on_ready`` are test hooks: ``on_ready(server)``
    fires once the socket is bound, and the command exits when
    ``stop_event`` is set (instead of only on Ctrl-C).
    """
    parser = argparse.ArgumentParser(
        prog="littletable serve",
        description="serve a database over the wire protocol")
    parser.add_argument("--data", metavar="DIR", default=None,
                        help="data directory (default: in-memory); "
                             "sharded servers use DIR/shard-NN")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7421,
                        help="bind port (default: 7421; 0 = ephemeral)")
    parser.add_argument("--shards", type=int, default=4, metavar="N",
                        help="engine workers to partition tables "
                             "across (default: 4)")
    parser.add_argument("--durability", default=None,
                        choices=["none", "wal", "replicated"],
                        help="default durability tier for new tables "
                             "(default: none, the paper's prefix "
                             "durability)")
    parser.add_argument("--wal-segment-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="WAL segment size before sealing")
    parser.add_argument("--follow", metavar="HOST:PORT", default=None,
                        help="run as a warm standby replicating from "
                             "a primary (read-only, single engine)")
    args = parser.parse_args(argv)
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    try:
        durability = _parse_durability(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.follow is not None:
        if args.shards != parser.get_default("shards") and args.shards != 1:
            print("error: --follow runs a single-engine standby; "
                  "drop --shards", file=sys.stderr)
            return 2
        return _serve_follower(args, stop_event=stop_event,
                               on_ready=on_ready)
    from .net.async_server import AsyncLittleTableServer
    from .net.shard import ShardRouter

    db = ShardRouter(shards=args.shards, data_dir=args.data,
                     durability=durability)
    server = AsyncLittleTableServer(db, host=args.host, port=args.port)
    import threading

    if stop_event is None:
        stop_event = threading.Event()
    try:
        db.start_maintenance()
        with server:
            host, port = server.address
            print(f"serving on {host}:{port} (async pipelined, "
                  f"{args.shards} shard(s)); Ctrl-C to stop", flush=True)
            if on_ready is not None:
                on_ready(server)
            while not stop_event.wait(timeout=0.5):
                pass
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        db.close()
    return 0


def _serve_follower(args, *, stop_event=None, on_ready=None) -> int:
    """``serve --follow``: a warm standby next to a read-only server."""
    primary_host, _sep, primary_port = args.follow.rpartition(":")
    if not primary_port.isdigit():
        print(f"error: --follow wants HOST:PORT, got {args.follow!r}",
              file=sys.stderr)
        return 2
    import threading

    from .net.async_server import AsyncLittleTableServer
    from .net.replica import Follower

    db = open_database(args.data)
    follower = Follower(db, primary_host or "127.0.0.1",
                        int(primary_port))
    server = AsyncLittleTableServer(db, host=args.host, port=args.port)
    if stop_event is None:
        stop_event = threading.Event()
    try:
        follower.start()
        with server:
            host, port = server.address
            print(f"standby on {host}:{port} following {args.follow} "
                  f"(read-only); Ctrl-C to stop", flush=True)
            if on_ready is not None:
                on_ready(server)
            while not stop_event.wait(timeout=0.5):
                pass
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        follower.stop()
        db.close()
    return 0


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    if argv and argv[0] == "fsck":
        return fsck_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="littletable",
        description="SQL shell for the LittleTable reproduction "
                    "(subcommands: stats, fsck, serve)")
    parser.add_argument("--data", metavar="DIR", default=None,
                        help="data directory (default: in-memory)")
    parser.add_argument("-e", "--execute", metavar="SQL", action="append",
                        help="execute a statement and exit (repeatable)")
    args = parser.parse_args(argv)
    db = open_database(args.data)
    shell = Shell(db)
    if args.execute:
        for statement in args.execute:
            shell.execute_line(statement.rstrip(";"))
        db.flush_all()
        return 0
    if sys.stdin.isatty():
        print("LittleTable reproduction shell - .help for help, "
              ".quit to exit")
        try:
            while True:
                prompt = "littletable> " if not shell._buffer else "... "
                if not shell.feed(input(prompt) + "\n"):
                    break
        except (EOFError, KeyboardInterrupt):
            pass
    else:
        shell.run(sys.stdin)
    db.flush_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
