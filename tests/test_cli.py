"""Tests for the SQL shell (repro.cli)."""

import io

import pytest

from repro.cli import Shell, format_result, main, open_database
from repro.core import LittleTable
from repro.sqlapi.executor import SqlResult


@pytest.fixture
def shell():
    out = io.StringIO()
    return Shell(LittleTable(), out=out), out


CREATE = ("CREATE TABLE t (k INT64, ts TIMESTAMP, v INT64, "
          "PRIMARY KEY (k, ts));")


class TestFormatResult:
    def test_no_columns(self):
        assert format_result(SqlResult([], [], 3)) == "ok (3 affected)"

    def test_empty_rows(self):
        assert format_result(SqlResult(["a"], [])) == "(no rows)"

    def test_alignment(self):
        text = format_result(SqlResult(["col", "x"], [(1, 22), (333, 4)]))
        lines = text.splitlines()
        assert lines[0].startswith("col")
        assert lines[-1] == "(2 rows)"

    def test_blob_rendering(self):
        text = format_result(SqlResult(["b"], [(b"\x01\x02",)]))
        assert "X'0102'" in text
        long_blob = format_result(SqlResult(["b"], [(bytes(100),)]))
        assert "(100 bytes)" in long_blob

    def test_float_rendering(self):
        assert "1.5" in format_result(SqlResult(["f"], [(1.5,)]))


class TestShell:
    def test_statement_round_trip(self, shell):
        sh, out = shell
        sh.run([CREATE, "INSERT INTO t (k, ts, v) VALUES (1, 10, 5);",
                "SELECT * FROM t;"])
        text = out.getvalue()
        assert "ok (1 affected)" in text
        assert "(1 rows)" in text

    def test_multiline_statement(self, shell):
        sh, out = shell
        assert sh.feed("SELECT *\n")
        assert sh.feed("FROM nowhere;\n")
        assert "error:" in out.getvalue()

    def test_errors_do_not_kill_shell(self, shell):
        sh, out = shell
        sh.run(["SELECT * FROM missing;", CREATE, ".tables"])
        text = out.getvalue()
        assert "error:" in text
        assert "t" in text.splitlines()[-1]

    def test_dot_tables_empty(self, shell):
        sh, out = shell
        sh.feed(".tables\n")
        assert "(no tables)" in out.getvalue()

    def test_dot_help(self, shell):
        sh, out = shell
        sh.feed(".help\n")
        assert "CREATE TABLE" in out.getvalue()

    def test_dot_maintenance(self, shell):
        sh, out = shell
        sh.run([CREATE, "INSERT INTO t (k, ts, v) VALUES (1, 10, 5);"])
        sh.feed(".maintenance\n")
        assert "flushed" in out.getvalue()

    def test_quit_stops_run(self, shell):
        sh, out = shell
        assert sh.run([".quit", "SELECT * FROM missing;"]) is False
        assert "error" not in out.getvalue()

    def test_unknown_dot_command(self, shell):
        sh, out = shell
        sh.feed(".bogus\n")
        assert "unknown command" in out.getvalue()


class TestOperatorCommands:
    def test_dot_stats(self, shell):
        sh, out = shell
        sh.run([CREATE, "INSERT INTO t (k, ts, v) VALUES (1, 10, 5);"])
        sh.feed(".stats\n")
        text = out.getvalue()
        assert "t:" in text
        assert "rows: 1" in text
        assert "write_amplification" in text

    def test_dot_stats_named_table(self, shell):
        sh, out = shell
        sh.run([CREATE])
        sh.feed(".stats t\n")
        assert "rows: 0" in out.getvalue()
        sh.feed(".stats ghost\n")
        assert "error:" in out.getvalue()

    def test_dot_fsck_healthy(self, shell):
        sh, out = shell
        sh.run([CREATE, "INSERT INTO t (k, ts, v) VALUES (1, 10, 5);",
                "FLUSH t;"])
        sh.feed(".fsck\n")
        assert "all tables healthy" in out.getvalue()

    def test_dot_fsck_reports_damage(self, shell):
        sh, out = shell
        sh.run([CREATE, "INSERT INTO t (k, ts, v) VALUES (1, 10, 5);",
                "FLUSH t;"])
        table = sh.db.table("t")
        table.descriptor.tablets[0].row_count += 1
        table.evict_reader_cache()
        sh.feed(".fsck\n")
        assert "row count mismatch" in out.getvalue()

    def test_explain_through_shell(self, shell):
        sh, out = shell
        sh.run([CREATE, "EXPLAIN SELECT * FROM t WHERE k = 1;"])
        assert "key prefix depth" in out.getvalue()


class TestStatsCache:
    def test_stats_json_has_cache_subsection(self, tmp_path, capsys):
        import json

        data = str(tmp_path / "lt")
        assert main(["--data", data, "-e", CREATE.rstrip(";"),
                     "-e", "INSERT INTO t (k, ts, v) VALUES (1, 10, 5)",
                     "-e", "FLUSH t", "-e", "SELECT * FROM t"]) == 0
        capsys.readouterr()
        assert main(["stats", "--data", data, "--json"]) == 0
        page = json.loads(capsys.readouterr().out)
        cache = page["cache"]
        for section in ("block", "latest"):
            assert {"hits", "misses", "hit_rate"} <= set(cache[section])
        assert "evictions" in cache["block"]
        assert "resident_bytes" in cache["block"]
        assert "invalidations" in cache
        assert "generation_bumps" in cache
        assert "tablets_pruned" in cache

    def test_stats_text_renders_cache_section(self, tmp_path, capsys):
        data = str(tmp_path / "lt")
        assert main(["--data", data, "-e", CREATE.rstrip(";")]) == 0
        capsys.readouterr()
        assert main(["stats", "--data", data]) == 0
        out = capsys.readouterr().out
        assert "== read cache ==" in out
        assert "cache_hit_rate" in out
        assert "tablets_pruned_per_query" in out


class TestStatsMaintenance:
    def test_merge_debt_is_rendered_per_table(self, tmp_path, capsys):
        import json

        data = str(tmp_path / "lt")
        assert main(["--data", data, "-e", CREATE.rstrip(";"),
                     "-e", "INSERT INTO t (k, ts, v) VALUES (1, 10, 5)",
                     "-e", "FLUSH t"]) == 0
        capsys.readouterr()
        assert main(["stats", "--data", data, "--json"]) == 0
        page = json.loads(capsys.readouterr().out)
        assert page["tables"]["t"]["merge_debt_bytes"] == 0
        assert page["maintenance"]["merge_debt_bytes"] == {"t": 0}
        assert "queue_depth" not in page["maintenance"]
        assert main(["stats", "--data", data]) == 0
        assert "merge_debt: t=0B" in capsys.readouterr().out


class TestPersistence:
    def test_data_dir_round_trip(self, tmp_path, capsys):
        data = str(tmp_path / "lt")
        assert main(["--data", data, "-e", CREATE.rstrip(";"),
                     "-e", "INSERT INTO t (k, ts, v) VALUES (1, 10, 5)"]) == 0
        capsys.readouterr()
        assert main(["--data", data, "-e", "SELECT v FROM t"]) == 0
        assert "(1 rows)" in capsys.readouterr().out

    def test_in_memory_database(self):
        db = open_database(None)
        assert db.table_names() == []
