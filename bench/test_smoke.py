"""Schema check of the benchmark: ``python -m pytest bench -q``.

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/``
only).  Runs every workload (the two ``BENCHMARK.json`` lists and the two it
does not) at ``--smoke`` size, untraced and traced, and checks the
result line against ``BENCHMARK.json``; the numbers
themselves mean nothing at this size.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import gen, layers                   # noqa: E402
from bench.workloads import WORKLOADS           # noqa: E402


def run(workload: str, trace: int, seed: int = 7) -> dict:
    command = MANIFEST["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_result_line_matches_the_manifest(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_manifest_names_and_limits():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in MANIFEST[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in MANIFEST["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


def test_manifest_is_the_catalogue():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]] == layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in MANIFEST["per_layer"]] == layers.PER_LAYER
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values() if w.gated]


def test_seed_changes_inputs_but_not_op_counts():
    for workload in WORKLOADS.values():
        shape = workload.shape(1.0, smoke=True)
        one, again, other = (gen.make_inputs(seed, shape)
                             for seed in (1, 1, 2))
        assert one.usage.rows == again.usage.rows
        assert one.loads == again.loads
        assert one.usage.rows != other.usage.rows
        assert one.op_counts() == other.op_counts()
