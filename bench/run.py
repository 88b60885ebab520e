#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py                      all four workloads (the two
                                              BENCHMARK.json lists and the two
                                              it does not), untraced then
                                              traced, as a table
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                              one run; the last line of
                                              standard output is its result

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` makes two passes over half the ops, one untraced for
reference and one traced, and reports the per-layer metrics.  ``--out FILE``
appends every result to a JSON list that ``bench/compare.py`` reads;
``--repeat N`` runs seeds ``seed .. seed+N-1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "bench"]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import config, gen, layers, trace            # noqa: E402
from bench.workloads import WORKLOADS, Tally  # noqa: E402

CLIENT_OPS = ("net.client.insert", "net.client.latest", "net.client.scan")


def validity_problems(tally: Tally) -> List[str]:
    """An ingest that never flushed, whose maintenance failed, or that
    fell off the uniqueness fast path measured something else."""
    counters = tally.counters
    problems = []
    if not counters.get("flush.count"):
        problems.append("invalid: no memtable was ever flushed")
    if counters.get("maintenance.errors"):
        problems.append("invalid: background maintenance raised errors")
    slow = layers.ratio(counters.get("insert.uniqueness.slow_path", 0),
                        counters.get("insert.rows", 0))
    if slow > 0.01:
        problems.append(f"invalid: {slow:.1%} of rows took the uniqueness "
                        f"slow path")
    return problems


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    if smoke:
        seconds = min(seconds, 0.5)
    inputs = gen.make_inputs(seed, workload.shape(
        seconds / 2.0 if traced else seconds, smoke))
    # The oracle's rows stay for the whole run; frozen, they are not
    # walked by every full collection the program's own garbage causes.
    gc.collect()
    gc.freeze()
    workdir = config.WORK_ROOT / f"run-{os.getpid()}"
    reference = Tally()
    try:
        if traced:
            reference = workload.measure(inputs, False, workdir, 1)
            tally = workload.measure(inputs, True, workdir, 1)
        else:
            tally = workload.measure(inputs, False, workdir,
                                     1 if smoke else workload.setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if config.WORK_ROOT.is_dir() and not any(config.WORK_ROOT.iterdir()):
            config.WORK_ROOT.rmdir()

    problems = tally.problems + reference.problems
    if not smoke:       # too few rows for a flush: a schema check only
        problems += validity_problems(tally)
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(traced),
        "measured_s": tally.measured_s,
        "op_counts": inputs.op_counts(),
        "samples": layers.sample_counts(tally),
        "attempted": tally.attempted + reference.attempted,
        "failed": tally.failed + reference.failed,
        "problems": problems,
    }
    result["correct"] = not problems and result["failed"] == 0
    if traced:
        spans = trace.SpanSet(tally.records)
        values = layers.per_layer(tally, reference, spans,
                                  layers.replay_probes(inputs))
        catalogue = [(n, u) for n, u, _ in layers.PER_LAYER]
        result["stages"] = {
            root: layers.stage_table(spans, [root]) for root in CLIENT_OPS}
    else:
        values = layers.end_to_end(tally)
        catalogue = [(n, u) for n, u, _, _ in layers.END_TO_END]
    result["metrics"] = {n: {"value": values[n], "unit": u}
                         for n, u in catalogue}
    return result


def describe(result: Dict[str, Any]) -> str:
    """Every metric by name with its unit, for people."""
    lines = [f"{result['workload']}  seed {result['seed']}  trace "
             f"{result['trace']}  measured {result['measured_s']:.2f} s  "
             f"samples {result['samples']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    for root, (stages, wall, count) in result.get("stages", {}).items():
        if not count:
            continue
        lines.append(f"  stage table for {root}: {count} ops, "
                     f"{wall / count * 1e3:.3f} ms each")
        for stage, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {stage:<40} {seconds / count * 1e6:>12.1f} us"
                         f"  {seconds / wall:>6.1%}")
        lines.append(f"    {'sum of stages':<40} "
                     f"{sum(stages.values()) / count * 1e6:>12.1f} us"
                     f"  {sum(stages.values()) / wall:>6.1%}")
    for problem in result["problems"]:
        lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


def final_line(result: Dict[str, Any]) -> str:
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="half a second of ops, an eighth of the preload, "
                             "one set-up: a schema check, not a measurement")
    args = parser.parse_args()

    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = []
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            for traced in modes:
                result = run_workload(name, seed, args.seconds, traced,
                                      args.smoke)
                results.append(result)
                print(describe(result), flush=True)
    if args.out:
        earlier = json.loads(args.out.read_text()) if args.out.exists() else []
        args.out.write_text(json.dumps(earlier + results, indent=1))
    if args.workload and len(results) == 1:
        print(final_line(results[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
