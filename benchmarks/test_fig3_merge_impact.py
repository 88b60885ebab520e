"""Figure 3 - insert throughput with active tablet merging (§5.1.3).

The paper inserts 16 GB of 4 kB rows and sees: a CPU-limited burst, a
disk-bound plateau (~70 MB/s) once the 100-tablet flush backlog fills,
a throughput drop when the merge thread wakes 90 s in, and finally an
equilibrium "vacillating between 30-40 MB/s" with write amplification
2.  We run the same dynamics at reduced scale (DESIGN.md §2): bytes,
flush size, merged-tablet cap, backlog, and merge delay all scaled
together.
"""

import pytest

from repro.bench.harness import print_figure, run_merge_impact

MIB = 1024 * 1024


def _run():
    return run_merge_impact(
        total_bytes=320 * MIB,
        row_size=4096,
        batch_bytes=64 * 1024,
        flush_bytes=1 * MIB,          # paper: 16 MB
        max_merged_bytes=8 * MIB,     # paper: 128 MB (same 8x ratio)
        backlog_limit=25,             # paper: 100 tablets
        merge_delay_s=0.5,            # paper: 90 s
        window_s=0.25,                # paper: 5 s windows
    )


# What the red assert below prints today: equilibrium and plateau MB/s
# on the modeled-disk clock, where they repeat exactly.
RED_EQUILIBRIUM_OVER_PLATEAU = (22.08, 111.75)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: Figure 3 settles near a fifth of the "
           "plateau, not the paper's half (assert 22.08 > 0.2 * 111.75); "
           "recorded red, not hidden - an XPASS, or the pin below, fails "
           "the job for any PR that moves it without saying so")
def test_insert_throughput_under_merging(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_figure(
        "Figure 3: insert throughput over time (merge events marked *)",
        ["t (s)", "MB/s", "merges"],
        [
            [f"{t:.2f}", f"{mbps:.1f}",
             "*" * min(8, sum(1 for m in result.merge_events
                              if t <= m < t + 0.25))]
            for t, mbps in result.samples
        ],
    )
    benchmark.extra_info.update({
        "write_amplification": round(result.write_amplification, 2),
        "merge_count": len(result.merge_events),
        "first_merge_s": round(result.merge_events[0], 2)
        if result.merge_events else None,
        "duration_s": round(result.duration_s, 2),
    })

    first_merge = result.merge_events[0]
    pre_merge = result.mean_mbps(0.25, first_merge)
    post_merge = result.mean_mbps(first_merge + 0.5, result.duration_s)
    initial = result.samples[0][1]

    # The three phases, in the paper's order and rough proportions:
    # CPU-limited burst well above the disk-bound plateau...
    assert initial > 1.8 * pre_merge
    # ...the backlog fills (inserts became flush-limited)...
    assert result.backlog_peak >= 25
    # ...and merge competition roughly halves throughput (paper:
    # 70 MB/s -> 30-40 MB/s).
    assert post_merge < 0.75 * pre_merge
    if (round(post_merge, 2),
            round(pre_merge, 2)) != RED_EQUILIBRIUM_OVER_PLATEAU:
        pytest.fail(   # not an AssertionError: the xfail does not cover it
            f"Figure 3 moved to {post_merge:.2f} over {pre_merge:.2f} MB/s "
            f"from {RED_EQUILIBRIUM_OVER_PLATEAU}: re-record it here, in "
            f"the xfail reason and in EXPERIMENTS, or drop the xfail")
    assert post_merge > 0.2 * pre_merge
    # Write amplification ~2: each row is rewritten about once (the
    # scaled run merges slightly more aggressively than the paper's).
    assert 1.5 <= result.write_amplification <= 3.5
    # Merging only starts after the configured delay.
    assert first_merge >= 0.5
