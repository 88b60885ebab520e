"""The Dashboard's engine-health page: one registry snapshot, rendered.

The paper's operators reason about flush/merge behaviour, tablet
counts, and rewrite cost (§4, appendix); this view puts those numbers
in front of them.  It consumes the same
``MetricsRegistry.snapshot()`` that the STATS protocol command and
``python -m repro.cli stats`` expose, so every surface agrees.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.database import LittleTable
from ..obs.metrics import render_snapshot


def metrics_page(db: LittleTable,
                 recent_spans: int = 20) -> Dict[str, Any]:
    """Everything the engine-health page needs, as plain data.

    ``metrics`` is the registry snapshot verbatim; ``tables`` adds the
    per-table shape summaries (tablet counts per period, write
    amplification, scan ratio); ``spans`` lists the most recent traced
    operations (flushes, merges, TTL reclaims), oldest first.
    """
    return {
        "metrics": db.metrics.snapshot(),
        "tables": {name: db.table(name).stats_summary()
                   for name in db.table_names()},
        "spans": [span.to_dict()
                  for span in db.tracer.recent(limit=recent_spans)],
        "health": db.health(),
    }


def derived_health(snapshot: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Ratios operators actually watch, derived from raw counters.

    * ``write_amplification`` - (flushed + merge-written bytes) per
      flushed byte; the merge-pathology indicator.
    * ``rewrites_per_row`` - merge-rewritten rows per inserted row;
      the appendix bounds this at O(log T).
    * ``bloom_skip_rate`` - fraction of Bloom probes that let a scan
      skip a tablet (§3.4.5's payoff).
    * ``scan_ratio`` - rows scanned per row returned (Figure 9).
    * ``cache_hit_rate`` - block-cache hits per lookup; the read
      path's warm/cold balance.
    * ``tablets_pruned_per_query`` - tablets the prune index skipped,
      per query.
    """
    counters = snapshot.get("counters", {})

    def ratio(numerator: float, denominator: float) -> Optional[float]:
        return numerator / denominator if denominator else None

    flushed = counters.get("flush.bytes", 0)
    block_hits = counters.get("readcache.block.hits", 0)
    return {
        "write_amplification": ratio(
            flushed + counters.get("merge.bytes_written", 0), flushed),
        "rewrites_per_row": ratio(
            counters.get("merge.rows_rewritten", 0),
            counters.get("insert.rows", 0)),
        "bloom_skip_rate": ratio(
            counters.get("bloom.negatives", 0),
            counters.get("bloom.probes", 0)),
        "scan_ratio": ratio(
            counters.get("query.rows_scanned", 0),
            counters.get("query.rows_returned", 0)),
        "cache_hit_rate": ratio(
            block_hits,
            block_hits + counters.get("readcache.block.misses", 0)),
        "tablets_pruned_per_query": ratio(
            counters.get("query.tablets_pruned", 0),
            counters.get("query.count", 0)),
    }


def cache_summary(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The read-cache corner of a snapshot, as one nested dict.

    The ``cache`` subsection of ``ltdb stats --json`` and the
    engine-health page both render this.  ``block.rows_built`` is how
    many row tuples scans had built from cached columns: between
    ``block.rows_decoded`` and ``query.rows_returned``.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})

    def rate(hits: int, misses: int) -> Optional[float]:
        total = hits + misses
        return hits / total if total else None

    block_hits = counters.get("readcache.block.hits", 0)
    block_misses = counters.get("readcache.block.misses", 0)
    latest_hits = counters.get("readcache.latest.hits", 0)
    latest_misses = counters.get("readcache.latest.misses", 0)
    return {
        "block": {
            "hits": block_hits,
            "misses": block_misses,
            "hit_rate": rate(block_hits, block_misses),
            "evictions": counters.get("readcache.block.evictions", 0),
            "resident_bytes": gauges.get(
                "readcache.block.resident_bytes", 0),
            "entries": gauges.get("readcache.block.entries", 0),
            "rows_built": counters.get("readcache.rows_built", 0),
        },
        "latest": {
            "hits": latest_hits,
            "misses": latest_misses,
            "hit_rate": rate(latest_hits, latest_misses),
            "invalidations": counters.get(
                "readcache.latest.invalidations", 0),
        },
        "invalidations": counters.get("readcache.invalidations", 0),
        "generation_bumps": counters.get("readcache.generation", 0),
        "tablets_pruned": counters.get("query.tablets_pruned", 0),
    }


def codec_summary(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The block-codec corner of a snapshot.

    Encode/decode volume and cost of the block codec
    (``core/codec.py``), plus how many v1 and v2 blocks merges have
    rewritten into format v3.  Throughputs are derived from the
    ``codec.*_ns`` counters; None until the first block moves.
    """
    counters = snapshot.get("counters", {})

    def mrows_per_s(rows: int, ns: int) -> Optional[float]:
        return rows / (ns / 1e9) / 1e6 if ns else None

    rows_encoded = counters.get("codec.rows_encoded", 0)
    rows_decoded = counters.get("codec.rows_decoded", 0)
    encode_ns = counters.get("codec.encode_ns", 0)
    decode_ns = counters.get("codec.decode_ns", 0)
    return {
        "rows_encoded": rows_encoded,
        "rows_decoded": rows_decoded,
        "blocks_encoded": counters.get("codec.blocks_encoded", 0),
        "blocks_decoded": counters.get("codec.blocks_decoded", 0),
        "encode_ms": encode_ns / 1e6,
        "decode_ms": decode_ns / 1e6,
        "encode_mrows_per_s": mrows_per_s(rows_encoded, encode_ns),
        "decode_mrows_per_s": mrows_per_s(rows_decoded, decode_ns),
    }


def pushdown_summary(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The aggregate-query corner of a snapshot.

    Every aggregate runs inside the scan
    (``core/table.py:aggregate_partials``); what differs is how its
    input arrived: blocks that were column-major already against
    blocks of tablets that must be read as rows (written under an
    older schema), rows entering the kernels as decoded columns
    against rows transposed from runs (those tablets, and memtables),
    and rows the predicate kernels short-circuited before aggregation.
    """
    counters = snapshot.get("counters", {})
    rows_columnar = counters.get("query.pushdown.rows_columnar", 0)
    rows_fallback = counters.get("query.pushdown.rows_fallback", 0)
    total_rows = rows_columnar + rows_fallback
    return {
        "queries": counters.get("query.pushdown.queries", 0),
        "blocks_columnar": counters.get(
            "query.pushdown.blocks_columnar", 0),
        "blocks_fallback": counters.get(
            "query.pushdown.blocks_fallback", 0),
        "rows_columnar": rows_columnar,
        "rows_fallback": rows_fallback,
        "rows_kernel_filtered": counters.get(
            "query.pushdown.rows_kernel_filtered", 0),
        "columnar_row_fraction": (
            rows_columnar / total_rows if total_rows else None),
    }


def maintenance_summary(snapshot: Dict[str, Any],
                        tables: Dict[str, Dict[str, Any]]
                        ) -> Dict[str, Any]:
    """The background-maintenance corner of a page.

    What an operator needs to judge the non-blocking engine: is the
    loop running (ticks, per-table runs), are swaps actually brief
    (``swap_lock_hold_us`` percentiles - this is the *only* time
    maintenance holds the state lock), is the writer being stalled
    (backpressure), is deferred file reclamation draining
    (``deferred_deletes``), and how much merge debt each table owes
    (``merge_debt_bytes`` from the page's per-table
    ``stats_summary()``, computed when the page is built).
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    swap = histograms.get("maintenance.swap_lock_hold_us", {})
    stall_wait = histograms.get("insert.backpressure_wait_us", {})
    return {
        "ticks": counters.get("maintenance.ticks", 0),
        "table_runs": counters.get("maintenance.table_runs", 0),
        "errors": counters.get("maintenance.errors", 0),
        "deferred_deletes": counters.get("maintenance.deferred_deletes", 0),
        "swap_lock_hold_us": {
            "count": swap.get("count", 0),
            "p50": swap.get("p50"),
            "p99": swap.get("p99"),
            "max": swap.get("max"),
        },
        "backpressure": {
            "stalls": counters.get("insert.backpressure_stalls", 0),
            "wait_p99_us": stall_wait.get("p99"),
        },
        "merge_debt_bytes": {
            name: summary.get("merge_debt_bytes", 0)
            for name, summary in sorted(tables.items())},
    }


def admission_summary(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The overload-protection corner of a snapshot.

    How loaded the front door is (in-flight requests, queue waits)
    and how much it refused: slot sheds (admission queue timed out)
    versus deadline sheds (the request overran its client-propagated
    budget while queued).  The ``admission`` subsection of ``ltdb
    stats --json`` and the engine-health page both render this.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    wait = histograms.get("server.admission.queue_wait_us", {})
    return {
        "inflight": gauges.get("server.admission.inflight", 0),
        "shed": counters.get("server.admission.shed", 0),
        "deadline_sheds": counters.get("server.admission.deadline_sheds", 0),
        "queue_wait_p99_us": wait.get("p99"),
    }


def fault_summary(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The fault-tolerance corner of a snapshot.

    Detection (checksum failures), containment (quarantined tablets,
    scrub activity), degradation (read-only mode), and injection (how
    many faults the failpoint framework fired - nonzero only under
    test).  The ``fault`` subsection of ``ltdb stats --json`` and the
    engine-health page both render this.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    return {
        "checksum_failures": counters.get("storage.checksum_failures", 0),
        "quarantined_tablets": counters.get(
            "storage.quarantined_tablets", 0),
        "scrub_runs": counters.get("storage.scrub_runs", 0),
        "scrub_orphans_removed": counters.get(
            "storage.scrub_orphans_removed", 0),
        "scrub_quarantined": counters.get("storage.scrub_quarantined", 0),
        "read_only": bool(gauges.get("fault.read_only", 0)),
        "read_only_entries": counters.get("fault.read_only_entries", 0),
        "read_only_rejections": counters.get(
            "fault.read_only_rejections", 0),
        "faults_injected": counters.get("fault.injected", 0),
    }


def render_metrics_page(page: Dict[str, Any]) -> str:
    """Render :func:`metrics_page` output as text (CLI and logs)."""
    lines: List[str] = ["== engine metrics =="]
    lines.append(render_snapshot(page.get("metrics", {})))
    health = derived_health(page.get("metrics", {}))
    lines.append("")
    lines.append("== derived health ==")
    for name, value in health.items():
        rendered = "n/a" if value is None else f"{value:.3f}"
        lines.append(f"{name}  {rendered}")
    cache = cache_summary(page.get("metrics", {}))
    lines.append("")
    lines.append("== read cache ==")
    for section in ("block", "latest"):
        parts = ", ".join(
            f"{key}={'n/a' if value is None else value}"
            for key, value in cache[section].items())
        lines.append(f"{section}: {parts}")
    lines.append(
        f"invalidations={cache['invalidations']}, "
        f"generation_bumps={cache['generation_bumps']}, "
        f"tablets_pruned={cache['tablets_pruned']}")
    codec = codec_summary(page.get("metrics", {}))
    lines.append("")
    lines.append("== block codec ==")
    lines.append(
        f"encode: rows={codec['rows_encoded']}, "
        f"blocks={codec['blocks_encoded']}, "
        f"time={codec['encode_ms']:.1f}ms, "
        + ("throughput=n/a" if codec['encode_mrows_per_s'] is None else
           f"throughput={codec['encode_mrows_per_s']:.2f}Mrows/s"))
    lines.append(
        f"decode: rows={codec['rows_decoded']}, "
        f"blocks={codec['blocks_decoded']}, "
        f"time={codec['decode_ms']:.1f}ms, "
        + ("throughput=n/a" if codec['decode_mrows_per_s'] is None else
           f"throughput={codec['decode_mrows_per_s']:.2f}Mrows/s"))
    upkeep = maintenance_summary(page.get("metrics", {}),
                                 page.get("tables", {}))
    lines.append("")
    lines.append("== maintenance ==")
    lines.append(
        f"ticks={upkeep['ticks']}, "
        f"table_runs={upkeep['table_runs']}, errors={upkeep['errors']}, "
        f"deferred_deletes={upkeep['deferred_deletes']}")
    swap = upkeep["swap_lock_hold_us"]

    def us(value) -> str:
        return "n/a" if value is None else f"{value:.0f}us"

    lines.append(
        f"swap_lock_hold: count={swap['count']}, p50={us(swap['p50'])}, "
        f"p99={us(swap['p99'])}, max={us(swap['max'])}")
    stalls = upkeep["backpressure"]
    lines.append(
        f"backpressure: stalls={stalls['stalls']}, "
        f"wait_p99={us(stalls['wait_p99_us'])}")
    lines.append("merge_debt: " + (", ".join(
        f"{name}={debt}B"
        for name, debt in upkeep["merge_debt_bytes"].items()) or "n/a"))
    admission = admission_summary(page.get("metrics", {}))
    lines.append("")
    lines.append("== admission ==")
    lines.append(
        f"inflight={admission['inflight']}, shed={admission['shed']}, "
        f"deadline_sheds={admission['deadline_sheds']}, "
        f"queue_wait_p99={us(admission['queue_wait_p99_us'])}")
    push = pushdown_summary(page.get("metrics", {}))
    lines.append("")
    lines.append("== query pushdown ==")
    lines.append(f"queries: pushed={push['queries']}")
    lines.append(
        f"blocks: columnar={push['blocks_columnar']}, "
        f"fallback={push['blocks_fallback']}")
    share = push["columnar_row_fraction"]
    lines.append(
        f"rows: columnar={push['rows_columnar']}, "
        f"fallback={push['rows_fallback']}, "
        f"kernel_filtered={push['rows_kernel_filtered']}, "
        + ("columnar_share=n/a" if share is None
           else f"columnar_share={share:.3f}"))
    fault = fault_summary(page.get("metrics", {}))
    lines.append("")
    lines.append("== fault tolerance ==")
    lines.append(
        f"checksum_failures={fault['checksum_failures']}, "
        f"quarantined_tablets={fault['quarantined_tablets']}, "
        f"faults_injected={fault['faults_injected']}")
    lines.append(
        f"scrub: runs={fault['scrub_runs']}, "
        f"garbage_removed={fault['scrub_orphans_removed']}, "
        f"quarantined={fault['scrub_quarantined']}")
    lines.append(
        f"read_only={fault['read_only']}, "
        f"entries={fault['read_only_entries']}, "
        f"rejections={fault['read_only_rejections']}")
    health_state = page.get("health")
    if health_state and health_state.get("read_only"):
        lines.append(
            f"DEGRADED: {health_state.get('read_only_reason')}")
    tables = page.get("tables", {})
    if tables:
        lines.append("")
        lines.append("== tables ==")
        for name, summary in sorted(tables.items()):
            parts = ", ".join(f"{key}={value}"
                              for key, value in summary.items()
                              if key != "name")
            lines.append(f"{name}: {parts}")
    spans = page.get("spans", [])
    if spans:
        lines.append("")
        lines.append("== recent operations ==")
        for span in spans:
            tags = " ".join(f"{k}={v}" for k, v in span["tags"].items())
            lines.append(
                f"{span['name']}  {span['duration_us']:.0f}us  {tags}")
    return "\n".join(lines)
