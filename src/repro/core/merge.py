"""The tablet merge policy (paper §3.4.1, §3.4.2, and the appendix).

"To merge tablets efficiently, LittleTable instead orders tablets by
their timespans' lower bounds and merges the oldest adjacent pair such
that the newer one is at least half the size of the older.  It includes
in this merge any newer tablets adjacent to this pair, up to a maximum
tablet size.  By merging only adjacent tablets, this approach does not
affect the disjointness of tablets' timespans."

The appendix proves that with this policy both the final number of
tablets and the number of times any one row is rewritten are O(log T)
in the table size T.  ``tests/core/test_merge_policy.py`` checks those
bounds as properties.

Two further rules from §3.4.2 and §5.1.3:

* tablets from different *time periods* are never merged, and a merge
  of tablets that rolled over from a finer period is delayed by a
  pseudorandom fraction of the containing period;
* a tablet may not be merged until ``merge_min_age`` (90 s by default)
  after it was written, "to maximize the number of tablets available to
  any one merge".

The second half of the module is the merge *executor*
(:func:`merge_tablets`): a function of a plan, the plan's readers and
a writer that needs no table state, so the table only chooses the
plan, calls it off-lock, and publishes the result.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from .block import decompress
from .config import EngineConfig
from .periods import Period, period_for, rollover_delay
from .cursor import execute_query, key_at, stretch_rows, take_stretch
from .readpath import CORRUPTION, reader_runs
from .row import Query, QueryStats, RowRun, Run
from .schema import Schema
from .tablet import TabletMeta, TabletReader, TabletSink, TabletWriter


@dataclass
class MergePlan:
    """A decision to merge a run of timespan-adjacent tablets."""

    tablets: List[TabletMeta]
    period: Period

    @property
    def total_bytes(self) -> int:
        return sum(t.size_bytes for t in self.tablets)

    @property
    def total_rows(self) -> int:
        return sum(t.row_count for t in self.tablets)


def order_by_timespan(tablets: List[TabletMeta]) -> List[TabletMeta]:
    """Tablets ordered by timespan lower bound (ties by id = age)."""
    return sorted(tablets, key=lambda t: (t.min_ts, t.tablet_id))


def _merge_allowed(tablet: TabletMeta, now: int, table_name: str,
                   config: EngineConfig) -> bool:
    """Per-tablet eligibility: minimum age and rollover delay."""
    if now - tablet.created_at < config.merge_min_age_micros:
        return False
    partitioned = config.time_partitioning
    current_period = period_for(tablet.min_ts, now, partitioned)
    creation_period = period_for(tablet.min_ts, tablet.created_at,
                                 partitioned)
    if current_period.level > creation_period.level:
        # This tablet rolled over into a coarser period; spread the
        # resulting merge surge across tables (§3.4.2).
        delay = rollover_delay(table_name, current_period,
                               config.merge_rollover_delay_fraction)
        if now < current_period.end + delay:
            return False
    return True


def choose_merge(tablets: List[TabletMeta], now: int, table_name: str,
                 config: EngineConfig) -> Optional[MergePlan]:
    """Pick the next merge, or None if nothing is mergeable.

    Finds the oldest adjacent pair (t_i, t_{i+1}) with
    ``size(t_i) <= 2 * size(t_{i+1})``, both in the same period and
    individually eligible, then extends the run rightwards through
    eligible same-period tablets while the total stays within the
    maximum merged tablet size.
    """
    if len(tablets) < 2:
        return None
    if config.merge_policy == "never":
        return None
    ordered = order_by_timespan(tablets)
    if config.merge_policy == "always-all":
        return _choose_merge_all(ordered, now, table_name, config)
    for i in range(len(ordered) - 1):
        older, newer = ordered[i], ordered[i + 1]
        if older.size_bytes > 2 * newer.size_bytes:
            continue
        period = period_for(older.min_ts, now, config.time_partitioning)
        if not period.contains(newer.min_ts):
            continue
        if not (_merge_allowed(older, now, table_name, config)
                and _merge_allowed(newer, now, table_name, config)):
            continue
        total = older.size_bytes + newer.size_bytes
        if total > config.max_merged_tablet_bytes:
            continue
        run = [older, newer]
        for follower in ordered[i + 2:]:
            if not period.contains(follower.min_ts):
                break
            if not _merge_allowed(follower, now, table_name, config):
                break
            if total + follower.size_bytes > config.max_merged_tablet_bytes:
                break
            run.append(follower)
            total += follower.size_bytes
        return MergePlan(run, period)
    return None


def _choose_merge_all(ordered: List[TabletMeta], now: int, table_name: str,
                      config: EngineConfig) -> Optional[MergePlan]:
    """The "always-all" ablation policy: merge every eligible tablet
    into one, regardless of sizes.  This is §3.4.1's cautionary
    example - "it would end up rewriting all of the existing rows of a
    table every time it merged in a newly flushed on-disk tablet"."""
    eligible = [t for t in ordered
                if _merge_allowed(t, now, table_name, config)]
    if len(eligible) < 2:
        return None
    period = period_for(eligible[0].min_ts, now, config.time_partitioning)
    return MergePlan(eligible, period)


def pending_merge_runs(tablets: List[TabletMeta], now: int,
                       table_name: str, config: EngineConfig,
                       limit: int = 8) -> List[MergePlan]:
    """The merge debt: plans the policy would execute back-to-back.

    Simulates repeated :func:`choose_merge` against a synthetic tablet
    set, replacing each chosen run with the pseudo-tablet the merge
    would produce (``created_at=now``, so - as in reality - the
    product's own re-merge is blocked by the minimum age).  Purely
    advisory: it shows how far behind maintenance is, and is computed
    when an operator asks (``Table.stats_summary()`` sums the plans'
    bytes), never on the maintenance path.  Stops after ``limit``
    plans.
    """
    simulated = list(tablets)
    plans: List[MergePlan] = []
    while len(plans) < limit:
        plan = choose_merge(simulated, now, table_name, config)
        if plan is None:
            return plans
        plans.append(plan)
        merged_ids = {t.tablet_id for t in plan.tablets}
        product = TabletMeta(
            tablet_id=-(len(plans)),  # synthetic, never collides
            filename=f"<pending-merge-{len(plans)}>",
            min_ts=min(t.min_ts for t in plan.tablets),
            max_ts=max(t.max_ts for t in plan.tablets),
            row_count=plan.total_rows,
            size_bytes=plan.total_bytes,
            schema_version=0,
            created_at=now,
        )
        simulated = [t for t in simulated
                     if t.tablet_id not in merged_ids]
        simulated.append(product)
    return plans


# ------------------------------------------------------------- executor

@contextmanager
def _blaming(meta: TabletMeta) -> Iterator[None]:
    """Damage met while reading a source leaves with ``exc.tablet`` set
    to that source's ``meta``: a merge reads around the ``ReadPlan``
    guard, so this is how its caller learns what to quarantine."""
    try:
        yield
    except CORRUPTION as exc:
        exc.tablet = meta
        raise


class _MergeSource:
    """Streaming cursor over one merge input tablet; every read of
    it is here, under :func:`_blaming`.

    At any moment the source is either *decoded* - ``run`` holds the
    current block, ``[pos, end)`` the part of it not yet taken (a head
    for :func:`repro.core.cursor.take_stretch`) - or sitting at a
    *block boundary* (``run is None``).  ``lo_bound`` is the last key
    already consumed, so every remaining key is known to be strictly
    greater; that is what lets whole untouched blocks from other
    sources pass through without being decoded.
    """

    __slots__ = ("meta", "reader", "entries", "index", "run", "pos", "end",
                 "lo_bound")

    def __init__(self, meta: TabletMeta, reader: TabletReader):
        self.meta = meta
        self.reader = reader
        with _blaming(meta):
            self.entries = reader.block_entries()   # loads the footer
        self.index = 0
        self.run: Optional[RowRun] = None
        self.pos = self.end = 0
        self.lo_bound: Optional[Tuple[Any, ...]] = None

    @property
    def exhausted(self) -> bool:
        return self.run is None and self.index >= len(self.entries)

    def translated(self, schema: Schema) -> Iterator[Run]:
        """Every row, at ``schema`` (the translating merge)."""
        with _blaming(self.meta):
            yield from reader_runs(self.reader, schema)

    def keys(self) -> List[List[Any]]:
        return self.run.key_columns(self.reader.schema.key_indexes)

    def may_hold(self, key: Tuple[Any, ...]) -> bool:
        """Could a remaining row have a key <= ``key``?  At a boundary
        the remaining keys are only known to exceed ``lo_bound``."""
        if self.run is not None:
            return key_at(self.keys(), self.pos) <= key
        return self.lo_bound is None or self.lo_bound < key

    def decode_next(self) -> None:
        """Decode the block at the boundary and step past it."""
        reader = self.reader
        with _blaming(self.meta):
            columns, _body = reader.decode_payload(
                self.index, reader.read_block_payload(self.index))
        self.run = RowRun(list(zip(*columns)), [
            columns[i] for i in reader.schema.key_indexes])
        self.pos, self.end = 0, self.run.hi
        self.index += 1

    def pass_block(self, sink: TabletSink) -> None:
        """Move the boundary block into ``sink`` compressed-payload-
        verbatim and step past it."""
        entry, reader = self.entries[self.index], self.reader
        with _blaming(self.meta):
            payload = reader.read_block_payload(self.index)
            sink.add_block_passthrough(payload, entry.row_count,
                                       entry.last_key)
            if sink.bloom_bits_per_row:
                cols = reader.schema_codec.decode_key_columns(
                    decompress(reader.codec_byte, payload), include_ts=False)
                if cols:
                    sink.add_bloom_prefixes(zip(*cols))
        self.lo_bound = entry.last_key
        self.index += 1

    def settle(self) -> None:
        """After a stretch was taken: a block consumed whole leaves a
        boundary."""
        if self.pos == self.end:
            self.run = None
            self.lo_bound = self.entries[self.index - 1].last_key


def merge_tablets(plan: MergePlan, readers: List[TabletReader],
                  writer: TabletWriter, schema: Schema, filename: str,
                  tablet_id: int, now: int) -> Optional[TabletMeta]:
    """Write the merge of ``plan.tablets`` as one tablet.

    ``readers`` are the plan's sources in plan order and ``schema`` is
    the table's current schema (the writer's).  Returns the new
    tablet's metadata, None if every source was empty.  A damaged or
    vanished source raises with its ``TabletMeta`` as ``exc.tablet``.
    """
    sources = [_MergeSource(meta, reader)
               for meta, reader in zip(plan.tablets, readers)]
    if all(r.schema.version == schema.version for r in readers):
        # Common case: block-at-a-time merge.  Non-overlapping source
        # blocks are copied compressed-payload-verbatim; overlapping
        # stretches are batch-decoded, sorted and re-encoded whole
        # blocks at a time.
        return _merge_blockwise(plan, sources, writer, filename,
                                tablet_id, now)
    # Mixed schema versions: translating while merging also upgrades
    # old rows to the current schema (§3.5).
    sink = writer.sink(expected_rows=plan.total_rows)
    for rows in execute_query([s.translated(schema) for s in sources],
                              schema, Query(), now, None, QueryStats()):
        sink.add_rows(rows)
    return sink.finish(filename, tablet_id, created_at=now)


def _merge_blockwise(plan: MergePlan, sources: List[_MergeSource],
                     writer: TabletWriter, filename: str, tablet_id: int,
                     now: int) -> Optional[TabletMeta]:
    """Merge same-schema sources block-at-a-time into one tablet.

    Time-partitioned tablets rarely interleave, so most blocks'
    key ranges are disjoint from every other source's remaining
    keys; those are appended as raw compressed payloads without
    decoding.  Only genuinely overlapping stretches are decoded -
    whole blocks at a time through the block codec - and a stretch
    enters the sink as one run: every decoded row up to the least of
    the decoded blocks' last keys, concatenated in plan order and put
    in key order by one stable sort (which finds each source's
    presorted slice and gallops).  The source that set the limit is
    then at a boundary, so passthrough gets its next shot.
    """
    sink = writer.sink(expected_rows=plan.total_rows)
    # Every source row survives a merge, so the output's timespan
    # and zone map are exactly the union of the sources' metadata;
    # passthrough blocks never reveal their rows, so these cannot
    # be tracked per-row.
    sink.note_ts_bounds(min(t.min_ts for t in plan.tablets),
                        max(t.max_ts for t in plan.tablets))
    min_key = min(t.min_key for t in plan.tablets)
    max_key = max(t.max_key for t in plan.tablets)
    # Don't interleave passthrough blocks with tiny row-built
    # fragments: require the pending block to be empty or at least
    # a quarter full before sealing it early.
    frag_floor = sink.block_size // 4
    while True:
        sources = [s for s in sources if not s.exhausted]
        if not sources:
            break
        # A block at some source's boundary whose keys all precede
        # every other source's remaining keys can move as a unit; of
        # several, the least (the first, among equals).
        best = min((s for s in sources if s.run is None and not any(
                        t.may_hold(s.entries[s.index].last_key)
                        for t in sources if t is not s)),
                   key=lambda s: s.entries[s.index].last_key, default=None)
        if best is not None:
            if (best.reader.codec_byte == sink.codec
                    and (sink.pending_bytes == 0
                         or sink.pending_bytes >= frag_floor)):
                best.pass_block(sink)
            else:
                # Right block, wrong codec/fill: take the row path.
                best.decode_next()
            continue
        # Overlap: decode every boundary source's next block, then
        # move one stretch.
        for s in sources:
            if s.run is None:
                s.decode_next()
        sink.add_rows(stretch_rows(take_stretch(sources)[1]))
        for s in sources:
            s.settle()
    return sink.finish(filename, tablet_id, created_at=now,
                       min_key=min_key, max_key=max_key)
