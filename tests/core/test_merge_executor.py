"""The merge executor (``merge.merge_tablets``) over readers and a
writer alone: no table, no locks, no descriptor."""

from repro.core.merge import MergePlan, merge_tablets
from repro.core.periods import period_for
from repro.core.row import KeyRange
from repro.core.schema import Column, ColumnType
from repro.core.tablet import TabletReader, TabletWriter
from repro.disk import SimulatedDisk
from repro.obs.metrics import MetricsRegistry

from ..conftest import usage_schema

NOW = 10_000 * 86_400_000_000


def usage_row(device, ts):
    return (1, device, ts, device, 0.5)


def write(disk, schema, tablet_id, rows, metrics=None):
    writer = TabletWriter(disk, schema, 256, "zlib", 10, metrics=metrics)
    return writer.write(f"t/tab-{tablet_id}.lt", rows, tablet_id, NOW)


def merge(disk, schema, metas, metrics=None):
    plan = MergePlan(list(metas), period_for(NOW, NOW, True))
    readers = [TabletReader(disk, meta.filename, metrics=metrics)
               for meta in metas]
    writer = TabletWriter(disk, schema, 256, "zlib", 10, metrics=metrics)
    return merge_tablets(plan, readers, writer, schema, "t/tab-9.lt", 9,
                         NOW + 5)


def rows_of(disk, meta):
    return list(TabletReader(disk, meta.filename).scan(KeyRange.all()))


class TestBlockwise:
    def test_disjoint_sources_pass_blocks_through(self):
        """Time-partitioned tablets rarely interleave: once each
        source's first block has fixed its lower bound, the blocks of
        key-disjoint sources move compressed-payload-verbatim."""
        schema, disk, metrics = usage_schema(), SimulatedDisk(), \
            MetricsRegistry()
        low = [usage_row(d, NOW + d) for d in range(0, 60)]
        high = [usage_row(d, NOW + d) for d in range(100, 160)]
        metas = [write(disk, schema, 1, low), write(disk, schema, 2, high)]
        meta, upgraded = merge(disk, schema, metas, metrics)
        assert upgraded == 0
        assert rows_of(disk, meta) == low + high
        assert meta.row_count == 120
        assert (meta.min_ts, meta.max_ts) == (NOW, NOW + 159)
        assert (meta.min_key, meta.max_key) == (
            schema.key_of(low[0]), schema.key_of(high[-1]))
        assert meta.created_at == NOW + 5
        decoded = metrics.snapshot()["counters"]["codec.rows_decoded"]
        assert 0 < decoded < 60

    def test_interleaved_sources_merge_row_exact(self):
        schema, disk = usage_schema(), SimulatedDisk()
        evens = [usage_row(d, NOW + d) for d in range(0, 120, 2)]
        odds = [usage_row(d, NOW + d) for d in range(1, 120, 2)]
        metas = [write(disk, schema, 1, evens), write(disk, schema, 2, odds)]
        meta, _upgraded = merge(disk, schema, metas)
        assert rows_of(disk, meta) == sorted(evens + odds,
                                             key=schema.key_of)
        # The merged tablet answers Bloom probes for both sources.
        reader = TabletReader(disk, meta.filename)
        assert reader.probe_key(schema.key_of(odds[7]))

    def test_single_source_is_rewritten_whole(self):
        schema, disk = usage_schema(), SimulatedDisk()
        one = write(disk, schema, 1, [usage_row(1, NOW)])
        meta, upgraded = merge(disk, schema, [one])
        assert rows_of(disk, meta) == [usage_row(1, NOW)]
        assert upgraded == 0


class TestTranslating:
    def test_old_schema_source_is_upgraded_while_merging(self):
        """Mixed schema versions take the translate-while-merging
        path: the output is wholly at the writer's schema (§3.5)."""
        disk = SimulatedDisk()
        old_schema = usage_schema()
        new_schema = old_schema.with_appended_column(
            Column("errors", ColumnType.INT64))
        old_rows = [usage_row(d, NOW + d) for d in range(0, 40, 2)]
        new_rows = [usage_row(d, NOW + d) + (7,) for d in range(1, 40, 2)]
        metas = [write(disk, old_schema, 1, old_rows),
                 write(disk, new_schema, 2, new_rows)]
        meta, upgraded = merge(disk, new_schema, metas)
        assert upgraded == 0
        assert meta.schema_version == new_schema.version
        expected = sorted(
            [new_schema.translate_row(row, old_schema) for row in old_rows]
            + new_rows, key=new_schema.key_of)
        assert rows_of(disk, meta) == expected
