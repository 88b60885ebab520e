"""Same bytes out of the write path, end to end.

``test_tablet_property.py`` and ``test_merge_executor.py
::TestRecordedBytes`` pin what a sorted run becomes on disk; this pins
what *reaches* the sink: which rows each memtable holds when it
retires (the per-row ``flush_size_bytes`` check, mid-batch), in what
order it hands them over, and how the flush dependency groups fall
out.  Poll cycles shaped like the benchmark harness's - 192 usage rows
in device order with a wrap every 5.33 cycles, 64 event rows in random
key order, and one late usage row per cycle that bins into an older
period's memtable mid-batch - go through two tables at the harness's
256 KiB flush size with inline maintenance every 16 cycles; the digest
over every file of the data directory was recorded by running this
file at 6d679e5 (PR 21), the last commit whose memtable was a skip
list.  Nothing in the tree can regenerate it.

120 cycles rather than the harness's 45-per-memtable minimum: two
size-triggered usage flushes and one events flush, not one and none.
"""

import hashlib
import random

from repro.core import EngineConfig, LittleTable
from repro.dashboard.schemas import events_schema, usage_schema
from repro.disk import SimulatedDisk
from repro.util.clock import MICROS_PER_DAY, VirtualClock

from ..conftest import BASE_TIME

KIB = 1024
CYCLES = 120
USAGE_ROWS, EVENT_ROWS = 192, 64
NETWORKS, DEVICES = 64, 16
CYCLE_MICROS = 11_250_000
RECORDED = ("445c345efd9d2b34e9fc91e24272b064"
            "c58eb70a8045ae1e79d68a7154377d5b")


def cycles():
    rng = random.Random(22)
    step = CYCLE_MICROS // (USAGE_ROWS + EVENT_ROWS)
    position = event_id = 0
    for index in range(CYCLES):
        ts = BASE_TIME - (CYCLES - index) * CYCLE_MICROS
        usage = []
        for _ in range(USAGE_ROWS):
            network, device = divmod(position, DEVICES)
            position = (position + 1) % (NETWORKS * DEVICES)
            stamp = ts + rng.randrange(step // 2)
            ts += step
            usage.append((network, device, stamp, stamp - 60_000_000,
                          rng.randrange(1 << 40), rng.random() * 1e6))
        # The late row: yesterday's sample of one device, mid-batch.
        late = usage[100]
        usage.insert(101, (late[0], late[1], late[2] - MICROS_PER_DAY,
                           late[3] - MICROS_PER_DAY, late[4], late[5]))
        events = []
        for _ in range(EVENT_ROWS):
            event_id += 1
            network = rng.randrange(NETWORKS)
            events.append((network, rng.randrange(DEVICES),
                           ts + rng.randrange(step // 2), event_id, "assoc",
                           f"client {rng.randrange(1 << 24):06x} assoc "
                           f"on ssid corp-{network:02d}"))
            ts += step
        yield usage, events


def data_directory_digest():
    disk = SimulatedDisk()
    db = LittleTable(
        disk=disk, clock=VirtualClock(start=BASE_TIME),
        # Uncompressed, so the digest does not depend on the zlib build.
        config=EngineConfig(
            flush_size_bytes=256 * KIB, max_merged_tablet_bytes=8192 * KIB,
            merge_min_age_micros=0, merge_rollover_delay_fraction=0.0,
            compression="none"))
    usage = db.create_table("usage", usage_schema())
    events = db.create_table("events", events_schema())
    for index, (usage_rows, event_rows) in enumerate(cycles()):
        assert usage.insert_tuples(usage_rows) == len(usage_rows)
        assert events.insert_tuples(event_rows) == len(event_rows)
        if index % 16 == 15:
            db.maintenance()
    usage.flush_all()
    events.flush_all()
    storage = disk.storage
    names = sorted(storage.list())
    whole = hashlib.sha256()
    for name in names:
        whole.update(name.encode("utf-8"))
        whole.update(hashlib.sha256(storage.read_all(name)).digest())
    return names, whole.hexdigest()


def test_data_directory_digest_matches_the_recorded_one():
    names, digest = data_directory_digest()
    assert sum(name.endswith(".lt") for name in names) >= 6
    assert digest == RECORDED
