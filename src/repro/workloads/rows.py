"""Benchmark workload generators (paper §5.1).

The microbenchmarks use tables of fixed-size rows: six key columns (the
paper fixes six "to keep the amount of work for performing key
comparisons constant"), the last being the timestamp, plus one blob
value column sized to hit the target row size.  All variable input data
comes from a xorshift PRNG, "effectively disabling LittleTable's LZO
compression" (§5.1.1) - and our zlib stand-in likewise.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from ..core.encoding import RowCodec
from ..core.schema import Column, ColumnType, Schema
from ..util.xorshift import Xorshift64Star

KEY_COLUMNS = 5  # plus ts = six key columns, as in §5.1.2


def bench_schema() -> Schema:
    """The microbenchmark table: five int32 keys + ts + one blob."""
    columns = [Column(f"k{i}", ColumnType.INT32) for i in range(KEY_COLUMNS)]
    columns.append(Column("ts", ColumnType.TIMESTAMP))
    columns.append(Column("payload", ColumnType.BLOB))
    key = [f"k{i}" for i in range(KEY_COLUMNS)] + ["ts"]
    return Schema(columns, key)


def payload_size_for_row_size(row_size: int, sample_ts: int = 0) -> int:
    """Blob size so the encoded row is approximately ``row_size``.

    Row overhead = five svarint int32 keys + ts varint + blob length
    varint; measured empirically on a row with representative values
    (small sequence counters, one full-width random key) rather than
    guessed.
    """
    schema = bench_schema()
    codec = RowCodec(schema)
    probe = codec.encode_row((0, 0, 64, 64, (1 << 31) - 1, sample_ts, b""))
    # +2 for the blob length varint of a realistically sized payload.
    overhead = len(probe) + 2
    return max(1, row_size - overhead)


class BenchRowGenerator:
    """Generates rows of ~``row_size`` encoded bytes.

    Keys are generated so that rows arrive in ascending key order
    within a run (sequence number in the last key column), mirroring
    the paper's single-writer append pattern, with the leading keys
    pseudorandom per stream.
    """

    def __init__(self, row_size: int, seed: int = 1, stream: int = 0,
                 ts: int = 0, random_keys: bool = False):
        self.schema = bench_schema()
        self.row_size = row_size
        self._rng = Xorshift64Star(seed=seed ^ (stream * 0x9E3779B1) ^ 0xB5)
        # Bulk payload bytes come from random.Random.randbytes: still
        # deterministic and incompressible, but generated at C speed
        # (xorshift in pure Python would dominate benchmark wall time).
        self._payload_rng = random.Random(seed ^ (stream << 16) ^ 0xFACE)
        self._payload_size = payload_size_for_row_size(row_size, ts)
        self._sequence = 0
        self._stream = stream
        self.ts = ts
        self.random_keys = random_keys

    def next_row(self, ts: Optional[int] = None) -> Tuple:
        """One row; ``ts`` defaults to the generator's base time."""
        row_ts = self.ts if ts is None else ts
        payload = self._payload_rng.randbytes(self._payload_size)
        if self.random_keys:
            # Fully random keys, as in the Figure 6 random-key probes.
            row = (self._rng.next_u32() & 0x7FFFFFFF,
                   self._rng.next_u32() & 0x7FFFFFFF,
                   self._rng.next_u32() & 0x7FFFFFFF,
                   self._rng.next_u32() & 0x7FFFFFFF,
                   self._rng.next_u32() & 0x7FFFFFFF,
                   row_ts,
                   payload)
        else:
            row = (self._stream & 0x7FFFFFFF,
                   (self._sequence >> 40) & 0x7FFFFFFF,
                   (self._sequence >> 20) & 0xFFFFF,
                   self._sequence & 0xFFFFF,
                   self._rng.next_u32() & 0x7FFFFFFF,
                   row_ts,
                   payload)
        self._sequence += 1
        return row

    def batch(self, count: int, ts: int = None) -> List[Tuple]:
        """A batch of ``count`` rows."""
        return [self.next_row(ts) for _ in range(count)]

    def rows(self, total_bytes: int, ts: int = None) -> Iterator[Tuple]:
        """Yield rows until ~``total_bytes`` of encoded data."""
        produced = 0
        while produced < total_bytes:
            yield self.next_row(ts)
            produced += self.row_size
