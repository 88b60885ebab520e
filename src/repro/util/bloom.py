"""Bloom filters for on-disk tablets.

Section 3.4.5 of the paper proposes (as an optimization under
consideration, in the style of bLSM) storing a Bloom filter of each
on-disk tablet's keys so that latest-row-for-prefix queries and
duplicate-key checks can skip ~99% of tablets that cannot contain a
matching key, at a cost of about 10 bits per row.  We implement that
proposal; the engine exposes it behind a config switch so the ablation
benchmark can measure its effect.

Because the queries that benefit probe by *key prefix*, the filter
stores every proper prefix of each inserted key in addition to the full
key.  Keys arrive as tuples of encoded column bytes.
"""

from __future__ import annotations

import zlib
from typing import Sequence, Tuple

DEFAULT_BITS_PER_KEY = 10


def _hash_pair(data: bytes) -> Tuple[int, int]:
    # Two independent CRC32 streams (different seeds) give the double-
    # hashing bases.  CRC32 is a C call, which matters: the filter is
    # touched for every inserted row.
    h1 = zlib.crc32(data)
    h2 = zlib.crc32(data, 0x9E3779B9) | 1  # odd step
    return h1, h2


def optimal_hash_count(bits_per_key: int) -> int:
    """k = ln(2) * bits/key, clamped to a sane range."""
    return max(1, min(16, int(round(0.6931 * bits_per_key))))


class BloomFilter:
    """A standard Bloom filter using double hashing."""

    def __init__(self, num_bits: int, num_hashes: int):
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)

    @classmethod
    def with_capacity(cls, expected_keys: int,
                      bits_per_key: int = DEFAULT_BITS_PER_KEY) -> "BloomFilter":
        """Build a filter sized for ``expected_keys`` entries."""
        num_bits = max(64, expected_keys * bits_per_key)
        return cls(num_bits, optimal_hash_count(bits_per_key))

    def add(self, item: bytes) -> None:
        """Insert raw bytes into the filter."""
        bits = self._bits
        h1, h2 = _hash_pair(item)
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)

    def may_contain(self, item: bytes) -> bool:
        """False means definitely absent; True means possibly present."""
        bits = self._bits
        h1, h2 = _hash_pair(item)
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def serialize(self) -> bytes:
        """Serialize for storage in a tablet footer."""
        header = self.num_bits.to_bytes(8, "little") + bytes([self.num_hashes])
        return header + bytes(self._bits)

    @classmethod
    def deserialize(cls, data: bytes) -> "BloomFilter":
        """Inverse of :meth:`serialize`."""
        if len(data) < 9:
            raise ValueError("corrupt Bloom filter serialization")
        num_bits = int.from_bytes(data[:8], "little")
        bloom = cls(num_bits, data[8])
        body = data[9:]
        if len(body) != len(bloom._bits):
            raise ValueError("corrupt Bloom filter serialization")
        bloom._bits = bytearray(body)
        return bloom


class KeyPrefixBloom:
    """Bloom filter over every prefix of hierarchical keys.

    ``add_key`` inserts each proper prefix of the encoded key columns,
    so ``may_contain_prefix`` can answer for any prefix length.  The
    timestamp column is excluded: prefix probes never include ts.
    """

    def __init__(self, expected_keys: int, key_width: int,
                 bits_per_key: int = DEFAULT_BITS_PER_KEY):
        # Each key contributes key_width prefix entries.
        self.key_width = max(1, key_width)
        self._filter = BloomFilter.with_capacity(
            max(1, expected_keys) * self.key_width, bits_per_key
        )

    @staticmethod
    def _encode(prefix: Sequence[bytes]) -> bytes:
        out = bytearray()
        for part in prefix:
            out += len(part).to_bytes(4, "little")
            out += part
        return bytes(out)

    def add_key(self, encoded_columns: Sequence[bytes]) -> None:
        """Insert all prefixes of one key (list of per-column encodings)."""
        buf = bytearray()
        for part in encoded_columns:
            buf += len(part).to_bytes(4, "little")
            buf += part
            self._filter.add(bytes(buf))

    def add_key_incremental(self, encoded_columns: Sequence[bytes],
                            state: list) -> None:
        """Like :meth:`add_key`, reusing work from the previous key.

        ``state`` is a caller-held scratch list (start with ``[]``)
        holding ``[parts, cumulative_buffers]`` from the previous call.
        Sorted keys repeat their leading columns for long runs, so only
        levels from the first differing column are re-encoded and
        re-hashed; the filter contents are identical to calling
        :meth:`add_key` for every key (the filter is a set).
        """
        if not state:
            state.append([None] * len(encoded_columns))
            state.append([b""] * len(encoded_columns))
        prev_parts, prev_bufs = state
        if len(prev_parts) != len(encoded_columns):
            prev_parts[:] = [None] * len(encoded_columns)
            prev_bufs[:] = [b""] * len(encoded_columns)
        add = self._filter.add
        changed = False
        for level, part in enumerate(encoded_columns):
            if not changed and part == prev_parts[level]:
                continue
            changed = True
            base = prev_bufs[level - 1] if level else b""
            buf = base + len(part).to_bytes(4, "little") + part
            prev_parts[level] = part
            prev_bufs[level] = buf
            add(buf)

    def may_contain_prefix(self, encoded_columns: Sequence[bytes]) -> bool:
        """May any stored key start with the given column prefix?"""
        if not encoded_columns:
            return True
        return self._filter.may_contain(self._encode(encoded_columns))

    def serialize(self) -> bytes:
        return bytes([self.key_width]) + self._filter.serialize()

    @classmethod
    def deserialize(cls, data: bytes) -> "KeyPrefixBloom":
        if not data:
            raise ValueError("corrupt KeyPrefixBloom serialization")
        bloom = cls.__new__(cls)
        bloom.key_width = data[0]
        bloom._filter = BloomFilter.deserialize(data[1:])
        return bloom
