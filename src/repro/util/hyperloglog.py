"""HyperLogLog cardinality estimation.

Section 4.1.2 of the paper: "several features within Dashboard track
clients using HyperLogLog, a fixed-size, probabilistic representation
of a set that permits unions and provides cardinality estimates with
bounded relative error."  Aggregators store serialized HLL sketches as
blob values in LittleTable; the paper's Figure 8 notes these are the
largest values in production (up to 75 kB).

This is the classic Flajolet et al. 2007 estimator with the standard
small-range (linear counting) and large-range corrections.
"""

from __future__ import annotations

import hashlib
import math


class HyperLogLog:
    """A HyperLogLog sketch with ``2**precision`` one-byte registers."""

    def __init__(self, precision: int = 12):
        if not 4 <= precision <= 16:
            raise ValueError("precision must be in [4, 16]")
        self.precision = precision
        self.num_registers = 1 << precision
        self._registers = bytearray(self.num_registers)

    @property
    def _alpha(self) -> float:
        m = self.num_registers
        if m == 16:
            return 0.673
        if m == 32:
            return 0.697
        if m == 64:
            return 0.709
        return 0.7213 / (1 + 1.079 / m)

    @staticmethod
    def _hash(item: bytes) -> int:
        return int.from_bytes(hashlib.sha1(item).digest()[:8], "big")

    def add(self, item: bytes) -> None:
        """Add one item (raw bytes) to the sketch."""
        hashed = self._hash(item)
        index = hashed >> (64 - self.precision)
        remaining = hashed & ((1 << (64 - self.precision)) - 1)
        # Rank = position of the leftmost 1-bit in the remaining bits.
        rank = (64 - self.precision) - remaining.bit_length() + 1
        if rank > self._registers[index]:
            self._registers[index] = rank

    def cardinality(self) -> float:
        """Estimate the number of distinct items added."""
        m = self.num_registers
        raw = self._alpha * m * m / sum(2.0 ** -r for r in self._registers)
        if raw <= 2.5 * m:
            zeros = self._registers.count(0)
            if zeros:
                return m * math.log(m / zeros)
        two_to_32 = float(1 << 32)
        if raw > two_to_32 / 30.0:
            return -two_to_32 * math.log(1.0 - raw / two_to_32)
        return raw

    def union(self, other: "HyperLogLog") -> "HyperLogLog":
        """Return a new sketch representing the union of both sets."""
        if other.precision != self.precision:
            raise ValueError("cannot union sketches of different precision")
        result = HyperLogLog(self.precision)
        result._registers = bytearray(
            max(a, b) for a, b in zip(self._registers, other._registers)
        )
        return result

    def serialize(self) -> bytes:
        """Serialize to bytes suitable for storing as a blob column."""
        return bytes([self.precision]) + bytes(self._registers)

    @classmethod
    def deserialize(cls, data: bytes) -> "HyperLogLog":
        """Inverse of :meth:`serialize`."""
        if not data:
            raise ValueError("empty HyperLogLog serialization")
        sketch = cls(precision=data[0])
        body = data[1:]
        if len(body) != sketch.num_registers:
            raise ValueError("corrupt HyperLogLog serialization")
        sketch._registers = bytearray(body)
        return sketch
