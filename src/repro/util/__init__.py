"""Shared utility substrates: clocks, PRNG, HyperLogLog, Bloom
filters, and varint codecs."""

from .bloom import BloomFilter, KeyPrefixBloom
from .clock import (
    Clock,
    MICROS_PER_DAY,
    MICROS_PER_HOUR,
    MICROS_PER_MINUTE,
    MICROS_PER_SECOND,
    MICROS_PER_WEEK,
    SystemClock,
    VirtualClock,
    micros_from_seconds,
    seconds_from_micros,
)
from .hyperloglog import HyperLogLog
from .xorshift import Xorshift64Star

__all__ = [
    "BloomFilter",
    "KeyPrefixBloom",
    "Clock",
    "SystemClock",
    "VirtualClock",
    "HyperLogLog",
    "Xorshift64Star",
    "micros_from_seconds",
    "seconds_from_micros",
    "MICROS_PER_SECOND",
    "MICROS_PER_MINUTE",
    "MICROS_PER_HOUR",
    "MICROS_PER_DAY",
    "MICROS_PER_WEEK",
]
