"""A dependency-free metrics registry: counters, gauges, histograms.

The paper reasons constantly about flush/merge behaviour, tablet
counts, and per-row rewrite cost (§4 and the appendix), and "On
Performance Stability in LSM-based Storage Systems" shows those
pathologies are invisible without per-stage metrics.  This module is
the measurement substrate: every engine layer records into one
:class:`MetricsRegistry`, and every surface (in-process, the STATS
protocol command, the CLI, the dashboard) renders the same snapshot.

Design constraints, in order:

* **Hot-path cost.**  ``Counter.inc`` is one attribute addition; the
  insert path caches its counter objects so no registry lookup happens
  per row.  The whole layer must stay under 5% on the Figure 2 insert
  benchmark (``benchmarks/obs_overhead_smoke.py`` checks this).
* **Snapshot cheapness.**  ``snapshot()`` never holds a lock while
  reading metric values: the GIL makes single attribute reads atomic,
  and the only lock guards metric *creation* (a rare event).  Readers
  may observe a torn multi-metric state (e.g. ``flush.tablets``
  bumped but ``flush.rows`` not yet) - fine for monitoring, and the
  price of never stalling the write path.
* **JSON-safe.**  Snapshots contain only str/int/float/dict so they
  travel over the wire protocol unchanged.

Use :data:`NULL_REGISTRY` to disable collection entirely (the null
objects share the interface and do nothing).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = fraction * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (e.g. active connections)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Summary statistics plus a bounded reservoir for percentiles.

    Keeps exact count/sum/min/max and the most recent ``capacity``
    observations in a ring buffer; percentiles are computed from the
    ring at snapshot time (via :func:`percentile`),
    so ``observe`` stays O(1) and allocation-free after warmup.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "_ring", "_capacity", "_next")

    def __init__(self, name: str, capacity: int = 512):
        if capacity <= 0:
            raise ValueError("histogram capacity must be positive")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._ring: List[float] = []
        self._capacity = capacity
        self._next = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._ring) < self._capacity:
            self._ring.append(value)
        else:
            self._ring[self._next] = value
            self._next = (self._next + 1) % self._capacity

    def summary(self) -> Dict[str, float]:
        """Export count/sum/mean/min/max plus p50/p90/p99."""
        count = self.count
        if count == 0:
            return {"count": 0, "sum": 0.0}
        window = sorted(self._ring)
        return {
            "count": count,
            "sum": self.total,
            "mean": self.total / count,
            "min": self.minimum,
            "max": self.maximum,
            "p50": percentile(window, 0.50),
            "p90": percentile(window, 0.90),
            "p99": percentile(window, 0.99),
        }


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "sum": 0.0}


class NullRegistry:
    """A registry that records nothing; shares the full interface.

    Pass ``metrics=NULL_REGISTRY`` to engine constructors to disable
    collection (the overhead smoke check measures against this).
    """

    _counter = _NullCounter()
    _gauge = _NullGauge()
    _histogram = _NullHistogram()

    def counter(self, name: str) -> _NullCounter:
        return self._counter

    def gauge(self, name: str) -> _NullGauge:
        return self._gauge

    def histogram(self, name: str, capacity: int = 512) -> _NullHistogram:
        return self._histogram

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """Named metrics, created on first use and never removed.

    ``counter``/``gauge``/``histogram`` are get-or-create: the common
    (already-created) case is a plain dict read with no lock, so
    callers may look metrics up on a warm path; truly hot loops should
    still cache the returned object.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._get_or_create(self._counters, name, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._get_or_create(self._gauges, name, Gauge)
        return metric

    def histogram(self, name: str, capacity: int = 512) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._get_or_create(
                self._histograms, name,
                lambda n: Histogram(n, capacity=capacity))
        return metric

    def _get_or_create(self, table: Dict[str, Any], name: str,
                       factory: Callable[[str], Any]) -> Any:
        with self._lock:
            metric = table.get(name)
            if metric is None:
                metric = factory(name)
                table[name] = metric
            return metric

    # ---------------------------------------------------------- export

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One JSON-safe view of every metric.

        No lock is held while reading values; see the module docstring
        for the (deliberate) consistency model.
        """
        return {
            "counters": {name: metric.value
                         for name, metric in sorted(self._counters.items())},
            "gauges": {name: metric.value
                       for name, metric in sorted(self._gauges.items())},
            "histograms": {name: metric.summary()
                           for name, metric in
                           sorted(self._histograms.items())},
        }

    def reset(self) -> None:
        """Forget all metrics (benchmark warmup / test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def render_snapshot(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Render a snapshot as aligned text (CLI and dashboard share it)."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    scalars = [(name, value) for name, value in counters.items()]
    scalars += [(name, value) for name, value in gauges.items()]
    if scalars:
        width = max(len(name) for name, _value in scalars)
        lines.extend(f"{name.ljust(width)}  {value}"
                     for name, value in scalars)
    for name, summary in histograms.items():
        if summary.get("count", 0) == 0:
            lines.append(f"{name}  (no observations)")
            continue
        lines.append(
            f"{name}  count={summary['count']} mean={summary['mean']:.1f} "
            f"p50={summary['p50']:.1f} p90={summary['p90']:.1f} "
            f"p99={summary['p99']:.1f} max={summary['max']:.1f}")
    return "\n".join(lines) if lines else "(no metrics recorded)"
