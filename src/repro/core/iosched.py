"""IO pacing and SLO-driven maintenance control.

The paper's deployment works because background merges never stall the
writer (§3.3): merge IO is *paced*, not burst at device speed whenever
a merge happens to be due.  *On Performance Stability in LSM-based
Storage Systems* makes the general case - bursty compaction IO, not
steady-state throughput, dominates tail latency.  This module supplies
the two pieces the scheduler uses to keep p99 flat under sustained
load:

* :class:`IORateLimiter` - a token bucket over *bytes per second*,
  shared by every flush and merge writer of a database.  Writers call
  :meth:`IORateLimiter.acquire` once per compressed block, so a merge
  rewriting hundreds of megabytes dribbles them out at the configured
  rate instead of monopolising the disk (and, in this pure-Python
  engine, the GIL) for the whole rewrite.  The clock and sleep are
  injectable so tests run on virtual time.

* :class:`SLOController` - an AIMD controller that watches the insert
  and query latency histograms against a target p99 and tunes two
  knobs each scheduler tick: the merge IO rate (multiplicative
  backoff when the SLO is breached, additive recovery when latencies
  are comfortably under it) and the insert backpressure depth
  (tightened under overload so the memtable backlog - and with it the
  eventual merge debt - stops growing).  This replaces the fixed
  ``max_flush_pending`` queue depth with a closed loop around the
  latency the operator actually cares about.

Both are deliberately dependency-free: plain ``threading`` and
injected callables, no asyncio, usable from the embedded engine and
the server front alike.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Sequence


class IORateLimiter:
    """A token bucket metering background write IO in bytes/second.

    ``acquire(nbytes)`` debits the bucket and, when it has gone
    negative, sleeps until the deficit is refilled - so a caller may
    always write its block *immediately after* acquire returns, and
    blocks larger than the burst capacity can never deadlock (they
    simply push the bucket further negative and make the *next* caller
    wait).  Aggregate throughput converges on ``rate_bytes_s`` while
    individual calls stay simple and lock-free during the sleep.

    ``rate_bytes_s=None`` (or 0) disables metering entirely; the
    controller flips between rates at runtime via :meth:`set_rate`.
    """

    def __init__(self, rate_bytes_s: Optional[float],
                 burst_bytes: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 metrics=None):
        self._lock = threading.Lock()
        self._clock = clock
        self._sleep = sleep
        self._rate = float(rate_bytes_s) if rate_bytes_s else None
        self._burst = float(burst_bytes) if burst_bytes else None
        self._tokens = self._burst_capacity()
        self._last = clock()
        self._m_waits = self._m_wait_us = self._m_bytes = None
        self._g_rate = None
        if metrics is not None:
            self._m_waits = metrics.counter("io.throttle_waits")
            self._m_bytes = metrics.counter("io.throttled_bytes")
            self._m_wait_us = metrics.histogram("io.throttle_wait_us")
            self._g_rate = metrics.gauge("io.rate_bytes_s")
            self._g_rate.set(self._rate or 0)

    def _burst_capacity(self) -> float:
        if self._rate is None:
            return 0.0
        if self._burst is not None:
            return self._burst
        # Default burst: one second of rate.  Small enough that a due
        # merge cannot dump minutes of IO at once, large enough that
        # sub-second bursts (a single flush) pass unthrottled.
        return self._rate

    @property
    def rate_bytes_s(self) -> Optional[float]:
        return self._rate

    def set_rate(self, rate_bytes_s: Optional[float]) -> None:
        """Change the rate live (the SLO controller's actuator)."""
        with self._lock:
            self._refill_locked()
            self._rate = float(rate_bytes_s) if rate_bytes_s else None
            # Clamp accumulated credit to the new burst so a long idle
            # period at a high rate cannot fund a burst after backoff.
            self._tokens = min(self._tokens, self._burst_capacity())
        if self._g_rate is not None:
            self._g_rate.set(self._rate or 0)

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._last
        self._last = now
        if self._rate is not None and elapsed > 0:
            self._tokens = min(self._burst_capacity(),
                               self._tokens + elapsed * self._rate)

    def acquire(self, nbytes: int) -> float:
        """Debit ``nbytes`` and sleep off any deficit.

        Returns the seconds actually waited (0.0 when the bucket had
        credit or metering is off).
        """
        if nbytes <= 0:
            return 0.0
        with self._lock:
            if self._rate is None:
                return 0.0
            self._refill_locked()
            self._tokens -= nbytes
            deficit = -self._tokens
            rate = self._rate
        if deficit <= 0:
            return 0.0
        wait = deficit / rate
        if self._m_waits is not None:
            self._m_waits.inc()
            self._m_bytes.inc(nbytes)
            self._m_wait_us.observe(wait * 1e6)
        self._sleep(wait)
        return wait


#: Histograms the controller watches, in embedded and served modes.
#: Only those with samples contribute; the worst p99 wins.
DEFAULT_LATENCY_METRICS = (
    "insert.latency_us",
    "query.latency_us",
    "server.cmd.insert.latency_us",
    "server.cmd.query.latency_us",
)


class SLOController:
    """AIMD control of merge IO rate and insert backpressure depth.

    Each :meth:`step` reads the worst p99 across the watched latency
    histograms and updates a throttle level in ``[0, 1]``:

    * p99 over the SLO → multiplicative increase of the throttle
      (merge rate halves-ish, backpressure tightens);
    * p99 under ``recover_fraction`` of the SLO → additive decrease
      (rate and depth creep back toward their configured maxima).

    The asymmetry is deliberate: back off fast when the tail blows
    up, recover slowly so the system does not oscillate.  Outputs:

    ``merge_rate_bytes_s``
        ``base_rate * (1 - 0.9*throttle)`` - never fully zero, so
        merge debt keeps draining even under sustained overload
        (a starved merger only defers the spike).
    ``flush_pending_limit``
        Interpolated between the policy's ``max_flush_pending`` and
        ``max(1, max//4)``; tightening it makes inserts stall sooner,
        which is the only actuator that stops debt *accumulating*.
    ``merge_budget(base)``
        The per-tick merge budget; 0 only at full throttle, when even
        rate-limited merge IO is too much.
    """

    def __init__(self, metrics, slo_p99_ms: float,
                 limiter: Optional[IORateLimiter] = None,
                 base_rate_bytes_s: Optional[float] = None,
                 max_flush_pending: Optional[int] = 8,
                 latency_metrics: Sequence[str] = DEFAULT_LATENCY_METRICS,
                 recover_fraction: float = 0.7):
        if slo_p99_ms <= 0:
            raise ValueError("slo_p99_ms must be positive")
        self.metrics = metrics
        self.slo_us = slo_p99_ms * 1000.0
        self.limiter = limiter
        self.base_rate = base_rate_bytes_s
        self.max_flush_pending = max_flush_pending
        self.latency_metrics = tuple(latency_metrics)
        self.recover_fraction = recover_fraction
        self.throttle = 0.0
        self._m_breaches = metrics.counter("sched.slo_breaches")
        self._g_throttle = metrics.gauge("sched.throttle_pct")
        self._g_rate = metrics.gauge("sched.merge_rate_bytes_s")
        self._g_limit = metrics.gauge("sched.flush_pending_limit")
        self._g_p99 = metrics.gauge("sched.watched_p99_us")
        self._publish()

    # ------------------------------------------------------------ sensing

    def observed_p99_us(self) -> Optional[float]:
        """Worst p99 across the watched histograms with samples."""
        worst = None
        histograms = getattr(self.metrics, "_histograms", {})
        for name in self.latency_metrics:
            histogram = histograms.get(name)
            if histogram is None or histogram.count == 0:
                continue
            p99 = histogram.summary().get("p99", 0.0)
            if worst is None or p99 > worst:
                worst = p99
        return worst

    # ----------------------------------------------------------- control

    def step(self) -> None:
        """One control iteration; called from the scheduler tick."""
        p99 = self.observed_p99_us()
        if p99 is None:
            return
        self._g_p99.set(int(p99))
        if p99 > self.slo_us:
            self._m_breaches.inc()
            self.throttle = min(1.0, self.throttle * 1.5 + 0.25)
        elif p99 < self.slo_us * self.recover_fraction:
            self.throttle = max(0.0, self.throttle - 0.1)
        self._publish()

    def _publish(self) -> None:
        self._g_throttle.set(int(self.throttle * 100))
        rate = self.merge_rate_bytes_s()
        self._g_rate.set(int(rate) if rate else 0)
        limit = self.flush_pending_limit()
        self._g_limit.set(limit if limit is not None else 0)
        if self.limiter is not None and self.base_rate:
            self.limiter.set_rate(rate)

    # ----------------------------------------------------------- outputs

    def merge_rate_bytes_s(self) -> Optional[float]:
        if not self.base_rate:
            return None
        return max(self.base_rate * 0.1,
                   self.base_rate * (1.0 - 0.9 * self.throttle))

    def flush_pending_limit(self) -> Optional[int]:
        if self.max_flush_pending is None:
            # No configured ceiling: under overload impose one anyway,
            # otherwise backpressure would never engage.
            if self.throttle <= 0:
                return None
            return max(1, int(round(8 * (1.0 - 0.75 * self.throttle))))
        floor = max(1, self.max_flush_pending // 4)
        span = self.max_flush_pending - floor
        return max(floor,
                   int(round(self.max_flush_pending - span * self.throttle)))

    def merge_budget(self, base: int) -> int:
        return 0 if self.throttle >= 1.0 else base
