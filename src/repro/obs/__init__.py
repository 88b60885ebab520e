"""Observability: the metrics registry and trace hooks.

Every engine layer records into one :class:`MetricsRegistry` owned by
the :class:`~repro.core.database.LittleTable` instance, and every
surface renders the same ``snapshot()``:

* in process - ``db.metrics.snapshot()``;
* over TCP - the ``stats`` protocol command /
  ``RemoteDatabase.stats()``;
* on the command line - ``python -m repro.cli stats``;
* in the dashboard - :func:`repro.dashboard.metrics_view.metrics_page`.
"""

from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    render_snapshot,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "render_snapshot",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]
