"""Observability: transaction tracing, metrics, and run telemetry.

Three pillars (see docs/observability.md for the user-facing guide):

* :mod:`repro.obs.tracer` -- span-based transaction tracer recording each
  bus transaction's lifecycle (request -> arbitration grant -> data tenure
  -> completion, plus bridge hops and FIFO fill levels), with exporters to
  Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``) and JSONL.
* :mod:`repro.obs.metrics` -- a metrics registry of counters, gauges,
  fixed-bucket cycle histograms and occupancy time series that backs the
  per-segment :class:`repro.sim.stats.BusStats` detail.
* :mod:`repro.obs.report` -- structured :class:`RunReport` telemetry for
  every experiment case and benchmark run, with deterministic aggregation
  across parallel workers.

The cost contract: observability is **free when off**.  Simulation models
hold a reference to either ``None`` or the :data:`~repro.obs.tracer.NULL_TRACER`
singleton; the hot paths pay one attribute load and a branch per bus
tenure, and nothing is allocated.  Attaching an :class:`Observability`
instance to a machine (``machine.attach_observability(obs)``) switches the
same hooks to record spans and histogram samples.
"""

from __future__ import annotations

from .metrics import (
    DEFAULT_CYCLE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from .report import (
    RunReport,
    aggregate_run_reports,
    build_run_report,
    drain_recorded,
    record_run,
)
from .tracer import (
    NULL_TRACER,
    Tracer,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Observability",
    "Tracer",
    "NULL_TRACER",
    "chrome_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "DEFAULT_CYCLE_BUCKETS",
    "RunReport",
    "build_run_report",
    "aggregate_run_reports",
    "record_run",
    "drain_recorded",
]


class Observability:
    """A tracer plus a metrics registry, attached to a machine as one unit.

    ``tracing=False`` keeps the metrics registry but records no spans
    (``NULL_TRACER``); ``metrics=False`` keeps spans but attaches no
    histograms.  ``occupancy_window`` is the bucket width (in bus cycles)
    of the per-segment occupancy-over-time series.
    """

    def __init__(
        self,
        tracing: bool = True,
        metrics: bool = True,
        occupancy_window: int = 1024,
    ):
        self.tracer = Tracer() if tracing else NULL_TRACER
        self.registry = MetricsRegistry() if metrics else None
        self.occupancy_window = occupancy_window

    def bus_transaction(
        self,
        segment,
        master: str,
        start: int,
        acquired: int,
        end: int,
        words: int,
        write: bool,
        memory_cycles: int = 0,
    ) -> None:
        """Record one completed bus tenure on ``segment``.

        ``start``/``acquired``/``end`` mirror exactly what the call site
        added to :class:`~repro.sim.stats.BusStats`, so span sums and the
        counters agree cycle-for-cycle (tested in test_observability.py).
        """
        tracer = self.tracer
        if tracer.enabled:
            tracer.transaction(
                segment.name, master, start, acquired, end, words, write, memory_cycles
            )
        stats = segment.stats
        hist = stats._arb_hist
        if hist is not None:
            hist.observe(acquired - start)
            stats._occupancy.add(acquired, end)
