"""Observability: transaction tracing, metrics, and run telemetry.

Three pillars (see docs/observability.md for the user-facing guide):

* :mod:`repro.obs.tracer` -- span-based transaction tracer recording each
  bus transaction's lifecycle (request -> arbitration grant -> data tenure
  -> completion, plus bridge hops and FIFO fill levels), with exporters to
  Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``) and JSONL.
* :mod:`repro.obs.metrics` -- a metrics registry of fixed-bucket cycle
  histograms and occupancy time series that backs the per-segment
  :class:`repro.sim.stats.BusStats` detail.
* :mod:`repro.obs.report` -- structured :class:`RunReport` telemetry for
  every experiment case and benchmark run, with deterministic aggregation
  across parallel workers.

The cost contract: observability is **free when off**.  An
:class:`Observability` is one subscriber of the probe plane
(:mod:`repro.sim.probe`): unobserved bus models hold ``probe = None`` and
pay one attribute load and a branch per hook site.  Attaching one
(``machine.attach_observability(obs)``) puts it in every model's probe
slot, where it records spans and histogram samples.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..sim.bus import BusSegment
from ..sim.probe import Probe
from .metrics import (
    DEFAULT_CYCLE_BUCKETS,
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
    Tracer,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Observability",
    "Tracer",
    "chrome_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
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


class Observability(Probe):
    """A tracer plus a metrics registry, subscribed to a machine as one probe.

    Records one span per bus tenure, bridge hops, FIFO fill levels and
    queued-grant marks on :attr:`tracer`; every segment also gets an
    arbitration-wait histogram and an occupancy-over-time series (1024-cycle
    windows) in :attr:`registry`, kept per segment in :attr:`detail`.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        # segment -> (arbitration-wait histogram, occupancy series)
        self.detail: Dict[BusSegment, Tuple[Histogram, TimeSeries]] = {}

    def bind(self, model) -> None:
        if isinstance(model, BusSegment):
            registry = self.registry
            self.detail[model] = (
                registry.histogram("bus.%s.arb_wait_cycles" % model.name),
                registry.time_series("bus.%s.occupancy" % model.name),
            )

    def on_grant(self, arbiter, master: str, queued: bool, waited: int) -> None:
        if queued:
            # Queued grants only -- immediate grants carry zero wait and
            # already appear as the transaction span's arbitration phase.
            self.tracer.instant(
                arbiter.sim.now,
                arbiter.name,
                "grant %s" % master,
                {"waited": waited, "still_pending": arbiter.pending_count},
            )

    def on_tenure(
        self, segment, master, start, acquired, end, words, write, memory_cycles
    ) -> None:
        # start/acquired/end mirror exactly what the call site added to
        # BusStats, so span sums and the counters agree cycle-for-cycle.
        self.tracer.transaction(
            segment.name, master, start, acquired, end, words, write, memory_cycles
        )
        histogram, occupancy = self.detail[segment]
        histogram.observe(acquired - start)
        occupancy.add(acquired, end)

    def on_fifo_push(self, fifo, count: int) -> None:
        self.tracer.fifo(fifo.sim.now, fifo.name, "push", count, fifo.count)

    def on_fifo_pop(self, fifo, count: int) -> None:
        self.tracer.fifo(fifo.sim.now, fifo.name, "pop", count, fifo.count)

    def on_bridge_cross(self, bridge, master: str) -> None:
        self.tracer.hop(bridge.sim.now, bridge.name)
