"""One observability plane over the modeled, measured and service stories.

The paper's argument is a phase-level time breakdown; the repo's four
metric surfaces (modeled :class:`~repro.bsp.trace.Trace`, measured
:class:`~repro.runtime.Measured`, the daemon's ``stats()``, chaos fault
counters) each told part of it in isolation.  This package is the single
plane they project into:

* :mod:`~repro.telemetry.spans` — explicit-clock span tracer
  (:class:`TraceSink`), fed by the run projections below and by the
  daemon; runs record nothing for it, so no sink costs nothing.
* :mod:`~repro.telemetry.metrics` — Counter/Gauge/Histogram registry
  with Prometheus text exposition (``GET /metrics``); no wall-clock
  reads, values only advance via recorded observations.
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) plus the ASCII timeline report
  (``repro trace``).
* :mod:`~repro.telemetry.adapters` — projections of a finished run
  result (modeled trace, per-rank measured segments, chaos plan) into
  spans; a traced run emits them once it returns, so there is no live
  path to drift from a replay.

Entry points: ``Sorter.run(trace_sink=...)``, ``Scenario.execute(...,
trace_sink=...)``, ``repro sort|sweep|serve --trace OUT.json``, and
``repro trace OUT.json`` to render a saved file.
"""

from repro.telemetry.export import (
    load_chrome_trace,
    render_timeline,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.telemetry.spans import (
    MEASURED_PID,
    MODELED_PID,
    SERVICE_PID,
    TraceSink,
)

__all__ = [
    "TraceSink",
    "MODELED_PID",
    "MEASURED_PID",
    "SERVICE_PID",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "parse_prometheus_text",
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
    "render_timeline",
]
