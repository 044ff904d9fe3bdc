"""Observability: structured event tracing and the metrics registry.

The subsystem has three pieces (see docs/observability.md):

* :class:`TraceBuffer` -- a fixed-capacity, columnar ring of typed
  :class:`TraceEvent` records, emitted by the machine, the VM, the
  run-time layer, and the disk array (absent from a metrics-only
  ``Observer(capacity=None)``);
* :class:`MetricsRegistry` -- named counters / gauges / histograms;
  every ``RunStats`` counter publishes into it, plus three live
  histograms only observable while the run executes;
* exporters -- Chrome ``trace_event`` JSON (Perfetto-loadable) and a
  metrics JSON artifact.

Attach an :class:`Observer` to a machine to record a run::

    from repro.obs import Observer
    from repro.obs.export import write_chrome_trace

    obs = Observer()
    machine = Machine(platform, observer=obs)
    stats = run_program(program, machine)
    stats.publish(obs.metrics)
    write_chrome_trace("trace.json", obs.trace)

Everything is off by default: a machine without an observer emits
nothing and pays a single ``is None`` check on its slow paths.
"""

from repro.obs.attrib import (
    STALL_CAUSES,
    StallAttributor,
    StallReport,
    classify,
)
from repro.obs.export import (
    FARM_COUNTER_NAMES,
    FARM_INSTANT_NAMES,
    FARM_SPAN_NAMES,
    chrome_trace,
    merge_chrome_traces,
    metrics_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OBS_METRIC_NAMES,
    RUN_METRIC_NAMES,
    SLO_METRIC_NAMES,
    TELEMETRY_METRIC_NAMES,
    base_name,
    labeled_name,
)
from repro.obs.telemetry import (
    FarmTelemetry,
    SloEngine,
    SloRule,
    TelemetryAggregator,
    TelemetryConfig,
    default_slo_rules,
    load_slo_rules,
)
from repro.obs.observer import Observer
from repro.obs.spans import Span, SpanBuilder, SpanState, StallRecord
from repro.obs.trace import TraceBuffer, TraceEvent, TraceKind

__all__ = [
    "Observer",
    "TraceBuffer",
    "TraceEvent",
    "TraceKind",
    "Span",
    "SpanBuilder",
    "SpanState",
    "StallRecord",
    "StallAttributor",
    "StallReport",
    "STALL_CAUSES",
    "classify",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "RUN_METRIC_NAMES",
    "OBS_METRIC_NAMES",
    "SLO_METRIC_NAMES",
    "TELEMETRY_METRIC_NAMES",
    "FARM_SPAN_NAMES",
    "FARM_INSTANT_NAMES",
    "FARM_COUNTER_NAMES",
    "labeled_name",
    "base_name",
    "chrome_trace",
    "merge_chrome_traces",
    "write_chrome_trace",
    "validate_chrome_trace",
    "metrics_json",
    "write_metrics_json",
    "FarmTelemetry",
    "TelemetryAggregator",
    "TelemetryConfig",
    "SloRule",
    "SloEngine",
    "default_slo_rules",
    "load_slo_rules",
]
