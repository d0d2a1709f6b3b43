"""Observability: counters, timers, gauges, tracing, and telemetry.

The instrumentation substrate every performance claim rests on:

* :class:`Recorder` — named counters, hierarchical (context-manager)
  phase timers, gauge snapshots; dumps to JSON with an embedded run
  manifest.
* :class:`NullRecorder` — the zero-overhead default; hot paths are
  always instrumented but pay ~nothing until a real recorder is
  installed.
* :func:`get_recorder` / :func:`set_recorder` / :func:`use_recorder` —
  the active-recorder switch.
* :class:`Tracer` / :class:`NullTracer` and :func:`get_tracer` /
  :func:`set_tracer` / :func:`use_tracer` — the structured event layer
  (:mod:`repro.obs.trace`): bounded ring buffer of spans + instant
  events exporting Chrome trace-event / Perfetto JSON.
* :func:`build_manifest` — run provenance (:mod:`repro.obs.manifest`)
  embedded in recorder dumps, trace exports and ``bench/run.py``
  results.
* :class:`SeriesRecorder` / :class:`SeriesConfig` — the streaming
  telemetry extension (:mod:`repro.obs.timeseries`): bounded
  ring-buffered time series on a virtual-time cadence plus
  :class:`StreamingHistogram` distribution sketches
  (:mod:`repro.obs.histogram`), exported as OpenMetrics text
  (:mod:`repro.obs.expose`) or the ``repro-series/1`` artifact that
  ``repro monitor`` (:mod:`repro.obs.monitor`) tails.

The end-to-end benchmark is not part of the package: ``bench/run.py``
at the repository root drives the public API and reads these recorders
(see ``bench/README.md``).
"""

from repro.obs.expose import to_openmetrics, write_openmetrics
from repro.obs.histogram import StreamingHistogram
from repro.obs.manifest import build_manifest
from repro.obs.recorder import (
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
)
from repro.obs.timeseries import (
    SERIES_SCHEMA,
    Series,
    SeriesConfig,
    SeriesRecorder,
    load_series_artifact,
    windowed_rates,
)
from repro.obs.trace import (
    NullTracer,
    TraceEvent,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "NullRecorder",
    "NullTracer",
    "Recorder",
    "SERIES_SCHEMA",
    "Series",
    "SeriesConfig",
    "SeriesRecorder",
    "StreamingHistogram",
    "TraceEvent",
    "Tracer",
    "build_manifest",
    "get_recorder",
    "get_tracer",
    "load_series_artifact",
    "set_recorder",
    "set_tracer",
    "to_openmetrics",
    "use_recorder",
    "use_tracer",
    "windowed_rates",
    "write_openmetrics",
]
