"""OpenMetrics/Prometheus text exposition of recorder dumps.

Turns the JSON-safe dict from :meth:`Recorder.dump` (optionally the
extended :class:`~repro.obs.timeseries.SeriesRecorder` dump) into the
OpenMetrics text format, so a run's telemetry drops straight into any
Prometheus-compatible toolchain without an exporter process:

* counters   → ``counter`` families, ``_total``-suffixed;
* timers     → ``summary`` families (``_count`` calls, ``_sum``
  seconds) plus a ``_max_seconds`` gauge for the per-call worst case;
* gauges     → ``gauge`` families (last recorded value);
* histograms → ``histogram`` families with cumulative ``le`` buckets
  straight from :meth:`StreamingHistogram.bucket_bounds`, closing with
  the mandatory ``+Inf`` bucket, ``_count`` and ``_sum``.

Metric names are sanitised to ``[a-zA-Z0-9_:]`` (dots, slashes, and
dashes become underscores) and prefixed ``repro_``; the dotted recorder
names stay authoritative — the mapping is mechanical and documented in
``docs/OBSERVABILITY.md``.  Optional labels are attached to every
sample and escaped per the spec.  Output ends with the mandatory
``# EOF`` terminator and is deterministic: families sort by name,
samples keep input order within a family.

Standard-library-only by contract (``stdlib_only`` in
``docs/layering.toml``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.histogram import StreamingHistogram

#: family name -> (openmetrics type, [sample lines])
_Families = Dict[str, Tuple[str, List[str]]]


def sanitize_metric_name(name: str) -> str:
    """Map a dotted recorder name to an OpenMetrics metric name.

    Dots, slashes, and dashes become underscores; any other character
    outside ``[a-zA-Z0-9_:]`` is dropped; the ``repro_`` prefix is
    added unless already present.
    """
    out: List[str] = []
    for ch in name:
        if ch in "./-":
            out.append("_")
        elif ch.isalnum() or ch in "_:":
            out.append(ch)
    flat = "".join(out) or "unnamed"
    if flat[0].isdigit():
        flat = f"_{flat}"
    if not flat.startswith("repro_"):
        flat = f"repro_{flat}"
    return flat


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Optional[Mapping[str, Any]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


def _merge_labels(
    labels: Optional[Mapping[str, Any]], extra: Mapping[str, Any]
) -> Dict[str, Any]:
    merged = dict(labels) if labels else {}
    merged.update(extra)
    return merged


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _family(families: _Families, name: str, kind: str) -> List[str]:
    entry = families.get(name)
    if entry is None:
        entry = families[name] = (kind, [])
    return entry[1]


def _collect(
    dump: Mapping[str, Any],
    labels: Optional[Mapping[str, Any]],
    families: _Families,
) -> None:
    """Fold one dump's samples into the family table."""
    label_str = _render_labels(labels)

    for name, value in sorted(dict(dump.get("counters", {})).items()):
        metric = sanitize_metric_name(name)
        _family(families, metric, "counter").append(
            f"{metric}_total{label_str} {_format_value(float(value))}"
        )

    for path, stat in sorted(dict(dump.get("timers", {})).items()):
        metric = f"{sanitize_metric_name(path)}_seconds"
        lines = _family(families, metric, "summary")
        lines.append(
            f"{metric}_count{label_str} {_format_value(float(stat['calls']))}"
        )
        lines.append(
            f"{metric}_sum{label_str} {_format_value(float(stat['seconds']))}"
        )
        max_metric = f"{sanitize_metric_name(path)}_max_seconds"
        _family(families, max_metric, "gauge").append(
            f"{max_metric}{label_str} {_format_value(float(stat['max']))}"
        )

    # ``observe()`` feeds both a gauge summary and a histogram under
    # one name; a metric family cannot carry two types, and the
    # histogram is the strictly richer view — skip the shadowed gauge.
    histograms = dict(dump.get("histograms", {}))
    for name, stat in sorted(dict(dump.get("gauges", {})).items()):
        if name in histograms:
            continue
        metric = sanitize_metric_name(name)
        _family(families, metric, "gauge").append(
            f"{metric}{label_str} {_format_value(float(stat['last']))}"
        )

    for name, hist_data in sorted(histograms.items()):
        metric = sanitize_metric_name(name)
        hist = StreamingHistogram.from_dict(hist_data)
        lines = _family(families, metric, "histogram")
        for upper, cumulative in hist.bucket_bounds():
            bucket_labels = _render_labels(
                _merge_labels(labels, {"le": _format_value(upper)})
            )
            lines.append(f"{metric}_bucket{bucket_labels} {cumulative}")
        inf_labels = _render_labels(_merge_labels(labels, {"le": "+Inf"}))
        lines.append(f"{metric}_bucket{inf_labels} {hist.count}")
        lines.append(f"{metric}_count{label_str} {hist.count}")
        lines.append(f"{metric}_sum{label_str} {_format_value(hist.sum)}")


def _render(families: _Families) -> str:
    lines: List[str] = []
    for name in sorted(families):
        kind, samples = families[name]
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def to_openmetrics(
    dump: Mapping[str, Any], labels: Optional[Mapping[str, Any]] = None
) -> str:
    """Render a recorder dump as OpenMetrics text exposition.

    ``dump`` is the dict from :meth:`Recorder.dump` — the base schema
    or the series-extended one; absent blocks are skipped.  ``labels``
    are attached to every sample.
    """
    families: _Families = {}
    _collect(dump, labels, families)
    return _render(families)


def write_openmetrics(
    dump: Mapping[str, Any],
    path: str,
    labels: Optional[Mapping[str, Any]] = None,
) -> None:
    """Write :func:`to_openmetrics` output to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_openmetrics(dump, labels=labels))
