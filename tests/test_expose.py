"""Tests for the OpenMetrics exposition (:mod:`repro.obs.expose`)."""

from __future__ import annotations

import math

import pytest

from repro.obs import Recorder, SeriesRecorder, to_openmetrics, write_openmetrics
from repro.obs.expose import sanitize_metric_name


class TestNameSanitization:
    def test_dots_become_underscores_with_prefix(self):
        assert sanitize_metric_name("serve.latency_s") == "repro_serve_latency_s"

    def test_slashes_and_dashes(self):
        assert sanitize_metric_name("a/b-c") == "repro_a_b_c"

    def test_existing_prefix_not_doubled(self):
        assert sanitize_metric_name("repro_x") == "repro_x"

    def test_invalid_chars_dropped(self):
        assert sanitize_metric_name("a b(c)") == "repro_abc"

    def test_empty_and_digit_prefix_guarded(self):
        assert sanitize_metric_name("") == "repro_unnamed"
        assert sanitize_metric_name("9lives").startswith("repro_")


class TestExposition:
    def _dump(self):
        rec = Recorder()
        rec.count("dual_ascent.rounds", 42)
        rec.gauge("serve.inflight", 7)
        with rec.timer("solve"):
            pass
        return rec.dump()

    def test_counter_rendered_as_total(self):
        text = to_openmetrics(self._dump())
        assert "# TYPE repro_dual_ascent_rounds counter" in text
        assert "repro_dual_ascent_rounds_total 42" in text

    def test_timer_rendered_as_summary_with_max_gauge(self):
        text = to_openmetrics(self._dump())
        assert "# TYPE repro_solve_seconds summary" in text
        assert "repro_solve_seconds_count 1" in text
        assert "repro_solve_seconds_sum" in text
        assert "# TYPE repro_solve_max_seconds gauge" in text

    def test_gauge_rendered_last_value(self):
        text = to_openmetrics(self._dump())
        assert "# TYPE repro_serve_inflight gauge" in text
        assert "repro_serve_inflight 7" in text

    def test_ends_with_eof_terminator(self):
        text = to_openmetrics(self._dump())
        assert text.endswith("# EOF\n")

    def test_deterministic(self):
        dump = self._dump()
        assert to_openmetrics(dump) == to_openmetrics(dump)

    def test_labels_escaped_and_sorted(self):
        text = to_openmetrics(
            {"counters": {"x": 1}},
            labels={"b": 'say "hi"\n', "a": "v"},
        )
        assert 'repro_x_total{a="v",b="say \\"hi\\"\\n"} 1' in text

    def test_histogram_rendered_with_cumulative_buckets(self):
        rec = SeriesRecorder()
        for v in (0.1, 0.2, 0.4, 0.8):
            rec.observe("serve.latency_s", v)
        text = to_openmetrics(rec.dump())
        assert "# TYPE repro_serve_latency_s histogram" in text
        assert 'repro_serve_latency_s_bucket{le="+Inf"} 4' in text
        assert "repro_serve_latency_s_count 4" in text
        assert "repro_serve_latency_s_sum 1.5" in text
        # le buckets are cumulative and non-decreasing.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_latency_s_bucket")
        ]
        assert counts == sorted(counts)

    def test_nonfinite_values_formatted(self):
        text = to_openmetrics(
            {"counters": {"inf": math.inf, "nan": math.nan}}
        )
        assert "repro_inf_total +Inf" in text
        assert "repro_nan_total NaN" in text

    def test_write_openmetrics(self, tmp_path):
        path = tmp_path / "metrics.txt"
        write_openmetrics(self._dump(), str(path))
        assert path.read_text().endswith("# EOF\n")

