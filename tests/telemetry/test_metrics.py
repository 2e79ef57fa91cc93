"""Counter/gauge/histogram semantics and registry behaviour."""

import threading

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    render_labels,
    validate_labels,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("requests_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_increment_rejected(self):
        counter = Counter("requests_total")
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_invalid_name_rejected(self):
        with pytest.raises(TelemetryError):
            Counter("bad name with spaces")
        with pytest.raises(TelemetryError):
            Counter("0starts_with_digit")

    def test_snapshot(self):
        counter = Counter("x_total", help="things")
        counter.inc(3)
        snap = counter.snapshot()
        assert snap == {
            "name": "x_total", "type": "counter", "help": "things",
            "labels": {}, "value": 3.0,
        }

    def test_concurrent_increments_exact(self):
        counter = Counter("racy_total")

        def hammer():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("occupancy")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_snapshot_type(self):
        assert Gauge("g").snapshot()["type"] == "gauge"


class TestHistogram:
    def test_log_scale_bounds(self):
        histogram = Histogram("h", start=1.0, factor=2.0, count=4)
        assert histogram.bounds == (1.0, 2.0, 4.0, 8.0)

    def test_bucket_placement(self):
        histogram = Histogram("h", start=1.0, factor=2.0, count=4)
        for value in (0.5, 1.0, 3.0, 8.0, 100.0):
            histogram.observe(value)
        # 0.5 and 1.0 -> le=1; 3.0 -> le=4; 8.0 -> le=8; 100 -> overflow.
        assert histogram.bucket_counts() == [2, 0, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(112.5)
        assert histogram.mean == pytest.approx(22.5)

    def test_cumulative_buckets_monotone_and_end_at_count(self):
        histogram = Histogram("h", start=1.0, factor=2.0, count=4)
        for value in (0.5, 3.0, 999.0):
            histogram.observe(value)
        pairs = histogram.cumulative_buckets()
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)
        assert pairs[-1] == (float("inf"), 3)

    def test_min_max_tracked(self):
        histogram = Histogram("h")
        histogram.observe(2e-6)
        histogram.observe(5e-3)
        snap = histogram.snapshot()
        assert snap["min"] == pytest.approx(2e-6)
        assert snap["max"] == pytest.approx(5e-3)

    def test_empty_snapshot_has_null_extrema(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_bad_geometry_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram("h", start=0.0)
        with pytest.raises(TelemetryError):
            Histogram("h", factor=1.0)
        with pytest.raises(TelemetryError):
            Histogram("h", count=0)


class TestRegistry:
    def test_get_or_create_shares_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total")
        b = registry.counter("hits_total")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TelemetryError):
            registry.gauge("thing")

    def test_snapshot_preserves_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.gauge("a")
        registry.histogram("c_seconds")
        names = [snap["name"] for snap in registry.snapshot()]
        assert names == ["b_total", "a", "c_seconds"]

    def test_membership_and_len(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        assert "x_total" in registry
        assert "y" not in registry
        assert len(registry) == 1
        assert registry.get("x_total").value == 0
        assert registry.get("y") is None


class TestCallbackSeries:
    """A counter or gauge registered with ``read=`` reports what the
    callable returns at snapshot time and refuses writes."""

    def test_value_and_snapshot_read_the_callable(self):
        registry = MetricsRegistry()
        state = {"live": 3}
        gauge = registry.gauge("live", "Live things",
                               read=lambda: state["live"])
        assert gauge.value == 3
        state["live"] = 5
        assert gauge.value == 5
        (snap,) = registry.snapshot()
        assert snap == {"name": "live", "type": "gauge",
                        "help": "Live things", "labels": {}, "value": 5.0}

    def test_exporters_render_the_current_value(self):
        from repro.telemetry import Telemetry, parse_prometheus_text

        telemetry = Telemetry()
        served = [0]
        telemetry.counter("served_total", read=lambda: served[0])
        served[0] = 7
        samples = parse_prometheus_text(telemetry.render_metrics())
        assert samples["served_total"] == 7
        assert '"value": 7.0' in telemetry.render_metrics("json")

    @pytest.mark.parametrize("write", [
        lambda metric: metric.inc(),
        lambda metric: metric.inc(0),
    ])
    def test_counter_writes_refused(self, write):
        counter = MetricsRegistry().counter("c_total", read=lambda: 1)
        with pytest.raises(TelemetryError, match="callable"):
            write(counter)
        assert counter.value == 1

    @pytest.mark.parametrize("write", [
        lambda metric: metric.set(2),
        lambda metric: metric.inc(),
        lambda metric: metric.dec(),
    ])
    def test_gauge_writes_refused(self, write):
        gauge = MetricsRegistry().gauge("g", read=lambda: 1)
        with pytest.raises(TelemetryError, match="callable"):
            write(gauge)
        assert gauge.value == 1

    def test_registering_again_rebinds_the_series(self):
        registry = MetricsRegistry()
        first = registry.gauge("owner", read=lambda: 1)
        second = registry.gauge("owner", read=lambda: 2)
        assert first is second and first.value == 2
        # Asking without a callable returns the bound series unchanged.
        assert registry.gauge("owner").value == 2
        assert len(registry) == 1

    def test_binding_an_existing_plain_series(self):
        registry = MetricsRegistry()
        plain = registry.counter("events_total")
        plain.inc(4)
        registry.counter("events_total", read=lambda: 9)
        assert plain.value == 9
        with pytest.raises(TelemetryError):
            plain.inc()

    def test_labeled_series_bind_independently(self):
        registry = MetricsRegistry()
        registry.gauge("up", labels={"worker": "w0"}, read=lambda: 1)
        registry.gauge("up", labels={"worker": "w1"}, read=lambda: 0)
        values = {
            snap["labels"]["worker"]: snap["value"]
            for snap in registry.snapshot()
        }
        assert values == {"w0": 1.0, "w1": 0.0}

    def test_kind_conflict_still_refused(self):
        registry = MetricsRegistry()
        registry.gauge("thing", read=lambda: 1)
        with pytest.raises(TelemetryError):
            registry.counter("thing", read=lambda: 1)


class TestLabels:
    def test_validate_sorts_and_stringifies(self):
        normalized = validate_labels({"b": 2, "a": "x"})
        assert normalized == {"a": "x", "b": "2"}
        assert list(normalized) == ["a", "b"]
        assert validate_labels(None) == {}
        assert validate_labels({}) == {}

    def test_invalid_label_names_rejected(self):
        for bad in ("0digit", "has space", "has-dash", ""):
            with pytest.raises(TelemetryError):
                validate_labels({bad: "v"})

    def test_reserved_le_rejected(self):
        with pytest.raises(TelemetryError):
            validate_labels({"le": "1.0"})

    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_render_labels(self):
        assert render_labels({}) == ""
        labels = validate_labels({"route": "/v1", "method": "GET"})
        assert render_labels(labels) == '{method="GET",route="/v1"}'
        assert render_labels({}, extra='le="+Inf"') == '{le="+Inf"}'
        assert (
            render_labels(labels, extra='le="2"')
            == '{method="GET",route="/v1",le="2"}'
        )

    def test_same_name_different_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("req_total", labels={"route": "/a"})
        b = registry.counter("req_total", labels={"route": "/b"})
        assert a is not b
        a.inc(3)
        b.inc(5)
        assert registry.get("req_total", labels={"route": "/a"}).value == 3
        assert registry.get("req_total", labels={"route": "/b"}).value == 5
        assert len(registry) == 2

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        a = registry.counter("t_total", labels={"x": "1", "y": "2"})
        b = registry.counter("t_total", labels={"y": "2", "x": "1"})
        assert a is b

    def test_kind_conflict_across_label_sets_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing", labels={"a": "1"})
        with pytest.raises(TelemetryError):
            registry.gauge("thing", labels={"a": "2"})

    def test_snapshot_carries_labels(self):
        registry = MetricsRegistry()
        registry.gauge("occ", labels={"phase": "3"}).set(4)
        (snap,) = registry.snapshot()
        assert snap["labels"] == {"phase": "3"}
