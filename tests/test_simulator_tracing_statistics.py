"""Unit tests for packet tracing and the statistics helpers."""

import pytest

from repro.simulator.statistics import Histogram, TimeSeries, mean, percentile, summarize
from repro.simulator.tracing import PacketTracer


class TestPacketTracer(object):
    def test_counts_by_type_and_session(self):
        tracer = PacketTracer()
        tracer.record(0.0, "Join", "s1")
        tracer.record(0.1, "Join", "s2")
        tracer.record(0.2, "Response", "s1")
        assert tracer.total == 3
        assert tracer.by_type["Join"] == 2
        assert tracer.by_type["Response"] == 1
        assert tracer.by_session["s1"] == 2

    def test_packets_per_session(self):
        tracer = PacketTracer()
        assert tracer.packets_per_session() == 0.0
        tracer.record(0.0, "Join", "s1")
        tracer.record(0.1, "Probe", "s1")
        tracer.record(0.2, "Join", "s2")
        assert tracer.packets_per_session() == pytest.approx(1.5)

    def test_records_kept_only_when_requested(self):
        counting = PacketTracer(keep_records=False)
        counting.record(0.0, "Join", "s1")
        assert counting.records == []
        full = PacketTracer(keep_records=True)
        full.record(0.0, "Join", "s1", link=("a", "b"), direction="downstream")
        assert len(full.records) == 1
        assert full.records[0].link == ("a", "b")

    def test_interval_series_buckets(self):
        tracer = PacketTracer(interval=1.0)
        tracer.record(0.2, "Join", "s1")
        tracer.record(0.8, "Probe", "s1")
        tracer.record(2.5, "Leave", "s1")
        series = tracer.interval_series()
        assert len(series) == 3
        assert series[0][1] == {"Join": 1, "Probe": 1}
        assert series[1][1] == {}
        assert series[2][1] == {"Leave": 1}

    def test_totals_per_interval(self):
        tracer = PacketTracer(interval=1.0)
        tracer.record(0.5, "Join", "s1")
        tracer.record(0.6, "Join", "s2")
        tracer.record(1.5, "Leave", "s1")
        assert tracer.totals_per_interval() == [(0.0, 2), (1.0, 1)]

    def test_interval_series_without_interval_raises(self):
        tracer = PacketTracer()
        with pytest.raises(ValueError):
            tracer.interval_series()

    def test_last_packet_time_tracked(self):
        tracer = PacketTracer()
        tracer.record(0.3, "Join", "s1")
        tracer.record(0.1, "Probe", "s1")
        assert tracer.last_packet_time == 0.3

    def test_clear_resets_everything(self):
        tracer = PacketTracer(keep_records=True, interval=1.0)
        tracer.record(0.3, "Join", "s1")
        tracer.clear()
        assert tracer.total == 0
        assert tracer.records == []
        assert tracer.interval_series() == []


class TestStatistics(object):
    def test_percentile_interpolates(self):
        values = [0.0, 10.0]
        assert percentile(values, 0.5) == pytest.approx(5.0)
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 1.0) == 10.0

    def test_percentile_single_value(self):
        assert percentile([3.0], 0.9) == 3.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            mean([])

    def test_summarize_known_values(self):
        stats = summarize(range(1, 11))
        assert stats.count == 10
        assert stats.mean == pytest.approx(5.5)
        assert stats.median == pytest.approx(5.5)
        assert stats.minimum == 1
        assert stats.maximum == 10
        assert stats.p10 == pytest.approx(1.9)
        assert stats.p90 == pytest.approx(9.1)
        assert set(stats.as_dict()) == {"count", "mean", "median", "p10", "p90", "min", "max"}

    def test_time_series_enforces_order(self):
        series = TimeSeries("quiescence")
        series.append(0.0, 1)
        series.append(1.0, 2)
        with pytest.raises(ValueError):
            series.append(0.5, 3)
        assert series.times() == [0.0, 1.0]
        assert series.values() == [1, 2]
        assert series.last() == (1.0, 2)
        assert len(series) == 2

    def test_time_series_empty_last_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().last()

    def test_histogram_bins(self):
        histogram = Histogram(bin_width=10.0)
        histogram.add(3.0)
        histogram.add(7.0)
        histogram.add(15.0, weight=2)
        assert histogram.total == 4
        assert histogram.as_sorted_bins() == [(0.0, 2), (10.0, 2)]

    def test_histogram_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Histogram(bin_width=0)
