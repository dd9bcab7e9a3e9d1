"""Tests for heartbeat log export/import."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.hardware.clock import VirtualClock
from repro.heartbeats.api import HeartbeatMonitor
from repro.heartbeats.log import LogFormatError, read_log, write_log


def monitor_with_intervals(intervals):
    clock = VirtualClock()
    monitor = HeartbeatMonitor(clock, window_size=4)
    monitor.heartbeat()
    for interval in intervals:
        clock.advance(interval)
        monitor.heartbeat()
    return monitor


class TestRoundTrip:
    def test_writes_one_row_per_beat(self):
        monitor = monitor_with_intervals([0.5, 0.5, 0.25])
        stream = io.StringIO()
        assert write_log(monitor, stream) == 4

    def test_roundtrip_preserves_beats_and_timestamps(self):
        monitor = monitor_with_intervals([0.5, 0.25, 1.0])
        stream = io.StringIO()
        write_log(monitor, stream)
        stream.seek(0)
        rows = read_log(stream)
        assert [r.beat for r in rows] == [0, 1, 2, 3]
        assert rows[1].timestamp == pytest.approx(0.5)
        assert rows[3].timestamp == pytest.approx(1.75)

    def test_rates_match_online_view(self):
        monitor = monitor_with_intervals([0.5, 0.25])
        stream = io.StringIO()
        write_log(monitor, stream)
        stream.seek(0)
        rows = read_log(stream)
        assert rows[0].instant_rate is None
        assert rows[1].instant_rate == pytest.approx(2.0)
        assert rows[2].instant_rate == pytest.approx(4.0)
        assert rows[2].global_rate == pytest.approx(2 / 0.75)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=25
        )
    )
    def test_roundtrip_property(self, intervals):
        monitor = monitor_with_intervals(intervals)
        stream = io.StringIO()
        count = write_log(monitor, stream)
        stream.seek(0)
        rows = read_log(stream)
        assert len(rows) == count == len(intervals) + 1
        times = [r.timestamp for r in rows]
        assert times == sorted(times)


class TestParsing:
    def test_missing_header_rejected(self):
        with pytest.raises(LogFormatError):
            read_log(io.StringIO("1\t2\t3\t4\t5\n"))

    def test_wrong_field_count_rejected(self):
        stream = io.StringIO(
            "beat\ttimestamp\tinstant_rate\twindow_rate\tglobal_rate\n1\t2\n"
        )
        with pytest.raises(LogFormatError):
            read_log(stream)

    def test_bad_rate_field_rejected(self):
        stream = io.StringIO(
            "beat\ttimestamp\tinstant_rate\twindow_rate\tglobal_rate\n"
            "0\t0.0\txyz\t-\t-\n"
        )
        with pytest.raises(LogFormatError):
            read_log(stream)

    def test_empty_log_rejected(self):
        with pytest.raises(LogFormatError):
            read_log(io.StringIO(""))


class TestTaggedRoundTrip:
    def test_tagged_beats_log_like_untagged_ones(self):
        """Tags live beside the timestamps; the log is unchanged by them."""
        clock = VirtualClock()
        tagged = HeartbeatMonitor(clock, window_size=4)
        other = VirtualClock()
        plain = HeartbeatMonitor(other, window_size=4)
        for index, interval in enumerate([0.5, 0.25, 1.0, 0.125, 0.5]):
            tagged.heartbeat(tag=f"frame-{index}")
            plain.heartbeat()
            clock.advance(interval)
            other.advance(interval)
        tagged_log, plain_log = io.StringIO(), io.StringIO()
        assert write_log(tagged, tagged_log) == write_log(plain, plain_log) == 5
        assert tagged_log.getvalue() == plain_log.getvalue()
        tagged_log.seek(0)
        rows = read_log(tagged_log)
        assert [r.beat for r in rows] == [r.sequence for r in tagged.records]
        assert [r.timestamp for r in rows] == [r.timestamp for r in tagged.records]
