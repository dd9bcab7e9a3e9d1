"""Unit tests for the Application Heartbeats API."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.clock import VirtualClock
from repro.heartbeats.api import HeartbeatError, HeartbeatMonitor, HeartbeatRecord


def beat_at_intervals(monitor, clock, intervals):
    monitor.heartbeat()
    for interval in intervals:
        clock.advance(interval)
        monitor.heartbeat()


class TestHeartbeatEmission:
    def test_records_sequence_and_timestamp(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock)
        first = monitor.heartbeat()
        clock.advance(0.5)
        second = monitor.heartbeat(tag="frame-1")
        assert first.sequence == 0 and first.timestamp == 0.0
        assert second.sequence == 1 and second.timestamp == 0.5
        assert second.tag == "frame-1"

    def test_count_tracks_beats(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock)
        beat_at_intervals(monitor, clock, [0.1] * 4)
        assert monitor.count == 5

    def test_reset_clears_beats_keeps_targets(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, min_target_rate=5.0, max_target_rate=5.0)
        beat_at_intervals(monitor, clock, [0.1, 0.1])
        monitor.reset()
        assert monitor.count == 0
        assert monitor.target_rate == 5.0


class TestRates:
    def test_instant_rate_is_reciprocal_of_last_interval(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock)
        beat_at_intervals(monitor, clock, [0.25])
        assert monitor.instant_rate() == pytest.approx(4.0)

    def test_rates_none_before_first_interval(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock)
        assert monitor.instant_rate() is None
        assert monitor.window_rate() is None
        assert monitor.global_rate() is None
        monitor.heartbeat()
        assert monitor.window_rate() is None

    def test_window_rate_uses_only_recent_intervals(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=2)
        beat_at_intervals(monitor, clock, [1.0, 0.5, 0.5])
        # Window holds the last two intervals (0.5, 0.5) -> 2 beats/s.
        assert monitor.window_rate() == pytest.approx(2.0)

    def test_global_rate_covers_whole_run(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock)
        beat_at_intervals(monitor, clock, [1.0, 0.5, 0.5])
        assert monitor.global_rate() == pytest.approx(3 / 2.0)

    def test_window_mean_interval_matches_paper_metric(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=20)
        beat_at_intervals(monitor, clock, [0.2] * 10)
        assert monitor.window_mean_interval() == pytest.approx(0.2)

    def test_zero_interval_rates_degrade_gracefully(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock)
        monitor.heartbeat()
        monitor.heartbeat()  # same timestamp
        assert monitor.instant_rate() is None
        assert monitor.window_rate() is None

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=40))
    def test_window_rate_bounded_by_extreme_intervals(self, intervals):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=20)
        beat_at_intervals(monitor, clock, intervals)
        window = intervals[-20:]
        rate = monitor.window_rate()
        assert 1.0 / max(window) - 1e-9 <= rate <= 1.0 / min(window) + 1e-9


class TestTargets:
    def test_target_rate_is_midpoint(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, min_target_rate=4.0, max_target_rate=6.0)
        assert monitor.target_rate == pytest.approx(5.0)

    def test_single_sided_targets(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, min_target_rate=4.0)
        assert monitor.target_rate == 4.0
        monitor.set_targets(None, 8.0)
        assert monitor.target_rate == 8.0

    def test_no_targets_means_none(self):
        assert HeartbeatMonitor(VirtualClock()).target_rate is None

    def test_invalid_targets_rejected(self):
        clock = VirtualClock()
        with pytest.raises(HeartbeatError):
            HeartbeatMonitor(clock, min_target_rate=-1.0)
        with pytest.raises(HeartbeatError):
            HeartbeatMonitor(clock, min_target_rate=5.0, max_target_rate=4.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(HeartbeatError):
            HeartbeatMonitor(VirtualClock(), window_size=0)


class TestRunningWindowSum:
    """The O(1) running-sum window statistics vs the naive recompute."""

    def test_exact_agreement_with_naive_sum_across_rollover(self):
        # Dyadic intervals are exactly representable, so the running
        # add/subtract sum must agree bit-for-bit with a fresh sum()
        # at every beat — including well past window rollover.
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=5)
        intervals = [(1 + (i * 7) % 13) / 64.0 for i in range(40)]
        monitor.heartbeat()
        for interval in intervals:
            clock.advance(interval)
            monitor.heartbeat()
            naive_total = sum(monitor._intervals)
            naive_count = len(monitor._intervals)
            assert monitor.window_rate() == naive_count / naive_total
            assert monitor.window_mean_interval() == naive_total / naive_count

    def test_exact_agreement_after_reset(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=4)
        beat_at_intervals(monitor, clock, [0.25, 0.5, 0.125, 0.25, 0.5])
        monitor.reset()
        assert monitor.window_rate() is None
        assert monitor.window_mean_interval() is None
        beat_at_intervals(monitor, clock, [0.5, 0.25])
        assert monitor.window_rate() == 2 / 0.75
        assert monitor.window_mean_interval() == 0.75 / 2

    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=200
        )
    )
    def test_running_sum_tracks_naive_sum_for_arbitrary_floats(self, intervals):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=20)
        beat_at_intervals(monitor, clock, intervals)
        naive = sum(monitor._intervals)
        # Running add/subtract can drift from the naive sum by a few
        # ulps of the *largest* window sum seen, so tolerance is scaled
        # generously rather than exact here (exactness for representable
        # values is pinned by the dyadic tests above).
        assert monitor.window_rate() == pytest.approx(
            len(monitor._intervals) / naive, rel=1e-7
        )
        assert monitor.window_mean_interval() == pytest.approx(
            naive / len(monitor._intervals), rel=1e-7
        )


class TestBeatLog:
    """The monitor keeps beats as timestamps plus sparse tags; the
    record view must be what one record per beat would have shown."""

    def test_records_rebuild_every_beat_with_its_tag(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock)
        emitted = []
        for index in range(6):
            tag = f"frame-{index}" if index % 2 else None
            emitted.append(monitor.heartbeat(tag=tag))
            clock.advance(0.25)
        assert monitor.records == emitted
        assert monitor.records == [
            HeartbeatRecord(i, 0.25 * i, f"frame-{i}" if i % 2 else None)
            for i in range(6)
        ]
        assert emitted[3] == (3, 0.75, "frame-3")

    def test_falsy_tags_are_kept(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock)
        monitor.heartbeat(tag=0)
        monitor.heartbeat(tag="")
        monitor.heartbeat()
        assert [r.tag for r in monitor.records] == [0, "", None]

    def test_backwards_beat_leaves_the_log_untouched(self):
        clock = VirtualClock(5.0)
        monitor = HeartbeatMonitor(clock)
        monitor.heartbeat(tag="a")
        monitor._clock = VirtualClock(1.0)
        with pytest.raises(HeartbeatError):
            monitor.heartbeat(tag="b")
        assert monitor.records == [HeartbeatRecord(0, 5.0, "a")]
        assert monitor.count == 1

    def test_reset_forgets_tags(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock)
        monitor.heartbeat(tag="old")
        monitor.reset()
        monitor.heartbeat()
        assert monitor.records == [HeartbeatRecord(0, 0.0, None)]

    def test_restored_monitor_continues_numbering(self):
        clock = VirtualClock()
        source = HeartbeatMonitor(clock, window_size=4)
        for _ in range(5):
            source.heartbeat()
            clock.advance(0.5)
        target = HeartbeatMonitor(clock, window_size=4)
        target.restore_window(source.export_window())
        record = target.heartbeat(tag="moved")
        assert record == HeartbeatRecord(5, clock.now, "moved")
        assert target.records == [
            HeartbeatRecord(4, 2.0, None),
            HeartbeatRecord(5, 2.5, "moved"),
        ]
        assert target.global_rate() == 1.0 / 0.5

    def test_commit_run_collapses_to_one_untagged_beat(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=4)
        monitor.heartbeat(tag="first")
        first, rates = monitor.commit_run([0.5, 1.0, 1.5])
        assert first == 1 and len(rates) == 3
        assert monitor.records == [HeartbeatRecord(3, 1.5, None)]
        assert monitor.count == 4


def committed_reference(window_size, warmup, timestamps):
    """Per-beat heartbeat() plus a window_rate() query after each beat."""
    clock = VirtualClock()
    monitor = HeartbeatMonitor(clock, window_size=window_size)
    for t in warmup:
        clock.advance_to(t)
        monitor.heartbeat()
    rates = []
    for t in timestamps:
        clock.advance_to(t)
        monitor.heartbeat()
        rates.append(monitor.window_rate())
    return monitor, rates


def committed_bulk(window_size, warmup, timestamps):
    """The same trace, its run committed by one commit_run call."""
    clock = VirtualClock()
    monitor = HeartbeatMonitor(clock, window_size=window_size)
    for t in warmup:
        clock.advance_to(t)
        monitor.heartbeat()
    first, rates = monitor.commit_run(np.asarray(timestamps, dtype=float))
    return monitor, first, rates


intervals = st.floats(
    min_value=1e-4, max_value=5.0, allow_nan=False, allow_infinity=False
)


class TestCommitRun:
    """``commit_run`` must equal the per-beat loop bit for bit."""

    @given(
        window_size=st.integers(1, 20),
        warmup_gaps=st.lists(intervals, min_size=0, max_size=30),
        run_gaps=st.lists(intervals, min_size=1, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_beat_loop(self, window_size, warmup_gaps, run_gaps):
        """Draws cover both the filled-window vector path (warm monitor,
        n >= 8) and the loop fallback (cold or short runs)."""
        times = []
        now = 0.0
        for gap in warmup_gaps + run_gaps:
            now += gap
            times.append(now)
        warmup = times[: len(warmup_gaps)]
        run = times[len(warmup_gaps):]
        reference, ref_rates = committed_reference(window_size, warmup, run)
        bulk, first, bulk_rates = committed_bulk(window_size, warmup, run)
        assert first == len(warmup)
        assert bulk_rates == ref_rates
        assert bulk.count == reference.count
        assert bulk.export_window() == reference.export_window()
        assert bulk.window_rate() == reference.window_rate()

    def test_zero_intervals_fall_back_to_none_rates(self):
        """A window full of zero-width intervals bails the vector path."""
        warmup = [0.0, 1.0, 2.0, 3.0]
        run = [3.0] * 12  # zero intervals push the window sum to zero
        reference, ref_rates = committed_reference(3, warmup, run)
        bulk, first, bulk_rates = committed_bulk(3, warmup, run)
        assert bulk_rates == ref_rates
        assert any(rate is None for rate in bulk_rates)
        assert bulk.export_window() == reference.export_window()

    def test_backwards_run_raises_before_mutating(self):
        """The vector path validates the whole run before touching state."""
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=4)
        for t in (0.0, 1.0, 2.0, 3.0, 4.0):
            clock.advance_to(t)
            monitor.heartbeat()
        before = (monitor.count, monitor.export_window())
        bad = np.asarray([5.0, 6.0, 5.5, 7.0, 8.0, 9.0, 10.0, 11.0])
        with pytest.raises(HeartbeatError):
            monitor.commit_run(bad)
        assert (monitor.count, monitor.export_window()) == before

    def test_empty_run_is_a_noop(self):
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=4)
        monitor.heartbeat()
        assert monitor.commit_run([]) == (monitor.count, [])
