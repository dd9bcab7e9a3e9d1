"""Exactness of the indexed barrier reads against the scans they replace.

``TenantStats.recent_attainment`` bisects a lazily extended index and
``PowerMeter.mean_power`` sums a watts column; each must return the very
float the per-call scan returned — the keyed bisect over
``completions`` counting ``latency <= bound``, and the mean over the
stored :class:`PowerSample` list — for any append order, bound change,
window, reset and pickle round trip.
"""

import bisect
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datacenter.tenants import CompletedRequest, TenantStats
from repro.hardware.power import PowerError, PowerMeter, PowerSample


def scanned_attainment(completions, bound, since, until):
    """``recent_attainment`` as a keyed bisect plus a window scan."""
    key = lambda record: record.completion
    lo = bisect.bisect_right(completions, since, key=key)
    hi = bisect.bisect_right(completions, until, key=key)
    window = completions[lo:hi]
    if not window:
        return None
    met = sum(1 for record in window if record.latency <= bound)
    return met / len(window)


def same_answer(got, expected):
    if expected is None:
        return got is None
    return got is not None and got.hex() == expected.hex()


# A quarter-second grid makes ties likely: equal completion times,
# windows opening or closing exactly on a completion, and latencies
# equal to the bound.
grid = st.integers(min_value=0, max_value=40).map(lambda k: k / 4)
instants = st.one_of(
    grid, st.floats(min_value=-1.0, max_value=120.0, allow_nan=False)
)
bounds = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.floats(min_value=1e-3, max_value=8.0),
)
latencies = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=8.0),
)
appends = st.tuples(st.just("append"), grid, latencies)
asks = st.tuples(st.just("ask"), bounds, instants, instants)
operations = st.lists(st.one_of(appends, asks), max_size=60)


def apply(stats, operation):
    """Append a completion (at a non-decreasing time) or ask a window."""
    if operation[0] == "append":
        _, gap, latency = operation
        last = stats.completions[-1].completion if stats.completions else 0.0
        completion = last + gap
        stats.record_completion(completion - latency, completion)
        return None
    _, bound, since, until = operation
    got = stats.recent_attainment(bound, since, until)
    expected = scanned_attainment(stats.completions, bound, since, until)
    assert same_answer(got, expected), (bound, since, until, got, expected)
    return got


class TestRecentAttainment:
    @given(operations)
    def test_equals_the_window_scan(self, ops):
        stats = TenantStats()
        for operation in ops:
            apply(stats, operation)

    @given(operations, bounds, bounds, instants, instants)
    def test_bound_change_mid_stream(self, ops, first, second, since, until):
        stats = TenantStats()
        half = len(ops) // 2
        for operation in ops[:half]:
            apply(stats, operation)
        apply(stats, ("ask", first, since, until))
        for operation in ops[half:]:
            apply(stats, operation)
        apply(stats, ("ask", second, since, until))
        apply(stats, ("ask", first, since, until))

    @given(operations, st.lists(asks, min_size=1, max_size=8))
    def test_pickled_copy_answers_identically(self, ops, later):
        stats = TenantStats()
        for operation in ops:
            apply(stats, operation)
        restored = pickle.loads(pickle.dumps(stats))
        # The index never rides a pickle: the bytes are a fresh copy's.
        fresh = TenantStats(
            stats.offered, stats.rejected, list(stats.completions)
        )
        assert pickle.dumps(stats) == pickle.dumps(fresh)
        assert restored == stats
        for _, bound, since, until in later:
            assert same_answer(
                restored.recent_attainment(bound, since, until),
                stats.recent_attainment(bound, since, until),
            )
            apply(restored, ("ask", bound, since, until))

    def test_empty_and_degenerate_windows(self):
        stats = TenantStats()
        assert stats.recent_attainment(1.0, 0.0, 10.0) is None
        stats.record_completion(2.0, 2.0)  # zero latency
        stats.record_completion(1.0, 2.0)  # latency exactly the bound
        stats.record_completion(0.5, 3.0)
        assert stats.recent_attainment(1.0, 2.0, 2.0) is None
        assert stats.recent_attainment(1.0, 3.0, 2.0) is None
        assert stats.recent_attainment(1.0, 1.0, 2.0) == 1.0
        assert stats.recent_attainment(1.0, 1.0, 3.0) == 2 / 3
        assert stats.recent_attainment(0.5, 1.0, 3.0) == 1 / 3
        assert stats.recent_attainment(1.0, 2.0, 3.0) == 0.0


class ListMeter:
    """The meter's sample emission, storing PowerSample objects as the
    meter once did; the reference for its columns."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.next_sample_time = None

    def observe(self, start, end, watts):
        if self.next_sample_time is None:
            self.next_sample_time = start + self.interval
        while self.next_sample_time <= end + 1e-12:
            self.samples.append(PowerSample(self.next_sample_time, watts))
            self.next_sample_time += self.interval

    def reset(self):
        self.samples = []
        self.next_sample_time = None

    def mean_power(self):
        if not self.samples:
            raise PowerError("no power samples recorded")
        return sum(s.watts for s in self.samples) / len(self.samples)


watts = st.floats(min_value=0.0, max_value=1e6)
durations = st.floats(min_value=0.0, max_value=4.0)
meter_operations = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), durations, watts),
        st.tuples(
            st.just("observe_run"),
            st.lists(durations, min_size=1, max_size=6),
            watts,
        ),
        st.tuples(st.just("reset")),
    ),
    max_size=40,
)


def assert_same_mean(meter, reference):
    try:
        expected = reference.mean_power()
    except PowerError:
        with pytest.raises(PowerError):
            meter.mean_power()
        return
    assert meter.mean_power().hex() == expected.hex()


class TestMeanPower:
    @given(
        st.sampled_from([0.25, 1.0, 1.5]),
        meter_operations,
    )
    def test_equals_the_sample_mean(self, interval, ops):
        meter = PowerMeter(interval=interval)
        reference = ListMeter(interval)
        now = 0.0
        for operation in ops:
            if operation[0] == "observe":
                _, seconds, level = operation
                meter.observe(now, now + seconds, level)
                reference.observe(now, now + seconds, level)
                now += seconds
            elif operation[0] == "observe_run":
                _, steps, level = operation
                times = np.add.accumulate(np.array([now, *steps]))
                meter.observe_run(times, level)
                end = float(times[-1])
                reference.observe(now, end, level)
                now = end
            else:
                meter.reset()
                reference.reset()
            assert meter.samples == reference.samples
            assert_same_mean(meter, reference)
            if reference.samples:
                assert meter.mean_power() == sum(
                    s.watts for s in meter.samples
                ) / len(meter.samples)
            restored = pickle.loads(pickle.dumps(meter))
            assert restored == meter
            assert restored.samples == reference.samples
            assert_same_mean(restored, reference)

    def test_a_large_sum_keeps_the_reference_rounding(self):
        meter = PowerMeter()
        reference = ListMeter(1.0)
        levels = [1e16, 1.0, -1e16, 3.0, math.pi, 1e-3] * 5
        for step, level in enumerate(levels):
            meter.observe(float(step), float(step + 1), level)
            reference.observe(float(step), float(step + 1), level)
        assert meter.mean_power().hex() == reference.mean_power().hex()
