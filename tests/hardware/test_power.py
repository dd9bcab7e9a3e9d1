"""Unit tests for the power model and the sampling power meter."""

import pytest
from hypothesis import event, given, strategies as st

from repro.hardware.cpu import XEON_E5530_PSTATES, Processor
from repro.hardware.power import PowerError, PowerMeter, PowerModel


FASTEST = XEON_E5530_PSTATES[0]
SLOWEST = XEON_E5530_PSTATES[-1]


class TestPowerModel:
    def test_idle_power_matches_paper(self):
        """Typical idle power is approximately 90 watts."""
        model = PowerModel()
        assert model.power(0.0, FASTEST, 2.4) == pytest.approx(90.0)

    def test_full_load_at_max_frequency_matches_paper(self):
        """Measured power reaches 220 watts at full load."""
        model = PowerModel()
        assert model.power(1.0, FASTEST, 2.4) == pytest.approx(220.0)

    def test_dvfs_reduces_loaded_power(self):
        model = PowerModel()
        fast = model.power(1.0, FASTEST, 2.4)
        slow = model.power(1.0, SLOWEST, 2.4)
        assert slow < fast

    def test_dvfs_savings_fraction_is_plausible(self):
        """Figure 6 shows roughly 16-21%% full-system savings at 1.6 GHz."""
        model = PowerModel()
        fast = model.power(1.0, FASTEST, 2.4)
        slow = model.power(1.0, SLOWEST, 2.4)
        saving = (fast - slow) / fast
        assert 0.10 < saving < 0.35

    def test_power_monotone_in_utilization(self):
        model = PowerModel()
        values = [model.power(u / 10, FASTEST, 2.4) for u in range(11)]
        assert values == sorted(values)

    def test_power_never_below_floor(self):
        model = PowerModel()
        assert model.power(0.0, SLOWEST, 2.4) >= model.floor_watts

    def test_utilization_out_of_range_rejected(self):
        model = PowerModel()
        with pytest.raises(PowerError):
            model.power(1.5, FASTEST, 2.4)
        with pytest.raises(PowerError):
            model.power(-0.1, FASTEST, 2.4)

    def test_invalid_model_parameters_rejected(self):
        with pytest.raises(PowerError):
            PowerModel(idle_watts=100, peak_watts=90)
        with pytest.raises(PowerError):
            PowerModel(idle_watts=-1)
        with pytest.raises(PowerError):
            PowerModel(floor_watts=95.0)

    @given(
        u=st.floats(min_value=0, max_value=1),
        state=st.integers(min_value=0, max_value=6),
    )
    def test_power_bounded_between_floor_and_peak(self, u, state):
        model = PowerModel()
        watts = model.power(u, XEON_E5530_PSTATES[state], 2.4)
        assert model.floor_watts <= watts <= model.peak_watts + 1e-9


class TestPowerMeter:
    def test_samples_at_one_second_intervals(self):
        meter = PowerMeter()
        meter.observe(0.0, 3.5, 100.0)
        assert [s.timestamp for s in meter.samples] == [1.0, 2.0, 3.0]
        assert all(s.watts == 100.0 for s in meter.samples)

    def test_mean_power_over_mixed_intervals(self):
        meter = PowerMeter()
        meter.observe(0.0, 2.0, 200.0)
        meter.observe(2.0, 4.0, 100.0)
        assert meter.mean_power() == pytest.approx(150.0)

    def test_energy_integrates_exactly(self):
        meter = PowerMeter()
        meter.observe(0.0, 0.5, 200.0)
        meter.observe(0.5, 1.0, 100.0)
        assert meter.energy_joules == pytest.approx(150.0)

    def test_mean_power_requires_samples(self):
        meter = PowerMeter()
        meter.observe(0.0, 0.5, 100.0)  # shorter than one interval
        with pytest.raises(PowerError):
            meter.mean_power()

    def test_rejects_backwards_intervals(self):
        meter = PowerMeter()
        meter.observe(0.0, 1.0, 100.0)
        with pytest.raises(PowerError):
            meter.observe(0.5, 2.0, 100.0)

    def test_rejects_inverted_interval(self):
        meter = PowerMeter()
        with pytest.raises(PowerError):
            meter.observe(2.0, 1.0, 100.0)

    def test_reset_clears_state(self):
        meter = PowerMeter()
        meter.observe(0.0, 2.0, 100.0)
        meter.reset()
        assert meter.samples == []
        assert meter.energy_joules == 0.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(PowerError):
            PowerMeter(interval=0.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0),
                st.floats(min_value=80.0, max_value=220.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_energy_equals_sum_of_interval_energies(self, segments):
        meter = PowerMeter()
        t = 0.0
        expected = 0.0
        for duration, watts in segments:
            meter.observe(t, t + duration, watts)
            expected += watts * duration
            t += duration
        assert meter.energy_joules == pytest.approx(expected)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=3.0),
                st.floats(min_value=80.0, max_value=220.0),
            ),
            min_size=3,
            max_size=30,
        )
    )
    def test_mean_power_within_observed_bounds(self, segments):
        meter = PowerMeter()
        t = 0.0
        for duration, watts in segments:
            meter.observe(t, t + duration, watts)
            t += duration
        low = min(w for _, w in segments)
        high = max(w for _, w in segments)
        assert low - 1e-9 <= meter.mean_power() <= high + 1e-9


class LoopMeter:
    """``PowerMeter.observe`` as a plain loop: the reference its early
    return and local bindings must match float for float (an interval
    that starts before the last one ended must still be refused)."""

    def __init__(self, interval):
        self.interval = interval
        self.energy = 0.0
        self.timestamps = []
        self.watts = []
        self.next_sample = None

    def observe(self, start, end, watts):
        if self.next_sample is None:
            self.next_sample = start + self.interval
        self.energy += watts * (end - start)
        while self.next_sample <= end + 1e-12:
            self.timestamps.append(self.next_sample)
            self.watts.append(watts)
            self.next_sample += self.interval


def _observations(interval):
    """(gap before, duration, watts) triples; the durations are empty,
    shorter than one interval, or span one or many sample instants."""
    durations = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=0.99 * interval),
        st.floats(min_value=interval, max_value=3.0 * interval),
        st.floats(min_value=3.0 * interval, max_value=40.0 * interval),
    )
    gaps = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))
    watts = st.floats(min_value=0.0, max_value=1e4)
    return st.lists(st.tuples(gaps, durations, watts), max_size=40)


class TestObserveMatchesTheLoop:
    @given(
        st.sampled_from([0.25, 1.0, 1.5]).flatmap(
            lambda interval: st.tuples(
                st.just(interval),
                st.floats(min_value=0.0, max_value=1e3),
                _observations(interval),
            )
        )
    )
    def test_energy_and_sample_columns(self, case):
        interval, origin, observations = case
        meter = PowerMeter(interval=interval)
        reference = LoopMeter(interval)
        now = origin
        for gap, duration, watts in observations:
            start = now + gap
            now = start + duration
            before = len(reference.timestamps)
            meter.observe(start, now, watts)
            reference.observe(start, now, watts)
            event(f"samples due: {min(len(reference.timestamps) - before, 2)}")
            assert meter.energy_joules == reference.energy
            assert [s.timestamp for s in meter.samples] == reference.timestamps
            assert [s.watts for s in meter.samples] == reference.watts
            with pytest.raises(PowerError, match="precedes last observed"):
                meter.observe(now - 1.0, now, watts)
