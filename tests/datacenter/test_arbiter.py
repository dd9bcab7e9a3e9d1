"""Tests for the hierarchical power arbiter."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datacenter import HierarchicalArbiter
from repro.datacenter.arbiter import (
    ArbiterError,
    ArbiterPolicy,
    PowerArbiter,
    frequency_for_cap,
    machine_cap_ceiling,
    machine_cap_floor,
    water_fill,
)
from repro.experiments.common import experiment_machine


@pytest.fixture()
def machines():
    return [experiment_machine(), experiment_machine()]


class TestCapMapping:
    def test_floor_and_ceiling_bracket_pstates(self, machines):
        machine = machines[0]
        floor = machine_cap_floor(machine)
        ceiling = machine_cap_ceiling(machine)
        assert floor < ceiling
        assert ceiling == pytest.approx(220.0)  # paper's full-load draw

    def test_generous_cap_selects_fastest(self, machines):
        assert frequency_for_cap(machines[0], 500.0) == pytest.approx(2.4)

    def test_tight_cap_selects_slower_state(self, machines):
        machine = machines[0]
        freq = frequency_for_cap(machine, 200.0)
        assert freq < 2.4
        machine.set_frequency(freq)
        assert machine.current_power(1.0) <= 200.0

    def test_impossible_cap_falls_back_to_slowest(self, machines):
        assert frequency_for_cap(machines[0], 10.0) == pytest.approx(1.6)

    def test_cap_is_enforced_at_full_load(self, machines):
        """Any cap >= the floor holds even if the machine saturates."""
        machine = machines[0]
        for cap in (185.0, 195.0, 205.0, 215.0):
            machine.set_frequency(frequency_for_cap(machine, cap))
            assert machine.current_power(1.0) <= cap + 1e-9


class TestAllocation:
    def test_budget_below_pool_floor_rejected(self, machines):
        with pytest.raises(ArbiterError):
            PowerArbiter(300.0, machines)

    def test_static_split_is_equal(self, machines):
        arbiter = PowerArbiter(420.0, machines, policy=ArbiterPolicy.STATIC_EQUAL)
        caps = arbiter.allocate([5.0, 0.0])  # scores ignored
        assert caps[0] == pytest.approx(caps[1])
        assert sum(caps) == pytest.approx(420.0)

    def test_sla_aware_shifts_watts_to_violators(self, machines):
        arbiter = PowerArbiter(420.0, machines, policy=ArbiterPolicy.SLA_AWARE)
        caps = arbiter.allocate([0.0, 2.0])
        assert caps[1] > caps[0]
        assert sum(caps) <= 420.0 + 1e-9

    def test_zero_scores_degenerate_to_equal(self, machines):
        arbiter = PowerArbiter(400.0, machines, policy=ArbiterPolicy.SLA_AWARE)
        caps = arbiter.allocate([0.0, 0.0])
        assert caps[0] == pytest.approx(caps[1])

    def test_ceiling_excess_cascades(self, machines):
        """A saturated winner's surplus flows to the other machines."""
        arbiter = PowerArbiter(430.0, machines, policy=ArbiterPolicy.SLA_AWARE)
        caps = arbiter.allocate([0.0, 100.0])
        assert caps[1] == pytest.approx(machine_cap_ceiling(machines[1]))
        # Everything left over lands on machine 0, not thrown away.
        assert caps[0] == pytest.approx(430.0 - caps[1])

    def test_every_machine_keeps_its_floor(self, machines):
        arbiter = PowerArbiter(420.0, machines, policy=ArbiterPolicy.SLA_AWARE)
        caps = arbiter.allocate([0.0, 1000.0])
        for cap, floor in zip(caps, arbiter.floors):
            assert cap >= floor - 1e-9

    def test_all_zero_weights_leave_floors(self, machines):
        """No bids: the surplus goes undistributed instead of dividing
        by a zero total weight."""
        from repro.datacenter.arbiter import water_fill

        caps = water_fill([0.0, 0.0], [100.0, 100.0], [200.0, 200.0], 250.0)
        assert caps == [100.0, 100.0]

    def test_score_count_must_match(self, machines):
        arbiter = PowerArbiter(420.0, machines)
        with pytest.raises(ArbiterError):
            arbiter.allocate([1.0])
        with pytest.raises(ArbiterError):
            arbiter.allocate([-1.0, 0.0])

    def test_apply_sets_frequencies(self, machines):
        arbiter = PowerArbiter(420.0, machines, policy=ArbiterPolicy.SLA_AWARE)
        caps = arbiter.apply([0.0, 5.0])
        for machine, cap in zip(machines, caps):
            assert machine.current_power(1.0) <= cap + 1e-9
        # The violator's machine is clocked at least as fast.
        assert (
            machines[1].processor.frequency_ghz
            >= machines[0].processor.frequency_ghz
        )


# Weights no bid can carry: NaN, either infinity, or anything negative.
invalid_weights = st.one_of(
    st.just(math.nan),
    st.just(math.inf),
    st.floats(max_value=-5e-324, allow_nan=False),
)


class TestInvalidWeights:
    """A NaN, infinite or negative weight must never reach the share
    arithmetic; the error names the machine that carried it."""

    @settings(max_examples=60, deadline=None)
    @given(bad=invalid_weights, position=st.integers(0, 3))
    @example(bad=math.nan, position=0)
    @example(bad=math.inf, position=2)
    @example(bad=-1.0, position=3)
    def test_water_fill_names_the_machine(self, bad, position):
        weights = [1.0, 2.0, 0.5, 1.0]
        weights[position] = bad
        with pytest.raises(ArbiterError, match=f"machine {position}:"):
            water_fill(weights, [100.0] * 4, [200.0] * 4, 600.0)

    @settings(max_examples=30, deadline=None)
    @given(bad=invalid_weights, position=st.integers(0, 1))
    @example(bad=math.nan, position=1)
    @example(bad=math.inf, position=0)
    @example(bad=-1.0, position=1)
    def test_rejected_through_power_arbiter(self, bad, position):
        pool = [experiment_machine(), experiment_machine()]
        arbiter = PowerArbiter(420.0, pool, policy=ArbiterPolicy.SLA_AWARE)
        scores = [0.5, 0.5]
        scores[position] = bad
        # A negative score is refused before it becomes a weight; NaN
        # and infinity reach water_fill, which names the machine.
        match = "violation scores" if bad < 0 else f"machine {position}:"
        with pytest.raises(ArbiterError, match=match):
            arbiter.allocate(scores)

    @settings(max_examples=30, deadline=None)
    @given(bad=invalid_weights, position=st.integers(0, 5))
    @example(bad=math.nan, position=5)
    @example(bad=math.inf, position=3)
    @example(bad=-1.0, position=0)
    def test_rejected_through_hierarchical_split(self, bad, position):
        pool = [experiment_machine() for _ in range(6)]
        arbiter = HierarchicalArbiter(1260.0, pool, groups=2)
        scores = [0.25] * 6
        scores[position] = bad
        # Named by machine index, not by the group it would poison.
        match = "violation scores" if bad < 0 else f"machine {position}:"
        with pytest.raises(ArbiterError, match=match):
            arbiter.caps_for_demand(scores)

    def test_zero_and_subnormal_weights_still_bid(self):
        caps = water_fill([0.0, 5e-324], [100.0, 100.0], [200.0, 200.0], 250.0)
        assert caps[0] == 100.0
        assert caps[1] == pytest.approx(150.0)
