"""Property tests: vectorized water-filling vs the scalar arbiter.

``batched_water_fill`` must be *bitwise identical* to
``repro.datacenter.arbiter.water_fill`` for finite, non-negative watt
inputs — same caps, same conservation, same tie-breaking — because the
engine's billing depends on the exact caps the arbiter grants.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.batched import batched_water_fill
from repro.datacenter.arbiter import water_fill

watts = st.floats(
    min_value=0.0, max_value=300.0, allow_nan=False, allow_infinity=False
)
weights_st = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)

pools = st.lists(
    st.tuples(weights_st, watts, watts),  # (weight, floor, headroom)
    min_size=1,
    max_size=12,
)
budgets = st.floats(
    min_value=0.0, max_value=3000.0, allow_nan=False, allow_infinity=False
)


def unpack(pool):
    weights = [row[0] for row in pool]
    floors = [row[1] for row in pool]
    ceilings = [floor + headroom for _, floor, headroom in pool]
    return weights, floors, ceilings


class TestBitwiseEquivalence:
    @given(pool=pools, budget=budgets)
    # Subnormal bids once granted 2.0 W from a 1.5 W surplus, and a
    # large closed bid beside a subnormal open one overflowed the divide.
    @example(pool=[(5e-324, 0.0, 2.0)], budget=1.5)
    @example(pool=[(5e-324, 0.0, 2.0), (5e-324, 0.0, 2.0)], budget=1.5)
    @example(pool=[(10.0, 0.0, 1.0), (5e-324, 0.0, 5.0)], budget=4.0)
    @settings(max_examples=300, deadline=None)
    def test_caps_are_bitwise_identical(self, pool, budget):
        """Arbitrary floors/ceilings/budgets: identical caps, every bit."""
        weights, floors, ceilings = unpack(pool)
        scalar = water_fill(weights, floors, ceilings, budget)
        batched = batched_water_fill(weights, floors, ceilings, budget)
        assert [cap.hex() for cap in batched] == [cap.hex() for cap in scalar]

    @given(pool=pools, budget=budgets)
    # Subnormal bids once granted 2.0 W from a 1.5 W surplus, and a
    # large closed bid beside a subnormal open one overflowed the divide.
    @example(pool=[(5e-324, 0.0, 2.0)], budget=1.5)
    @example(pool=[(5e-324, 0.0, 2.0), (5e-324, 0.0, 2.0)], budget=1.5)
    @example(pool=[(10.0, 0.0, 1.0), (5e-324, 0.0, 5.0)], budget=4.0)
    @settings(max_examples=300, deadline=None)
    def test_caps_respect_floors_ceilings_and_budget(self, pool, budget):
        """Conservation: floors guaranteed, ceilings honored, no watt
        granted beyond the surplus."""
        weights, floors, ceilings = unpack(pool)
        caps = batched_water_fill(weights, floors, ceilings, budget)
        for cap, floor, ceiling in zip(caps, floors, ceilings):
            assert cap >= floor
            assert cap <= ceiling + 1e-9
        granted = sum(caps) - sum(floors)
        surplus = max(0.0, budget - sum(floors))
        assert granted <= surplus + 1e-6

    @given(pool=pools, budget=budgets)
    @settings(max_examples=100, deadline=None)
    def test_zero_weights_keep_floors(self, pool, budget):
        """Nobody bids: everyone keeps exactly the floor (both paths)."""
        _, floors, ceilings = unpack(pool)
        weights = [0.0] * len(floors)
        assert batched_water_fill(weights, floors, ceilings, budget) == floors
        assert water_fill(weights, floors, ceilings, budget) == floors

    @given(
        pool=st.lists(
            st.tuples(weights_st, watts, watts), min_size=2, max_size=8
        ),
        budget=budgets,
    )
    @settings(max_examples=100, deadline=None)
    def test_tie_breaking_matches_on_equal_weights(self, pool, budget):
        """Equal bids split the surplus identically in both kernels —
        the cascade order (ascending machine index) is inherited."""
        _, floors, ceilings = unpack(pool)
        weights = [1.0] * len(floors)
        scalar = water_fill(weights, floors, ceilings, budget)
        batched = batched_water_fill(weights, floors, ceilings, budget)
        assert batched == scalar


class TestEdgeCases:
    def test_empty_pool(self):
        assert batched_water_fill([], [], [], 100.0) == []
        assert water_fill([], [], [], 100.0) == []

    def test_budget_below_floors_keeps_floors(self):
        floors = [100.0, 120.0]
        caps = batched_water_fill([1.0, 1.0], floors, [200.0, 200.0], 50.0)
        assert caps == floors

    def test_cascade_returns_excess_to_open_machines(self):
        # Machine 0 saturates instantly; its share cascades to machine 1.
        caps = batched_water_fill(
            [1.0, 1.0], [100.0, 100.0], [110.0, 300.0], 300.0
        )
        expected = water_fill(
            [1.0, 1.0], [100.0, 100.0], [110.0, 300.0], 300.0
        )
        assert caps == expected
        assert caps[0] == 110.0  # pinned at its ceiling
        assert caps[1] > 150.0  # got the cascaded excess

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            batched_water_fill([1.0], [1.0, 2.0], [3.0, 4.0], 10.0)
        with pytest.raises(ValueError):
            batched_water_fill([1.0, 1.0], [1.0, 2.0], [3.0], 10.0)

    def test_numpy_inputs_accepted(self):
        caps = batched_water_fill(
            np.asarray([1.0, 2.0]),
            np.asarray([50.0, 60.0]),
            np.asarray([150.0, 160.0]),
            200.0,
        )
        assert caps == water_fill([1.0, 2.0], [50.0, 60.0], [150.0, 160.0], 200.0)
