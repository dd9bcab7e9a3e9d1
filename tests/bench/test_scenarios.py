"""Bench-scenario tests: labels, event counts, and the budget_shock run.

The bench harness trusts ``count_events`` to describe a scenario
without building it and hard-fails timed runs on the billing
conservation invariant, so both are pinned here at fast-tier scale.
"""

import math

import pytest

from repro.bench.scenarios import (
    BUDGET_WATTS_PER_MACHINE,
    SHOCK_FRACTION,
    PoolScenario,
    build_pool_engine,
    count_events,
)
from repro.datacenter.billing import CONSERVATION_TOLERANCE


class TestScenarioShape:
    def test_labels(self):
        assert PoolScenario(machines=4).label == "open-4m"
        assert PoolScenario(machines=4, arbitrated=True).label == "arbitrated-4m"
        assert (
            PoolScenario(machines=4, arbitrated=True, budget_shock=True).label
            == "budget_shock-4m"
        )

    def test_budget_schedule_only_when_shocked(self):
        assert PoolScenario(machines=2).budget_schedule() is None
        schedule = PoolScenario(
            machines=2, horizon=30.0, arbitrated=True, budget_shock=True
        ).budget_schedule()
        assert schedule is not None
        assert schedule.entries == (
            (10.0, SHOCK_FRACTION * 2 * BUDGET_WATTS_PER_MACHINE),
            (20.0, 2 * BUDGET_WATTS_PER_MACHINE),
        )

    def test_count_events_includes_schedule_barriers(self):
        open_scenario = PoolScenario(machines=2, horizon=30.0)
        arbitrated = PoolScenario(machines=2, horizon=30.0, arbitrated=True)
        shocked = PoolScenario(
            machines=2, horizon=30.0, arbitrated=True, budget_shock=True
        )
        arrivals = count_events(open_scenario)
        periodic = int(math.floor(30.0 / 10.0))
        assert count_events(arbitrated) == arrivals + periodic
        # The two schedule instants (10 s, 20 s) coincide with periodic
        # ticks at the default period, so they must not double-count.
        assert count_events(shocked) == arrivals + periodic

    def test_count_events_dedups_partial_overlap(self):
        shocked = PoolScenario(
            machines=2,
            horizon=30.0,
            arbitrated=True,
            budget_shock=True,
            control_period=7.0,
        )
        arrivals = sum(
            shocked.tenant_trace(i).count for i in range(shocked.machines)
        )
        # Periodic: 7, 14, 21, 28; schedule: 10, 20 — six distinct barriers.
        assert count_events(shocked) == arrivals + 6


class TestScaleScenario:
    def test_scale_label(self):
        assert PoolScenario(machines=1024, hier=True).label == "scale-1024m"

    def test_count_events_includes_hier_barriers(self):
        open_scenario = PoolScenario(machines=2, horizon=30.0)
        hier = PoolScenario(machines=2, horizon=30.0, hier=True)
        periodic = int(math.floor(30.0 / 10.0))
        assert count_events(hier) == count_events(open_scenario) + periodic

    def test_hier_run_conserves_energy(self):
        scenario = PoolScenario(machines=4, horizon=12.0, hier=True)
        engine = build_pool_engine(scenario, backend="serial")
        from repro.datacenter.controlplane.hierarchy import (
            HierarchicalArbiter,
        )

        # The policy dispatch routed to the hierarchy.
        assert isinstance(engine.policy, HierarchicalArbiter)
        result = engine.run()
        assert result.energy_conservation_rel_error() <= CONSERVATION_TOLERANCE
        assert result.cap_history


class TestBudgetShockRun:
    def test_budget_shock_scenario_conserves_energy(self):
        scenario = PoolScenario(
            machines=2, horizon=12.0, arbitrated=True, budget_shock=True
        )
        result = build_pool_engine(scenario, backend="serial").run()
        assert result.energy_conservation_rel_error() <= CONSERVATION_TOLERANCE
        # The shock arrived and recovered.
        assert len(result.budget_history) == 3
        assert result.budget_history[1][1] == pytest.approx(
            SHOCK_FRACTION * 2 * BUDGET_WATTS_PER_MACHINE
        )
        for at, caps in result.cap_history:
            budget = next(
                watts
                for t, watts in reversed(result.budget_history)
                if t <= at
            )
            assert sum(caps) <= budget + 1e-6
