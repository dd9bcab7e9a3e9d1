"""Pool-scenario tests: labels, the budget schedule, and conservation.

The engine parity tests build their engines from :class:`PoolScenario`,
so its shape is pinned here.  The budget-shock and hierarchical runs
must pass the billing conservation audit: per-tenant billed energy plus
unattributed idle energy reproduces the metered pool energy across
mid-run budget changes and two-level arbitration.
"""

import pytest

from repro.datacenter.billing import CONSERVATION_TOLERANCE
from tests.datacenter.pool_scenario import (
    BUDGET_WATTS_PER_MACHINE,
    SHOCK_FRACTION,
    PoolScenario,
    build_pool_engine,
)


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


class TestScaleScenario:
    def test_scale_label(self):
        assert PoolScenario(machines=1024, hier=True).label == "scale-1024m"

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
