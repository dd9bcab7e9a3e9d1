"""Hierarchical arbitration tests: grouping, caps, and backend parity.

``hier-arbitrated`` is group-aggregate arbitration whose decision
state is O(groups).  Its contract is the same as every other policy's
(ARCHITECTURE.md invariant 4): byte-identical results on serial and
sharded backends for any worker count — plain, under budget
schedules, chaos kills and gray failure alike.
"""

import pytest

from repro.datacenter import (
    DatacenterEngine,
    HierarchicalArbiter,
    fork_available,
)
from repro.datacenter.controlplane.actions import ClusterView, SetCaps
from repro.datacenter.controlplane.budget import BudgetSchedule
from repro.datacenter.controlplane.hierarchy import (
    DEFAULT_GROUPS,
    round_robin_groups,
)
from repro.datacenter.caps import ArbiterError
from repro.datacenter.faults import ActuatorFault, FaultPlan, SensorFault
from repro.datacenter.journal import replay
from repro.experiments.common import experiment_machine
from tests.datacenter.conftest import assert_same_result
from repro.experiments.datacenter import Scenario, TenantScenario

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)

HORIZON = 24.0


def hier_tenants(machines):
    """Five mixed tenants over the first ``machines`` machines."""
    return (
        TenantScenario("alpha", 0, "steady", rate=1.4, seed=1),
        TenantScenario(
            "beta", 1 % machines, "steady", rate=0.8, qos_cap=0.0, seed=2
        ),
        TenantScenario("gamma", 2 % machines, "burst", rate=1.5, seed=3),
        TenantScenario("delta", 3 % machines, "steady", rate=1.0, seed=4),
        TenantScenario("epsilon", 0, "burst", rate=0.6, seed=5),
    )


GRAY_PLAN = FaultPlan(
    sensors=(SensorFault(0, 4.0, 12.0, mode="noise", amplitude=0.5),),
    actuators=(ActuatorFault(1, 6.0, 18.0, mode="drop"),),
    seed=5,
)

SCENARIOS = {
    "plain": {},
    "budget-shock": {
        "budget_trace": BudgetSchedule(((0.0, 840.0), (12.0, 790.0)))
    },
    "chaos-kill": {"chaos": {"kills": 1, "seed": 3}},
    "gray-failure": {"faults": GRAY_PLAN},
}


def make_scenario(name="plain", machines=4, budget=840.0):
    return Scenario(
        hier_tenants(machines),
        machines,
        HORIZON,
        budget,
        "hier-arbitrated",
        control_period=6.0,
        **SCENARIOS[name],
    )


def assert_identical(left, right):
    """Byte-identical result comparison (dataclass equality is exact)."""
    assert_same_result(left, right)
    assert left.tenant_reports == right.tenant_reports
    assert left.bills == right.bills
    assert left.idle_energy_joules == right.idle_energy_joules
    assert left.machine_mean_power == right.machine_mean_power
    assert left.total_energy_joules == right.total_energy_joules
    assert left.makespan == right.makespan
    assert left.cap_history == right.cap_history
    assert left.budget_history == right.budget_history
    assert left.budget_watts == right.budget_watts
    assert left.migrations == right.migrations
    assert left.failures == right.failures
    assert left.faults == right.faults
    assert left.retries == right.retries


class TestGrouping:
    def test_round_robin_membership_is_backend_independent(self):
        groups = round_robin_groups(10, 4)
        assert groups == [[0, 4, 8], [1, 5, 9], [2, 6], [3, 7]]

    def test_groups_clamped_to_machine_count(self):
        assert round_robin_groups(3, DEFAULT_GROUPS) == [[0], [1], [2]]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ArbiterError):
            round_robin_groups(0, 4)
        with pytest.raises(ArbiterError):
            round_robin_groups(4, 0)


class TestArbitration:
    def build(self, n=10, budget=2100.0, gain=8.0):
        machines = [experiment_machine() for _ in range(n)]
        return HierarchicalArbiter(budget, machines, gain=gain)

    def test_caps_conserve_budget_and_respect_limits(self):
        arbiter = self.build()
        scores = [0.0, 3.0, 0.5, 0.0, 1.2, 0.0, 0.0, 2.4, 0.1, 0.0]
        caps = arbiter.caps_for_demand(scores)
        assert sum(caps) <= arbiter.budget_watts + 1e-6
        for cap, floor, ceiling in zip(
            caps, arbiter.floors, arbiter.ceilings
        ):
            assert floor - 1e-9 <= cap <= ceiling + 1e-9

    def test_demand_shifts_watts_toward_violating_machines(self):
        arbiter = self.build(budget=2000.0)
        idle = arbiter.caps_for_demand([0.0] * 10)
        hot = arbiter.caps_for_demand([0.0] * 9 + [5.0])
        assert hot[9] > idle[9]

    def test_decide_routes_through_caps_for_demand(self):
        arbiter = self.build(n=5, budget=1050.0)
        from repro.datacenter.controlplane.actions import MachineView

        view = ClusterView(
            time=0.0,
            budget_watts=arbiter.budget_watts,
            machines=tuple(
                MachineView(
                    index=i,
                    cap_floor=arbiter.floors[i],
                    cap_ceiling=arbiter.ceilings[i],
                    cap_watts=None,
                )
                for i in range(5)
            ),
            tenants=(),
        )
        [action] = arbiter.decide(view)
        assert isinstance(action, SetCaps)
        assert list(action.caps) == arbiter.caps_for_demand([0.0] * 5)

    def test_infeasible_budget_rejected(self):
        machines = [experiment_machine() for _ in range(4)]
        with pytest.raises(ArbiterError):
            HierarchicalArbiter(1.0, machines)

    def test_negative_scores_rejected(self):
        arbiter = self.build(n=2, budget=420.0)
        with pytest.raises(ArbiterError):
            arbiter.caps_for_demand([-0.1, 0.0])


@needs_fork
class TestHierParity:
    """Serial vs sharded byte-parity for hier-arbitrated, both wire
    protocols: the demand fast path (plain) and the view fallback
    (budget shock, chaos warm-restores, gray failure)."""

    @pytest.fixture(scope="class")
    def serial_results(self):
        return {
            scenario: make_scenario(scenario).build().run()
            for scenario in SCENARIOS
        }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_matches_serial(self, serial_results, scenario, workers):
        sharded = make_scenario(scenario).build("sharded", workers).run()
        assert_identical(sharded, serial_results[scenario])

    def test_chaos_scenario_really_replaces_tenants(self, serial_results):
        result = serial_results["chaos-kill"]
        assert result.failures
        assert any(f.replacements for f in result.failures)

    def test_gray_scenario_really_faults(self, serial_results):
        assert serial_results["gray-failure"].faults


class TestBarrierStats:
    @needs_fork
    def test_bare_hierarchy_ships_tenant_views(self):
        engine = make_scenario().build("sharded", 2)
        engine.run()
        assert engine.barrier_stats["payload_bytes"] > 0

    def test_serial_reports_in_process_stats(self):
        engine = make_scenario().build()
        engine.run()
        assert engine.barrier_stats["payload_bytes"] == 0
        assert engine.barrier_stats["apply_seconds"] > 0.0


@needs_fork
class TestHierJournalParity:
    """A journaled hier run writes identical barrier records on both
    backends (the header line differs only by its backend/workers
    metadata, by design), and the sharded journal replays on the
    serial backend to byte-identical bills."""

    def record(self, path, backend, workers=None):
        return make_scenario().record(str(path), backend, workers)

    def test_journal_bytes_match_across_backends(self, tmp_path):
        serial_path = tmp_path / "serial.journal"
        sharded_path = tmp_path / "sharded.journal"
        serial_result = self.record(serial_path, "serial")
        sharded_result = self.record(sharded_path, "sharded", workers=2)
        assert_identical(sharded_result, serial_result)
        serial_lines = serial_path.read_bytes().split(b"\n")
        sharded_lines = sharded_path.read_bytes().split(b"\n")
        assert serial_lines[1:] == sharded_lines[1:]

    def test_sharded_journal_replays_to_identical_bills(self, tmp_path):
        path = tmp_path / "sharded.journal"
        live = self.record(path, "sharded", workers=2)
        replayed = replay(str(path))
        assert replayed.bills == live.bills
