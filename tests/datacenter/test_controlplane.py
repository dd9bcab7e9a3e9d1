"""Control-plane tests: central validation, budgets, migration, parity.

Four contracts:

* **Central validation** — whatever a policy emits, ``plan_actions``
  rejects caps outside ``[machine_cap_floor, machine_cap_ceiling]``
  (NaN included), over budget, or non-finite budgets, naming the
  offending machine (property-style: random cap vectors are accepted
  iff they satisfy the invariant), and the engine enforces this on
  every policy at run time.
* **Budget traces** — the ``--budget-trace`` parser reports actionable
  errors (line numbers, non-monotonic timestamps, levels below the
  fleet floor).
* **Migration mechanics** — a cold migration preserves every admitted
  request, charges its cost to the mover's ledger, and keeps billing
  conservation exact.
* **Backend parity** — a scenario with a cross-machine migration *and*
  a mid-run budget shock yields byte-identical results (bills
  included) on serial and sharded (1/2/4 workers).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime, RunResult, SampleColumns
from repro.datacenter import (
    ArbiterError,
    BudgetSchedule,
    BudgetTraceError,
    ClusterView,
    ConsolidatingPolicy,
    ControlError,
    DatacenterEngine,
    InstanceBinding,
    LatencySLA,
    MachineView,
    MigratingPolicy,
    Migrate,
    PowerArbiter,
    ScheduledBudgetPolicy,
    ServiceApp,
    SetBudget,
    SetCaps,
    TenantSpec,
    TenantView,
    build_policy,
    diurnal_trace,
    fork_available,
    machine_cap_ceiling,
    machine_cap_floor,
    parse_budget_trace,
    poisson_trace,
    request_stream,
    service_training_jobs,
)
from repro.datacenter.controlplane import (
    load_budget_trace,
    machine_limits,
    merge_run_results,
    plan_actions,
)
from repro.experiments.common import experiment_machine
from repro.experiments.registry import built_service_system
from tests.datacenter.conftest import assert_same_result

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)

FLOOR = 183.0
CEILING = 220.0
BUDGET = 600.0
NAN = float("nan")
INF = float("inf")


def tenant_view(name, machine_index, shortfall=0.0, weight=1.0, **overrides):
    defaults = dict(
        name=name,
        machine_index=machine_index,
        weight=weight,
        sla_shortfall=shortfall,
        pending_jobs=0,
        finished=False,
        energy_joules=0.0,
        busy_seconds=0.0,
        steps=0,
    )
    defaults.update(overrides)
    return TenantView(**defaults)


def make_view(
    caps=None, budget=BUDGET, tenants=(), machines=3, time=10.0
):
    machine_views = tuple(
        MachineView(
            index=i,
            cap_floor=FLOOR,
            cap_ceiling=CEILING,
            cap_watts=None if caps is None else caps[i],
        )
        for i in range(machines)
    )
    return ClusterView(
        time=time, budget_watts=budget, machines=machine_views,
        tenants=tuple(tenants),
    )


class TestCentralCapValidation:
    """Any policy's SetCaps output is validated in one shared place."""

    FLOORS = [FLOOR] * 3
    CEILINGS = [CEILING] * 3

    def plan(self, caps, budget=BUDGET):
        return plan_actions(
            [SetCaps(tuple(caps))],
            make_view(budget=budget),
            self.FLOORS,
            self.CEILINGS,
            budget,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        caps=st.lists(
            st.floats(min_value=100.0, max_value=400.0)
            | st.sampled_from([NAN, INF, -INF]),
            min_size=3,
            max_size=3,
        )
    )
    @example(caps=[190.0, NAN, 190.0])
    @example(caps=[190.0, 190.0, INF])
    def test_caps_accepted_iff_within_range_and_budget(self, caps):
        """Property: validity is exactly range- and budget-compliance."""
        # Written as "not inside" so NaN, which fails every comparison,
        # counts as out of range.
        out_of_range = [
            i
            for i, cap in enumerate(caps)
            if not FLOOR - 1e-6 <= cap <= CEILING + 1e-6
        ]
        over_budget = sum(caps) > BUDGET + 1e-6
        if not out_of_range and not over_budget:
            plan = self.plan(caps)
            assert plan.caps == tuple(caps)
        else:
            with pytest.raises(ArbiterError) as excinfo:
                self.plan(caps)
            message = str(excinfo.value)
            if out_of_range:
                # Per-machine bounds are checked first, in index order,
                # and the error names the offending machine.
                assert f"machine {out_of_range[0]}" in message
            else:
                assert "budget" in message

    def test_cap_below_floor_names_machine(self):
        with pytest.raises(ArbiterError, match="machine 1.*below its floor"):
            self.plan([200.0, 150.0, 200.0])

    def test_cap_above_ceiling_names_machine(self):
        with pytest.raises(ArbiterError, match="machine 2.*above its ceiling"):
            self.plan([190.0, 190.0, 260.0])

    def test_wrong_cap_count_rejected(self):
        with pytest.raises(ArbiterError, match="expected 3 caps"):
            self.plan([200.0, 200.0])

    def test_budget_below_pool_floor_rejected(self):
        with pytest.raises(ArbiterError, match="below the pool's floor"):
            plan_actions(
                [SetBudget(100.0)],
                make_view(),
                self.FLOORS,
                self.CEILINGS,
                BUDGET,
            )

    @pytest.mark.parametrize("budget", [NAN, INF])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(ArbiterError, match="not finite"):
            plan_actions(
                [SetBudget(budget)],
                make_view(),
                self.FLOORS,
                self.CEILINGS,
                BUDGET,
            )

    def test_new_budget_governs_same_barrier_caps(self):
        """SetBudget + SetCaps in one decision validate against the
        *new* budget, not the stale one."""
        caps = [200.0, 200.0, 200.0]
        with pytest.raises(ArbiterError, match="exceeding"):
            plan_actions(
                [SetBudget(560.0), SetCaps(tuple(caps))],
                make_view(),
                self.FLOORS,
                self.CEILINGS,
                BUDGET,
            )

    def test_malformed_migrations_rejected(self):
        view = make_view(tenants=(tenant_view("t0", 0),))
        args = (self.FLOORS, self.CEILINGS, BUDGET)
        with pytest.raises(ControlError, match="unknown tenant"):
            plan_actions([Migrate("ghost", 1)], view, *args)
        with pytest.raises(ControlError, match="out of range"):
            plan_actions([Migrate("t0", 9)], view, *args)
        with pytest.raises(ControlError, match="already on machine"):
            plan_actions([Migrate("t0", 0)], view, *args)
        with pytest.raises(ControlError, match="migrated twice"):
            plan_actions(
                [Migrate("t0", 1), Migrate("t0", 2)], view, *args
            )

    def test_rogue_policy_is_stopped_by_the_engine(self):
        """The engine validates every policy's output at run time."""

        class RoguePolicy:
            def initial_budget_watts(self):
                return 2 * BUDGET

            def barrier_times(self, horizon):
                return ()

            def decide(self, view):
                return [SetCaps(tuple(500.0 for _ in view.machines))]

        system = built_service_system()
        machines = [experiment_machine(), experiment_machine()]
        target = measure_baseline_rate(
            ServiceApp, service_training_jobs()[0], machines[0]
        )
        spec = TenantSpec(
            name="t",
            trace=poisson_trace(1.0, 5.0, seed=1),
            sla=LatencySLA(1.0, 0.9),
            job_factory=request_stream(seed=1),
        )
        binding = InstanceBinding(
            tenant=spec,
            runtime=PowerDialRuntime(
                app=ServiceApp(),
                table=system.table,
                machine=machines[0],
                target_rate=target,
            ),
            machine_index=0,
        )
        engine = DatacenterEngine(machines, [binding], policy=RoguePolicy())
        with pytest.raises(ArbiterError, match="machine 0"):
            engine.run()


class TestBudgetTraceParsing:
    def test_parse_and_levels(self):
        schedule = parse_budget_trace(
            "# comment\n0 600\n30 510  # shed\n\n90 600\n"
        )
        assert schedule.entries == ((0.0, 600.0), (30.0, 510.0), (90.0, 600.0))
        assert schedule.times == (0.0, 30.0, 90.0)
        assert schedule.budget_at(-1.0, default=999.0) == 999.0
        assert schedule.budget_at(0.0) == 600.0
        assert schedule.budget_at(45.0) == 510.0
        assert schedule.budget_at(90.0) == 600.0

    def test_non_monotonic_timestamp_names_line(self):
        with pytest.raises(BudgetTraceError) as excinfo:
            parse_budget_trace("0 600\n30 510\n20 600\n")
        message = str(excinfo.value)
        assert "line 3" in message
        assert "does not increase" in message
        assert "monotonic" in message

    def test_non_numeric_entry_names_line(self):
        with pytest.raises(BudgetTraceError, match="line 2.*non-numeric"):
            parse_budget_trace("0 600\nten 510\n")

    def test_wrong_field_count_names_line(self):
        with pytest.raises(BudgetTraceError, match="line 1.*expected"):
            parse_budget_trace("0 600 700\n")

    def test_empty_trace_rejected(self):
        with pytest.raises(BudgetTraceError, match="empty"):
            parse_budget_trace("# nothing here\n")

    def test_level_below_fleet_floor_names_entry(self):
        schedule = parse_budget_trace("0 600\n30 100\n")
        with pytest.raises(BudgetTraceError) as excinfo:
            schedule.check_floor(366.2)
        message = str(excinfo.value)
        assert "entry 1" in message and "t=30" in message
        assert "below the fleet-wide cap floor" in message

    def test_build_policy_checks_schedule_floor(self):
        machines = [experiment_machine(), experiment_machine()]
        schedule = parse_budget_trace("10 100\n")
        with pytest.raises(BudgetTraceError, match="cap floor"):
            build_policy("sla-aware", 420.0, machines, schedule=schedule)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(BudgetTraceError, match="cannot read"):
            load_budget_trace(tmp_path / "missing.trace")

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0 600\n0 500\n")
        with pytest.raises(BudgetTraceError, match="bad.trace.*line 2"):
            load_budget_trace(path)


class TestPolicies:
    def test_arbiter_decide_matches_allocate(self):
        """PowerArbiter.decide is a pure adapter over allocate()."""
        machines = [experiment_machine() for _ in range(3)]
        arbiter = PowerArbiter(580.0, machines, gain=8.0)
        tenants = (
            tenant_view("a", 0, shortfall=0.4, weight=3.0),
            tenant_view("b", 1, shortfall=0.1),
            tenant_view("c", 2),
        )
        floors, ceilings = machine_limits(machines)
        view = ClusterView(
            time=20.0,
            budget_watts=580.0,
            machines=tuple(
                MachineView(i, floors[i], ceilings[i], None) for i in range(3)
            ),
            tenants=tenants,
        )
        (action,) = arbiter.decide(view)
        assert isinstance(action, SetCaps)
        assert list(action.caps) == arbiter.allocate([1.2, 0.1, 0.0])

    def test_arbiter_decide_uses_view_budget(self):
        machines = [experiment_machine(), experiment_machine()]
        arbiter = PowerArbiter(440.0, machines)
        view = make_view(budget=380.0, machines=2)
        (action,) = arbiter.decide(view)
        assert sum(action.caps) <= 380.0 + 1e-6

    def test_scheduled_budget_emits_at_scheduled_times(self):
        seen = []

        class Recorder:
            def initial_budget_watts(self):
                return 600.0

            def barrier_times(self, horizon):
                return ()

            def decide(self, view):
                seen.append(view.budget_watts)
                return []

        schedule = BudgetSchedule(((10.0, 540.0), (20.0, 600.0)))
        policy = ScheduledBudgetPolicy(Recorder(), schedule)
        assert policy.initial_budget_watts() == 600.0
        assert set(schedule.times) <= set(policy.barrier_times(30.0))

        actions = policy.decide(make_view(budget=600.0, time=5.0))
        assert actions == []  # before the first entry: no change
        actions = policy.decide(make_view(budget=600.0, time=10.0))
        assert actions == [SetBudget(540.0)]
        actions = policy.decide(make_view(budget=540.0, time=15.0))
        assert actions == []  # level already in force
        # The inner policy always saw the budget in force at that time.
        assert seen == [600.0, 540.0, 540.0]

    def saturating_inner(self, caps):
        class Inner:
            def initial_budget_watts(self):
                return BUDGET

            def barrier_times(self, horizon):
                return ()

            def decide(self, view):
                return [SetCaps(tuple(caps))]

        return Inner()

    def test_migrating_policy_moves_worst_tenant_to_headroom(self):
        policy = MigratingPolicy(
            self.saturating_inner([CEILING, 200.0, 190.0]),
            cost_seconds=1.5,
        )
        view = make_view(
            tenants=(
                tenant_view("light", 0, shortfall=0.1),
                tenant_view("heavy", 0, shortfall=0.5),
                tenant_view("calm", 1),
            )
        )
        actions = policy.decide(view)
        migration = actions[-1]
        assert isinstance(migration, Migrate)
        assert migration.tenant == "heavy"
        assert migration.dest_machine_index == 2  # most cap headroom
        assert migration.cost_seconds == 1.5

    def test_migrating_policy_respects_cooldown(self):
        policy = MigratingPolicy(
            self.saturating_inner([CEILING, 190.0, 190.0]),
            cooldown_seconds=30.0,
        )
        tenants = (tenant_view("hot", 0, shortfall=0.5),)
        first = policy.decide(make_view(tenants=tenants, time=10.0))
        assert any(isinstance(a, Migrate) for a in first)
        # Within the cooldown the same tenant stays put...
        again = policy.decide(make_view(tenants=tenants, time=20.0))
        assert not any(isinstance(a, Migrate) for a in again)
        # ...and becomes movable once the cooldown expires.
        later = policy.decide(make_view(tenants=tenants, time=45.0))
        assert any(isinstance(a, Migrate) for a in later)

    def test_migrating_policy_quiet_when_unsaturated(self):
        policy = MigratingPolicy(self.saturating_inner([200.0, 200.0, 190.0]))
        view = make_view(tenants=(tenant_view("hot", 0, shortfall=0.5),))
        assert not any(isinstance(a, Migrate) for a in policy.decide(view))

    def test_build_policy_names(self):
        machines = [experiment_machine(), experiment_machine()]
        assert isinstance(build_policy("sla-aware", 420.0, machines), PowerArbiter)
        assert isinstance(
            build_policy("migrating", 420.0, machines), MigratingPolicy
        )
        assert isinstance(
            build_policy("consolidating", 420.0, machines),
            ConsolidatingPolicy,
        )
        schedule = BudgetSchedule(((10.0, 400.0),))
        wrapped = build_policy(
            "static-equal", 420.0, machines, schedule=schedule
        )
        assert isinstance(wrapped, ScheduledBudgetPolicy)
        with pytest.raises(ControlError, match="unknown policy"):
            build_policy("round-robin", 420.0, machines)

    def test_migrating_policy_warm_flag_propagates(self):
        policy = MigratingPolicy(
            self.saturating_inner([CEILING, 190.0, 190.0]), warm=True
        )
        view = make_view(tenants=(tenant_view("hot", 0, shortfall=0.5),))
        migration = policy.decide(view)[-1]
        assert isinstance(migration, Migrate)
        assert migration.warm


class TestConsolidatingPolicy:
    def inner(self, caps):
        class Inner:
            def initial_budget_watts(self):
                return BUDGET

            def barrier_times(self, horizon):
                return ()

            def decide(self, view):
                return [SetCaps(tuple(caps))]

        return Inner()

    def policy(self, caps=(200.0, 200.0, 200.0), **kwargs):
        return ConsolidatingPolicy(self.inner(list(caps)), **kwargs)

    def test_quiet_fleet_packs_lightest_machine_into_fullest(self):
        policy = self.policy(cost_seconds=1.0)
        view = make_view(
            tenants=(
                tenant_view("a", 0),
                tenant_view("b", 0),
                tenant_view("c", 2, pending_jobs=1),
            )
        )
        migration = policy.decide(view)[-1]
        assert isinstance(migration, Migrate)
        # Machine 2 (one resident) donates into machine 0 (two), warm.
        assert migration.tenant == "c"
        assert migration.dest_machine_index == 0
        assert migration.warm
        assert migration.cost_seconds == 1.0

    def test_parked_machines_capped_at_floor_watts_recycled(self):
        policy = self.policy(caps=(200.0, 195.0, 190.0))
        view = make_view(
            tenants=(tenant_view("a", 0), tenant_view("b", 0))
        )
        actions = policy.decide(view)
        assert len(actions) == 1  # everyone already packed: no move
        (caps_action,) = actions
        assert isinstance(caps_action, SetCaps)
        # Machines 1 and 2 are empty: parked at the floor; machine 0
        # absorbs the freed (195-183) + (190-183) = 19 W, within its
        # ceiling.
        assert caps_action.caps[1] == FLOOR
        assert caps_action.caps[2] == FLOOR
        assert caps_action.caps[0] == 219.0
        assert sum(caps_action.caps) <= sum((200.0, 195.0, 190.0)) + 1e-9

    def test_demand_spreads_back_onto_parked_machine(self):
        policy = self.policy()
        view = make_view(
            tenants=(
                tenant_view("calm", 0, shortfall=0.0),
                tenant_view("hot", 0, shortfall=0.4, weight=2.0),
            )
        )
        migration = policy.decide(view)[-1]
        assert isinstance(migration, Migrate)
        assert migration.tenant == "hot"
        assert migration.dest_machine_index == 1  # lowest-index parked
        assert migration.warm

    def test_spread_destination_is_not_parked_in_the_same_barrier(self):
        """Caps apply before migrations: the machine chosen to relieve
        load must not have its watts given away in the same plan."""
        policy = self.policy(caps=(200.0, 195.0, 190.0))
        view = make_view(
            tenants=(
                tenant_view("calm", 0, shortfall=0.0),
                tenant_view("hot", 0, shortfall=0.4, weight=2.0),
            )
        )
        caps_action, migration = policy.decide(view)
        assert isinstance(migration, Migrate)
        assert migration.dest_machine_index == 1
        # Machine 1 is about to receive the migrant: it keeps its inner
        # cap; only machine 2 (still empty after the move) is parked.
        assert caps_action.caps[1] == 195.0
        assert caps_action.caps[2] == FLOOR

    def test_lone_tenant_is_not_spread(self):
        """Relocating a machine's only tenant cannot relieve contention."""
        policy = self.policy()
        view = make_view(tenants=(tenant_view("hot", 0, shortfall=0.4),))
        assert not any(
            isinstance(a, Migrate) for a in policy.decide(view)
        )

    def test_shortfall_blocks_packing(self):
        policy = self.policy()
        view = make_view(
            tenants=(
                tenant_view("a", 0, shortfall=0.2),
                tenant_view("b", 2),
            )
        )
        assert not any(isinstance(a, Migrate) for a in policy.decide(view))

    def test_max_residents_bounds_packing(self):
        policy = self.policy(max_residents=2)
        view = make_view(
            tenants=(
                tenant_view("a", 0),
                tenant_view("b", 0),
                tenant_view("c", 2),
            )
        )
        assert not any(isinstance(a, Migrate) for a in policy.decide(view))

    def test_cooldown_blocks_immediate_re_move(self):
        policy = self.policy(cooldown_seconds=30.0)
        tenants = (tenant_view("a", 0), tenant_view("b", 2))
        first = policy.decide(make_view(tenants=tenants, time=10.0))
        assert any(isinstance(a, Migrate) for a in first)
        moved = next(a for a in first if isinstance(a, Migrate)).tenant
        again = policy.decide(make_view(tenants=tenants, time=20.0))
        assert not any(
            isinstance(a, Migrate) and a.tenant == moved for a in again
        )

    def test_hysteresis_band_required(self):
        with pytest.raises(ControlError, match="hysteresis"):
            self.policy(pack_shortfall=0.1, spread_shortfall=0.1)


class _FakeSetting:
    def __init__(self, qos_loss):
        self.qos_loss = qos_loss
        self.speedup = 1.0


def fake_run(times, losses, energy=10.0, elapsed=1.0):
    return RunResult(
        columns=SampleColumns(
            beat=list(range(len(times))),
            time=list(times),
            window_rate=[None] * len(times),
            normalized_performance=[None] * len(times),
            knob_gain=[1.0] * len(times),
            commanded_speedup=[1.0] * len(times),
            frequency_ghz=[2.4] * len(times),
            setting=[_FakeSetting(q) for q in losses],
        ),
        outputs_by_job=[[0.0]],
        mean_power=100.0,
        energy_joules=energy,
        elapsed=elapsed,
    )


class TestMergeRunResults:
    def test_single_segment_is_identity(self):
        run = fake_run([0.0, 1.0], [0.0, 0.5])
        assert merge_run_results([run]) is run

    def test_segments_concatenate_and_sum(self):
        first = fake_run([0.0, 1.0], [0.0, 0.5], energy=10.0, elapsed=1.0)
        second = fake_run([5.0, 6.0], [0.1, 0.1], energy=4.0, elapsed=1.0)
        merged = merge_run_results([first, second])
        assert [s.time for s in merged.samples] == [0.0, 1.0, 5.0, 6.0]
        assert len(merged.settings_used) == 4
        assert merged.energy_joules == 14.0
        assert merged.elapsed == 2.0
        assert merged.mean_power is None  # undefined across machines

    def test_empty_segment_list_rejected(self):
        with pytest.raises(ControlError):
            merge_run_results([])


MIGRATION_HORIZON = 24.0


def build_migration_scenario(backend, workers=None):
    """3 machines; machine 0 overloaded by two heavy knob-poor tenants.

    The SLA-aware water-fill pins machine 0 at its cap ceiling while its
    tenants still violate, so the migrating policy moves the worst one;
    the budget schedule drops the fleet budget mid-run and restores it.
    """
    system = built_service_system()
    machines = [experiment_machine() for _ in range(3)]
    target = measure_baseline_rate(
        ServiceApp, service_training_jobs()[0], machines[0]
    )
    placements = [0, 0, 1, 2]
    rates = [2.8, 2.2, 0.6, 0.4]
    bindings = []
    for index, (machine_index, rate) in enumerate(zip(placements, rates)):
        qos_cap = 0.0 if index < 2 else None
        table = (
            system.table if qos_cap is None else system.table.with_qos_cap(qos_cap)
        )

        def make_runtime(machine, table=table):
            return PowerDialRuntime(
                app=ServiceApp(),
                table=table,
                machine=machine,
                target_rate=target,
            )

        spec = TenantSpec(
            name=f"t{index}",
            trace=poisson_trace(rate, MIGRATION_HORIZON, seed=70 + index),
            sla=LatencySLA(0.8, 0.95),
            job_factory=request_stream(seed=700 + index),
            qos_cap=qos_cap,
            weight=3.0 if index < 2 else 1.0,
            max_queue_depth=8,
        )
        bindings.append(
            InstanceBinding(
                tenant=spec,
                runtime=make_runtime(machines[machine_index]),
                machine_index=machine_index,
                runtime_factory=make_runtime,
            )
        )
    policy = ScheduledBudgetPolicy(
        MigratingPolicy(
            PowerArbiter(600.0, machines, gain=10.0),
            cost_seconds=1.5,
            cooldown_seconds=10.0,
        ),
        BudgetSchedule(((9.0, 570.0), (17.0, 600.0))),
    )
    return DatacenterEngine(
        machines,
        bindings,
        policy=policy,
        control_period=4.0,
        backend=backend,
        workers=workers,
    )


class TestMigrationAndShockSerial:
    @pytest.fixture(scope="class")
    def result(self):
        return build_migration_scenario("serial").run()

    def test_scenario_actually_migrates_and_shocks(self, result):
        assert result.migrations, "scenario must migrate an instance"
        move = result.migrations[0]
        assert move.source_machine_index == 0
        assert move.cost_seconds == 1.5
        assert result.budget_history == [
            (0.0, 600.0), (9.0, 570.0), (17.0, 600.0),
        ]

    def test_schedule_times_become_barriers(self, result):
        times = [t for t, _ in result.cap_history]
        assert 9.0 in times and 17.0 in times  # not multiples of 4.0

    def test_caps_respect_shocked_budget(self, result):
        for at, caps in result.cap_history:
            budget = 570.0 if 9.0 <= at < 17.0 else 600.0
            assert sum(caps) <= budget + 1e-6

    def test_no_request_lost_or_duplicated_across_migration(self, result):
        for report in result.tenant_reports:
            assert report.offered == report.admitted + report.rejected
            assert report.completed == report.admitted

    def test_conservation_survives_migration_and_shock(self, result):
        assert result.energy_conservation_rel_error() <= 1e-9

    def test_migration_cost_charged_to_mover(self, result):
        mover = result.migrations[0].tenant
        bill = result.bill_for(mover)
        # The mover's final placement is the migration destination.
        assert bill.machine_index == result.migrations[0].dest_machine_index
        assert bill.busy_seconds >= 1.5

    def test_merged_run_result_spans_both_hosts(self, result):
        mover = result.migrations[0].tenant
        run = result.run_results[mover]
        assert run.mean_power is None  # merged across machines
        assert len(run.samples) == len(run.settings_used)


def build_warmth_scenario(warm):
    """One knobbed tenant on a floor-capped machine; scripted move at 12 s.

    The cap pins machine 0 at its slowest P-state, so the tenant's
    controller integrates up an elevated speedup (dynamic knobs absorb
    the DVFS slowdown).  The scripted policy then moves the tenant to
    the uncapped machine 1 — warm or cold — which is exactly the
    operating-point-preservation question: does the destination's
    first control period continue the source's last?
    """
    system = built_service_system()
    machines = [experiment_machine(), experiment_machine()]
    target = measure_baseline_rate(
        ServiceApp, service_training_jobs()[0], machines[0]
    )
    floor0 = machine_cap_floor(machines[0])
    ceiling1 = machine_cap_ceiling(machines[1])

    class ScriptedMove:
        def __init__(self):
            self.moved = False

        def initial_budget_watts(self):
            return floor0 + ceiling1

        def barrier_times(self, horizon):
            return ()

        def decide(self, view):
            actions = [SetCaps((floor0, ceiling1))]
            if view.time >= 12.0 and not self.moved:
                self.moved = True
                actions.append(Migrate("mover", 1, 1.0, warm=warm))
            return actions

    def make_runtime(machine):
        return PowerDialRuntime(
            app=ServiceApp(),
            table=system.table,
            machine=machine,
            target_rate=target,
        )

    spec = TenantSpec(
        name="mover",
        trace=poisson_trace(2.5, 20.0, seed=9),
        sla=LatencySLA(1.0, 0.9),
        job_factory=request_stream(seed=90),
    )
    binding = InstanceBinding(
        tenant=spec,
        runtime=make_runtime(machines[0]),
        machine_index=0,
        runtime_factory=make_runtime,
    )
    return DatacenterEngine(
        machines, [binding], policy=ScriptedMove(), control_period=4.0
    )


class TestWarmVersusColdMigration:
    def handoff_speedups(self, warm):
        engine = build_warmth_scenario(warm)
        result = engine.run()
        assert len(result.migrations) == 1
        assert result.migrations[0].warm is warm
        binding = engine.bindings[0]
        source_segment = binding.run_segments[-1]
        dest_segment = binding.runtime.finish()
        assert source_segment.samples and dest_segment.samples
        return (
            source_segment.samples[-1].commanded_speedup,
            dest_segment.samples[0].commanded_speedup,
        )

    def test_warm_migration_preserves_operating_point(self):
        source_last, dest_first = self.handoff_speedups(warm=True)
        assert source_last > 1.0  # the cap actually elevated the point
        assert dest_first == source_last  # float-exact continuation

    def test_cold_migration_loses_operating_point(self):
        source_last, dest_first = self.handoff_speedups(warm=False)
        assert source_last > 1.0
        assert dest_first == 1.0  # restarted at the baseline


CONSOLIDATION_HORIZON = 30.0
CONSOLIDATION_BUDGET = 800.0


def build_consolidation_scenario(backend, workers=None):
    """4 one-tenant machines, diurnal trough traffic, shocked budget.

    The `--policy consolidating` stack as the CLI would assemble it: the
    quiet ends of the horizon pack tenants onto fewer machines with
    warm migrations (crossing shard boundaries on the sharded backend),
    the mid-run peak spreads them back, and the budget schedule drops
    the fleet budget mid-run and restores it.
    """
    system = built_service_system()
    machines = [experiment_machine() for _ in range(4)]
    target = measure_baseline_rate(
        ServiceApp, service_training_jobs()[0], machines[0]
    )

    def make_runtime(machine):
        return PowerDialRuntime(
            app=ServiceApp(),
            table=system.table,
            machine=machine,
            target_rate=target,
        )

    bindings = []
    for index in range(4):
        spec = TenantSpec(
            name=f"t{index}",
            trace=diurnal_trace(
                1.0,
                CONSOLIDATION_HORIZON,
                period=CONSOLIDATION_HORIZON,
                trough_fraction=0.1,
                seed=40 + index,
            ),
            sla=LatencySLA(1.0, 0.9),
            job_factory=request_stream(seed=400 + index),
            max_queue_depth=8,
        )
        bindings.append(
            InstanceBinding(
                tenant=spec,
                runtime=make_runtime(machines[index]),
                machine_index=index,
                runtime_factory=make_runtime,
            )
        )
    policy = build_policy(
        "consolidating",
        CONSOLIDATION_BUDGET,
        machines,
        schedule=BudgetSchedule(
            ((10.0, 0.94 * CONSOLIDATION_BUDGET), (20.0, CONSOLIDATION_BUDGET))
        ),
    )
    return DatacenterEngine(
        machines,
        bindings,
        policy=policy,
        control_period=3.0,
        backend=backend,
        workers=workers,
    )


class TestConsolidationSerial:
    @pytest.fixture(scope="class")
    def result(self):
        return build_consolidation_scenario("serial").run()

    def test_scenario_packs_warm(self, result):
        assert result.migrations, "trough must trigger packing"
        assert all(move.warm for move in result.migrations)
        # Packing actually reduced the occupied-machine count at some
        # point: some machine both lost and never regained a tenant
        # before another move happened.
        assert len(result.migrations) >= 2

    def test_budget_shock_applied(self, result):
        assert result.budget_history == [
            (0.0, CONSOLIDATION_BUDGET),
            (10.0, 0.94 * CONSOLIDATION_BUDGET),
            (20.0, CONSOLIDATION_BUDGET),
        ]

    def test_parked_machines_sit_at_their_floor(self, result):
        """After the first pack, some cap equals the machine floor."""
        floors = [183.0] * 4  # experiment_machine floor, within 1 W
        parked_caps = [
            caps
            for at, caps in result.cap_history
            if at > 0.0 and any(cap < floors[0] + 1.0 for cap in caps)
        ]
        assert parked_caps, "no barrier ever parked a machine at its floor"

    def test_no_request_lost_across_warm_moves(self, result):
        for report in result.tenant_reports:
            assert report.offered == report.admitted + report.rejected
            assert report.completed == report.admitted

    def test_conservation_survives_warm_migration(self, result):
        assert result.energy_conservation_rel_error() <= 1e-9


class TestConsolidationParity:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return build_consolidation_scenario("serial").run()

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_byte_identical(self, serial_result, workers):
        sharded = build_consolidation_scenario("sharded", workers=workers).run()
        assert_same_result(sharded, serial_result)
        assert sharded.bills == serial_result.bills
        assert sharded.tenant_reports == serial_result.tenant_reports
        assert sharded.cap_history == serial_result.cap_history
        assert sharded.budget_history == serial_result.budget_history
        assert sharded.migrations == serial_result.migrations
        assert sharded.idle_energy_joules == serial_result.idle_energy_joules
        assert sharded.total_energy_joules == serial_result.total_energy_joules
        assert sharded.makespan == serial_result.makespan
        for name, run in serial_result.run_results.items():
            other = sharded.run_results[name]
            assert run.samples == other.samples
            assert run.outputs_by_job == other.outputs_by_job
            assert run.energy_joules == other.energy_joules


class TestMigrationAndShockParity:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return build_migration_scenario("serial").run()

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_byte_identical(self, serial_result, workers):
        sharded = build_migration_scenario("sharded", workers=workers).run()
        assert_same_result(sharded, serial_result)
        assert sharded.bills == serial_result.bills
        assert sharded.tenant_reports == serial_result.tenant_reports
        assert sharded.cap_history == serial_result.cap_history
        assert sharded.budget_history == serial_result.budget_history
        assert sharded.migrations == serial_result.migrations
        assert sharded.idle_energy_joules == serial_result.idle_energy_joules
        assert sharded.total_energy_joules == serial_result.total_energy_joules
        assert sharded.makespan == serial_result.makespan
        assert sharded.budget_watts == serial_result.budget_watts
        for name, run in serial_result.run_results.items():
            other = sharded.run_results[name]
            assert run.samples == other.samples
            assert run.outputs_by_job == other.outputs_by_job
            assert run.energy_joules == other.energy_joules
