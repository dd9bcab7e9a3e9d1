"""Gray-failure injection tests (`repro.datacenter.faults`).

Pins the fault layer's contracts: a ``FaultPlan`` is a byte-stable pure
function of (seed, config); fault and retry journal records round-trip
through the codec byte-identically; every fault class preserves
serial-vs-sharded byte parity and billing conservation; faulted runs
replay and resume byte-exactly; and the degraded-mode policy holds,
quarantines, and reintegrates the way ``docs/ARCHITECTURE.md``
invariant 8 promises.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import fork_available
from repro.datacenter.billing import CONSERVATION_TOLERANCE
from repro.datacenter.controlplane import (
    BudgetSchedule,
    ChaosPolicy,
    ClusterView,
    ControlError,
    DegradedModePolicy,
    MachineView,
    Migrate,
    SetCaps,
    TenantView,
)
from repro.datacenter.faults import (
    ACTUATOR_MODES,
    RETRY_OUTCOMES,
    SENSOR_MODES,
    ActuatorFault,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRecord,
    KillFault,
    RetryRecord,
    SensorFault,
    StragglerFault,
    kill_schedule,
    load_fault_plan,
    parse_fault_plan,
)
from repro.datacenter.journal import (
    canonical_json,
    decode_fault_record,
    decode_retry_record,
    encode_fault_record,
    encode_retry_record,
    read_journal,
    replay,
    result_payload,
    resume,
)
from repro.experiments.datacenter import ScenarioError
from repro.heartbeats import (
    HEALTH_FRESH,
    HEALTH_STALE,
    HEALTH_UNRESPONSIVE,
    classify_heartbeat_age,
)
from tests.datacenter.conftest import assert_same_result, tiny_scenario

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)

# ---------------------------------------------------------------------------
# FaultPlan purity and round-trips


seeds = st.integers(min_value=0, max_value=2**31 - 1)
counts = st.integers(min_value=0, max_value=3)


class TestFaultPlanPurity:
    @given(
        seed=seeds,
        kills=counts,
        dropouts=counts,
        noise=counts,
        drops=counts,
        stragglers=counts,
    )
    @settings(max_examples=30, deadline=None)
    def test_generate_is_pure_and_byte_stable(
        self, seed, kills, dropouts, noise, drops, stragglers
    ):
        kwargs = dict(
            horizon=60.0,
            machines=4,
            seed=seed,
            kills=kills,
            sensor_dropouts=dropouts,
            sensor_noise=noise,
            actuator_drops=drops,
            stragglers=stragglers,
        )
        first = FaultPlan.generate(**kwargs)
        second = FaultPlan.generate(**kwargs)
        assert first == second
        assert canonical_json(first.to_config()) == canonical_json(
            second.to_config()
        )

    @given(seed=seeds, kills=counts, dropouts=counts, drops=counts)
    @settings(max_examples=30, deadline=None)
    def test_config_round_trip_is_exact(self, seed, kills, dropouts, drops):
        plan = FaultPlan.generate(
            horizon=45.0,
            machines=3,
            seed=seed,
            kills=kills,
            sensor_dropouts=dropouts,
            actuator_drops=drops,
            unresponsive_after=4.0,
            reintegrate=5.0,
        )
        rebuilt = FaultPlan.from_config(plan.to_config())
        assert rebuilt == plan
        assert canonical_json(rebuilt.to_config()) == canonical_json(
            plan.to_config()
        )

    def test_kill_schedule_matches_generated_plan_kills(self):
        # The ChaosPolicy contract: `--chaos N` and a kills-only
        # FaultPlan compute identical floats for the same seed.
        plan = FaultPlan.generate(horizon=40.0, seed=7, kills=2)
        assert tuple(k.time for k in plan.kills) == kill_schedule(40.0, 2, 7)

    def test_barrier_times_cover_window_edges_and_kills(self):
        plan = FaultPlan(
            sensors=(SensorFault(0, 5.0, 11.0),),
            actuators=(ActuatorFault(1, 8.0, 14.0),),
            stragglers=(StragglerFault(0, 20.0, 26.0),),
            kills=(KillFault(17.0),),
        )
        times = plan.barrier_times(24.0)
        assert times == tuple(sorted(times))
        for expected in (5.0, 11.0, 8.0, 14.0, 17.0, 20.0):
            assert expected in times
        assert 26.0 not in times  # past the horizon

    def test_noise_unit_is_deterministic_and_bounded(self):
        plan = FaultPlan(seed=13)
        for machine in range(3):
            for now in (0.0, 7.25, 19.5):
                unit = plan.noise_unit(machine, now)
                assert unit == plan.noise_unit(machine, now)
                assert -1.0 <= unit <= 1.0


class TestFaultValidation:
    def test_backwards_window_rejected(self):
        with pytest.raises(FaultPlanError, match="field 'end'"):
            SensorFault(0, 10.0, 4.0)

    def test_bad_sensor_mode_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown sensor mode"):
            SensorFault(0, 1.0, 2.0, mode="jitter")

    def test_bad_actuator_fraction_rejected(self):
        with pytest.raises(FaultPlanError, match="field 'fraction'"):
            ActuatorFault(0, 1.0, 2.0, mode="partial", fraction=1.5)

    def test_negative_kill_time_rejected(self):
        with pytest.raises(FaultPlanError, match="field 'time'"):
            KillFault(-1.0)

    def test_bad_tuning_rejected(self):
        with pytest.raises(FaultPlanError, match="retry_base"):
            FaultPlan(retry_base_seconds=0.0)

    @pytest.mark.parametrize(
        "schedule, match",
        [
            ({"kills": -1}, "kills must be >= 0, got -1"),
            ({"start_fraction": 0.8, "end_fraction": 0.3}, "kill span"),
        ],
        ids=["negative-kills", "backwards-span"],
    )
    def test_chaos_policy_rejects_bad_schedule(self, schedule, match):
        # Checked at construction, as the control plane's error type.
        with pytest.raises(ControlError, match=match):
            ChaosPolicy(_FixedPolicy([]), **schedule)

    def test_kills_sorted_by_time(self):
        plan = FaultPlan(kills=(KillFault(9.0), KillFault(3.0)))
        assert [k.time for k in plan.kills] == [3.0, 9.0]


# ---------------------------------------------------------------------------
# Journal record codecs


finite_time = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
watt_values = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)

fault_records = st.builds(
    FaultRecord,
    time=finite_time,
    kind=st.sampled_from(("sensor", "actuator", "straggler", "recovered")),
    machine_index=st.integers(min_value=0, max_value=64),
    mode=st.one_of(st.none(), st.sampled_from(SENSOR_MODES + ACTUATOR_MODES)),
)

retry_records = st.builds(
    RetryRecord,
    time=finite_time,
    machine_index=st.integers(min_value=0, max_value=64),
    target_watts=watt_values,
    applied_watts=st.one_of(st.none(), watt_values),
    attempt=st.integers(min_value=1, max_value=12),
    outcome=st.sampled_from(RETRY_OUTCOMES),
)


class TestRecordCodecs:
    @given(record=fault_records)
    @settings(max_examples=50, deadline=None)
    def test_fault_record_round_trip_byte_identical(self, record):
        encoded = encode_fault_record(record)
        decoded = decode_fault_record(encoded, "test")
        assert decoded == record
        assert canonical_json(encode_fault_record(decoded)) == canonical_json(
            encoded
        )

    @given(record=retry_records)
    @settings(max_examples=50, deadline=None)
    def test_retry_record_round_trip_byte_identical(self, record):
        encoded = encode_retry_record(record)
        decoded = decode_retry_record(encoded, "test")
        assert decoded == record
        assert canonical_json(encode_retry_record(decoded)) == canonical_json(
            encoded
        )


# ---------------------------------------------------------------------------
# Fault-plan file parsing


class TestFaultPlanParsing:
    def test_full_plan_parses(self):
        plan = parse_fault_plan(
            "# comment\n"
            "config seed=3 unresponsive_after=4 reintegrate=5\n"
            "sensor machine=0 start=2 end=6 mode=noise amplitude=0.4\n"
            "actuator machine=1 start=3 end=9 mode=partial fraction=0.5\n"
            "straggler machine=0 start=10 end=14\n"
            "kill time=12 machine=1\n"
        )
        assert plan.seed == 3
        assert plan.unresponsive_after_seconds == 4.0
        assert plan.sensors[0].mode == "noise"
        assert plan.actuators[0].fraction == 0.5
        assert plan.kills[0].machine_index == 1

    def test_unknown_kind_names_line(self):
        with pytest.raises(FaultPlanError, match="line 2"):
            parse_fault_plan("kill time=3\nwobble machine=0\n")

    def test_bad_field_value_names_line_and_field(self):
        with pytest.raises(FaultPlanError, match="line 1.*'start'"):
            parse_fault_plan("sensor machine=0 start=soon end=4\n")

    def test_missing_field_named(self):
        with pytest.raises(FaultPlanError, match="line 1.*'end'"):
            parse_fault_plan("sensor machine=0 start=2\n")

    def test_unknown_field_named(self):
        with pytest.raises(FaultPlanError, match="line 1.*'colour'"):
            parse_fault_plan("kill time=3 colour=red\n")

    def test_validation_error_names_line(self):
        with pytest.raises(FaultPlanError, match="line 1.*'end'"):
            parse_fault_plan("sensor machine=0 start=9 end=2\n")

    def test_load_names_path(self, tmp_path):
        path = tmp_path / "bad.faults"
        path.write_text("kill when=3\n")
        with pytest.raises(FaultPlanError, match="bad.faults.*line 1"):
            load_fault_plan(str(path))

    def test_load_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.faults"
        with pytest.raises(FaultPlanError, match="nope.faults"):
            load_fault_plan(str(missing))

    def test_parse_is_deterministic(self):
        text = "sensor machine=0 start=1 end=5\nkill time=8\n"
        assert parse_fault_plan(text) == parse_fault_plan(text)


# ---------------------------------------------------------------------------
# Health classification and degraded-mode control


class TestHealthClassification:
    def test_thresholds(self):
        assert classify_heartbeat_age(0.0, 6.0, 12.0) == HEALTH_FRESH
        assert classify_heartbeat_age(6.0, 6.0, 12.0) == HEALTH_FRESH
        assert classify_heartbeat_age(6.1, 6.0, 12.0) == HEALTH_STALE
        assert classify_heartbeat_age(12.0, 6.0, 12.0) == HEALTH_STALE
        assert classify_heartbeat_age(12.1, 6.0, 12.0) == HEALTH_UNRESPONSIVE


def _view(health, caps=(150.0, 150.0, 150.0), budget=450.0):
    """A 3-machine view with the given per-machine health states."""
    machines = tuple(
        MachineView(
            index=i,
            cap_floor=100.0,
            cap_ceiling=200.0,
            cap_watts=caps[i],
            health=health[i],
        )
        for i in range(3)
    )
    tenants = tuple(
        TenantView(
            name=f"t{i}",
            machine_index=i,
            weight=1.0,
            sla_shortfall=0.0,
            pending_jobs=0,
            finished=False,
            energy_joules=0.0,
            busy_seconds=0.0,
            steps=0,
        )
        for i in range(3)
    )
    return ClusterView(
        time=10.0, budget_watts=budget, machines=machines, tenants=tenants
    )


class _FixedPolicy:
    """Inner stub returning a fixed action list."""

    def __init__(self, actions):
        self.actions = actions
        self.may_fail_machines = False

    def initial_budget_watts(self):
        return 450.0

    def barrier_times(self, horizon):
        return ()

    def decide(self, view):
        return list(self.actions)


class TestDegradedModePolicy:
    def test_all_fresh_passthrough(self):
        actions = [SetCaps(caps=(180.0, 120.0, 150.0))]
        policy = DegradedModePolicy(_FixedPolicy(actions))
        out = policy.decide(_view((HEALTH_FRESH,) * 3))
        assert list(out) == actions

    def test_stale_machine_holds_last_known_cap(self):
        policy = DegradedModePolicy(
            _FixedPolicy([SetCaps(caps=(180.0, 120.0, 150.0))])
        )
        view = _view((HEALTH_FRESH, HEALTH_STALE, HEALTH_FRESH))
        (action,) = policy.decide(view)
        assert isinstance(action, SetCaps)
        # The stale machine keeps its currently enforced 150 W, not the
        # commanded 120 W.
        assert action.caps[1] == 150.0

    def test_unresponsive_machine_quarantined_at_floor(self):
        policy = DegradedModePolicy(
            _FixedPolicy([SetCaps(caps=(150.0, 150.0, 150.0))])
        )
        view = _view((HEALTH_FRESH, HEALTH_UNRESPONSIVE, HEALTH_FRESH))
        (action,) = policy.decide(view)
        assert action.caps[1] == 100.0  # cap floor
        # Freed watts flow to the fresh machines (never above ceiling,
        # never above budget).
        assert action.caps[0] > 150.0 and action.caps[2] > 150.0
        assert all(cap <= 200.0 for cap in action.caps)
        assert sum(action.caps) <= 450.0 + 1e-9

    def test_migrations_to_unhealthy_machines_dropped(self):
        keep = Migrate(tenant="t0", dest_machine_index=2, cost_seconds=1.0)
        drop = Migrate(tenant="t2", dest_machine_index=1, cost_seconds=1.0)
        from_stale = Migrate(
            tenant="t1", dest_machine_index=0, cost_seconds=1.0
        )
        policy = DegradedModePolicy(_FixedPolicy([keep, drop, from_stale]))
        view = _view((HEALTH_FRESH, HEALTH_STALE, HEALTH_FRESH))
        out = policy.decide(view)
        assert keep in out
        assert drop not in out  # destination not fresh
        assert from_stale not in out  # source not fresh

    def test_degradation_is_deterministic(self):
        policy = DegradedModePolicy(
            _FixedPolicy([SetCaps(caps=(180.0, 120.0, 150.0))])
        )
        view = _view((HEALTH_FRESH, HEALTH_UNRESPONSIVE, HEALTH_STALE))
        first = policy.decide(view)
        second = policy.decide(view)
        assert list(first) == list(second)


# ---------------------------------------------------------------------------
# End-to-end: engine runs under every fault class


FAULT_PLANS = {
    "sensor-dropout": FaultPlan(
        sensors=(SensorFault(0, 6.0, 14.0, mode="dropout"),),
        unresponsive_after_seconds=5.0,
        reintegrate_seconds=4.0,
    ),
    "sensor-delay": FaultPlan(
        sensors=(SensorFault(1, 6.0, 16.0, mode="delay", delay=4.0),),
    ),
    "sensor-noise": FaultPlan(
        sensors=(SensorFault(0, 4.0, 18.0, mode="noise", amplitude=0.5),),
        seed=5,
    ),
    "actuator-drop": FaultPlan(
        actuators=(ActuatorFault(1, 6.0, 23.0, mode="drop"),),
        retry_base_seconds=3.0,
        retry_cap_seconds=6.0,
        retry_deadline_seconds=9.0,
    ),
    "actuator-partial": FaultPlan(
        actuators=(
            ActuatorFault(0, 6.0, 20.0, mode="partial", fraction=0.4),
        ),
    ),
    "straggler": FaultPlan(stragglers=(StragglerFault(1, 8.0, 16.0),)),
    "kill": FaultPlan(kills=(KillFault(13.0,),), seed=2),
    "everything": FaultPlan(
        sensors=(
            SensorFault(0, 4.0, 12.0, mode="dropout"),
            SensorFault(1, 6.0, 14.0, mode="noise", amplitude=0.3),
        ),
        actuators=(ActuatorFault(1, 5.0, 17.0, mode="drop"),),
        stragglers=(StragglerFault(0, 15.0, 21.0),),
        kills=(KillFault(19.0),),
        seed=9,
        unresponsive_after_seconds=5.0,
        reintegrate_seconds=4.0,
        retry_base_seconds=3.0,
    ),
}


# SHA-256 of each plan's canonical result payload.  Every plan's
# cap_history differs from the fault-free run's, so each pin covers its
# fault path; delay, noise and partial run only on the coordinator, so
# serial/sharded parity alone would not catch them moving.
FAULT_PLAN_DIGESTS = {
    "actuator-drop": "da70820b465786271cfc7d05773fd8ade1798057d2b3cf3512cd40fd6a2a84ef",
    "actuator-partial": "fd51bf7891dd616dfe5595d8e338186ea20339104254e3b8dfe1a4b2141597ca",
    "everything": "7a79ce0575f341e13a1985e17d9681078fd8c35c6065621db93069bf92c027e6",
    "kill": "3a920b0bcb5c0fa6aa195b951961ab2138f900f597985ce7ddca75a8bf79fd01",
    "sensor-delay": "5efcddebd2186f97b160f05424dd4001e0b36559ad303ec3373ff8cf8573bd67",
    "sensor-dropout": "730276c87af9eaca8b9533bd246934f6ddbe9e5475f95f047db1fa38380a19c6",
    "sensor-noise": "d78c36106a75099eb0545f2d9a2cf7cf5f1c60b60bd02e9ac82cecdcdf92da94",
    "straggler": "6061a5c323ed6fb29b0a27d76cfde649391165e593cb5f1843af49c4132042bc",
}
PARTIAL_TRACE_DIGEST = (
    "a73e9630dff12ef1d617e95d1f2baab17fe82c110c17a245fb3989b0f3f36246"
)


def result_digest(result):
    """SHA-256 of a result's canonical journal payload."""
    return hashlib.sha256(
        canonical_json(result_payload(result)).encode()
    ).hexdigest()


def faulted_scenario(plan, machines=3, **fields):
    return tiny_scenario(machines, 630.0, faults=plan, **fields)


class TestFaultedRuns:
    @pytest.mark.parametrize("name", sorted(FAULT_PLANS))
    def test_conservation_holds(self, name):
        result = faulted_scenario(FAULT_PLANS[name]).build().run()
        assert (
            result.energy_conservation_rel_error() <= CONSERVATION_TOLERANCE
        )
        assert result_digest(result) == FAULT_PLAN_DIGESTS[name]

    def test_faults_and_retries_are_journaled_in_result(self):
        result = faulted_scenario(FAULT_PLANS["everything"]).build().run()
        kinds = {fault.kind for fault in result.faults}
        assert {"sensor", "actuator", "straggler", "recovered"} <= kinds
        assert result.retries, "actuator drop must produce retry records"
        assert all(r.outcome in RETRY_OUTCOMES for r in result.retries)
        assert result.failures, "the kill must fail-stop a machine"

    def test_actuator_drop_produces_failed_then_abandoned(self):
        result = faulted_scenario(FAULT_PLANS["actuator-drop"]).build().run()
        outcomes = [r.outcome for r in result.retries]
        assert "failed" in outcomes
        # The drop window (6 -> 23 s) outlives the 9 s retry deadline,
        # so the attempt at t=18 gives up while the fault still bites.
        assert "abandoned" in outcomes

    def test_partial_mode_moves_part_way(self):
        # A mid-window budget drop forces the commanded caps to move,
        # so the partial actuator visibly lands short of its target.
        trace = BudgetSchedule(((10.0, 600.0), (20.0, 630.0)))
        result = faulted_scenario(
            FAULT_PLANS["actuator-partial"], budget_trace=trace
        ).build().run()
        assert result_digest(result) == PARTIAL_TRACE_DIGEST
        partials = [r for r in result.retries if r.outcome == "partial"]
        assert partials
        for record in partials:
            assert record.applied_watts is not None
            assert record.applied_watts != record.target_watts

    def test_straggler_recovery_recorded(self):
        result = faulted_scenario(FAULT_PLANS["straggler"]).build().run()
        kinds = [fault.kind for fault in result.faults]
        assert "straggler" in kinds
        assert "recovered" in kinds

    def test_fault_plan_machine_out_of_range_rejected(self):
        plan = FaultPlan(sensors=(SensorFault(7, 1.0, 3.0),))
        with pytest.raises(ScenarioError, match="references machine 7"):
            faulted_scenario(plan, machines=2).build().run()


class TestDelayViewLog:
    """A delay window reads the view log back only as far as its delay,
    so the log keeps that much and goes once the window has closed."""

    # Opens before any tenant has settled, so a log cut one entry short
    # changes what the policy sees and the result's bytes.
    EARLY_DELAY = FaultPlan(
        sensors=(SensorFault(0, 2.0, 22.0, mode="delay", delay=4.0),),
    )

    @staticmethod
    def dense_scenario(plan):
        # A barrier every second: an unbounded log would hold one entry
        # per barrier.
        return tiny_scenario(3, 630.0, control_period=1.0, faults=plan)

    def test_log_length_is_bounded_by_the_delay(self, monkeypatch):
        lengths = []
        observe = FaultInjector.observe

        def spying(injector, view):
            observed = observe(injector, view)
            lengths.append((view.time, len(injector._view_log.get(1, ()))))
            return observed

        monkeypatch.setattr(FaultInjector, "observe", spying)
        self.dense_scenario(FAULT_PLANS["sensor-delay"]).build().run()
        # Machine 1's window is 6 -> 16 s with a 4 s delay: the newest
        # entry at or before t - 4 and the four barriers after it.
        assert len(lengths) > 20
        assert max(n for t, n in lengths if t < 16.0) == 5
        assert all(n == 0 for t, n in lengths if t >= 16.0)

    @pytest.mark.parametrize("plan", ["sensor-delay", "early-delay"])
    def test_bounded_log_serves_the_same_views(self, monkeypatch, plan):
        scenario = self.dense_scenario(
            self.EARLY_DELAY if plan == "early-delay" else FAULT_PLANS[plan]
        )
        bounded = scenario.build().run()

        def unbounded(injector, now, by_machine):
            for index, log in injector._view_log.items():
                log.append(
                    (now, {t.name: t for t in by_machine.get(index, [])})
                )

        monkeypatch.setattr(FaultInjector, "_log_views", unbounded)
        assert result_digest(scenario.build().run()) == result_digest(bounded)


@needs_fork
class TestFaultedParity:
    @pytest.mark.parametrize("name", sorted(FAULT_PLANS))
    def test_sharded_2_matches_serial(self, name):
        scenario = faulted_scenario(FAULT_PLANS[name])
        serial = scenario.build().run()
        sharded = scenario.build("sharded", 2).run()
        assert_same_result(serial, sharded)
        assert serial.bills == sharded.bills
        assert serial.cap_history == sharded.cap_history
        assert serial.faults == sharded.faults
        assert serial.retries == sharded.retries
        assert serial.idle_energy_joules == sharded.idle_energy_joules

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_counts_match_serial(self, workers):
        scenario = faulted_scenario(FAULT_PLANS["everything"])
        serial = scenario.build().run()
        sharded = scenario.build("sharded", workers).run()
        assert_same_result(serial, sharded)
        assert serial.bills == sharded.bills
        assert serial.faults == sharded.faults
        assert serial.retries == sharded.retries


# ---------------------------------------------------------------------------
# Journaled faulted runs: replay and resume stay byte-exact


class TestFaultedJournal:
    def test_barriers_carry_fault_and_retry_records(self, tmp_path):
        path = tmp_path / "gray.ndjson"
        faulted_scenario(FAULT_PLANS["everything"]).record(str(path))
        journal = read_journal(str(path))
        assert any(barrier.faults for barrier in journal.barriers)
        assert any(barrier.retries for barrier in journal.barriers)
        assert journal.result is not None
        assert journal.result["faults"]
        assert journal.result["retries"]

    def test_replay_is_byte_exact(self, tmp_path):
        path = tmp_path / "gray.ndjson"
        live = faulted_scenario(FAULT_PLANS["everything"]).record(str(path))
        replayed = replay(str(path))
        assert canonical_json(result_payload(replayed)) == canonical_json(
            result_payload(live)
        )

    @needs_fork
    def test_replay_parity_across_backends(self, tmp_path):
        path = tmp_path / "gray.ndjson"
        faulted_scenario(FAULT_PLANS["everything"]).record(str(path))
        serial = replay(str(path))
        sharded = replay(str(path), backend="sharded", workers=2)
        assert_same_result(serial, sharded)

    def test_resume_finishes_truncated_faulted_run(self, tmp_path):
        path = tmp_path / "gray.ndjson"
        live = faulted_scenario(FAULT_PLANS["everything"]).record(str(path))
        lines = path.read_text().splitlines()
        # Drop the result record and the last two barriers: a crash
        # two barriers before the end.
        path.write_text("\n".join(lines[:-3]) + "\n")
        resumed = resume(str(path))
        assert canonical_json(result_payload(resumed)) == canonical_json(
            result_payload(live)
        )
