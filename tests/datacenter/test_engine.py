"""Integration tests for the event-driven datacenter engine."""

import re
from collections import Counter

import pytest

from repro.core.powerdial import build_powerdial, measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter import (
    ArbiterError,
    ArbiterPolicy,
    DatacenterEngine,
    EngineError,
    InstanceBinding,
    LatencySLA,
    PowerArbiter,
    ServiceApp,
    TenantSpec,
    burst_trace,
    fork_available,
    poisson_trace,
    request_stream,
    service_training_jobs,
)
from repro.datacenter.controlplane import (
    ChaosPolicy,
    ControlError,
    FailMachine,
    Migrate,
)
from repro.datacenter.billing import TenantLedger
from repro.datacenter.faults import KillFault
from repro.datacenter.engine import HostGroup
from repro.experiments.common import experiment_machine
from repro.hardware.machine import Machine
from repro.heartbeats.api import HeartbeatMonitor
from tests.datacenter.conftest import tiny_scenario

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)


@pytest.fixture(scope="module")
def system():
    return build_powerdial(ServiceApp, service_training_jobs(), trace_iterations=2)


def make_binding(
    system,
    machine,
    machine_index,
    name,
    trace,
    qos_cap=None,
    sla=None,
    max_queue_depth=32,
    seed=0,
):
    table = system.table if qos_cap is None else system.table.with_qos_cap(qos_cap)
    target = measure_baseline_rate(
        ServiceApp, service_training_jobs()[0], machine
    )
    runtime = PowerDialRuntime(
        app=ServiceApp(), table=table, machine=machine, target_rate=target
    )
    spec = TenantSpec(
        name=name,
        trace=trace,
        sla=sla or LatencySLA(latency_bound=1.0, attainment_target=0.9),
        job_factory=request_stream(seed=seed),
        qos_cap=qos_cap,
        max_queue_depth=max_queue_depth,
    )
    return InstanceBinding(
        tenant=spec, runtime=runtime, machine_index=machine_index
    )


class TestAccounting:
    def test_every_admitted_request_completes(self, system):
        machines = [experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "a", poisson_trace(1.5, 30.0, seed=1)
            ),
            make_binding(
                system, machines[0], 0, "b", poisson_trace(1.0, 30.0, seed=2), seed=1
            ),
        ]
        result = DatacenterEngine(machines, bindings).run()
        for binding, report in zip(bindings, result.tenant_reports):
            assert report.offered == binding.tenant.trace.count
            assert report.completed == report.admitted
            assert report.offered == report.admitted + report.rejected

    def test_latencies_are_positive_and_causal(self, system):
        machines = [experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "a", poisson_trace(2.0, 30.0, seed=3)
            )
        ]
        result = DatacenterEngine(machines, bindings).run()
        for record in bindings[0].stats.completions:
            assert record.completion > record.arrival
        # Requests complete no earlier than the virtual service time.
        report = result.tenant_reports[0]
        assert report.mean_latency > 0.1  # ~5 items at ~42 ms each

    def test_makespan_covers_horizon(self, system):
        machines = [experiment_machine(), experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "a", poisson_trace(1.0, 25.0, seed=4)
            ),
            make_binding(
                system, machines[1], 1, "b", poisson_trace(1.0, 25.0, seed=5), seed=1
            ),
        ]
        result = DatacenterEngine(machines, bindings).run()
        assert result.makespan >= 25.0 - 1.0
        assert result.total_energy_joules > 0
        assert all(power > 0 for power in result.machine_mean_power)

    def test_engine_is_single_use(self, system):
        machines = [experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "a", poisson_trace(1.0, 5.0, seed=6)
            )
        ]
        engine = DatacenterEngine(machines, bindings)
        engine.run()
        with pytest.raises(EngineError):
            engine.run()


class TestAdmissionControl:
    def test_overload_sheds_requests(self, system):
        machines = [experiment_machine()]
        # Offered far beyond one machine's capacity, tiny queue.
        trace = burst_trace(2.0, 30.0, 30.0, burst_every=10.0, burst_length=5.0, seed=7)
        bindings = [
            make_binding(
                system, machines[0], 0, "hot", trace, max_queue_depth=4
            )
        ]
        result = DatacenterEngine(machines, bindings).run()
        report = result.tenant_reports[0]
        assert report.rejected > 0
        assert report.completed == report.admitted
        # The queue bound also bounds latency: depth * service time-ish.
        assert report.p95_latency < 4.0


class TestContention:
    def test_co_tenants_trigger_knob_speedup(self, system):
        """Saturating co-resident tenants must engage dynamic knobs."""
        machines = [experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "a", poisson_trace(3.0, 40.0, seed=8)
            ),
            make_binding(
                system, machines[0], 0, "b", poisson_trace(3.0, 40.0, seed=9), seed=1
            ),
        ]
        result = DatacenterEngine(machines, bindings).run()
        max_gain = max(
            sample.knob_gain
            for run in result.run_results.values()
            for sample in run.samples
        )
        assert max_gain > 1.0

    def test_solo_light_tenant_stays_at_baseline(self, system):
        machines = [experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "solo", poisson_trace(0.5, 40.0, seed=10)
            )
        ]
        result = DatacenterEngine(machines, bindings).run()
        run = result.run_results["solo"]
        # An unloaded, uncapped machine never needs knob gain.
        assert all(s.speedup == pytest.approx(1.0) for s in run.settings_used)


class TestArbitratedRuns:
    def test_budget_respected(self, system):
        machines = [experiment_machine(), experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "a", poisson_trace(2.5, 40.0, seed=11)
            ),
            make_binding(
                system, machines[1], 1, "b", poisson_trace(2.5, 40.0, seed=12), seed=1
            ),
        ]
        arbiter = PowerArbiter(400.0, machines, policy=ArbiterPolicy.SLA_AWARE)
        result = DatacenterEngine(machines, bindings, policy=arbiter).run()
        assert result.budget_watts == pytest.approx(400.0)
        assert result.total_mean_power <= 400.0 + 1e-6
        for (_, caps) in result.cap_history:
            assert sum(caps) <= 400.0 + 1e-6

    def test_caps_slow_the_machines(self, system):
        machines = [experiment_machine(), experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "a", poisson_trace(1.0, 20.0, seed=13)
            ),
            make_binding(
                system, machines[1], 1, "b", poisson_trace(1.0, 20.0, seed=14), seed=1
            ),
        ]
        arbiter = PowerArbiter(380.0, machines, policy=ArbiterPolicy.STATIC_EQUAL)
        DatacenterEngine(machines, bindings, policy=arbiter).run()
        # 380/2 = 190 W per machine: must run below the top frequency.
        for machine in machines:
            assert machine.processor.frequency_ghz < 2.4


class TestValidation:
    def test_runtime_machine_mismatch_rejected(self, system):
        machines = [experiment_machine(), experiment_machine()]
        binding = make_binding(
            system, machines[1], 0, "a", poisson_trace(1.0, 5.0, seed=15)
        )
        with pytest.raises(EngineError):
            DatacenterEngine(machines, [binding])

    def test_duplicate_tenant_names_rejected(self, system):
        machines = [experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "dup", poisson_trace(1.0, 5.0, seed=16)
            ),
            make_binding(
                system, machines[0], 0, "dup", poisson_trace(1.0, 5.0, seed=17), seed=1
            ),
        ]
        with pytest.raises(EngineError):
            DatacenterEngine(machines, bindings)

    def test_arbiter_pool_size_mismatch_rejected(self, system):
        """A policy sized for a different pool fails at the first barrier."""
        machines = [experiment_machine()]
        other = [experiment_machine(), experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "a", poisson_trace(1.0, 5.0, seed=18)
            )
        ]
        arbiter = PowerArbiter(400.0, other)
        with pytest.raises(ArbiterError):
            DatacenterEngine(machines, bindings, policy=arbiter).run()

    def test_non_policy_rejected(self, system):
        """Objects without the ControlPolicy surface are rejected early."""
        machines = [experiment_machine()]
        bindings = [
            make_binding(
                system, machines[0], 0, "a", poisson_trace(1.0, 5.0, seed=19)
            )
        ]
        with pytest.raises(EngineError):
            DatacenterEngine(machines, bindings, policy=object())


class TestLazyScheduling:
    def test_advances_once_per_arrival_plus_one_final_settle(
        self, monkeypatch
    ):
        """The serial scheduler is O(events), not O(events x machines).

        With no control barriers, each arrival advances only its own
        host and the closing settle advances every host once, so the
        count is exact — a per-event sweep of the pool would make it
        grow with machines x events.
        """
        from tests.datacenter.pool_scenario import PoolScenario, build_pool_engine

        scenario = PoolScenario(machines=64, horizon=30.0, rate=0.1)
        engine = build_pool_engine(scenario)
        calls = 0
        advance = DatacenterEngine._advance

        def counting_advance(self, host, until):
            nonlocal calls
            calls += 1
            return advance(self, host, until)

        monkeypatch.setattr(DatacenterEngine, "_advance", counting_advance)
        engine.run()
        arrivals = sum(
            len(binding.tenant.trace.arrivals) for binding in engine.bindings
        )
        assert calls == arrivals + scenario.machines


class _MoveAtFirstBarrier:
    """Moves tenant ``a`` off machine 0 at t=4 by ``action``."""

    def __init__(self, action):
        self.action = action
        self.may_fail_machines = isinstance(action, FailMachine)

    def initial_budget_watts(self):
        return None

    def barrier_times(self, horizon):
        return ()

    def decide(self, view):
        return [self.action] if view.time == 4.0 else []


class _FailAfterItsCapture:
    """Fails machine 0 at t=8 but names t=4 as its only failure barrier."""

    failure_times = frozenset({4.0})

    def initial_budget_watts(self):
        return None

    def barrier_times(self, horizon):
        return ()

    def decide(self, view):
        return [FailMachine(0)] if view.time == 8.0 else []


class _Quiet:
    """A policy that never acts."""

    def initial_budget_watts(self):
        return None

    def barrier_times(self, horizon):
        return ()

    def decide(self, view):
        return []


def capture_rule_pool(system):
    """Two machines, tenant ``a`` on 0 and ``b`` on 1."""
    machines = [experiment_machine(), experiment_machine()]
    bindings = [
        make_binding(
            system,
            machines[index],
            index,
            name,
            poisson_trace(1.0, 12.0, seed=20 + index),
            seed=index,
        )
        for index, name in enumerate("ab")
    ]
    return machines, bindings


def spy_on_captured_barriers(monkeypatch):
    """The barrier times whose checkpoints reach the barrier step."""
    captured_at = []
    barrier = DatacenterEngine._barrier

    def spying(engine, now, gathered, transport):
        if gathered[1] is not None:
            captured_at.append(now)
        return barrier(engine, now, gathered, transport)

    monkeypatch.setattr(DatacenterEngine, "_barrier", spying)
    return captured_at


class TestCaptureRule:
    """A failure restores from its own barrier's checkpoints or not at
    all: an uncaptured barrier never falls back to an older capture."""

    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("sharded-2", marks=needs_fork)]
    )
    def test_kill_due_just_after_a_barrier_restores_there(
        self, system, backend, monkeypatch
    ):
        """A chaos kill fires at the first barrier within TIME_SLACK of
        its instant, so that barrier is captured as well as the kill's
        own, and the victim restores from it."""
        machines, bindings = capture_rule_pool(system)
        target = bindings[0].runtime.target_rate
        bindings[0].runtime_factory = lambda machine: PowerDialRuntime(
            app=ServiceApp(),
            table=system.table,
            machine=machine,
            target_rate=target,
        )
        captured_at = spy_on_captured_barriers(monkeypatch)
        kill = 8.0 + 5e-10
        policy = ChaosPolicy(_Quiet(), kill_times=[KillFault(kill, 0)])
        engine = DatacenterEngine(
            machines,
            bindings,
            policy=policy,
            control_period=4.0,
            backend="serial" if backend == "serial" else "sharded",
            workers=2,
        )
        result = engine.run()
        assert policy.failure_times == {kill}
        assert captured_at == [8.0, kill]
        assert [(f.time, f.machine_index) for f in result.failures] == [
            (8.0, 0)
        ]
        assert engine.dead_machines == {0}

    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("sharded-2", marks=needs_fork)]
    )
    def test_failure_at_an_uncaptured_barrier_is_refused(
        self, system, backend, monkeypatch
    ):
        machines, bindings = capture_rule_pool(system)
        captured_at = spy_on_captured_barriers(monkeypatch)
        restores = []
        monkeypatch.setattr(
            HostGroup, "restore", lambda group, *args: restores.append(args)
        )
        engine = DatacenterEngine(
            machines,
            bindings,
            policy=_FailAfterItsCapture(),
            control_period=4.0,
            backend="serial" if backend == "serial" else "sharded",
            workers=2,
        )
        with pytest.raises(
            EngineError,
            match=re.escape(
                "FailMachine at t=8.0 requires this barrier's checkpoints, "
                "but none were captured"
            ),
        ):
            engine.run()
        # The t=4 capture was there to fall back on; the refusal comes
        # before any effect, so nothing was restored.
        assert captured_at == [4.0]
        assert restores == []
        assert engine.dead_machines == set()


class TestMoveRebuildGuards:
    """A migration and a failure restore land through one rebuild, so
    both refuse a binding it cannot rebuild with the same message."""

    REFUSALS = {
        "missing": "tenant 'a' has no runtime_factory; moving it to machine "
        "1 requires one to rebuild the instance there",
        "wrong-machine": "runtime_factory for tenant 'a' returned a runtime "
        "bound to the wrong machine (moving it to machine 1)",
    }

    @pytest.mark.parametrize("factory", ["missing", "wrong-machine"])
    @pytest.mark.parametrize(
        "action", [Migrate("a", 1), FailMachine(0)], ids=["migrate", "fail"]
    )
    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("sharded-2", marks=needs_fork)]
    )
    def test_unrebuildable_tenant_is_refused(
        self, system, backend, action, factory
    ):
        message = self.REFUSALS[factory]
        machines = [experiment_machine(), experiment_machine()]
        bindings = [
            make_binding(
                system,
                machines[index],
                index,
                name,
                poisson_trace(1.0, 12.0, seed=20 + index),
                seed=index,
            )
            for index, name in enumerate("ab")
        ]
        if factory == "wrong-machine":
            # Always builds on the source machine, whatever it is asked.
            bindings[0].runtime_factory = lambda machine: PowerDialRuntime(
                app=ServiceApp(),
                table=system.table,
                machine=machines[0],
                target_rate=1.0,
            )
        engine = DatacenterEngine(
            machines,
            bindings,
            policy=_MoveAtFirstBarrier(action),
            control_period=4.0,
            backend="serial" if backend == "serial" else "sharded",
            workers=2,
        )
        if backend == "serial":
            with pytest.raises(ControlError, match=re.escape(message)):
                engine.run()
        else:
            # Machine 1 is worker 1's: the destination worker's restore
            # raises, and the coordinator names that worker at the
            # barrier whose effect failed.
            with pytest.raises(
                EngineError,
                match=r"shard worker 1 \(machines \[1\]\) at barrier t=4 "
                r"failed:(.|\n)*ControlError: " + re.escape(message),
            ):
                engine.run()


class TestHotPathCalls:
    """The beat's entry points are the calls that do its work, once each.

    ``perfbench/trace.py`` counts beats, executes, items and steps by
    patching these methods by name, so a beat that skipped one (or made
    it twice) would break the traced layer counts as well.
    """

    @pytest.mark.parametrize("policy", ["sla-aware", "migrating"])
    def test_one_call_per_beat_and_per_metered_step(self, monkeypatch, policy):
        engine = tiny_scenario(policy=policy).build()
        calls = Counter()
        for owner, name in (
            (HeartbeatMonitor, "heartbeat"),
            (Machine, "execute"),
            (ServiceApp, "process_item"),
            (PowerDialRuntime, "step"),
            (TenantLedger, "charge"),
        ):

            def counted(*args, original=getattr(owner, name), name=name, **kw):
                calls[name] += 1
                return original(*args, **kw)

            monkeypatch.setattr(owner, name, counted)
        result = engine.run()
        beats = sum(len(run.columns.beat) for run in result.run_results.values())
        assert beats > 0
        assert calls["heartbeat"] == beats
        assert calls["execute"] == beats
        assert calls["process_item"] == beats
        steps = sum(binding.ledger.steps for binding in engine.bindings)
        assert calls["step"] == calls["charge"] == steps
