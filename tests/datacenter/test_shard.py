"""Serial-vs-sharded parity and backend plumbing tests.

The sharded backend's contract is *identical results*: same seeds, same
scenario, byte-identical per-tenant reports, cap history, and pool
energy as the serial scheduler, for any worker count.  These tests pin
that contract with a contention-heavy, arbitrated, multi-machine
scenario (co-resident tenants, mixed trace shapes) plus the degenerate
worker counts (1 worker; more workers than machines).
"""

import os
import re
import time

import pytest

from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter import (
    DatacenterEngine,
    EngineError,
    InstanceBinding,
    LatencySLA,
    PowerArbiter,
    ServiceApp,
    TenantSpec,
    burst_trace,
    fork_available,
    partition_machines,
    poisson_trace,
    request_stream,
    service_training_jobs,
)
from repro.datacenter.engine import HostGroup
from repro.datacenter.journal import JournalWriter
from repro.experiments.common import experiment_machine
from repro.experiments.registry import built_service_system
from tests.datacenter.conftest import assert_same_result
from tests.datacenter.test_controlplane import build_migration_scenario

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)

HORIZON = 18.0


def build_scenario(backend, workers=None, arbitrated=True, journal=None):
    """4 machines, 6 tenants (2 machines doubly loaded), mixed traffic."""
    system = built_service_system()
    machines = [experiment_machine() for _ in range(4)]
    target = measure_baseline_rate(
        ServiceApp, service_training_jobs()[0], machines[0]
    )
    placements = [0, 0, 1, 2, 2, 3]
    traces = [
        poisson_trace(2.0, HORIZON, seed=21),
        burst_trace(0.3, 2.5, HORIZON, burst_every=8.0, burst_length=3.0, seed=22),
        poisson_trace(2.6, HORIZON, seed=23),
        poisson_trace(1.2, HORIZON, seed=24),
        burst_trace(0.2, 2.0, HORIZON, burst_every=9.0, burst_length=4.0, seed=25),
        poisson_trace(0.4, HORIZON, seed=26),
    ]
    bindings = []
    for index, (machine_index, trace) in enumerate(zip(placements, traces)):
        qos_cap = 0.0 if index == 2 else None
        table = (
            system.table if qos_cap is None else system.table.with_qos_cap(qos_cap)
        )
        runtime = PowerDialRuntime(
            app=ServiceApp(),
            table=table,
            machine=machines[machine_index],
            target_rate=target,
        )
        spec = TenantSpec(
            name=f"tenant-{index}",
            trace=trace,
            sla=LatencySLA(latency_bound=1.0, attainment_target=0.9),
            job_factory=request_stream(seed=300 + index),
            qos_cap=qos_cap,
            max_queue_depth=8,
        )
        bindings.append(
            InstanceBinding(tenant=spec, runtime=runtime, machine_index=machine_index)
        )
    policy = (
        PowerArbiter(780.0, machines, gain=8.0) if arbitrated else None
    )
    return DatacenterEngine(
        machines,
        bindings,
        policy=policy,
        control_period=5.0,
        backend=backend,
        workers=workers,
        journal=journal,
    )


@needs_fork
class TestShardedParity:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return build_scenario("serial").run()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_matches_serial(self, serial_result, workers):
        sharded = build_scenario("sharded", workers=workers).run()
        assert_same_result(sharded, serial_result)

    def test_more_workers_than_machines_clamped(self, serial_result):
        sharded = build_scenario("sharded", workers=16).run()
        assert_same_result(sharded, serial_result)

    def test_unarbitrated_parity(self):
        serial = build_scenario("serial", arbitrated=False).run()
        sharded = build_scenario("sharded", workers=2, arbitrated=False).run()
        assert_same_result(sharded, serial)
        assert serial.cap_history == []

    def test_parent_bindings_reflect_worker_stats(self):
        engine = build_scenario("sharded", workers=2)
        result = engine.run()
        for binding, report in zip(engine.bindings, result.tenant_reports):
            assert binding.stats.offered == report.offered
            assert len(binding.stats.completions) == report.completed

    def test_shard_busy_telemetry_populated(self):
        engine = build_scenario("sharded", workers=2)
        engine.run()
        assert engine.shard_busy_seconds is not None
        assert len(engine.shard_busy_seconds) == 2
        assert all(busy > 0.0 for busy in engine.shard_busy_seconds)


class TestPartitioning:
    def test_round_robin_partition(self):
        assert partition_machines(5, 2) == [[0, 2, 4], [1, 3]]
        assert partition_machines(3, 3) == [[0], [1], [2]]

    def test_workers_clamped_to_machines(self):
        assert partition_machines(2, 8) == [[0], [1]]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            partition_machines(4, 0)


class TestBackendValidation:
    def test_unknown_backend_rejected(self):
        machines = [experiment_machine()]
        system = built_service_system()
        target = measure_baseline_rate(
            ServiceApp, service_training_jobs()[0], machines[0]
        )
        runtime = PowerDialRuntime(
            app=ServiceApp(),
            table=system.table,
            machine=machines[0],
            target_rate=target,
        )
        spec = TenantSpec(
            name="t",
            trace=poisson_trace(1.0, 5.0, seed=1),
            sla=LatencySLA(1.0, 0.9),
            job_factory=request_stream(seed=1),
        )
        binding = InstanceBinding(tenant=spec, runtime=runtime, machine_index=0)
        with pytest.raises(EngineError):
            DatacenterEngine(machines, [binding], backend="threads")
        with pytest.raises(EngineError):
            DatacenterEngine(machines, [binding], backend="sharded", workers=0)


def inject(mode):
    """Fail the calling worker: fail-stop, wedge, or raise."""
    if mode == "die":
        os._exit(3)
    if mode == "wedge":
        time.sleep(60.0)
    raise RuntimeError("injected worker failure")


# What the coordinator reports for each injected failure, awaiting
# ``frame`` from the worker.
OUTCOMES = {
    "die": r"died without sending its '{frame}' message \(exit code 3\)",
    "wedge": r"hung: no '{frame}' message within 2s \(pid \d+\)",
    "raise": r"failed:\n.*RuntimeError: injected worker failure",
}
MODES = sorted(OUTCOMES)


def names_worker(worker, machines, barrier, mode, frame):
    """The :class:`EngineError` that names the failed worker."""
    return pytest.raises(
        EngineError,
        match=(
            rf"(?s)shard worker {worker} \(machines {re.escape(str(machines))}\) "
            rf"at barrier t={barrier:g} " + OUTCOMES[mode].format(frame=frame)
        ),
    )


@needs_fork
class TestWorkerSupervision:
    """The coordinator names dead, hung and failing workers.

    Each test patches one :class:`HostGroup` method before the engine
    forks (the fork start method inherits the patched class), so the
    failure happens inside a real worker process at one protocol phase:
    ``settle`` before its ``ready`` frame, ``kill`` after its ``plan``
    frame, ``emigrate`` inside the ``migrants`` exchange.  Every case
    must raise an :class:`EngineError` naming the worker, its machines
    and the barrier, instead of blocking forever.  In
    :func:`build_scenario` the barriers fall at t=5, 10 and 15, and
    worker 1 of 2 owns machines 1 and 3.
    """

    @pytest.fixture
    def fail(self, monkeypatch):
        """``fail(method, mode, when)``: make ``HostGroup.<method>``
        fail in any worker where ``when(group, *args)`` holds."""
        from repro.datacenter import shard

        parent = os.getpid()

        def arm(method, mode, when):
            real = getattr(HostGroup, method)

            def failing(group, *args):
                if os.getpid() != parent and when(group, *args):
                    inject(mode)
                return real(group, *args)

            monkeypatch.setattr(HostGroup, method, failing)
            monkeypatch.setattr(shard, "_WORKER_BARRIER_TIMEOUT_SECONDS", 2.0)

        return arm

    @staticmethod
    def settling(until):
        """Worker 1 settling to barrier ``until``."""
        return lambda group, now: group.machine_indices == [1, 3] and now == until

    def test_worker_death_mid_run_is_named(self, fail):
        fail("settle", "die", self.settling(15.0))
        with names_worker(1, [1, 3], 15.0, "die", "ready"):
            build_scenario("sharded", workers=2).run()

    def test_hung_worker_is_named_with_timeout(self, fail):
        fail("settle", "wedge", self.settling(15.0))
        with names_worker(1, [1, 3], 15.0, "wedge", "ready"):
            build_scenario("sharded", workers=2).run()

    def test_error_in_barrier_step_is_named(self, fail):
        fail("settle", "raise", self.settling(15.0))
        with names_worker(1, [1, 3], 15.0, "raise", "ready"):
            build_scenario("sharded", workers=2).run()

    @pytest.mark.parametrize("mode", MODES)
    def test_failure_after_plan_is_named(self, fail, mode):
        # Worker 1 fails applying its second barrier's plan (t=10); the
        # coordinator finds out awaiting its next ready frame (t=15).  A
        # raise is named at t=10, the barrier its error frame reports; a
        # death or a wedge leaves no report, so it is named at t=15.
        kills = []

        def second_plan(group, dead):
            if group.machine_indices != [1, 3]:
                return False
            kills.append(dead)
            return len(kills) == 2

        fail("kill", mode, second_plan)
        barrier = 10.0 if mode == "raise" else 15.0
        with names_worker(1, [1, 3], barrier, mode, "ready"):
            build_scenario("sharded", workers=2).run()

    @pytest.mark.parametrize("mode", MODES)
    def test_failure_in_migrants_exchange_is_named(self, fail, mode):
        # The scenario's one migration moves t0 off machine 0 (worker 0
        # of 2, which owns machines 0 and 2) at t=8.
        fail("emigrate", mode, lambda group, record: True)
        with names_worker(0, [0, 2], 8.0, mode, "migrants"):
            build_migration_scenario("sharded", workers=2).run()


@needs_fork
class TestReadyFrameGuard:
    """Every binding's view arrives exactly once per barrier."""

    def corrupt_views(self, monkeypatch, corrupt):
        parent = os.getpid()
        real = HostGroup.views

        def views(group, now):
            shipped = real(group, now)
            if os.getpid() != parent and group.machine_indices == [1, 3]:
                return corrupt(shipped)
            return shipped

        monkeypatch.setattr(HostGroup, "views", views)

    def test_missing_binding_is_a_protocol_error(self, monkeypatch):
        # Worker 1 hosts tenant-2 (machine 1) and tenant-5 (machine 3).
        self.corrupt_views(monkeypatch, lambda shipped: [])
        with pytest.raises(
            EngineError,
            match=r"no worker sent bindings \[2, 5\] at barrier t=5",
        ):
            build_scenario("sharded", workers=2).run()

    def test_duplicate_binding_is_a_protocol_error(self, monkeypatch):
        self.corrupt_views(monkeypatch, lambda shipped: shipped + shipped[:1])
        with pytest.raises(
            EngineError, match=r"binding 2 sent twice at barrier t=5"
        ):
            build_scenario("sharded", workers=2).run()


@needs_fork
class TestWireTelemetry:
    """``barrier_stats`` counts every frame the coordinator pickles."""

    def test_barrier_stats_populated(self):
        engine = build_scenario("sharded", workers=2)
        engine.run()
        stats = engine.barrier_stats
        assert stats is not None
        assert stats["barriers"] > 0
        assert stats["payload_bytes"] > 0
        assert stats["serialize_seconds"] > 0.0
        assert stats["wait_seconds"] >= 0.0
        assert engine.coordinator_busy_seconds is not None
        assert engine.coordinator_busy_seconds > 0.0

    def test_checkpoints_are_counted_on_the_wire(self, tmp_path):
        # A journal makes every barrier ship checkpoints in its ready
        # frames; the run's results are otherwise the same.
        plain = build_scenario("sharded", workers=2)
        plain.run()
        with JournalWriter(str(tmp_path / "run.ndjson"), {}) as journal:
            journaled = build_scenario("sharded", workers=2, journal=journal)
            journaled.run()
        assert journaled.barrier_stats["barriers"] == plain.barrier_stats["barriers"]
        assert (
            journaled.barrier_stats["payload_bytes"]
            > plain.barrier_stats["payload_bytes"]
        )


class TestTransportBoundary:
    """No module outside ``engine.py`` reads an engine private.

    The barrier loop, the barrier step and the result assembly live in
    the engine; the shard transport drives a :class:`HostGroup`, the
    applier works on data and machines, and the fault injector on
    views and caps, all through public engine state.  An
    ``engine._<name>`` access there would mean engine logic leaking out
    of the engine.
    """

    def test_shard_reads_no_engine_private(self):
        import ast

        from repro.datacenter import faults, shard
        from repro.datacenter.controlplane import applier

        leaks = []
        for module in (shard, applier, faults):
            with open(module.__file__, encoding="utf-8") as source:
                tree = ast.parse(source.read())
            leaks.extend(
                f"{module.__name__} line {node.lineno}: engine.{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id == "engine"
            )
        assert leaks == []
