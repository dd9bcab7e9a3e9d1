"""Serial-vs-sharded parity and backend plumbing tests.

The sharded backend's contract is *identical results*: same seeds, same
scenario, byte-identical per-tenant reports, cap history, and pool
energy as the serial scheduler, for any worker count.  These tests pin
that contract with a contention-heavy, arbitrated, multi-machine
scenario (co-resident tenants, mixed trace shapes) plus the degenerate
worker counts (1 worker; more workers than machines).
"""

import os
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
from repro.experiments.common import experiment_machine
from repro.experiments.registry import built_service_system
from tests.datacenter.conftest import assert_same_result

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)

HORIZON = 18.0


def build_scenario(backend, workers=None, arbitrated=True):
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
    assert left.budget_watts == right.budget_watts
    for name, run in left.run_results.items():
        other = right.run_results[name]
        assert run.samples == other.samples
        assert run.outputs_by_job == other.outputs_by_job
        assert run.energy_joules == other.energy_joules
        assert run.mean_power == other.mean_power


@needs_fork
class TestShardedParity:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return build_scenario("serial").run()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_matches_serial(self, serial_result, workers):
        sharded = build_scenario("sharded", workers=workers).run()
        assert_identical(sharded, serial_result)

    def test_more_workers_than_machines_clamped(self, serial_result):
        sharded = build_scenario("sharded", workers=16).run()
        assert_identical(sharded, serial_result)

    def test_unarbitrated_parity(self):
        serial = build_scenario("serial", arbitrated=False).run()
        sharded = build_scenario("sharded", workers=2, arbitrated=False).run()
        assert_identical(sharded, serial)
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


def stray_segments():
    """The ``reproshard_*`` segments currently live in ``/dev/shm``."""
    from repro.datacenter import shard

    try:
        return [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(shard.SEGMENT_PREFIX)
        ]
    except FileNotFoundError:  # pragma: no cover - non-tmpfs hosts
        return []


@needs_fork
class TestWorkerSupervision:
    """The coordinator must detect dead and hung workers at barriers.

    The tests replace ``shard._publish_upstream`` before the engine
    forks (the fork start method inherits the patched module), so the
    failure happens inside a real worker process mid-protocol — and
    assert the supervisor raises an :class:`EngineError` naming the
    worker, its machines, and the barrier, instead of blocking forever
    on a ready flag that will never be stamped.  The death test also
    pins the shared-memory lifecycle: a run killed mid-protocol must
    still unlink every ``reproshard_*`` segment.
    """

    def test_worker_death_mid_run_is_named(self, monkeypatch):
        from repro.datacenter import shard

        real_publish = shard._publish_upstream
        state = {"published": 0}

        def dying_publish(segment, seq, records):
            # Worker 1 fail-stops on entry to its third barrier
            # publish: flag never stamped, coordinator must notice.
            if segment.name.endswith("_1_up"):
                state["published"] += 1
                if state["published"] > 2:
                    os._exit(3)
            return real_publish(segment, seq, records)

        monkeypatch.setattr(shard, "_publish_upstream", dying_publish)
        engine = build_scenario("sharded", workers=2)
        with pytest.raises(
            EngineError,
            match=r"shard worker 1 \(machines \[.*\]\) at barrier "
            r"t=\S+ died without publishing its barrier delta "
            r"\(exit code 3\)",
        ):
            engine.run()
        assert stray_segments() == []

    def test_hung_worker_is_named_with_timeout(self, monkeypatch):
        from repro.datacenter import shard

        real_publish = shard._publish_upstream

        def wedged_publish(segment, seq, records):
            # Worker 1 wedges mid-segment-write before stamping the
            # ready flag — the shared-memory half of the supervisor
            # must time out and name it.
            if segment.name.endswith("_1_up"):
                time.sleep(60.0)
            return real_publish(segment, seq, records)

        monkeypatch.setattr(shard, "_publish_upstream", wedged_publish)
        monkeypatch.setattr(shard, "_WORKER_BARRIER_TIMEOUT_SECONDS", 2.0)
        engine = build_scenario("sharded", workers=2)
        with pytest.raises(
            EngineError,
            match=r"shard worker 1 \(machines \[.*\]\) at barrier "
            r"t=\S+ hung: no barrier-ready flag \(seq \d+\) within 2s "
            r"\(pid \d+\)",
        ):
            engine.run()
        assert stray_segments() == []

    def test_death_after_stamping_flag_is_named(self, monkeypatch):
        from repro.datacenter import shard

        real_publish = shard._publish_upstream

        def stamp_then_die(segment, seq, records):
            # Worker 1 stamps its third barrier's seq header, then
            # fail-stops before its ready frame is sent: the header
            # alone must not pass for a live worker.
            count = real_publish(segment, seq, records)
            if segment.name.endswith("_1_up") and seq == 3:
                os._exit(3)
            return count

        monkeypatch.setattr(shard, "_publish_upstream", stamp_then_die)
        engine = build_scenario("sharded", workers=2)
        with pytest.raises(
            EngineError,
            match=r"shard worker 1 \(machines \[.*\]\) at barrier "
            r"t=\S+ died .*\(exit code 3\)",
        ):
            engine.run()
        assert stray_segments() == []

    def test_error_in_barrier_step_is_named(self, monkeypatch):
        from repro.datacenter import shard

        real_publish = shard._publish_upstream

        def failing_publish(segment, seq, records):
            # Worker 1 raises inside its third barrier step: it must
            # ship the traceback as an ``error`` frame in place of its
            # ready frame.
            if segment.name.endswith("_1_up") and seq == 3:
                raise RuntimeError("injected barrier-step failure")
            return real_publish(segment, seq, records)

        monkeypatch.setattr(shard, "_publish_upstream", failing_publish)
        engine = build_scenario("sharded", workers=2)
        with pytest.raises(
            EngineError,
            match=r"(?s)shard worker 1 \(machines \[.*\]\) at barrier "
            r"t=\S+ failed:\n.*RuntimeError: injected barrier-step failure",
        ):
            engine.run()
        assert stray_segments() == []


@needs_fork
class TestBlockingBarrierWait:
    """The coordinator blocks on ready frames instead of spinning."""

    def test_each_upstream_header_is_read_once(self, monkeypatch):
        from repro.datacenter import deltas, shard

        parent = os.getpid()
        reads = {"parent": 0}
        real_read_header = deltas.read_header
        real_publish = shard._publish_upstream

        def counting_read_header(buffer):
            # Forked workers inherit this wrapper; count only the
            # coordinator's reads.
            if os.getpid() == parent:
                reads["parent"] += 1
            return real_read_header(buffer)

        def slow_publish(segment, seq, records):
            # A straggler: a polling coordinator would re-read the
            # header throughout this delay.
            if segment.name.endswith("_1_up") and seq == 2:
                time.sleep(0.3)
            return real_publish(segment, seq, records)

        monkeypatch.setattr(deltas, "read_header", counting_read_header)
        monkeypatch.setattr(shard, "_publish_upstream", slow_publish)
        engine = build_scenario("sharded", workers=2)
        engine.run()
        assert reads["parent"] == 2 * engine.barrier_stats["barriers"]


@needs_fork
class TestSegmentLifecycle:
    """Shared-memory segments never outlive the run that created them."""

    def test_completed_run_leaves_no_segments(self):
        build_scenario("sharded", workers=2).run()
        assert stray_segments() == []

    def test_barrier_stats_populated(self):
        engine = build_scenario("sharded", workers=2)
        engine.run()
        stats = engine.barrier_stats
        assert stats is not None
        assert stats["barriers"] > 0
        assert stats["payload_bytes"] > 0
        assert stats["wait_seconds"] >= 0.0
        assert engine.coordinator_busy_seconds is not None
        assert engine.coordinator_busy_seconds > 0.0


class TestTransportBoundary:
    """``shard.py`` is transport and supervision only.

    The barrier loop, the barrier step and the result assembly live in
    the engine; the shard module drives a :class:`HostGroup` and reads
    public engine state.  An ``engine._<name>`` access there would mean
    engine logic leaking back into the transport.
    """

    def test_shard_reads_no_engine_private(self):
        import ast

        from repro.datacenter import shard

        with open(shard.__file__, encoding="utf-8") as source:
            tree = ast.parse(source.read())
        leaks = [
            f"line {node.lineno}: engine.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id == "engine"
        ]
        assert leaks == []
