"""Only "no power samples yet" is an expected meter failure.

Every reader of ``PowerMeter.mean_power()`` that falls back to a default
does so for :class:`~repro.hardware.power.PowerError` alone, the error a
meter raises before its first 1 Hz sample.  Any other exception is a
bug and must propagate instead of turning into a silent default.
"""

import pytest

from repro.core.powerdial import build_powerdial, measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter import (
    DatacenterEngine,
    InstanceBinding,
    LatencySLA,
    ServiceApp,
    TenantSpec,
    poisson_trace,
    request_stream,
    service_training_jobs,
)
from repro.datacenter.shard import _final_payload
from repro.experiments.common import experiment_machine


class MeterBug(RuntimeError):
    """Stands in for any failure that is not "no samples yet"."""


def broken_mean_power():
    raise MeterBug("meter exploded")


@pytest.fixture(scope="module")
def system():
    return build_powerdial(ServiceApp, service_training_jobs(), trace_iterations=2)


def service_runtime(system, cls=PowerDialRuntime):
    machine = experiment_machine()
    target = measure_baseline_rate(ServiceApp, service_training_jobs()[0], machine)
    return cls(app=ServiceApp(), table=system.table, machine=machine, target_rate=target)


def one_tenant_engine(system, machines, horizon=12.0):
    spec = TenantSpec(
        name="a",
        trace=poisson_trace(1.0, horizon, seed=1),
        sla=LatencySLA(latency_bound=1.0, attainment_target=0.9),
        job_factory=request_stream(seed=0),
    )
    target = measure_baseline_rate(ServiceApp, service_training_jobs()[0], machines[0])
    runtime = PowerDialRuntime(
        app=ServiceApp(), table=system.table, machine=machines[0], target_rate=target
    )
    binding = InstanceBinding(tenant=spec, runtime=runtime, machine_index=0)
    return DatacenterEngine(machines, [binding])


@pytest.mark.parametrize("cls", [PowerDialRuntime])
class TestRuntimeResult:
    def test_short_run_has_no_mean_power(self, system, cls):
        runtime = service_runtime(system, cls)
        result = runtime.run([[1.0, 2.0]])
        assert result.mean_power is None

    def test_other_meter_errors_propagate(self, system, cls):
        runtime = service_runtime(system, cls)
        runtime.machine.meter.mean_power = broken_mean_power
        with pytest.raises(MeterBug):
            runtime.run([[1.0, 2.0]])


class TestEngineResult:
    def test_unsampled_machines_report_zero(self, system):
        """Shorter than one meter interval: no samples anywhere."""
        machines = [experiment_machine(), experiment_machine()]
        result = one_tenant_engine(system, machines, horizon=0.5).run()
        assert all(machine.now < 1.0 for machine in machines)
        assert result.machine_mean_power == [0.0, 0.0]

    def test_other_meter_errors_propagate(self, system):
        machines = [experiment_machine(), experiment_machine()]
        # Machine 1 hosts nobody: only the result collection reads it.
        machines[1].meter.mean_power = broken_mean_power
        with pytest.raises(MeterBug):
            one_tenant_engine(system, machines).run()


class TestShardFinalPayload:
    def test_unsampled_machine_reports_zero(self, system):
        engine = one_tenant_engine(system, [experiment_machine()])
        payload = _final_payload(engine, [0], [], 0.0)
        assert payload["machine_power"] == {0: 0.0}

    def test_other_meter_errors_propagate(self, system):
        engine = one_tenant_engine(system, [experiment_machine()])
        engine.machines[0].meter.mean_power = broken_mean_power
        with pytest.raises(MeterBug):
            _final_payload(engine, [0], [], 0.0)
