"""Billing attribution tests: conservation, backend identity, ledgers.

The billing contract has two halves:

* **Conservation** — on every backend, the per-tenant billed
  watt-seconds plus the unattributed idle energy reproduce the metered
  pool energy (1e-9 relative; in practice float-reordering noise,
  ~1e-16), including across mid-run arbiter speed reallocations.
* **Backend identity** — serial and sharded runs of the same scenario
  produce byte-identical bills for any worker count.
"""

from types import SimpleNamespace

import pytest

from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter import (
    CONSERVATION_TOLERANCE,
    BillingError,
    DatacenterEngine,
    InstanceBinding,
    LatencySLA,
    PowerArbiter,
    ServiceApp,
    TenantLedger,
    TenantSpec,
    burst_trace,
    fork_available,
    poisson_trace,
    request_stream,
    service_training_jobs,
)
from repro.datacenter.billing import qos_loss_seconds
from repro.experiments.common import experiment_machine
from repro.experiments.registry import built_service_system

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)

HORIZON = 16.0


def build_scenario(backend, workers=None):
    """3 machines, 5 tenants, arbitrated under a tight budget.

    Machine 0 is heavily loaded by a knob-poor tenant so its SLA
    shortfall forces the arbiter to reallocate caps mid-run (the
    billing-under-speed-change case), while machines 1-2 host knobbed
    tenants with slack.
    """
    system = built_service_system()
    machines = [experiment_machine() for _ in range(3)]
    target = measure_baseline_rate(
        ServiceApp, service_training_jobs()[0], machines[0]
    )
    placements = [0, 0, 1, 2, 2]
    traces = [
        poisson_trace(2.8, HORIZON, seed=41),
        poisson_trace(1.0, HORIZON, seed=42),
        burst_trace(0.3, 2.0, HORIZON, burst_every=6.0, burst_length=2.5, seed=43),
        poisson_trace(0.8, HORIZON, seed=44),
        poisson_trace(0.5, HORIZON, seed=45),
    ]
    bindings = []
    for index, (machine_index, trace) in enumerate(zip(placements, traces)):
        qos_cap = 0.0 if index == 0 else None
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
            sla=LatencySLA(latency_bound=0.8, attainment_target=0.95),
            job_factory=request_stream(seed=500 + index),
            qos_cap=qos_cap,
            weight=3.0 if index == 0 else 1.0,
            max_queue_depth=6,
        )
        bindings.append(
            InstanceBinding(tenant=spec, runtime=runtime, machine_index=machine_index)
        )
    policy = PowerArbiter(570.0, machines, gain=10.0)
    return DatacenterEngine(
        machines,
        bindings,
        policy=policy,
        control_period=4.0,
        backend=backend,
        workers=workers,
    )


def assert_conserved(result):
    summary = result.energy_conservation()
    assert summary["rel_error"] <= CONSERVATION_TOLERANCE, summary
    assert summary["billed_energy_joules"] > 0.0
    assert summary["unattributed_idle_joules"] >= 0.0


class TestConservation:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return build_scenario("serial").run()

    def test_serial_energy_conserved(self, serial_result):
        assert_conserved(serial_result)

    def test_conserved_across_mid_run_reallocation(self, serial_result):
        """The arbiter actually moved caps mid-run, and billing held."""
        caps = {tuple(caps) for _, caps in serial_result.cap_history}
        assert len(caps) >= 2, "scenario did not exercise a reallocation"
        assert_conserved(serial_result)

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_energy_conserved_and_identical(self, serial_result, workers):
        sharded = build_scenario("sharded", workers=workers).run()
        assert_conserved(sharded)
        assert sharded.bills == serial_result.bills
        assert sharded.idle_energy_joules == serial_result.idle_energy_joules

    def test_bill_contents(self, serial_result):
        assert [b.tenant for b in serial_result.bills] == [
            f"tenant-{i}" for i in range(5)
        ]
        knob_poor = serial_result.bill_for("tenant-0")
        # Exact service: its table is baseline-only, so no QoS loss ever.
        assert knob_poor.qos_loss_seconds == 0.0
        assert knob_poor.mean_qos_loss == 0.0
        # The overloaded knob-poor tenant is the pool's big spender.
        assert knob_poor.energy_joules == max(
            b.energy_joules for b in serial_result.bills
        )
        for bill in serial_result.bills:
            assert bill.busy_seconds >= 0.0
            assert bill.offered == bill.admitted + bill.rejected
            assert bill.completed <= bill.admitted

    def test_busy_time_bounded_by_pool_time(self, serial_result):
        total_busy = sum(b.busy_seconds for b in serial_result.bills)
        assert total_busy <= serial_result.makespan * 3 + 1e-9

    def test_bill_to_dict_roundtrips_fields(self, serial_result):
        bill = serial_result.bills[0]
        payload = bill.to_dict()
        assert payload["tenant"] == bill.tenant
        assert payload["energy_joules"] == bill.energy_joules
        assert payload["qos_loss_seconds"] == bill.qos_loss_seconds
        assert set(payload) == {
            "tenant",
            "machine_index",
            "offered",
            "admitted",
            "rejected",
            "completed",
            "busy_seconds",
            "energy_joules",
            "qos_loss_seconds",
            "mean_qos_loss",
            "attainment",
            "sla_met",
        }

    def test_pre_run_meter_energy_goes_unattributed(self):
        engine = build_scenario("serial")
        # A machine that burned energy before the scenario (e.g. reused
        # after calibration) must not have it billed to any tenant.
        engine.machines[0].idle(2.0)
        pre_run = engine.machines[0].meter.energy_joules
        assert pre_run > 0.0
        result = engine.run()
        assert_conserved(result)
        assert result.unattributed_idle_joules >= pre_run


class TestLedger:
    def test_charge_accumulates(self):
        ledger = TenantLedger()
        ledger.charge(2.5, 0.5)
        ledger.charge(0.0, 0.0)
        assert ledger.energy_joules == 2.5
        assert ledger.busy_seconds == 0.5
        assert ledger.steps == 2

    def test_negative_charges_rejected(self):
        ledger = TenantLedger()
        with pytest.raises(BillingError):
            ledger.charge(-1.0, 0.1)
        with pytest.raises(BillingError):
            ledger.charge(1.0, -0.1)


class _FakeSetting:
    def __init__(self, qos_loss):
        self.qos_loss = qos_loss


class _FakeRun:
    """Just the two per-beat columns billing reads."""

    def __init__(self, times, losses):
        self.columns = SimpleNamespace(
            time=list(times), setting=[_FakeSetting(q) for q in losses]
        )


class TestQosLossIntegral:
    def test_mismatched_run_rejected(self):
        with pytest.raises(BillingError):
            qos_loss_seconds(_FakeRun([0.0, 1.0], [0.0]))

    def test_interval_weighted_by_executing_setting(self):
        """A beat timestamps the START of its item: interval (t[i],
        t[i+1]] ran under settings[i].  Baseline item over [0, 1),
        degraded (0.5 loss) item over [1, 3): 0*1 + 0.5*2 = 1.0 —
        the reversed (off-by-one) weighting would give 0.5."""
        run = _FakeRun([0.0, 1.0, 3.0], [0.0, 0.5, 0.0])
        assert qos_loss_seconds(run) == pytest.approx(1.0)

    def test_single_or_empty_run_integrates_zero(self):
        assert qos_loss_seconds(_FakeRun([], [])) == 0.0
        assert qos_loss_seconds(_FakeRun([2.0], [0.7])) == 0.0
