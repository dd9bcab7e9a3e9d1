"""Benchmark E-DC: the datacenter subsystem at paper scale.

Three committed artifacts:

* ``datacenter`` — the headline static-vs-arbitrated tenant mix;
* ``datacenter_sweep`` — SLA attainment across utilization x budget x
  tenant mix, the scenario space the subsystem opens;
* ``datacenter_closed_form`` — the event-driven engine cross-validated
  against the §5.5 closed-form ``cluster.evaluate_system`` power model
  at matching utilization points.

The engine's host speed is measured by ``perfbench/`` and gated by
``tools/perf_gate.py``, not here.
"""

import pytest

from repro.cluster.system import ClusterSpec, evaluate_system
from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter.engine import DatacenterEngine, InstanceBinding
from repro.datacenter.service import (
    ServiceApp,
    request_stream,
    service_training_jobs,
)
from repro.datacenter.tenants import LatencySLA, TenantSpec
from repro.datacenter.traffic import poisson_trace
from repro.experiments import (
    Scale,
    built_service_system,
    experiment_machine,
    format_datacenter,
    format_table,
    run_datacenter,
)
from repro.experiments.datacenter import TenantScenario, default_tenant_mix


class TestDatacenterArbitration:
    def test_arbiter_beats_static_split(self, artifact):
        experiment = run_datacenter(Scale.PAPER)
        text = format_datacenter(experiment)
        artifact("datacenter", text)

        # Hard budget compliance under both policies.
        assert experiment.static.total_mean_power <= experiment.budget_watts
        assert (
            experiment.arbitrated.total_mean_power <= experiment.budget_watts
        )
        # Reallocation demonstrably helps at least one tenant's SLA.
        name, delta = experiment.best_improvement()
        assert delta > 0.0, "arbiter should improve some tenant's attainment"
        assert experiment.arbitrated.slas_met() >= experiment.static.slas_met()
        # The knob-poor tenant specifically must not get worse.
        assert experiment.attainment_delta("billing") > -0.02


class TestScenarioSweep:
    def test_utilization_budget_mix_sweep(self, artifact):
        rows = []
        improvements = []
        for mix_name, billing_cap in (("mixed", 0.0), ("all-knobbed", None)):
            for billing_rate in (2.2, 2.8):
                for budget in (390.0, 420.0):
                    tenants = tuple(
                        TenantScenario(
                            name=t.name,
                            machine_index=t.machine_index,
                            trace_kind=t.trace_kind,
                            rate=billing_rate if t.name == "billing" else t.rate,
                            qos_cap=(
                                billing_cap if t.name == "billing" else t.qos_cap
                            ),
                            latency_bound=t.latency_bound,
                            attainment_target=t.attainment_target,
                            weight=t.weight,
                            seed=t.seed,
                        )
                        for t in default_tenant_mix()
                    )
                    experiment = run_datacenter(
                        Scale.PAPER, budget_watts=budget, tenants=tenants
                    )
                    assert (
                        experiment.static.total_mean_power <= budget
                    ), "static split exceeded budget"
                    assert (
                        experiment.arbitrated.total_mean_power <= budget
                    ), "arbiter exceeded budget"
                    name, delta = experiment.best_improvement()
                    improvements.append(delta)
                    static_b = experiment.static.report_for("billing")
                    arb_b = experiment.arbitrated.report_for("billing")
                    rows.append(
                        [
                            mix_name,
                            f"{billing_rate:.1f}",
                            f"{budget:.0f}",
                            f"{experiment.static.total_mean_power:.0f}",
                            f"{experiment.arbitrated.total_mean_power:.0f}",
                            f"{static_b.attainment:.3f}",
                            f"{arb_b.attainment:.3f}",
                            f"{experiment.static.slas_met()}",
                            f"{experiment.arbitrated.slas_met()}",
                            f"{name} {delta:+.3f}",
                        ]
                    )
        text = "Datacenter scenario sweep (utilization x budget x mix)\n" + (
            format_table(
                [
                    "mix",
                    "billing r/s",
                    "budget W",
                    "static W",
                    "arb W",
                    "billing att s",
                    "billing att a",
                    "SLAs s",
                    "SLAs a",
                    "best gain",
                ],
                rows,
            )
        )
        artifact("datacenter_sweep", text)
        # Across the sweep the arbiter must help somewhere substantial.
        assert max(improvements) > 0.02


class TestClosedFormValidation:
    def test_engine_power_matches_cluster_model(self, artifact):
        """Event-driven power ≈ §5.5 closed form at matching utilization."""
        system = built_service_system()
        machines_count = 2
        horizon = 150.0
        spec = ClusterSpec(machines=machines_count, slots_per_machine=1)
        rows = []
        for utilization in (0.2, 0.5, 0.8):
            machines = [experiment_machine() for _ in range(machines_count)]
            target = measure_baseline_rate(
                ServiceApp, service_training_jobs()[0], machines[0]
            )
            items = 5
            request_rate = utilization * target / items
            bindings = []
            for index in range(machines_count):
                runtime = PowerDialRuntime(
                    app=ServiceApp(),
                    table=system.table,
                    machine=machines[index],
                    target_rate=target,
                )
                spec_t = TenantSpec(
                    name=f"uniform-{index}",
                    trace=poisson_trace(
                        request_rate, horizon, seed=50 + index
                    ),
                    sla=LatencySLA(2.0, 0.5),
                    job_factory=request_stream(
                        seed=60 + index, items_per_request=items
                    ),
                )
                bindings.append(
                    InstanceBinding(
                        tenant=spec_t, runtime=runtime, machine_index=index
                    )
                )
            result = DatacenterEngine(machines, bindings).run()
            closed = evaluate_system(spec, utilization * machines_count)
            rows.append(
                [
                    f"{utilization:.1f}",
                    f"{closed.power_watts:.1f}",
                    f"{result.total_mean_power:.1f}",
                    f"{100 * (result.total_mean_power / closed.power_watts - 1):+.1f}",
                ]
            )
            assert result.total_mean_power == pytest.approx(
                closed.power_watts, rel=0.10
            )
        text = (
            "Closed-form cluster model vs event-driven engine "
            "(2 machines, uniform Poisson load)\n"
            + format_table(
                ["utilization", "closed-form W", "engine W", "error %"], rows
            )
        )
        artifact("datacenter_closed_form", text)
