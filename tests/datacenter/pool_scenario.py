"""Seeded datacenter pool scenarios shared by the engine tests.

One scenario family, parameterized by pool size: ``machines`` servers,
one Poisson-driven :class:`~repro.datacenter.service.ServiceApp` tenant
per machine at modest utilization.  Mostly-idle pools are exactly the
regime the lazy scheduler targets (an idle machine costs nothing per
event), and one tenant per machine keeps the virtual workload identical
across pool sizes.

Seven scenario kinds:

* ``open`` — no control policy, pure event scheduling;
* ``arbitrated`` — an SLA-aware cap policy at every barrier;
* ``budget_shock`` — arbitrated plus a fleet-wide budget drop at a
  third of the horizon and recovery at two-thirds (the §5.4 cap event
  fleet-wide, via the control plane's ``SetBudget`` path);
* ``consolidation`` — diurnal traffic (trough at both ends of the
  horizon, peak mid-run) under the ``consolidating`` policy: tenants
  get packed onto fewer machines with warm migrations in the troughs,
  parked machines sit at their cap floor, and the peak spreads them
  back out;
* ``chaos`` — arbitrated plus seeded mid-run machine kills
  (:class:`~repro.datacenter.controlplane.policy.ChaosPolicy`): a
  victim machine fail-stops at each kill barrier and its tenants are
  rebuilt on survivors from that barrier's checkpoints;
* ``scale`` — hierarchical arbitration (``hier-arbitrated``) at a low
  per-tenant rate, the large-pool configuration;
* ``grayfail`` — arbitrated plus a full seeded
  :class:`~repro.datacenter.faults.FaultPlan`: sensor dropout windows,
  actuator drop windows, a straggler, and one fail-stop kill, with the
  policy stack wrapped in a :class:`~repro.datacenter.controlplane.
  policy.DegradedModePolicy`.

Scenarios are fully seeded: the same :class:`PoolScenario` always
builds the same traces, requests, calibration and faults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter.controlplane import (
    BudgetSchedule,
    build_policy,
    inject_failures,
)
from repro.datacenter.engine import DatacenterEngine, InstanceBinding
from repro.datacenter.faults import FaultPlan
from repro.datacenter.service import (
    ServiceApp,
    request_stream,
    service_training_jobs,
)
from repro.datacenter.tenants import LatencySLA, TenantSpec
from repro.datacenter.traffic import diurnal_trace, poisson_trace
from repro.experiments.common import experiment_machine
from repro.experiments.registry import built_service_system

BUDGET_WATTS_PER_MACHINE = 200.0
"""Arbitrated-scenario budget per machine (floor ~183 W, ceiling 220 W)."""

SHOCK_FRACTION = 0.94
"""Budget-shock level as a fraction of the base budget (stays above the
pool's cap floor at :data:`BUDGET_WATTS_PER_MACHINE`)."""

CONSOLIDATION_PEAK_FACTOR = 2.5
"""Diurnal peak rate of the consolidation scenario, as a multiple of the
scenario's base ``rate`` (the trough sits at a tenth of the peak, so the
quiet ends of the horizon trigger packing and the peak spreads back)."""


@dataclass(frozen=True)
class PoolScenario:
    """One seeded engine scenario.

    Attributes:
        machines: Pool size (one tenant per machine).
        horizon: Trace duration in virtual seconds.
        rate: Per-tenant Poisson arrival rate (requests/second).
        arbitrated: Whether a cap policy runs (adds barrier ticks).
        control_period: Seconds between control barriers when a policy
            runs.
        budget_shock: Whether the global budget drops to
            :data:`SHOCK_FRACTION` of its base at ``horizon/3`` and
            recovers at ``2*horizon/3`` (implies a policy runs).
        consolidation: Whether tenants ride a diurnal trough (peak
            :data:`CONSOLIDATION_PEAK_FACTOR` × ``rate`` mid-horizon)
            under the ``consolidating`` warm-migration policy instead
            of steady Poisson traffic (implies a policy runs).
        chaos_kills: How many machines fail-stop mid-run at seeded
            instants, their tenants rebuilt on survivors from barrier
            checkpoints (implies a policy runs; 0 disables).
        chaos_seed: Seed for the kill schedule and victim choice.
        grayfail: Whether a full seeded gray-failure plan runs (sensor
            dropouts, actuator drops, a straggler, one kill — see
            :meth:`fault_plan`) under a degraded-mode policy wrapper
            (implies a policy runs).
        hier: Whether the ``hier-arbitrated`` two-level water-fill
            policy runs instead of the flat SLA-aware arbiter (implies
            a policy runs).  Labeled ``scale-{machines}m`` — the
            standing large-pool scenario.
    """

    machines: int
    horizon: float = 30.0
    rate: float = 0.4
    arbitrated: bool = False
    control_period: float = 10.0
    budget_shock: bool = False
    consolidation: bool = False
    chaos_kills: int = 0
    chaos_seed: int = 7
    grayfail: bool = False
    hier: bool = False

    @property
    def label(self) -> str:
        """Stable scenario name: its kind and pool size."""
        if self.hier:
            return f"scale-{self.machines}m"
        if self.grayfail:
            return f"grayfail-{self.machines}m"
        if self.chaos_kills:
            return f"chaos-{self.machines}m"
        if self.consolidation:
            return f"consolidation-{self.machines}m"
        if self.budget_shock:
            return f"budget_shock-{self.machines}m"
        kind = "arbitrated" if self.arbitrated else "open"
        return f"{kind}-{self.machines}m"

    @property
    def budget_watts(self) -> float:
        """Base fleet budget when a policy runs."""
        return BUDGET_WATTS_PER_MACHINE * self.machines

    def tenant_trace(self, index: int):
        """The (seeded) arrival trace of tenant ``index``."""
        if self.consolidation:
            # One full quiet-busy-quiet cycle: troughs at both ends of
            # the horizon (pack), peak mid-run (spread).
            return diurnal_trace(
                CONSOLIDATION_PEAK_FACTOR * self.rate,
                self.horizon,
                period=self.horizon,
                trough_fraction=0.1,
                seed=index,
                name="bench-diurnal",
            )
        return poisson_trace(self.rate, self.horizon, seed=index, name="bench")

    def budget_schedule(self) -> BudgetSchedule | None:
        """The shock schedule (drop then recover), or None."""
        if not self.budget_shock:
            return None
        return BudgetSchedule(
            (
                (self.horizon / 3.0, SHOCK_FRACTION * self.budget_watts),
                (2.0 * self.horizon / 3.0, self.budget_watts),
            )
        )

    def fault_plan(self) -> FaultPlan | None:
        """The seeded gray-failure plan, or None unless ``grayfail``.

        A pure function of the scenario (seeded by ``chaos_seed``), so
        the same :class:`PoolScenario` always injects the same faults.
        """
        if not self.grayfail:
            return None
        return FaultPlan.generate(
            horizon=self.horizon,
            machines=self.machines,
            seed=self.chaos_seed,
            kills=1,
            sensor_dropouts=2,
            actuator_drops=2,
            stragglers=1,
            unresponsive_after=4.0,
            reintegrate=5.0,
        )


def build_pool_engine(
    scenario: PoolScenario,
    backend: str = "serial",
    workers: int | None = None,
) -> DatacenterEngine:
    """Materialize a fresh engine for ``scenario`` (engines are one-shot)."""
    system = built_service_system()
    machines = [experiment_machine() for _ in range(scenario.machines)]
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
    for index in range(scenario.machines):
        spec = TenantSpec(
            name=f"tenant-{index}",
            trace=scenario.tenant_trace(index),
            sla=LatencySLA(latency_bound=1.0, attainment_target=0.9),
            job_factory=request_stream(seed=1000 + index),
        )
        bindings.append(
            InstanceBinding(
                tenant=spec,
                runtime=make_runtime(machines[index]),
                machine_index=index,
                runtime_factory=make_runtime,
            )
        )
    policy = None
    if scenario.consolidation:
        policy = build_policy(
            "consolidating",
            scenario.budget_watts,
            machines,
            schedule=scenario.budget_schedule(),
        )
    elif scenario.hier:
        policy = build_policy(
            "hier-arbitrated",
            scenario.budget_watts,
            machines,
            schedule=scenario.budget_schedule(),
        )
    elif (
        scenario.arbitrated
        or scenario.budget_shock
        or scenario.chaos_kills
        or scenario.grayfail
    ):
        policy = build_policy(
            "sla-aware",
            scenario.budget_watts,
            machines,
            schedule=scenario.budget_schedule(),
        )
    plan = scenario.fault_plan()
    policy = inject_failures(
        policy, scenario.chaos_kills, scenario.chaos_seed, plan
    )
    return DatacenterEngine(
        machines,
        bindings,
        policy=policy,
        control_period=scenario.control_period,
        backend=backend,
        workers=workers,
        faults=plan,
    )

