"""Event-driven datacenter serving: many PowerDial instances, one budget.

The paper evaluates PowerDial one instance at a time (§5.4 power capping)
or through a closed-form cluster model (§5.5 consolidation).  This
package is the shared-infrastructure layer between those two views: a
discrete-event simulation of N live, interleaved PowerDial-controlled
instances on M machines, serving open per-tenant request streams under a
single facility power budget.

Module map:

* :mod:`~repro.datacenter.engine` — the discrete-event core: an
  incrementally merged global event stream (arrivals, control
  barriers) interleaving per-machine virtual clocks; cooperative
  round-robin scheduling of instances via the runtime's resumable
  ``step()`` API; per-request latency accounting.  Idle machines are
  skipped per event and settled in O(1) when they next matter, so cost
  scales with events, not events × machines.
* :mod:`~repro.datacenter.controlplane` — the pluggable control plane:
  a :class:`~repro.datacenter.controlplane.actions.ControlPolicy`
  receives an immutable cluster view at every barrier and returns
  typed actions (``SetCaps``, ``SetBudget``, ``Migrate``) that every
  backend validates and applies through one shared applier — budget
  schedules (demand-response traces, §5.4-style fleet-wide cap
  shocks) and instance migration live here.
* :mod:`~repro.datacenter.faults` — seeded, declarative gray-failure
  injection: a :class:`~repro.datacenter.faults.FaultPlan` schedules
  sensor dropout/delay/noise windows, actuator drop/partial windows,
  stragglers, and fail-stop kills as a pure function of (seed,
  config); the engine observes through the plan, retries failed cap
  applications with capped deterministic backoff, and journals every
  fault and retry attempt.
* :mod:`~repro.datacenter.shard` — the multiprocess backend: machines
  partitioned across forked workers that run independently between
  control barriers and exchange only tenant views, validated plans,
  and tenant checkpoints, with results identical to the serial
  scheduler.
* :mod:`~repro.datacenter.billing` — the per-tenant metering layer:
  ledgers the engine charges per dispatched ``step()``, end-of-run
  :class:`~repro.datacenter.billing.TenantBill` composition (energy,
  Eq. 9–11 QoS-loss-seconds, admission rejections), and the
  energy-conservation accounting (billed + unattributed idle == total
  metered pool energy).
* :mod:`~repro.datacenter.traffic` — open-loop arrival traces: Poisson,
  diurnal, bursty, and epoch profiles reusing
  :class:`~repro.cluster.workload.LoadProfile`.
* :mod:`~repro.datacenter.tenants` — tenant specs, latency SLAs,
  admission control limits, and attainment accounting.
* :mod:`~repro.datacenter.caps` — power-cap physics: enforceable cap
  floors/ceilings per machine and the cap -> P-state mapping.
* :mod:`~repro.datacenter.arbiter` — the hierarchical power arbiter:
  global budget -> per-machine DVFS caps -> each instance's existing
  heartbeat controller, with periodic reallocation toward SLA-violating
  tenants; now a thin :class:`~repro.datacenter.controlplane.actions.
  ControlPolicy` adapter over the water-filling math.
* :mod:`~repro.datacenter.service` — a lightweight knobbed service
  application whose calibrated trade-off space is exactly predictable,
  so datacenter sweeps stay fast.
"""

from repro.datacenter.arbiter import (
    ArbiterError,
    ArbiterPolicy,
    PowerArbiter,
    frequency_for_cap,
    machine_cap_ceiling,
    machine_cap_floor,
    water_fill,
)
from repro.datacenter.checkpoint import (
    MachineCheckpoint,
    TenantCheckpoint,
)
from repro.datacenter.controlplane import (
    POLICY_NAMES,
    BudgetSchedule,
    BudgetTraceError,
    ChaosPolicy,
    ClusterView,
    ConsolidatingPolicy,
    ControlError,
    ControlPolicy,
    DegradedModePolicy,
    FailMachine,
    FailureRecord,
    HierarchicalArbiter,
    MachineView,
    MigratingPolicy,
    Migrate,
    MigrationRecord,
    ScheduledBudgetPolicy,
    SetBudget,
    SetCaps,
    TenantView,
    build_policy,
    load_budget_trace,
    parse_budget_trace,
)
from repro.datacenter.billing import (
    CONSERVATION_TOLERANCE,
    BillingError,
    TenantBill,
    TenantLedger,
    compose_bill,
    conservation_summary,
    qos_loss_seconds,
)
from repro.datacenter.engine import (
    ENGINE_BACKENDS,
    DatacenterEngine,
    DatacenterResult,
    EngineError,
    InstanceBinding,
)
from repro.datacenter.faults import (
    ActuatorFault,
    FaultError,
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
from repro.datacenter.shard import fork_available, partition_machines
from repro.datacenter.service import (
    ServiceApp,
    request_stream,
    service_training_jobs,
)
from repro.datacenter.tenants import (
    CompletedRequest,
    LatencySLA,
    TenantError,
    TenantReport,
    TenantSpec,
    TenantStats,
)
from repro.datacenter.traffic import (
    TrafficError,
    TrafficTrace,
    burst_trace,
    diurnal_trace,
    poisson_trace,
    profile_trace,
)

__all__ = [
    "ArbiterError",
    "ArbiterPolicy",
    "PowerArbiter",
    "frequency_for_cap",
    "machine_cap_ceiling",
    "machine_cap_floor",
    "water_fill",
    "POLICY_NAMES",
    "BudgetSchedule",
    "BudgetTraceError",
    "ChaosPolicy",
    "ClusterView",
    "ConsolidatingPolicy",
    "ControlError",
    "ControlPolicy",
    "DegradedModePolicy",
    "FailMachine",
    "FailureRecord",
    "HierarchicalArbiter",
    "MachineCheckpoint",
    "MachineView",
    "MigratingPolicy",
    "Migrate",
    "MigrationRecord",
    "ScheduledBudgetPolicy",
    "SetBudget",
    "SetCaps",
    "TenantCheckpoint",
    "TenantView",
    "build_policy",
    "load_budget_trace",
    "parse_budget_trace",
    "BillingError",
    "CONSERVATION_TOLERANCE",
    "TenantBill",
    "TenantLedger",
    "compose_bill",
    "conservation_summary",
    "qos_loss_seconds",
    "ENGINE_BACKENDS",
    "DatacenterEngine",
    "DatacenterResult",
    "EngineError",
    "InstanceBinding",
    "ActuatorFault",
    "FaultError",
    "FaultPlan",
    "FaultPlanError",
    "FaultRecord",
    "KillFault",
    "RetryRecord",
    "SensorFault",
    "StragglerFault",
    "kill_schedule",
    "load_fault_plan",
    "parse_fault_plan",
    "fork_available",
    "partition_machines",
    "ServiceApp",
    "request_stream",
    "service_training_jobs",
    "CompletedRequest",
    "LatencySLA",
    "TenantError",
    "TenantReport",
    "TenantSpec",
    "TenantStats",
    "TrafficError",
    "TrafficTrace",
    "burst_trace",
    "diurnal_trace",
    "poisson_trace",
    "profile_trace",
]
