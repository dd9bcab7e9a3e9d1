"""The pluggable datacenter control plane: policies, actions, budgets.

Control decisions — how the facility budget becomes per-machine caps,
when the budget itself moves, when an instance migrates — used to be
hardwired into the engine's arbiter tick.  This package extracts them
behind one interface: a
:class:`~repro.datacenter.controlplane.actions.ControlPolicy` receives
an immutable
:class:`~repro.datacenter.controlplane.actions.ClusterView` at every
control barrier and returns typed actions (``SetCaps``, ``SetBudget``,
``Migrate``) that every backend validates and applies through the
shared applier — which is what keeps serial and sharded results
byte-identical, migrations and budget shocks included.

Module map:

* :mod:`~repro.datacenter.controlplane.actions` — views, actions, the
  ``ControlPolicy`` protocol, and migration records.
* :mod:`~repro.datacenter.controlplane.budget` — ``BudgetSchedule``
  and the ``--budget-trace`` file parser with actionable errors.
* :mod:`~repro.datacenter.controlplane.policy` — ``MigratingPolicy``,
  ``ScheduledBudgetPolicy``, and the ``build_policy`` registry behind
  the CLI's ``--policy`` flag.
* :mod:`~repro.datacenter.controlplane.applier` — central validation
  (``plan_actions``), cap enforcement, failure placement, and the
  merge of a migrated tenant's run segments.  A migration's state
  travels as the same
  :class:`~repro.datacenter.checkpoint.TenantCheckpoint` a failure
  restore lands from.
"""

from repro.datacenter.controlplane.actions import (
    Action,
    ClusterView,
    ControlError,
    ControlPolicy,
    FailMachine,
    FailureRecord,
    MachineView,
    Migrate,
    MigrationRecord,
    SetBudget,
    SetCaps,
    TenantView,
)
from repro.datacenter.controlplane.applier import (
    ControlPlan,
    enforce_caps,
    machine_limits,
    merge_run_results,
    plan_actions,
    plan_failures,
)
from repro.datacenter.controlplane.hierarchy import (
    DEFAULT_GROUPS,
    HierarchicalArbiter,
    round_robin_groups,
)
from repro.datacenter.controlplane.budget import (
    BudgetSchedule,
    BudgetTraceError,
    load_budget_trace,
    parse_budget_trace,
)
from repro.datacenter.controlplane.policy import (
    POLICY_NAMES,
    ChaosPolicy,
    ConsolidatingPolicy,
    DegradedModePolicy,
    MigratingPolicy,
    ScheduledBudgetPolicy,
    build_policy,
    inject_failures,
)

__all__ = [
    "Action",
    "ClusterView",
    "ControlError",
    "ControlPolicy",
    "FailMachine",
    "FailureRecord",
    "MachineView",
    "Migrate",
    "MigrationRecord",
    "SetBudget",
    "SetCaps",
    "TenantView",
    "ControlPlan",
    "enforce_caps",
    "machine_limits",
    "merge_run_results",
    "plan_actions",
    "plan_failures",
    "BudgetSchedule",
    "BudgetTraceError",
    "load_budget_trace",
    "parse_budget_trace",
    "DEFAULT_GROUPS",
    "HierarchicalArbiter",
    "round_robin_groups",
    "POLICY_NAMES",
    "ChaosPolicy",
    "ConsolidatingPolicy",
    "DegradedModePolicy",
    "MigratingPolicy",
    "ScheduledBudgetPolicy",
    "build_policy",
    "inject_failures",
]
