"""The control plane's shared vocabulary: views in, actions out.

A :class:`ControlPolicy` never touches engine internals.  At every
control barrier it receives an immutable :class:`ClusterView` — the
machines (with their enforceable cap range and current cap), the
resident tenants (placement, SLA shortfall, queue depth, billing-ledger
snapshot), the current global budget, and the barrier time — and
returns a list of typed actions:

* :class:`SetCaps` — per-machine power caps (today's arbiter, now just
  one policy among several);
* :class:`SetBudget` — change the fleet-wide budget mid-run (the §5.4
  cap event fleet-wide: demand-response traces, circuit shocks);
* :class:`Migrate` — move a tenant's instance to another machine when
  moving watts alone cannot help (reallocation hit the cap ceiling);
* :class:`FailMachine` — fault injection: fail-stop one machine at this
  barrier and re-place its tenants from their journaled checkpoints
  (the chaos scenario family).

Every backend (serial, sharded) validates and applies these
actions through the shared applier (:mod:`~repro.datacenter.
controlplane.applier`), which is what keeps results byte-identical
across backends: the *decision* is data, and the *application* is one
code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, Union, runtime_checkable

__all__ = [
    "ControlError",
    "MachineView",
    "TenantView",
    "ClusterView",
    "SetCaps",
    "SetBudget",
    "Migrate",
    "FailMachine",
    "Action",
    "MigrationRecord",
    "FailureRecord",
    "ControlPolicy",
]


class ControlError(ValueError):
    """Raised for malformed control-plane views, actions, or plans."""


@dataclass(frozen=True)
class MachineView:
    """One machine as the control plane sees it.

    Attributes:
        index: Position in the engine's machine pool.
        cap_floor: Lowest enforceable cap (full-load power in the
            slowest P-state; machines are never powered off).
        cap_ceiling: Full-load power in the fastest P-state; caps above
            this are slack.
        cap_watts: The currently enforced cap, or ``None`` before the
            first :class:`SetCaps` of the run.
        alive: False once the machine has fail-stopped (chaos
            injection); policies must not migrate tenants onto — or
            expect capacity from — a dead machine.
        health: Telemetry-trust state, one of
            :data:`repro.heartbeats.health.MACHINE_HEALTH_STATES` —
            ``fresh`` (telemetry current), ``stale`` (telemetry aging,
            or the machine is inside its post-quarantine reintegration
            hysteresis window: hold last-known state), ``unresponsive``
            (telemetry past its deadline: quarantine the machine,
            reallocate its watts), or ``dead`` (``alive`` is False).
            Always ``fresh`` on runs without a fault plan.
    """

    index: int
    cap_floor: float
    cap_ceiling: float
    cap_watts: float | None
    alive: bool = True
    health: str = "fresh"


@dataclass(frozen=True)
class TenantView:
    """One tenant's control-relevant state at a barrier.

    Attributes:
        name: Tenant identifier.
        machine_index: Current placement (migrations move this).
        weight: Arbitration priority from the tenant's spec.
        sla_shortfall: ``max(0, attainment_target - recent attainment)``
            over the engine's attainment window; a silent-but-backlogged
            tenant counts as fully violating.
        pending_jobs: Requests queued but not yet started.
        finished: Whether the instance has drained (policies must not
            migrate finished tenants).
        energy_joules: Ledger snapshot — watt-seconds billed so far.
        busy_seconds: Ledger snapshot — machine seconds billed so far.
        steps: Ledger snapshot — ``step()`` dispatches charged so far.
    """

    name: str
    machine_index: int
    weight: float
    sla_shortfall: float
    pending_jobs: int
    finished: bool
    energy_joules: float
    busy_seconds: float
    steps: int


@dataclass(frozen=True)
class ClusterView:
    """Immutable cluster snapshot handed to policies at every barrier.

    Attributes:
        time: The barrier's facility time.
        budget_watts: Current global budget (None when the run is
            uncapped).
        machines: Per-machine cap state, in pool order.
        tenants: Per-tenant state, in engine binding order — policies
            that aggregate over tenants in this order produce the same
            floats on every backend.
    """

    time: float
    budget_watts: float | None
    machines: tuple[MachineView, ...]
    tenants: tuple[TenantView, ...]

    def machine_shortfalls(self) -> list[float]:
        """Aggregate weighted SLA shortfall per machine.

        Sums ``weight * sla_shortfall`` over tenants in view order —
        float-for-float the signal the pre-controlplane engine fed the
        arbiter, so cap allocations are unchanged by the refactor.
        """
        scores = [0.0] * len(self.machines)
        for tenant in self.tenants:
            scores[tenant.machine_index] += tenant.weight * tenant.sla_shortfall
        return scores

    def tenants_on(self, machine_index: int) -> tuple[TenantView, ...]:
        """The tenants currently placed on one machine, in view order."""
        return tuple(
            t for t in self.tenants if t.machine_index == machine_index
        )


@dataclass(frozen=True)
class SetCaps:
    """Enforce per-machine power caps (via DVFS), one per machine.

    Attributes:
        caps: Cap in watts for every machine, in pool order.  The
            applier validates each cap against the machine's
            ``[cap_floor, cap_ceiling]`` range and the sum against the
            current budget before anything is enforced.
    """

    caps: tuple[float, ...]


@dataclass(frozen=True)
class SetBudget:
    """Change the fleet-wide power budget from this barrier onward.

    Attributes:
        budget_watts: The new global budget.  Must cover the pool's
            aggregate cap floor (machines cannot be pushed below their
            slowest P-state's full-load power).
    """

    budget_watts: float


@dataclass(frozen=True)
class Migrate:
    """Move one tenant's instance to another machine.

    Either way the source host finishes the request in flight (metered
    to the tenant as usual), queued-but-unstarted requests move with
    the tenant, and ``cost_seconds`` is charged to the moving tenant's
    billing ledger.  A *cold* move (the default) then starts a fresh
    runtime on the destination — warm controller state is deliberately
    lost.  A *warm* move additionally ships the runtime's full control
    state (controller integrator, actuation-plan cache, heartbeat
    window, quantum phase) as a
    :class:`~repro.core.runtime.RuntimeSnapshot`, so the destination
    resumes at the source's learned power/performance operating point
    instead of re-converging from the baseline.

    Attributes:
        tenant: Name of the tenant to move.
        dest_machine_index: Target machine in the engine's pool.
        cost_seconds: Machine-seconds billed to the tenant's ledger for
            the move (energy is conserved: migration charges time, not
            watt-seconds).
        warm: Whether to carry the runtime's warm control state to the
            destination (live migration) instead of restarting cold.
    """

    tenant: str
    dest_machine_index: int
    cost_seconds: float = 0.0
    warm: bool = False


@dataclass(frozen=True)
class FailMachine:
    """Fail-stop one machine at this barrier (fault injection).

    The machine's meter and clock freeze at the barrier instant (the
    barrier settles every host first, so its books are exact), its cap
    is no longer enforced, and every resident tenant is re-placed onto
    a surviving machine from the checkpoint captured at this same
    barrier — the in-flight request (if any) is lost, queued requests
    and the arrival cursor are rebuilt, and the warm
    :class:`~repro.core.runtime.RuntimeSnapshot` restores the control
    state.  Requires the barrier to have captured checkpoints (a
    journal, a policy declaring ``may_fail_machines``, or this barrier
    among the policy's ``failure_times``); otherwise the engine raises
    :class:`~repro.datacenter.engine.EngineError`.

    Attributes:
        machine_index: The machine to kill.  Must currently be alive,
            and at least one machine must survive the barrier.
    """

    machine_index: int


Action = Union[SetCaps, SetBudget, Migrate, FailMachine]
"""Everything a policy may return from :meth:`ControlPolicy.decide`."""


@dataclass(frozen=True)
class MigrationRecord:
    """One applied migration, as recorded in the run result.

    Attributes:
        time: Barrier time the migration was applied at.
        tenant: The tenant that moved.
        source_machine_index: Machine the instance left.
        dest_machine_index: Machine the instance restarted on.
        cost_seconds: Ledger seconds charged for the move.
        warm: Whether the move carried warm control state (live
            migration) or restarted the instance cold.
    """

    time: float
    tenant: str
    source_machine_index: int
    dest_machine_index: int
    cost_seconds: float
    warm: bool = False


@dataclass(frozen=True)
class FailureRecord:
    """One applied machine failure, as recorded in the run result.

    Attributes:
        time: Barrier time the failure was injected at.
        machine_index: The machine that fail-stopped.
        replacements: One :class:`MigrationRecord` per re-placed victim
            tenant (``warm=True``, ``cost_seconds=0.0``; the source is
            the dead machine), in engine binding order.  Kept separate
            from ``DatacenterResult.migrations``, which records policy
            migrations only.
    """

    time: float
    machine_index: int
    replacements: tuple[MigrationRecord, ...] = ()


@runtime_checkable
class ControlPolicy(Protocol):
    """What the engine requires of a pluggable control policy.

    Structural protocol — any object with these three methods plugs
    into ``DatacenterEngine(policy=...)``.  Policies are free to keep
    state (cooldowns, schedules); on the sharded backend the policy
    runs only in the coordinating parent, so state never needs to
    cross process boundaries.

    A policy that emits :class:`FailMachine` says so by one of two
    optional attributes, which decide the barriers the engine captures
    checkpoints at: ``may_fail_machines = True`` (any barrier: capture
    every one), or ``failure_times``, the barrier instants it fails
    machines at (capture only those).  ``failure_times`` wins whenever
    it is not None, as read when the run starts, after
    ``barrier_times``.
    """

    def initial_budget_watts(self) -> float | None:
        """The budget in force at time zero (None for uncapped runs)."""
        ...

    def barrier_times(self, horizon: float) -> Sequence[float]:
        """Extra barrier times (beyond the periodic ticks) to schedule.

        Lets time-triggered policies (budget traces) fire exactly at
        their timestamps instead of waiting for the next periodic tick.
        """
        ...

    def decide(self, view: ClusterView) -> Sequence[Action]:
        """Map a cluster snapshot to the actions to apply at a barrier."""
        ...
