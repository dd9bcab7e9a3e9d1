"""What a control barrier records: the barrier record and its checkpoints.

A :class:`BarrierRecord` is the one thing a barrier produces: its
time, the policy's raw actions, the budget and caps in force after
it, and what it applied (migrations, failures, gray faults, applier
retries).  The engine keeps one per barrier
(``DatacenterEngine.barriers``), derives the result's histories from
them, and the journal codec encodes each one as a barrier line; the
reader decodes the same type back.

A tenant instance is fully described by plain data — a
:class:`~repro.core.runtime.RuntimeSnapshot`, the queued requests'
``(index, arrival)`` tags, the stats/ledger values, and the
arrival-stream cursor.  A :class:`TenantCheckpoint` /
:class:`MachineCheckpoint` pair captures the whole cluster's
recoverable state at a control barrier, *without* disturbing the live
run (the runtime is peeked, never drained).

Three consumers:

* the run journal (:mod:`repro.datacenter.journal`) writes the
  checkpoints into every barrier record, which is what makes a crashed
  run resumable and a chaos run explainable;
* machine-failure injection (:class:`~repro.datacenter.controlplane.
  actions.FailMachine`) re-places a dead machine's tenants from the
  checkpoint captured at the same barrier;
* migration: :meth:`~repro.datacenter.engine.HostGroup.emigrate`
  returns the drained tenant as a checkpoint (the extracted pending
  tags, a snapshot only for a warm move).

Both moves land through one rebuild,
:meth:`~repro.datacenter.engine.HostGroup.restore`.  Barrier
checkpoints are captured *before* the control decision runs, with
every host settled to the barrier instant — so the values are exact on
every backend, and a restore rebuilds precisely the state the policy
saw.

Rebuilding pending requests relies on the tenant's ``job_factory``
being a pure function of the request index (true for every factory in
this repo — jobs derive from a seeded per-index RNG); the checkpoint
carries only the ``(index, arrival)`` tags.

Capture is incremental where history grows: consecutive checkpoints of
one tenant share a single immutable ``completions`` tuple, which each
capture extends by only the requests completed since the last one
(:meth:`~repro.datacenter.tenants.TenantStats.completion_pairs`).  A
capture therefore builds O(new completions) pairs, not O(history), and
the journal codec's append-only check compares shared elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.runtime import RuntimeSnapshot
from repro.hardware.power import PowerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datacenter.controlplane.actions import (
        Action,
        FailureRecord,
        MigrationRecord,
    )
    from repro.datacenter.engine import DatacenterEngine, InstanceBinding
    from repro.datacenter.faults import FaultRecord, RetryRecord

__all__ = [
    "BarrierRecord",
    "TenantCheckpoint",
    "MachineCheckpoint",
    "capture_tenant_checkpoint",
    "capture_machine_checkpoint",
]


@dataclass(frozen=True)
class TenantCheckpoint:
    """One tenant's full recoverable state at a control barrier.

    Plain data (floats, ints, tuples) so it pickles across shard
    workers and serializes into the journal unchanged.

    Attributes:
        tenant: The tenant's name.
        machine_index: Placement at the barrier.
        offered: Arrivals dispatched so far — also the tenant's
            arrival-stream cursor (every dispatched arrival records an
            offer exactly once), where a restore resumes its arrivals.
        rejected: Admission rejections so far.
        completions: ``(arrival, completion)`` pairs of every served
            request so far, in completion order.  Consecutive captures
            of one tenant share this tuple's prefix element for
            element, so capture costs O(new completions).
        next_request: The tenant's next request index.
        pending: ``(index, arrival)`` tags of requests admitted but not
            yet started; jobs are rebuilt from the tenant's
            ``job_factory`` on restore.
        energy_joules: Billing-ledger watt-seconds at the barrier.
        busy_seconds: Billing-ledger machine-seconds at the barrier.
        steps: Billing-ledger step count at the barrier.
        finished: Whether the instance had drained.
        snapshot: The runtime's warm control state
            (:class:`~repro.core.runtime.RuntimeSnapshot`), or None for
            a cold migration.
    """

    tenant: str
    machine_index: int
    offered: int
    rejected: int
    completions: tuple[tuple[float, float], ...]
    next_request: int
    pending: tuple[tuple[int, float], ...]
    energy_joules: float
    busy_seconds: float
    steps: int
    finished: bool
    snapshot: RuntimeSnapshot | None


@dataclass(frozen=True)
class MachineCheckpoint:
    """One machine's metered state at a control barrier.

    Attributes:
        index: Position in the engine's machine pool.
        now: The machine clock at the barrier (hosts are settled to the
            barrier instant before capture).
        frequency_ghz: Current DVFS frequency — the *applied* ground
            truth, which under an actuator fault or straggler window
            (:mod:`repro.datacenter.faults`) may lag the commanded cap
            recorded in the barrier's ``caps``.
        energy_joules: Total metered energy so far.
        idle_energy_joules: Unattributed idle energy so far.
        mean_power: Meter mean power so far (0.0 before observations).
        alive: False once the machine has fail-stopped.
    """

    index: int
    now: float
    frequency_ghz: float
    energy_joules: float
    idle_energy_joules: float
    mean_power: float
    alive: bool


@dataclass(frozen=True)
class BarrierRecord:
    """One control barrier: what it decided, applied and captured.

    Attributes:
        index: Zero-based barrier index (0 is the time-zero barrier).
        time: The barrier's facility time.
        actions: The policy's raw actions.
        budget_watts: Global budget in force after the barrier.
        caps: Commanded caps in force after the barrier (None before
            the first ``SetCaps``).
        tenants: Tenant checkpoints keyed by name, in binding order —
            *pre-decision* state, with completions re-accumulated
            across barriers — or None: the engine's live records never
            hold checkpoints, and neither does a journal read without
            them.
        machines: Machine checkpoints in pool order (pre-decision), or
            None as for ``tenants``.
        migrations: Migrations applied at this barrier.
        failures: Machine failures applied at this barrier.
        faults: Gray faults that first bit at this barrier (sensor /
            actuator / straggler windows and straggler recoveries).
        retries: Applier retry attempts made at this barrier.
    """

    index: int
    time: float
    actions: tuple[Action, ...]
    budget_watts: float | None
    caps: tuple[float, ...] | None
    tenants: dict[str, TenantCheckpoint] | None
    machines: tuple[MachineCheckpoint, ...] | None
    migrations: tuple[MigrationRecord, ...]
    failures: tuple[FailureRecord, ...]
    faults: tuple[FaultRecord, ...]
    retries: tuple[RetryRecord, ...]


def capture_tenant_checkpoint(
    binding: "InstanceBinding",
) -> TenantCheckpoint:
    """Checkpoint one tenant binding without disturbing the live run."""
    stats = binding.stats
    return TenantCheckpoint(
        tenant=binding.tenant.name,
        machine_index=binding.machine_index,
        offered=stats.offered,
        rejected=stats.rejected,
        completions=stats.completion_pairs(),
        next_request=binding.next_request,
        pending=tuple(tag for _, tag in binding.runtime.peek_pending()),
        energy_joules=binding.ledger.energy_joules,
        busy_seconds=binding.ledger.busy_seconds,
        steps=binding.ledger.steps,
        finished=binding.finished,
        snapshot=binding.runtime.snapshot(),
    )


def capture_machine_checkpoint(
    engine: "DatacenterEngine", index: int
) -> MachineCheckpoint:
    """Checkpoint one machine's metered state at a settled barrier."""
    machine = engine.machines[index]
    try:
        mean_power = machine.meter.mean_power()
    except PowerError:  # no samples yet
        mean_power = 0.0
    return MachineCheckpoint(
        index=index,
        now=machine.now,
        frequency_ghz=machine.processor.frequency_ghz,
        energy_joules=machine.meter.energy_joules,
        idle_energy_joules=engine.idle_energy_joules[index],
        mean_power=mean_power,
        alive=index not in engine.dead_machines,
    )
