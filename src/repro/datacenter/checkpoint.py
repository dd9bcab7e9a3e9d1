"""Per-barrier cluster checkpoints: the unit of crash recovery.

PR 5's warm migration proved a tenant instance is fully described by
plain data — a :class:`~repro.core.runtime.RuntimeSnapshot`, the queued
``(job, tag)`` pairs, the stats/ledger values, and the arrival-stream
cursor.  This module generalizes that observation from "one migrating
instance" to "every tenant, every barrier": a
:class:`TenantCheckpoint` / :class:`MachineCheckpoint` pair captures
the whole cluster's recoverable state at a control barrier, *without*
disturbing the live run (the runtime is peeked, never drained).

Two consumers:

* the run journal (:mod:`repro.datacenter.journal`) writes the
  checkpoints into every barrier record, which is what makes a crashed
  run resumable and a chaos run explainable;
* machine-failure injection (:class:`~repro.datacenter.controlplane.
  actions.FailMachine`) re-places a dead machine's tenants from the
  checkpoint captured at the same barrier, via
  :func:`restore_from_checkpoint`.

Checkpoints are captured *before* the barrier's control decision runs,
with every host settled to the barrier instant — so the values are
exact on every backend, and a restore rebuilds precisely the state the
policy saw.

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
from typing import TYPE_CHECKING, Any

from repro.datacenter.tenants import CompletedRequest, TenantStats
from repro.datacenter.billing import TenantLedger
from repro.hardware.power import PowerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datacenter.engine import DatacenterEngine, InstanceBinding

__all__ = [
    "TenantCheckpoint",
    "MachineCheckpoint",
    "capture_tenant_checkpoint",
    "capture_machine_checkpoint",
    "restore_from_checkpoint",
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
            offer exactly once, so ``trace_pos == offered``).
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
            (:class:`~repro.core.runtime.RuntimeSnapshot`).
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
    snapshot: Any


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


def restore_from_checkpoint(
    engine: "DatacenterEngine",
    binding: "InstanceBinding",
    checkpoint: TenantCheckpoint,
    dest_machine_index: int,
) -> None:
    """Rebuild a tenant on ``dest_machine_index`` from a checkpoint.

    The crash-recovery half of machine failure: a fresh runtime is
    built via the binding's ``runtime_factory``, the checkpoint's warm
    snapshot restores the control state, stats and ledger are rebuilt
    to the checkpointed values, and the pending queue is re-fed from
    the checkpoint's ``(index, arrival)`` tags with fresh completion
    hooks.  The request that was in flight on the dead machine (if
    any) is lost — fail-stop semantics — but every joule it burned
    stayed metered and billed on the dead machine, so billing
    conservation is unaffected.  Identical code runs on the serial and
    sharded backends (in the destination worker), which is what keeps
    post-failure runs byte-identical across backends.
    """
    from repro.datacenter.controlplane.actions import ControlError

    if binding.runtime_factory is None:
        raise ControlError(
            f"tenant {binding.tenant.name!r} has no runtime_factory; "
            "failure recovery requires one to rebuild the instance on a "
            "surviving machine"
        )
    machine = engine.machines[dest_machine_index]
    runtime = binding.runtime_factory(machine)
    if runtime.machine is not machine:
        raise ControlError(
            f"runtime_factory for tenant {binding.tenant.name!r} returned "
            "a runtime bound to the wrong machine"
        )
    stats = TenantStats(
        offered=checkpoint.offered,
        rejected=checkpoint.rejected,
        completions=[
            CompletedRequest(arrival, completion)
            for arrival, completion in checkpoint.completions
        ],
    )
    binding.runtime = runtime
    binding.machine_index = dest_machine_index
    binding.stats = stats
    binding.ledger = TenantLedger(
        energy_joules=checkpoint.energy_joules,
        busy_seconds=checkpoint.busy_seconds,
        steps=checkpoint.steps,
    )
    # The dead machine's runtime segment died with it: queued samples
    # from the lost segment are unrecoverable by design (the billing
    # ledger, not the segment, is the source of truth for charges).
    binding.run_segments = []
    binding.next_request = checkpoint.next_request
    binding.finished = False
    binding.starved = False
    runtime.begin()
    if checkpoint.snapshot is not None:
        runtime.restore(checkpoint.snapshot)
    for index, arrival in checkpoint.pending:
        job = binding.tenant.job_factory(index)
        runtime.feed(
            job,
            on_complete=lambda completion, arrival=arrival: (
                stats.record_completion(arrival, completion)
            ),
            tag=(index, arrival),
        )
    engine.hosts[dest_machine_index].instances.append(binding)
