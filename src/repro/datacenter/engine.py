"""Event-driven interleaving of many live PowerDial instances.

The engine hosts N controlled application instances on M simulated
machines and drives them with open-loop request arrivals.  It is a
discrete-event simulation in *two* layers of virtual time:

* a global event stream (arrivals, control barriers) in facility time;
* each machine's own :class:`~repro.hardware.clock.VirtualClock`, which
  advances as its resident instances execute work.

Between consecutive global events every machine runs its instances
cooperatively — round-robin, one control quantum per
:meth:`~repro.core.runtime.PowerDialRuntime.step` — until its clock
catches up with the event time; a machine with nothing runnable idles
(its power meter sees the idle floor).  Because co-resident instances
share one clock, contention emerges naturally: while one instance holds
the machine, its neighbors' heart rates sag, their controllers command
speedup, and their dynamic knobs absorb the oversubscription — the §5.5
mechanism, now under interleaved, bursty, multi-tenant traffic.

Completion times are measured on the machine clock against global
arrival times, giving end-to-end request latencies for the tenant SLA
accounting.

**Scheduling** is *lazy*: an arrival advances only its own host, and a
control barrier settles the pool, since it may change DVFS states, the
budget, or placement, and reads every tenant's SLA signal.  A machine
with nothing to do is not visited per event — its idle time is settled
in a single O(1) ``idle_until`` when it next matters — so the cost of a
run scales with the number of events, not events × machines.  Arrivals
come from an :class:`_EventPump`, an incremental merge of the
per-tenant traces whose membership changes when a tenant leaves or
joins a :class:`HostGroup` (the machines one process advances).

**One barrier loop.**  The engine makes no cluster-level decisions
itself: a ``policy`` (any
:class:`~repro.datacenter.controlplane.actions.ControlPolicy`) does, at
control barriers — every ``control_period`` seconds plus any instants
the policy or the fault plan requests.  :meth:`DatacenterEngine.run` is
the same loop on every backend::

    for now in barrier times:
        gather    settle every host to ``now``; read tenant views and,
                  when something reads this barrier's checkpoints,
                  every tenant and machine checkpoint
        barrier   view -> decide -> actuate -> place failures and
                  migrations -> effect -> one ``BarrierRecord``,
                  kept and journaled

A *transport* supplies the two ends that touch live instances:
``gather`` and the effect (``apply``: fail-stops, caps, victim
restores, migrations).  The serial backend's transport is one
:class:`HostGroup` over the whole pool, in process; the sharded
backend's (:mod:`repro.datacenter.shard`) runs one group per forked
worker and carries the same state in pickled pipe frames.  The
barrier step hands both the same effect: a cap equal to the watts
last sent to its machine is dropped before either transport sees it.
The time-zero barrier runs in process on both, before any fork.  Every
worker's closing payload (:func:`_final_payload`) feeds one result
assembly, in binding and machine order, so the backends agree byte for
byte.

**Gray failures** sit between the barrier step and the physics, in one
:class:`~repro.datacenter.faults.FaultInjector` on the coordinator:
its ``observe`` turns the true view into what the telemetry reports
(sensor faults, machine health) before the policy decides, and its
``actuate`` turns the commanded caps into the watts that land (actuator
faults, retries, stragglers).  The engine holds no fault state itself.

Every dispatched ``step()`` is metered for billing: the machine meter's
energy delta and the clock delta across the step are charged to the
stepping tenant's :class:`~repro.datacenter.billing.TenantLedger`,
while lazily settled idle gaps accumulate per machine as unattributed
idle energy — so :attr:`DatacenterResult.bills` attributes every
watt-second of pool energy to a tenant or to the idle floor (the
conservation invariant the billing tests pin, which survives
migrations, failures and mid-run budget changes).
"""

from __future__ import annotations

import contextlib
import heapq
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.core.runtime import PowerDialRuntime, RunResult, StepStatus
from repro.datacenter.billing import (
    TenantBill,
    TenantLedger,
    compose_bill,
    conservation_summary,
)
from repro.datacenter.checkpoint import (
    BarrierRecord,
    MachineCheckpoint,
    TenantCheckpoint,
    capture_machine_checkpoint,
    capture_tenant_checkpoint,
)
from repro.datacenter.controlplane.actions import (
    Action,
    ClusterView,
    ControlError,
    ControlPolicy,
    FailureRecord,
    MachineView,
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
from repro.datacenter.faults import (
    FaultInjector,
    FaultPlan,
    FaultRecord,
    RetryRecord,
)
from repro.datacenter.tenants import (
    CompletedRequest,
    TenantReport,
    TenantSpec,
    TenantStats,
)
from repro.datacenter.tolerances import SETTLE_SLACK, TIME_SLACK
from repro.hardware.machine import Machine
from repro.hardware.power import PowerError
from repro.heartbeats.health import HEALTH_DEAD, HEALTH_FRESH

__all__ = [
    "EngineError",
    "InstanceBinding",
    "DatacenterResult",
    "DatacenterEngine",
    "ENGINE_BACKENDS",
    "HostGroup",
]

ENGINE_BACKENDS = ("serial", "sharded")
"""Recognized ``DatacenterEngine`` backends."""

class EngineError(ValueError):
    """Raised for invalid engine configuration or usage."""


@dataclass
class InstanceBinding:
    """One tenant's live instance placed on one machine.

    Attributes:
        tenant: The tenant being served.
        runtime: Its PowerDial runtime, bound to the host machine.
        machine_index: Index of that machine in the engine's pool
            (updated when the control plane migrates the instance).
        stats: Mutable SLA/admission accounting the engine fills in.
        ledger: Mutable billing meter (energy + machine time) charged
            per dispatched ``step()``; see
            :class:`~repro.datacenter.billing.TenantLedger`.
        runtime_factory: Rebuilds the tenant's runtime on a given
            machine — required for migration (a cold move restarts the
            instance on the destination), optional otherwise.
        run_segments: Completed :class:`RunResult` segments from
            machines this instance ran on before its latest migration.
    """

    tenant: TenantSpec
    runtime: PowerDialRuntime
    machine_index: int
    stats: TenantStats = field(default_factory=TenantStats)
    ledger: TenantLedger = field(default_factory=TenantLedger)
    runtime_factory: Callable[[Machine], PowerDialRuntime] | None = None
    starved: bool = False
    finished: bool = False
    next_request: int = 0
    run_segments: list[RunResult] = field(default_factory=list)


@dataclass
class DatacenterResult:
    """Everything observed during one datacenter run.

    Attributes:
        tenant_reports: Per-tenant SLA summaries, in binding order.
        run_results: Each instance's full :class:`RunResult`, by tenant.
            Note that ``mean_power``/``energy_joules`` inside a
            RunResult come from the *shared* machine meter: co-resident
            tenants all report the whole machine's draw; for pool
            accounting use ``machine_mean_power``/
            ``total_energy_joules``, and for per-tenant attribution use
            ``bills``.  A migrated tenant's result is its per-host
            segments stitched together (``mean_power`` is then None).
        bills: Per-tenant :class:`~repro.datacenter.billing.TenantBill`
            (energy, QoS-loss, admission attribution), in binding
            order; byte-identical across backends.
        idle_energy_joules: Per-machine watt-seconds no tenant was
            running for (lazy ``idle_until`` settlements, plus any
            energy already on a meter before the run began).
        machine_mean_power: Mean measured watts per machine.
        total_energy_joules: Integrated energy across the pool.
        makespan: Latest machine virtual time at the end of the run.
        budget_watts: The global budget in force at the end of the run
            (None when uncapped).
        cap_history: ``(time, per-machine caps)`` per ``SetCaps``.
        budget_history: ``(time, watts)`` — the initial budget plus
            every applied ``SetBudget`` (budget shocks land here).
        migrations: Applied migrations, in application order.
        failures: Applied machine failures (chaos injection), each with
            its victim re-placements, in application order.
        faults: Injected gray faults (sensor windows, actuator
            windows, straggler windows and recoveries), one
            :class:`~repro.datacenter.faults.FaultRecord` per fault at
            the barrier it first bit, in injection order.
        retries: Every applier attempt against a faulted actuator, as
            :class:`~repro.datacenter.faults.RetryRecord` entries in
            attempt order (deadline-based retry with capped
            deterministic backoff).
    """

    tenant_reports: list[TenantReport]
    run_results: dict[str, RunResult]
    bills: list[TenantBill]
    idle_energy_joules: list[float]
    machine_mean_power: list[float]
    total_energy_joules: float
    makespan: float
    budget_watts: float | None
    cap_history: list[tuple[float, tuple[float, ...]]]
    budget_history: list[tuple[float, float]] = field(default_factory=list)
    migrations: list[MigrationRecord] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    faults: list[FaultRecord] = field(default_factory=list)
    retries: list[RetryRecord] = field(default_factory=list)

    @property
    def total_mean_power(self) -> float:
        """Sum of the machines' mean power draws."""
        return sum(self.machine_mean_power)

    @property
    def billed_energy_joules(self) -> float:
        """Total watt-seconds attributed to tenants across the pool."""
        return sum(bill.energy_joules for bill in self.bills)

    @property
    def unattributed_idle_joules(self) -> float:
        """Total watt-seconds no tenant was charged for (idle floor)."""
        return sum(self.idle_energy_joules)

    def report_for(self, tenant_name: str) -> TenantReport:
        """Look up one tenant's report by name."""
        for report in self.tenant_reports:
            if report.name == tenant_name:
                return report
        raise EngineError(f"no tenant named {tenant_name!r}")

    def bill_for(self, tenant_name: str) -> TenantBill:
        """Look up one tenant's bill by name."""
        for bill in self.bills:
            if bill.tenant == tenant_name:
                return bill
        raise EngineError(f"no tenant named {tenant_name!r}")

    def energy_conservation(self) -> dict[str, float]:
        """Billed + idle vs metered pool energy; see
        :func:`~repro.datacenter.billing.conservation_summary`."""
        return conservation_summary(
            self.bills, self.idle_energy_joules, self.total_energy_joules
        )

    def energy_conservation_rel_error(self) -> float:
        """Relative mismatch of billed + idle against metered energy."""
        return self.energy_conservation()["rel_error"]

    def slas_met(self) -> int:
        """How many tenants attained their SLA."""
        return sum(1 for report in self.tenant_reports if report.sla_met)


class _Host:
    """Engine-side view of one machine and its resident instances."""

    def __init__(
        self, index: int, machine: Machine, instances: list[InstanceBinding]
    ):
        self.index = index
        self.machine = machine
        self.instances = instances
        self._rr = 0

    def next_runnable(self) -> InstanceBinding | None:
        """Round-robin over instances that can make progress."""
        instances = self.instances
        count = len(instances)
        if count == 1:
            # The round robin below, without its loop: every call lands
            # on index 0 and leaves _rr at 1.
            instance = instances[0]
            if instance.finished or instance.starved:
                return None
            self._rr = 1
            return instance
        start = self._rr
        for offset in range(count):
            index = (start + offset) % count
            instance = instances[index]
            if not instance.finished and not instance.starved:
                self._rr = index + 1
                return instance
        return None


class _EventPump:
    """Incremental merge of per-tenant arrival streams.

    Stream *membership* can change at control barriers: a tenant that
    leaves a :class:`HostGroup` (migration, or its machine failing) has
    its cursor ``remove``d, and the group that gains it ``add``s it at
    the same trace position — the mechanism by which arrivals follow an
    instance, across sharded workers too.  The heap holds one live
    entry per tenant (its next arrival); ties order by the tenant's
    global binding index then trace position, so simultaneous arrivals
    dispatch in binding order on every backend.

    A cursor is a mutable ``[order, arrivals, pos, binding]`` list;
    ``remove`` invalidates the cursor object itself (``binding = None``)
    so stale heap entries skip in O(1), and the hot loop advances live
    cursors with a single ``heapreplace``.
    """

    def __init__(
        self, engine: "DatacenterEngine", bindings: Sequence[InstanceBinding]
    ) -> None:
        self._engine = engine
        self._order = {id(b): i for i, b in enumerate(engine.bindings)}
        self._heap: list[tuple[float, int, int, int, list]] = []
        self._cursors: dict[int, list] = {}
        self._seq = 0
        for binding in bindings:
            self.add(binding, 0)

    def add(self, binding: InstanceBinding, pos: int) -> None:
        """Start pumping ``binding``'s arrivals from trace index ``pos``."""
        arrivals = binding.tenant.trace.arrivals
        cursor = [self._order[id(binding)], arrivals, pos, binding]
        self._cursors[id(binding)] = cursor
        if pos < len(arrivals):
            self._seq += 1
            heapq.heappush(
                self._heap, (arrivals[pos], cursor[0], pos, self._seq, cursor)
            )

    def remove(self, binding: InstanceBinding) -> None:
        """Stop pumping ``binding``."""
        cursor = self._cursors.pop(id(binding))
        cursor[3] = None  # invalidate: its heap entry is now stale

    def run_until(self, barrier: float | None) -> None:
        """Dispatch arrivals up to and including ``barrier`` (None: all).

        Each arrival advances only its own host before dispatch —
        arrivals at exactly the barrier instant dispatch *before* the
        barrier, matching the original event ordering (arrivals sorted
        ahead of ticks at equal times).
        """
        engine = self._engine
        heap = self._heap
        hosts = engine.hosts
        advance = engine._advance
        dispatch = engine._dispatch_arrival
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        while heap:
            entry = heap[0]
            time = entry[0]
            if barrier is not None and time > barrier:
                return
            cursor = entry[4]
            binding = cursor[3]
            if binding is None:
                heappop(heap)  # stale entry from a removed cursor
                continue
            pos = entry[2] + 1
            cursor[2] = pos
            arrivals = cursor[1]
            if pos < len(arrivals):
                self._seq += 1
                heapreplace(
                    heap, (arrivals[pos], cursor[0], pos, self._seq, cursor)
                )
            else:
                heappop(heap)
            advance(hosts[binding.machine_index], time)
            dispatch(binding, time)


def _final_payload(
    engine: "DatacenterEngine",
    machine_indices: Sequence[int],
    resident: Sequence[InstanceBinding],
    started: float,
) -> dict[str, Any]:
    """A host group's closing report: tenants served, machines metered.

    Plain picklable data, so a shard worker returns it over its pipe;
    :meth:`DatacenterEngine._compose_result` merges every group's
    payload.  Dead machines' meters are frozen at their death barrier,
    so their values are the same whenever they are read.
    """
    machine_power: dict[int, float] = {}
    machine_energy: dict[int, float] = {}
    machine_idle: dict[int, float] = {}
    machine_now: dict[int, float] = {}
    for index in machine_indices:
        machine = engine.machines[index]
        try:
            machine_power[index] = machine.meter.mean_power()
        except PowerError:  # no samples yet
            machine_power[index] = 0.0
        machine_energy[index] = machine.meter.energy_joules
        machine_idle[index] = engine.idle_energy_joules[index]
        machine_now[index] = machine.now
    return {
        "reports": {
            b.tenant.name: b.stats.report(b.tenant.name, b.tenant.sla)
            for b in resident
        },
        "stats": {b.tenant.name: b.stats for b in resident},
        "ledgers": {b.tenant.name: b.ledger for b in resident},
        "run_segments": {
            b.tenant.name: (*b.run_segments, b.runtime.finish())
            for b in resident
        },
        "machine_power": machine_power,
        "machine_energy": machine_energy,
        "machine_idle": machine_idle,
        "machine_now": machine_now,
        # CPU seconds of the process that ran the group (barrier waits
        # burn none), published as the engine's ``shard_busy_seconds``.
        "busy_seconds": time.process_time() - started,
    }


class HostGroup:
    """The machines one process advances, with their resident tenants.

    The serial backend runs one group over the whole pool and uses it
    as its transport (``gather``/``apply``/``finish``, in process); each
    shard worker runs one over its partition and the sharded transport
    carries the same calls' inputs and outputs over the wire.  So every
    barrier effect on live instances — settling, checkpoint capture,
    tenant views, fail-stops, caps, restores and migrations — runs the
    same code on both backends.  A group's residents are the instances
    on its hosts; its pump dispatches exactly their arrivals.
    """

    def __init__(
        self, engine: "DatacenterEngine", machine_indices: Iterable[int]
    ) -> None:
        self.engine = engine
        self.machine_indices = list(machine_indices)
        self.hosts = [engine.hosts[index] for index in self.machine_indices]
        self._owned = set(self.machine_indices)
        self._order = {b.tenant.name: i for i, b in enumerate(engine.bindings)}
        self._pump = _EventPump(engine, self.residents())
        self._started = time.process_time()

    def residents(self) -> list[InstanceBinding]:
        """The instances on this group's hosts, host by host."""
        return [binding for host in self.hosts for binding in host.instances]

    def settle(self, until: float) -> None:
        """Dispatch arrivals up to ``until``, then settle every host to it.

        Each host advances its residents in round-robin order
        (co-resident instances share one clock, so reordering them
        would change the interleaving the engine defines).
        """
        self._pump.run_until(until)
        advance = self.engine._advance
        for host in self.hosts:
            advance(host, until)

    def checkpoints(
        self, now: float
    ) -> tuple[dict[str, TenantCheckpoint], dict[int, MachineCheckpoint]] | None:
        """Every resident's and owned machine's checkpoint, if something
        reads the barrier at ``now``'s (see
        :meth:`DatacenterEngine._checkpoint_rule`).

        Captured before the barrier's views are read, so the state is
        exactly what the policy's view summarizes and what a failure at
        this barrier restores from.
        """
        engine = self.engine
        times = engine._capture_times
        if times is not None and now not in times:
            return None
        return (
            {
                binding.tenant.name: capture_tenant_checkpoint(binding)
                for binding in self.residents()
            },
            {
                index: capture_machine_checkpoint(engine, index)
                for index in self.machine_indices
            },
        )

    def views(self, now: float) -> list[tuple[int, TenantView]]:
        """``(binding index, view)`` for every resident."""
        view = self.engine._tenant_view
        order = self._order
        return [(order[b.tenant.name], view(b, now)) for b in self.residents()]

    def read(self, now: float) -> tuple[tuple[TenantView, ...], Any]:
        """The barrier's views, in binding order, and its checkpoints.

        Only for a group over the whole pool (the serial transport, and
        the in-process time-zero barrier of both backends).
        """
        checkpoints = self.checkpoints(now)
        view = self.engine._tenant_view
        return tuple(view(b, now) for b in self.engine.bindings), checkpoints

    def gather(self, now: float) -> tuple[tuple[TenantView, ...], Any]:
        """The serial transport's gather: settle to ``now``, then read."""
        self.settle(now)
        return self.read(now)

    def kill(self, dead: Iterable[int]) -> None:
        """Fail-stop the owned machines in ``dead``.

        Their clocks and meters freeze at this barrier; their residents
        leave the pump, to be restored wherever the coordinator placed
        them.
        """
        for index in dead:
            if index in self._owned:
                self.engine.dead_machines.add(index)
                host = self.engine.hosts[index]
                for binding in host.instances:
                    self._pump.remove(binding)
                host.instances.clear()

    def enforce(self, caps: Iterable[tuple[int, float]]) -> None:
        """Apply ``(machine index, watts)`` caps; dead machines keep
        their frozen DVFS state."""
        engine = self.engine
        live = [(i, watts) for i, watts in caps if i not in engine.dead_machines]
        enforce_caps(
            [engine.machines[i] for i, _ in live], [watts for _, watts in live]
        )

    def restore(
        self,
        tenant: str,
        checkpoint: TenantCheckpoint,
        dest: int,
        segments: Sequence[RunResult] = (),
    ) -> None:
        """Rebuild ``tenant`` on owned machine ``dest`` from a checkpoint.

        The one rebuild for both kinds of move.  A failure victim lands
        from this barrier's checkpoint without its dead segment (the
        request in flight there is lost, fail-stop, but every joule it
        burned stays billed on the dead machine); a migrant lands from
        :meth:`emigrate`'s checkpoint with its ``segments``.  The
        binding's ``runtime_factory`` builds the runtime and a warm
        snapshot is replayed into it; stats and ledger take the
        checkpointed values; pending requests are re-fed from their tags
        through ``job_factory`` (a pure function of the index); arrivals
        resume at ``offered``.
        """
        engine = self.engine
        binding = engine._by_name[tenant]
        if binding.runtime_factory is None:
            raise ControlError(
                f"tenant {tenant!r} has no runtime_factory; moving it to "
                f"machine {dest} requires one to rebuild the instance there"
            )
        machine = engine.machines[dest]
        runtime = binding.runtime_factory(machine)
        if runtime.machine is not machine:
            raise ControlError(
                f"runtime_factory for tenant {tenant!r} returned a runtime "
                f"bound to the wrong machine (moving it to machine {dest})"
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
        binding.machine_index = dest
        binding.stats = stats
        binding.ledger = TenantLedger(
            energy_joules=checkpoint.energy_joules,
            busy_seconds=checkpoint.busy_seconds,
            steps=checkpoint.steps,
        )
        binding.run_segments = list(segments)
        binding.next_request = checkpoint.next_request
        binding.finished = False
        binding.starved = False
        runtime.begin()
        if checkpoint.snapshot is not None:
            runtime.restore(checkpoint.snapshot)
        for index, arrival in checkpoint.pending:
            runtime.feed(
                binding.tenant.job_factory(index),
                on_complete=partial(stats.record_completion, arrival),
                tag=(index, arrival),
            )
        engine.hosts[dest].instances.append(binding)
        self._pump.add(binding, checkpoint.offered)

    def emigrate(
        self, record: MigrationRecord
    ) -> tuple[TenantCheckpoint, tuple[RunResult, ...]]:
        """The source half of a migration, from an owned machine.

        Queued-but-unstarted requests are extracted to move with the
        tenant; the request in flight (if any) is then drained to
        completion on the source host — every drain ``step()`` metered
        to the tenant exactly like scheduled steps — before the runtime
        is finished and its segment banked.  Returns the drained tenant
        as a checkpoint (``pending`` holds the extracted tags;
        ``snapshot`` is set only for a warm move, captured *after* the
        drain, so the destination resumes from the last operating point
        the source actually ran at) and its run segments, for
        :meth:`absorb`.
        """
        engine = self.engine
        binding = engine._by_name[record.tenant]
        self._pump.remove(binding)
        host = engine.hosts[binding.machine_index]
        runtime = binding.runtime
        pending = tuple(tag for _, tag in runtime.extract_pending())
        runtime.close_input()
        while not binding.finished:
            if engine._metered_step(host, binding) is StepStatus.FINISHED:
                binding.finished = True
        segments = (*binding.run_segments, runtime.finish())
        host.instances.remove(binding)
        stats, ledger = binding.stats, binding.ledger
        # Not capture_tenant_checkpoint: the queue is already extracted,
        # and a cold move takes no snapshot (its controller need not
        # support one).
        checkpoint = TenantCheckpoint(
            tenant=record.tenant,
            machine_index=binding.machine_index,
            offered=stats.offered,
            rejected=stats.rejected,
            completions=stats.completion_pairs(),
            next_request=binding.next_request,
            pending=pending,
            energy_joules=ledger.energy_joules,
            busy_seconds=ledger.busy_seconds,
            steps=ledger.steps,
            finished=True,
            snapshot=runtime.snapshot() if record.warm else None,
        )
        return checkpoint, segments

    def absorb(
        self,
        checkpoint: TenantCheckpoint,
        segments: Sequence[RunResult],
        record: MigrationRecord,
    ) -> None:
        """The destination half of a migration: :meth:`restore`, then
        the move's ``cost_seconds`` charged to the tenant's ledger (time
        only — migration conserves energy; a failure restore charges
        nothing, since a charge counts a step)."""
        dest = record.dest_machine_index
        self.restore(record.tenant, checkpoint, dest, segments)
        self.engine._by_name[record.tenant].ledger.charge(
            0.0, record.cost_seconds
        )

    def apply(
        self,
        caps: tuple[float | None, ...] | None,
        dead: Sequence[int],
        restores: Sequence[tuple[str, int, TenantCheckpoint]],
        migrations: Sequence[MigrationRecord],
    ) -> None:
        """The serial transport's effect: the barrier's plan, in process.

        Fail-stops first (a dying machine keeps its pre-barrier
        frequency), then caps (a None entry leaves that machine alone),
        then victim restores, then each migration's two halves back to
        back, in plan order.
        """
        self.kill(dead)
        if caps is not None:
            self.enforce(
                (i, watts) for i, watts in enumerate(caps) if watts is not None
            )
        for tenant, dest, checkpoint in restores:
            self.restore(tenant, checkpoint, dest)
        for record in migrations:
            self.absorb(*self.emigrate(record), record)

    def finish(self, final_time: float) -> list[dict[str, Any]]:
        """Settle to the last event, close input, drain: the payloads."""
        self.settle(final_time)
        resident = self.residents()
        for binding in resident:
            binding.runtime.close_input()
        for host in self.hosts:
            self.engine._drain(host)
        return [
            _final_payload(
                self.engine, self.machine_indices, resident, self._started
            )
        ]


class DatacenterEngine:
    """Runs a multi-tenant, multi-machine scenario to completion.

    Args:
        machines: The machine pool (each with its own clock and meter).
        bindings: Tenant instances placed on those machines; every
            binding's runtime must execute on ``machines[machine_index]``.
        policy: Optional control policy (any
            :class:`~repro.datacenter.controlplane.actions.ControlPolicy`,
            e.g. a :class:`~repro.datacenter.arbiter.PowerArbiter`).
            Consulted at time zero and then at every control barrier;
            its actions are validated and applied through the shared
            control-plane applier.
        control_period: Seconds between periodic control barriers.
        attainment_window: Lookback horizon for the per-barrier SLA
            attainment signal summarized in the policy's view.
        backend: ``"serial"`` (lazy single-process, default) or
            ``"sharded"`` (multiprocess; identical results).
        workers: Worker-process count for the sharded backend (clamped
            to the machine count; default: the host's CPU count).
            Ignored by the serial backend.
        journal: Optional run journal (anything with a ``write_record``
            method, normally a
            :class:`~repro.datacenter.journal.writer.JournalWriter`).
            When set, every control barrier appends one record — the
            policy's raw actions, the applied budget/caps/migrations/
            failures, and a full cluster checkpoint — making the run
            replayable and crash-resumable from the journal alone.
        faults: Optional :class:`~repro.datacenter.faults.FaultPlan`
            (requires a policy); the engine runs it through a
            :class:`~repro.datacenter.faults.FaultInjector`.
        step_mode: ``"scalar"`` or ``"batched"``; anything else raises
            :class:`EngineError`.  Both values run the one per-item
            :class:`~repro.core.runtime.PowerDialRuntime` step path and
            nothing reads the choice.  The keyword stays only because
            the repository benchmark (``perfbench/workloads.py``)
            passes it.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        bindings: Sequence[InstanceBinding],
        policy: ControlPolicy | None = None,
        control_period: float = 10.0,
        attainment_window: float = 20.0,
        backend: str = "serial",
        workers: int | None = None,
        journal=None,
        faults: FaultPlan | None = None,
        step_mode: str = "scalar",
    ) -> None:
        if not machines:
            raise EngineError("engine needs at least one machine")
        if not bindings:
            raise EngineError("engine needs at least one tenant instance")
        if control_period <= 0 or attainment_window <= 0:
            raise EngineError("control period and window must be positive")
        if backend not in ENGINE_BACKENDS:
            raise EngineError(
                f"unknown backend {backend!r}; expected one of {ENGINE_BACKENDS}"
            )
        if step_mode not in ("scalar", "batched"):
            raise EngineError(
                f"unknown step_mode {step_mode!r}; expected 'scalar' or "
                "'batched'"
            )
        if workers is not None and workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers!r}")
        names = [binding.tenant.name for binding in bindings]
        if len(set(names)) != len(names):
            raise EngineError(f"tenant names must be unique, got {names!r}")
        for binding in bindings:
            if not 0 <= binding.machine_index < len(machines):
                raise EngineError(
                    f"machine index {binding.machine_index!r} out of range"
                )
            if binding.runtime.machine is not machines[binding.machine_index]:
                raise EngineError(
                    f"tenant {binding.tenant.name!r}'s runtime is not bound "
                    f"to machine {binding.machine_index}"
                )
        if policy is not None:
            for required in ("decide", "initial_budget_watts", "barrier_times"):
                if not callable(getattr(policy, required, None)):
                    raise EngineError(
                        f"policy {policy!r} does not implement ControlPolicy "
                        f"(missing {required}())"
                    )
        if faults is not None:
            if policy is None:
                raise EngineError(
                    "fault injection requires a control policy: faults bite "
                    "at control barriers, and without a policy there are none"
                )
            if faults.max_machine_index() >= len(machines):
                raise EngineError(
                    f"fault plan references machine "
                    f"{faults.max_machine_index()} but the pool has only "
                    f"{len(machines)} machines"
                )
        self.machines = list(machines)
        self.bindings = list(bindings)
        self.policy = policy
        self.control_period = control_period
        self.attainment_window = attainment_window
        self.backend = backend
        self.workers = workers
        self.hosts = [
            _Host(i, machine, [b for b in self.bindings if b.machine_index == i])
            for i, machine in enumerate(self.machines)
        ]
        # Enforceable cap range per machine, for central action validation.
        self._cap_floors, self._cap_ceilings = machine_limits(self.machines)
        # The run's gray failures (None on a clean run): what the
        # control plane observes and what its caps land as.
        self.faults = (
            FaultInjector(faults, self._cap_floors, self._cap_ceilings)
            if faults is not None
            else None
        )
        self._initial_budget: float | None = (
            policy.initial_budget_watts() if policy is not None else None
        )
        self._budget = self._initial_budget
        self._caps: tuple[float, ...] | None = None
        # One record per control barrier, in order: the run's only
        # per-barrier history, which the result's histories derive from.
        self.barriers: list[BarrierRecord] = []
        # Watts last handed to each machine's transport, so a barrier
        # sends only the caps that change.
        self._sent_watts: list[float | None] = [None] * len(self.machines)
        # Machines that have fail-stopped: clock and meter frozen at the
        # death barrier, never advanced or capped again.
        self.dead_machines: set[int] = set()
        self.journal = journal
        # The barriers that capture checkpoints, fixed when run() starts
        # (None: every barrier); see _checkpoint_rule.
        self._capture_times: frozenset[float] | None = frozenset()
        # This barrier's checkpoints (None when it captured none): what
        # a failure restores from, what the journal records and what
        # resume attests.
        self._last_checkpoints: dict[str, TenantCheckpoint] | None = None
        self._last_machine_checkpoints: dict[int, MachineCheckpoint] = {}
        # The previous journaled barrier's tenant checkpoints, so each
        # barrier record stores completions as an append-only delta.
        self._journaled_checkpoints: dict[str, TenantCheckpoint] = {}
        # Watt-seconds per machine that no tenant was running for; the
        # billing conservation invariant is
        #   sum(binding.ledger.energy_joules) + sum(idle_energy_joules)
        #       == total metered pool energy.
        self.idle_energy_joules: list[float] = [0.0] * len(self.machines)
        self._by_name = {binding.tenant.name: binding for binding in self.bindings}
        # Filled by the sharded backend after run(): per-shard CPU
        # seconds, barrier waits excluded (bench-harness telemetry).
        self.shard_busy_seconds: list[float] | None = None
        # Barrier-plane telemetry, filled by run(): the coordinator's
        # own CPU seconds (sharded only) and a per-run breakdown of the
        # barrier plane — barriers carried by the transport, the
        # pickled bytes, pickling and waiting seconds of every wire
        # frame, and the barrier step's own seconds.  The serial
        # transport counts the time-zero barrier and has no wire (zero
        # bytes); the sharded one counts only the barriers after the
        # fork.
        self.coordinator_busy_seconds: float | None = None
        self.barrier_stats: dict[str, Any] | None = None
        self._ran = False

    # ------------------------------------------------------------------
    # Control-plane plumbing shared by all backends
    # ------------------------------------------------------------------
    def _tick_times(self) -> list[float]:
        """Control-barrier times over the scenario horizon.

        Periodic barriers every ``control_period`` plus any instants the
        policy requests (e.g. budget-trace timestamps), deduplicated and
        sorted — the same list on every backend.
        """
        if self.policy is None:
            return []
        horizon = max(b.tenant.trace.duration for b in self.bindings)
        ticks = {
            k * self.control_period
            for k in range(1, int(math.floor(horizon / self.control_period)) + 1)
        }
        ticks.update(
            t for t in self.policy.barrier_times(horizon) if 0.0 < t <= horizon
        )
        if self.faults is not None:
            # Fault-window edges and kill instants are barriers too, so
            # every fault bites (and clears) exactly when scheduled.
            ticks.update(self.faults.plan.barrier_times(horizon))
        return sorted(ticks)

    def _final_event_time(self, tick_times: Sequence[float]) -> float:
        """Time of the last global event (all hosts settle to it)."""
        last = tick_times[-1] if tick_times else 0.0
        for binding in self.bindings:
            arrivals = binding.tenant.trace.arrivals
            if arrivals:
                last = max(last, arrivals[-1])
        return last

    def _tenant_shortfall(self, binding: InstanceBinding, now: float) -> float:
        """One tenant's SLA shortfall over the attainment window.

        ``max(0, target - recent attainment)``; a tenant with nothing
        completed counts as fully violating if work is backed up,
        otherwise as quiet.
        """
        sla = binding.tenant.sla
        attainment = binding.stats.recent_attainment(
            sla.latency_bound, now - self.attainment_window, now
        )
        if attainment is None:
            backlogged = binding.runtime.pending_jobs > 0
            return sla.attainment_target if backlogged else 0.0
        return max(0.0, sla.attainment_target - attainment)

    def _tenant_view(self, binding: InstanceBinding, now: float) -> TenantView:
        """Snapshot one tenant for the policy's cluster view.

        Shared verbatim by the serial engine and the shard workers, so
        the floats a policy sees are backend-independent.
        """
        return TenantView(
            name=binding.tenant.name,
            machine_index=binding.machine_index,
            weight=binding.tenant.weight,
            sla_shortfall=self._tenant_shortfall(binding, now),
            pending_jobs=binding.runtime.pending_jobs,
            finished=binding.finished,
            energy_joules=binding.ledger.energy_joules,
            busy_seconds=binding.ledger.busy_seconds,
            steps=binding.ledger.steps,
        )

    def _control_view(
        self, now: float, tenants: tuple[TenantView, ...]
    ) -> ClusterView:
        """Assemble the immutable snapshot handed to the policy from the
        transport's tenant views (in binding order) and the engine's own
        machine state.  A live machine reads ``fresh``: only the fault
        injector's observation makes one look otherwise."""
        machines = tuple(
            MachineView(
                index=index,
                cap_floor=self._cap_floors[index],
                cap_ceiling=self._cap_ceilings[index],
                cap_watts=self._caps[index] if self._caps is not None else None,
                alive=index not in self.dead_machines,
                health=(
                    HEALTH_DEAD
                    if index in self.dead_machines
                    else HEALTH_FRESH
                ),
            )
            for index in range(len(self.machines))
        )
        return ClusterView(
            time=now, budget_watts=self._budget, machines=machines,
            tenants=tenants,
        )

    def _decide_plan(
        self, view: ClusterView
    ) -> tuple[list[Action], ControlPlan]:
        """Ask the policy for actions and validate them centrally.

        Returns both the policy's raw actions (journaled verbatim, so a
        replay can re-issue exactly what the policy said) and the
        validated :class:`ControlPlan` the engine applies.
        """
        if self.policy is None:
            raise EngineError("control barrier scheduled without a policy")
        if self.faults is not None:
            view = self.faults.observe(view)
        actions = list(self.policy.decide(view))
        plan = plan_actions(
            actions, view, self._cap_floors, self._cap_ceilings, self._budget
        )
        return actions, plan

    def _changed_caps(
        self, caps: tuple[float | None, ...] | None
    ) -> tuple[float | None, ...] | None:
        """``caps`` with each entry equal to the watts last sent to its
        machine replaced by None.

        Re-applying a machine's current cap selects the P-state it is
        already in, so every transport is handed only the caps that
        change; a machine's first cap is always sent.
        """
        if caps is None:
            return None
        sent = self._sent_watts
        changed: list[float | None] = []
        for index, watts in enumerate(caps):
            if watts is None or watts == sent[index]:
                changed.append(None)
            else:
                sent[index] = watts
                changed.append(watts)
        return tuple(changed)

    def _checkpoint_rule(
        self, tick_times: Sequence[float]
    ) -> frozenset[float] | None:
        """The barriers whose checkpoints something reads (None: every one).

        A journal records every barrier's checkpoints, and a policy
        declaring ``may_fail_machines`` may restore from any of them.  A
        policy that knows in advance where it fails machines — its
        ``failure_times``, as a journal replay, a resume or a chaos
        schedule does — is read only there, and at any barrier (time
        zero or one of ``tick_times``) up to ``TIME_SLACK`` short of
        such an instant, where a failure due then already fires.
        Otherwise nothing reads a checkpoint, so ordinary runs capture
        none.
        """
        if self.journal is not None:
            return None
        known = getattr(self.policy, "failure_times", None)
        if known is not None:
            known = frozenset(known)
            return known.union(
                tick
                for tick in (0.0, *tick_times)
                if any(0.0 < instant - tick <= TIME_SLACK for instant in known)
            )
        if getattr(self.policy, "may_fail_machines", False):
            return None
        return frozenset()

    def _place_failures(
        self, plan: ControlPlan, now: float
    ) -> tuple[list[FailureRecord], list[tuple[str, int, TenantCheckpoint]]]:
        """Fail-stop the plan's machines and re-place their tenants.

        :func:`~repro.datacenter.controlplane.applier.plan_failures`
        picks each victim's surviving destination; the failing machines
        are marked dead here, so the effect's caps skip them.  Returns
        the failure records and the ``(tenant, dest, checkpoint)``
        restores the transport's effect carries out, from the
        checkpoints captured at this same barrier — never an older one.
        """
        if not plan.failures:
            return [], []
        if self._last_checkpoints is None:
            raise EngineError(
                f"FailMachine at t={now!r} requires this barrier's "
                "checkpoints, but none were captured: run with a journal "
                "attached or a policy declaring may_fail_machines or "
                "failure_times (e.g. ChaosPolicy)"
            )
        failed = [failure.machine_index for failure in plan.failures]
        moves = plan_failures(
            [(b.tenant.name, b.machine_index) for b in self.bindings],
            len(self.machines),
            set(self.dead_machines),
            failed,
        )
        self.dead_machines.update(failed)
        failures = []
        restores = []
        for index, machine_moves in moves:
            replacements = tuple(
                MigrationRecord(
                    time=now,
                    tenant=tenant,
                    source_machine_index=index,
                    dest_machine_index=dest,
                    cost_seconds=0.0,
                    warm=True,
                )
                for tenant, dest in machine_moves
            )
            failures.append(
                FailureRecord(
                    time=now, machine_index=index, replacements=replacements
                )
            )
            restores.extend(
                (tenant, dest, self._last_checkpoints[tenant])
                for tenant, dest in machine_moves
            )
        return failures, restores

    def _journal_barrier(self, record: BarrierRecord) -> None:
        """Append ``record`` with this barrier's checkpoints to the run
        journal (if attached): tenants in binding order, machines in
        pool order.

        Written *after* the barrier's actions applied — a crash inside
        a barrier therefore leaves a journal ending at the previous
        complete barrier, which is the resume point.
        """
        if self.journal is None:
            return
        # Imported lazily: the journal package's replay module imports
        # this engine, so a module-level import would be circular.
        from repro.datacenter.journal import codec

        tenants = self._last_checkpoints or {}
        machines = self._last_machine_checkpoints
        self.journal.write_record(
            codec.encode_barrier(
                record,
                (
                    [tenants[binding.tenant.name] for binding in self.bindings],
                    [machines[index] for index in range(len(machines))],
                ),
                self._journaled_checkpoints,
            )
        )
        self._journaled_checkpoints = dict(tenants)

    def _barrier(self, now: float, gathered: tuple[Any, Any], transport) -> None:
        """Run one control barrier; the same step on every backend.

        ``gathered`` is the transport's ``(tenant views, checkpoints)``
        for the settled barrier.  Then: view -> decide -> budget and
        caps -> actuate -> place failures and migrations -> the
        transport's effect -> one :class:`BarrierRecord`, appended to
        ``barriers`` and journaled.  Application order is canonical —
        budget, then caps, then failures, then migrations — so a
        migration's source-host drain always runs under the freshly
        enforced caps and never races a machine dying at the same
        barrier.  The record (actions, applied effects) and its journal
        line (with the checkpoints) are made after everything applied.
        """
        started = time.perf_counter()
        views, checkpoints = gathered
        self._last_checkpoints, self._last_machine_checkpoints = (
            checkpoints if checkpoints is not None else (None, {})
        )
        actions, plan = self._decide_plan(self._control_view(now, views))
        if plan.budget_watts is not None:
            self._budget = plan.budget_watts
        if plan.caps is not None:
            self._caps = plan.caps
        # The commanded caps became the control plane's belief above;
        # what lands may differ under faults.
        applied, faults, retries = plan.caps, (), ()
        if self.faults is not None:
            dying = {failure.machine_index for failure in plan.failures}
            applied, faults, retries = self.faults.actuate(
                now, plan.caps, self.dead_machines, dying
            )
        caps = self._changed_caps(applied)
        failures, restores = self._place_failures(plan, now)
        migrations = [
            MigrationRecord(
                time=now,
                tenant=migration.tenant,
                source_machine_index=self._by_name[migration.tenant].machine_index,
                dest_machine_index=migration.dest_machine_index,
                cost_seconds=migration.cost_seconds,
                warm=migration.warm,
            )
            for migration in plan.migrations
        ]
        transport.apply(
            caps, [f.machine_index for f in failures], restores, migrations
        )
        # The coordinator's placement follows what was applied (in
        # process the effect already moved these very bindings).
        for record in (
            *(move for failure in failures for move in failure.replacements),
            *migrations,
        ):
            self._by_name[record.tenant].machine_index = record.dest_machine_index
        record = BarrierRecord(
            index=len(self.barriers),
            time=now,
            actions=tuple(actions),
            budget_watts=self._budget,
            caps=self._caps,
            tenants=None,
            machines=None,
            migrations=tuple(migrations),
            failures=tuple(failures),
            faults=faults,
            retries=retries,
        )
        self.barriers.append(record)
        self._journal_barrier(record)
        stats = self.barrier_stats
        stats["apply_seconds"] += time.perf_counter() - started
        stats["barriers"] += 1

    def _advance(self, host: _Host, until: float) -> None:
        """Run ``host`` cooperatively until its clock reaches ``until``.

        Every ``step()`` dispatched here is metered: the increase of the
        machine meter's integrated energy and of the machine clock
        across the step is charged to the stepping tenant's ledger.  The
        closing ``idle_until`` settlement belongs to no tenant and
        accumulates as the machine's unattributed idle energy.  A
        fail-stopped machine is never advanced: its clock and meter
        stay frozen at the death barrier (fail-stop semantics — the
        billing conservation invariant is unaffected because a frozen
        meter accrues nothing).
        """
        if host.index in self.dead_machines:
            return
        machine = host.machine
        clock = machine.clock
        settled = until - SETTLE_SLACK
        while clock.now < settled:
            instance = host.next_runnable()
            if instance is None:
                energy_before = machine.meter.energy_joules
                machine.idle_until(until)
                self.idle_energy_joules[host.index] += (
                    machine.meter.energy_joules - energy_before
                )
                return
            status = self._metered_step(host, instance)
            if status is StepStatus.STARVED:
                instance.starved = True
            elif status is StepStatus.FINISHED:
                instance.finished = True

    def _metered_step(self, host: _Host, instance: InstanceBinding) -> StepStatus:
        """Dispatch one ``step()`` and charge its deltas to the tenant.

        The single choke point for billing attribution: every backend
        and every phase (event pumping, migration drains, and the
        post-input drain) must route step dispatch through here, or the
        conservation invariant breaks.
        """
        machine = host.machine
        meter, clock = machine.meter, machine.clock
        energy_before = meter.energy_joules
        started = clock.now
        status = instance.runtime.step()
        instance.ledger.charge(
            meter.energy_joules - energy_before, clock.now - started
        )
        return status

    def _drain(self, host: _Host) -> None:
        """Run every resident instance to completion (input closed)."""
        while True:
            unfinished = [i for i in host.instances if not i.finished]
            if not unfinished:
                return
            for instance in unfinished:
                if self._metered_step(host, instance) is StepStatus.FINISHED:
                    instance.finished = True

    def _dispatch_arrival(self, binding: InstanceBinding, now: float) -> None:
        """Offer one arrival to its tenant: admission control + feed."""
        stats, runtime, tenant = binding.stats, binding.runtime, binding.tenant
        stats.record_offer()
        if runtime.pending_jobs >= tenant.max_queue_depth:
            stats.record_rejection()
            return
        index = binding.next_request
        binding.next_request = index + 1
        runtime.feed(
            tenant.job_factory(index),
            on_complete=partial(stats.record_completion, now),
            tag=(index, now),
        )
        binding.starved = False

    # ------------------------------------------------------------------
    # Run orchestration
    # ------------------------------------------------------------------
    def run(self) -> DatacenterResult:
        """Execute the scenario and collect per-tenant results.

        One loop for both backends: arm every runtime, run the
        time-zero barrier in process, then for each barrier time let
        the transport gather the settled barrier and run
        :meth:`_barrier` over it; finally the transport settles to the
        last event, drains, and returns the payloads the result is
        composed from.
        """
        if self._ran:
            raise EngineError("engine scenarios are single-use; build a new one")
        self._ran = True
        # Barrier times first: a policy may derive per-run state (e.g.
        # a chaos kill schedule) in barrier_times(), which the
        # time-zero decide already relies on.
        tick_times = self._tick_times()
        final_time = self._final_event_time(tick_times)
        # Fixed before any fork, so every shard worker captures exactly
        # where the coordinator reads.
        self._capture_times = self._checkpoint_rule(tick_times)
        for index, machine in enumerate(self.machines):
            # Energy already on a meter (a machine reused after e.g. a
            # calibration run) predates every tenant: fold it into the
            # unattributed account so conservation holds regardless.
            if machine.meter.energy_joules:
                self.idle_energy_joules[index] += machine.meter.energy_joules
        for binding in self.bindings:
            binding.runtime.begin()
        self.barrier_stats = _barrier_stats()
        local = HostGroup(self, range(len(self.machines)))
        if self.policy is not None:
            # Enforce the budget from time zero (no SLA signal yet, and
            # no arrival dispatched, so nothing settles).  Shard workers
            # fork from its outcome.
            self._barrier(0.0, local.read(0.0), local)
        context = contextlib.nullcontext(local)
        if self.backend == "sharded":
            from repro.datacenter.shard import run_sharded

            # The sharded stats describe the wire's barriers only.
            self.barrier_stats = _barrier_stats()
            context = run_sharded(self, tick_times, final_time)
        with context as transport:
            for now in tick_times:
                self._barrier(now, transport.gather(now), transport)
            payloads = transport.finish(final_time)
        return self._compose_result(payloads)

    def _compose_result(self, payloads: Sequence[dict[str, Any]]) -> DatacenterResult:
        """Assemble the :class:`DatacenterResult` from host-group payloads.

        Every piece is reassembled in binding or machine order, so each
        float is summed in the same order whichever backend — and
        however many groups — produced it.  The engine's bindings and
        idle account are updated to match, so callers inspecting the
        engine after ``run()`` see the same data on every backend.  The
        histories derive from ``barriers``: caps at each ``SetCaps``
        barrier, the initial budget and then each ``SetBudget``
        barrier's, and every barrier's own records in barrier order.
        """
        parts: dict[str, dict] = {
            key: {}
            for key in (
                "reports", "stats", "ledgers", "run_segments",
                "machine_power", "machine_energy", "machine_idle",
                "machine_now",
            )
        }
        for payload in payloads:
            for key, part in parts.items():
                part.update(payload[key])
        for binding in self.bindings:
            binding.stats = parts["stats"][binding.tenant.name]
            binding.ledger = parts["ledgers"][binding.tenant.name]
        machines = range(len(self.machines))
        for index in machines:
            self.idle_energy_joules[index] = parts["machine_idle"][index]
        segments = parts["run_segments"]
        barriers = self.barriers
        budgets = (
            [] if self._initial_budget is None else [(0.0, self._initial_budget)]
        )
        budgets.extend(
            (barrier.time, barrier.budget_watts)
            for barrier in barriers
            if any(isinstance(action, SetBudget) for action in barrier.actions)
        )
        reports = [parts["reports"][b.tenant.name] for b in self.bindings]
        return DatacenterResult(
            tenant_reports=reports,
            run_results={
                b.tenant.name: merge_run_results(segments[b.tenant.name])
                for b in self.bindings
            },
            bills=[
                compose_bill(
                    binding.machine_index,
                    report,
                    binding.ledger,
                    segments[binding.tenant.name],
                )
                for binding, report in zip(self.bindings, reports)
            ],
            idle_energy_joules=list(self.idle_energy_joules),
            machine_mean_power=[parts["machine_power"][i] for i in machines],
            total_energy_joules=sum(parts["machine_energy"][i] for i in machines),
            makespan=max(parts["machine_now"][i] for i in machines),
            budget_watts=self._budget,
            cap_history=[
                (barrier.time, barrier.caps)
                for barrier in barriers
                if any(isinstance(action, SetCaps) for action in barrier.actions)
            ],
            budget_history=budgets,
            migrations=[m for barrier in barriers for m in barrier.migrations],
            failures=[f for barrier in barriers for f in barrier.failures],
            faults=[f for barrier in barriers for f in barrier.faults],
            retries=[r for barrier in barriers for r in barrier.retries],
        )


def _barrier_stats() -> dict[str, Any]:
    """Zeroed barrier-plane telemetry (see ``barrier_stats``)."""
    return {
        "barriers": 0,
        "payload_bytes": 0,
        "serialize_seconds": 0.0,
        "wait_seconds": 0.0,
        "apply_seconds": 0.0,
    }
