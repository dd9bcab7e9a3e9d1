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
                  when the run checkpoints, every tenant and machine
                  checkpoint
        barrier   view -> decide -> record -> actuate -> place failures
                  and migrations -> effect -> journal

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
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from repro.core.runtime import PowerDialRuntime, RunResult, StepStatus
from repro.datacenter.billing import (
    TenantBill,
    TenantLedger,
    compose_bill,
    conservation_summary,
)
from repro.datacenter.checkpoint import (
    MachineCheckpoint,
    TenantCheckpoint,
    capture_machine_checkpoint,
    capture_tenant_checkpoint,
    restore_from_checkpoint,
)
from repro.datacenter.controlplane.actions import (
    Action,
    ClusterView,
    ControlError,
    ControlPolicy,
    FailureRecord,
    MachineView,
    MigrationRecord,
    TenantView,
)
from repro.datacenter.controlplane.applier import (
    ControlPlan,
    MigrantState,
    RetryState,
    enforce_caps,
    machine_limits,
    merge_run_results,
    plan_actions,
    plan_failures,
    retry_backoff_seconds,
)
from repro.datacenter.faults import FaultPlan, FaultRecord, RetryRecord
from repro.datacenter.tenants import TenantReport, TenantSpec, TenantStats
from repro.datacenter.tolerances import (
    SETTLE_SLACK,
    TARGET_SLACK,
    TIME_SLACK,
    WATT_SLACK,
)
from repro.hardware.machine import Machine
from repro.hardware.power import PowerError
from repro.heartbeats.health import (
    HEALTH_DEAD,
    HEALTH_FRESH,
    HEALTH_STALE,
    HEALTH_UNRESPONSIVE,
    classify_heartbeat_age,
)

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
        for offset in range(len(self.instances)):
            index = (self._rr + offset) % len(self.instances)
            instance = self.instances[index]
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

    def remove(self, binding: InstanceBinding) -> int:
        """Stop pumping ``binding``; returns its resume position."""
        cursor = self._cursors.pop(id(binding))
        cursor[3] = None  # invalidate: its heap entry is now stale
        return cursor[2]

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
        self,
    ) -> tuple[dict[str, TenantCheckpoint], dict[int, MachineCheckpoint]] | None:
        """Every resident's and owned machine's checkpoint, if the run
        checkpoints (a journal, or a policy that may kill machines).

        Captured before the barrier's views are read, so the state is
        exactly what the policy's view summarizes and what a failure at
        this barrier restores from.
        """
        engine = self.engine
        if not engine._checkpointing:
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
        checkpoints = self.checkpoints()
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
        self, tenant: str, checkpoint: TenantCheckpoint, dest: int
    ) -> None:
        """Rebuild a failed machine's tenant on owned machine ``dest``."""
        binding = self.engine._by_name[tenant]
        restore_from_checkpoint(self.engine, binding, checkpoint, dest)
        # offered == the tenant's arrival-stream cursor.
        self._pump.add(binding, checkpoint.offered)

    def emigrate(self, record: MigrationRecord) -> MigrantState:
        """The source half of a migration, from an owned machine.

        Queued-but-unstarted requests are extracted to move with the
        tenant; the request in flight (if any) is then drained to
        completion on the source host — every drain ``step()`` metered
        to the tenant exactly like scheduled steps — before the runtime
        is finished and its segment banked.  For a warm move the
        drained runtime's control state (controller integrator, plan
        cache, heartbeat window, quantum phase) is captured *after* the
        drain, so the destination resumes from the last operating point
        the source actually ran at.
        """
        engine = self.engine
        binding = engine._by_name[record.tenant]
        trace_pos = self._pump.remove(binding)
        host = engine.hosts[binding.machine_index]
        runtime = binding.runtime
        pending = tuple(runtime.extract_pending())
        runtime.close_input()
        while not binding.finished:
            if engine._metered_step(host, binding) is StepStatus.FINISHED:
                binding.finished = True
        segment = runtime.finish()
        host.instances.remove(binding)
        return MigrantState(
            tenant=binding.tenant.name,
            source_machine_index=binding.machine_index,
            pending=pending,
            stats=binding.stats,
            ledger=binding.ledger,
            run_segments=tuple(binding.run_segments) + (segment,),
            next_request=binding.next_request,
            trace_pos=trace_pos,
            snapshot=runtime.snapshot() if record.warm else None,
        )

    def absorb(self, migrant: MigrantState, record: MigrationRecord) -> None:
        """The destination half of a migration, onto an owned machine.

        Rebuilds the tenant's runtime on the destination via the
        binding's ``runtime_factory``, restores the shipped stats,
        ledger and segments, re-feeds the moved pending requests
        (completion hooks re-attached to the shipped stats), and
        charges the move's ``cost_seconds`` to the tenant's ledger
        (time only — migration conserves energy).  A warm migrant's
        snapshot is replayed into the fresh runtime before any request
        runs, so the destination's first control period continues from
        the source's last instead of the baseline.
        """
        engine = self.engine
        binding = engine._by_name[migrant.tenant]
        dest = record.dest_machine_index
        if binding.runtime_factory is None:
            raise ControlError(
                f"tenant {binding.tenant.name!r} has no runtime_factory; "
                "migration requires one to rebuild the instance on the "
                "destination machine"
            )
        machine = engine.machines[dest]
        runtime = binding.runtime_factory(machine)
        if runtime.machine is not machine:
            raise ControlError(
                f"runtime_factory for tenant {binding.tenant.name!r} returned a "
                "runtime bound to the wrong machine"
            )
        binding.runtime = runtime
        binding.machine_index = dest
        binding.stats = migrant.stats
        binding.ledger = migrant.ledger
        binding.run_segments = list(migrant.run_segments)
        binding.next_request = migrant.next_request
        binding.finished = False
        binding.starved = False
        runtime.begin()
        if migrant.snapshot is not None:
            runtime.restore(migrant.snapshot)
        stats = binding.stats
        for job, tag in migrant.pending:
            _, arrival = tag
            runtime.feed(
                job,
                on_complete=lambda completion, arrival=arrival: (
                    stats.record_completion(arrival, completion)
                ),
                tag=tag,
            )
        engine.hosts[dest].instances.append(binding)
        binding.ledger.charge(0.0, record.cost_seconds)
        self._pump.add(binding, migrant.trace_pos)

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
            self.absorb(self.emigrate(record), record)

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
        self._budget: float | None = (
            policy.initial_budget_watts() if policy is not None else None
        )
        self._caps: tuple[float, ...] | None = None
        # (time, watts) per budget level, starting with the initial one.
        self.budget_history: list[tuple[float, float]] = []
        # (time, per-machine caps) per applied SetCaps.
        self.cap_history: list[tuple[float, tuple[float, ...]]] = []
        # Applied migrations, in application order.
        self.migration_history: list[MigrationRecord] = []
        # Applied machine failures (chaos injection), in order.
        self.failure_history: list[FailureRecord] = []
        # Gray-failure injection (see repro.datacenter.faults): the
        # plan drives per-barrier telemetry filtering and actuation
        # faults; every injected fault and applier retry is recorded.
        self.faults = faults
        self.fault_history: list[FaultRecord] = []
        self.retry_history: list[RetryRecord] = []
        # Per-machine health as of the latest barrier (fresh / stale /
        # unresponsive / dead), with recovery hysteresis deadlines.
        self._health: list[str] = [HEALTH_FRESH] * len(self.machines)
        self._last_fresh_time: list[float] = [0.0] * len(self.machines)
        self._last_fresh_views: dict[str, TenantView] = {}
        self._delayed_machines = (
            faults.delayed_machines() if faults is not None else frozenset()
        )
        # Barrier-view history, kept only for delay-mode machines.
        self._view_log: dict[int, list[tuple[float, dict[str, TenantView]]]] = {}
        self._reintegrate_at: dict[int, float] = {}
        # Applier retry loops per machine, plus targets it has given
        # up on (until the fault clears or a new target arrives).
        self._retries: dict[int, RetryState] = {}
        self._abandoned: dict[int, float] = {}
        # Last watts actually landed on each machine's actuator —
        # distinct from self._caps (the *commanded* caps) while
        # actuator faults or stragglers are active.
        self._applied_watts: dict[int, float] = {}
        # Watts last handed to each machine's transport, so a barrier
        # sends only the caps that change.
        self._sent_watts: list[float | None] = [None] * len(self.machines)
        self._straggling: set[int] = set()
        # Fault windows already journaled (announced once, at the
        # first barrier where they bite).
        self._announced: set[tuple[str, int]] = set()
        self._barrier_fault_records: list[FaultRecord] = []
        # Machines that have fail-stopped: clock and meter frozen at the
        # death barrier, never advanced or capped again.
        self.dead_machines: set[int] = set()
        self.journal = journal
        # Per-barrier cluster checkpoints are captured only when someone
        # needs them (a journal, or a policy that may kill machines) so
        # ordinary runs pay zero checkpoint overhead.
        self._checkpointing = journal is not None or bool(
            getattr(policy, "may_fail_machines", False)
        )
        # The latest barrier's checkpoints: what a failure restores from,
        # what the journal records and what resume attests.
        self._last_checkpoints: dict[str, TenantCheckpoint] | None = None
        self._last_machine_checkpoints: dict[int, MachineCheckpoint] = {}
        # The previous journaled barrier's tenant checkpoints, so each
        # barrier record stores completions as an append-only delta.
        self._journaled_checkpoints: dict[str, TenantCheckpoint] = {}
        self._barrier_index = 0
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
            ticks.update(
                t
                for t in self.faults.barrier_times(horizon)
                if 0.0 < t <= horizon
            )
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
        machine state."""
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
                    else self._health[index]
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
            self._barrier_fault_records = []
            view = self._observe_view(view)
        actions = list(self.policy.decide(view))
        plan = plan_actions(
            actions, view, self._cap_floors, self._cap_ceilings, self._budget
        )
        return actions, plan

    def _announce_fault(
        self, now: float, kind: str, machine_index: int, mode: str | None, key: tuple[str, int]
    ) -> None:
        """Journal a fault window once, at the first barrier it bites."""
        if key in self._announced:
            return
        self._announced.add(key)
        record = FaultRecord(
            time=now, kind=kind, machine_index=machine_index, mode=mode
        )
        self._barrier_fault_records.append(record)
        self.fault_history.append(record)

    def _observe_view(self, view: ClusterView) -> ClusterView:
        """Filter the true cluster view through the plan's sensor faults.

        The control plane sees what the (possibly lying) telemetry
        pipeline reports: dropout windows hold each resident tenant's
        last fresh stats, delay windows serve stats from ``delay``
        seconds ago, and noise windows deterministically perturb the
        SLA-shortfall signal.  Placement facts (machine index, weight,
        finished flag) stay current — only performance telemetry lies
        — and the machines' true physics (and therefore billing) are
        untouched.  Machine ``health`` is derived here from the age of
        the last trusted sample via
        :func:`repro.heartbeats.health.classify_heartbeat_age`, with
        quarantine-recovery hysteresis: a machine that went
        unresponsive stays ``stale`` for ``reintegrate_seconds`` after
        its telemetry returns before being trusted as ``fresh`` again.
        """
        plan = self.faults
        if plan is None:  # pragma: no cover - guarded by the caller
            return view
        now = view.time
        by_machine: dict[int, list[TenantView]] = {}
        for tenant in view.tenants:
            by_machine.setdefault(tenant.machine_index, []).append(tenant)
        for machine_index in self._delayed_machines:
            snapshot = {t.name: t for t in by_machine.get(machine_index, [])}
            self._view_log.setdefault(machine_index, []).append(
                (now, snapshot)
            )
        observed: dict[str, TenantView] = {}
        ages = [0.0] * len(self.machines)
        for machine_index in range(len(self.machines)):
            if machine_index in self.dead_machines:
                continue
            residents = by_machine.get(machine_index, [])
            fault = plan.sensor_at(machine_index, now)
            if fault is not None:
                self._announce_fault(
                    now,
                    "sensor",
                    machine_index,
                    fault.mode,
                    ("sensor", plan.sensors.index(fault)),
                )
            if fault is None or fault.mode == "noise":
                # Telemetry flows (noise still counts as a heartbeat:
                # the machine is talking, just not truthfully).
                self._last_fresh_time[machine_index] = now
                for tenant in residents:
                    self._last_fresh_views[tenant.name] = tenant
                if fault is not None:
                    unit = plan.noise_unit(machine_index, now)
                    for tenant in residents:
                        observed[tenant.name] = replace(
                            tenant,
                            sla_shortfall=max(
                                0.0,
                                tenant.sla_shortfall
                                * (1.0 + fault.amplitude * unit),
                            ),
                        )
                continue
            # Dropout, or delay: the freshest trusted sample is old.
            source: dict[str, TenantView] = {}
            age = now - self._last_fresh_time[machine_index]
            if fault.mode == "delay":
                for entry_time, snapshot in reversed(
                    self._view_log.get(machine_index, [])
                ):
                    if entry_time <= now - fault.delay + TIME_SLACK:
                        source = snapshot
                        age = now - entry_time
                        break
            for tenant in residents:
                cached = source.get(tenant.name)
                if cached is None:
                    cached = self._last_fresh_views.get(tenant.name)
                if cached is None:
                    # No trusted sample yet (window opened at the run's
                    # start): the true view is all there is.
                    observed[tenant.name] = tenant
                    continue
                observed[tenant.name] = replace(
                    cached,
                    machine_index=tenant.machine_index,
                    weight=tenant.weight,
                    finished=tenant.finished,
                )
            ages[machine_index] = age
        for machine_index in range(len(self.machines)):
            if machine_index in self.dead_machines:
                self._health[machine_index] = HEALTH_DEAD
                self._reintegrate_at.pop(machine_index, None)
                continue
            prior = self._health[machine_index]
            base = classify_heartbeat_age(
                ages[machine_index],
                plan.stale_after_seconds,
                plan.unresponsive_after_seconds,
            )
            if base == HEALTH_UNRESPONSIVE:
                health = HEALTH_UNRESPONSIVE
                self._reintegrate_at.pop(machine_index, None)
            elif base == HEALTH_STALE:
                health = HEALTH_STALE
            elif prior == HEALTH_UNRESPONSIVE:
                # Telemetry is back, but a quarantined machine earns
                # trust slowly: stale until the hysteresis deadline.
                self._reintegrate_at[machine_index] = (
                    now + plan.reintegrate_seconds
                )
                health = HEALTH_STALE
            elif machine_index in self._reintegrate_at:
                if now + TIME_SLACK >= self._reintegrate_at[machine_index]:
                    del self._reintegrate_at[machine_index]
                    health = HEALTH_FRESH
                else:
                    health = HEALTH_STALE
            else:
                health = HEALTH_FRESH
            self._health[machine_index] = health
        machines = tuple(
            replace(
                machine,
                health=(
                    HEALTH_DEAD
                    if not machine.alive
                    else self._health[machine.index]
                ),
            )
            for machine in view.machines
        )
        tenants = tuple(
            observed.get(tenant.name, tenant) for tenant in view.tenants
        )
        return ClusterView(
            time=now,
            budget_watts=view.budget_watts,
            machines=machines,
            tenants=tenants,
        )

    def _actuate(
        self, now: float, plan: ControlPlan
    ) -> tuple[tuple[float | None, ...] | None, list[FaultRecord], list[RetryRecord]]:
        """Push the validated caps through the (possibly faulty) actuators.

        The single choke point between a plan's *commanded* caps and
        the watts that actually land on machines, called exactly once
        per barrier by every backend.  Without a fault plan it returns
        ``plan.caps`` unchanged.  With one: actuator ``drop`` windows
        lose the command outright, ``partial`` windows move only part
        way, and the applier opens a deadline-based retry loop per
        machine — retries land at later barriers after a capped
        deterministic backoff, every attempt journaled as a
        :class:`~repro.datacenter.faults.RetryRecord`.  Straggler
        windows then pin their machine to its cap floor regardless of
        any command, restoring the last landed watts when the window
        ends.  The returned per-machine entries may be None (leave
        that machine's DVFS state untouched this barrier).

        Commanded caps still flow to ``self._caps``/``cap_history``
        via :meth:`_record_plan` — the control plane believes its
        commands landed, which is exactly the gray-failure illusion —
        while ``self._applied_watts`` tracks ground truth.
        """
        if self.faults is None:
            return plan.caps, [], []
        fault_plan = self.faults
        commanded = plan.caps
        applied: list[float | None] = [None] * len(self.machines)
        retries_out: list[RetryRecord] = []
        dying = {f.machine_index for f in plan.failures}

        def record_retry(
            machine_index: int,
            target: float,
            landed: float | None,
            attempt: int,
            outcome: str,
        ) -> None:
            record = RetryRecord(
                time=now,
                machine_index=machine_index,
                target_watts=target,
                applied_watts=landed,
                attempt=attempt,
                outcome=outcome,
            )
            retries_out.append(record)
            self.retry_history.append(record)

        for machine_index in range(len(self.machines)):
            if machine_index in self.dead_machines or machine_index in dying:
                self._retries.pop(machine_index, None)
                self._abandoned.pop(machine_index, None)
                self._straggling.discard(machine_index)
                continue
            fault = fault_plan.actuator_at(machine_index, now)
            if fault is not None:
                self._announce_fault(
                    now,
                    "actuator",
                    machine_index,
                    fault.mode,
                    ("actuator", fault_plan.actuators.index(fault)),
                )
            target = commanded[machine_index] if commanded is not None else None
            pending = self._retries.get(machine_index)
            attempt_target: float | None = None
            attempt_number = 1
            if pending is not None:
                if (
                    target is not None
                    and abs(target - pending.target_watts) > TARGET_SLACK
                ):
                    # A new command supersedes the retry loop: fresh
                    # target, fresh deadline, fresh backoff.
                    self._retries.pop(machine_index)
                    self._abandoned.pop(machine_index, None)
                    pending = None
                    attempt_target = target
                elif now + TIME_SLACK >= pending.next_attempt_at:
                    attempt_target = pending.target_watts
                    attempt_number = pending.attempts + 1
                # else: backing off — leave the actuator alone.
            elif target is not None:
                abandoned = self._abandoned.get(machine_index)
                if (
                    abandoned is not None
                    and fault is not None
                    and abs(target - abandoned) <= TARGET_SLACK
                ):
                    # Gave up on this exact target; don't bang on the
                    # broken actuator until the fault clears or the
                    # policy asks for something new.
                    attempt_target = None
                else:
                    self._abandoned.pop(machine_index, None)
                    attempt_target = target
            if attempt_target is None:
                continue
            started = pending.commanded_at if pending is not None else now
            if fault is None:
                applied[machine_index] = attempt_target
                self._applied_watts[machine_index] = attempt_target
                if pending is not None:
                    record_retry(
                        machine_index,
                        attempt_target,
                        attempt_target,
                        attempt_number,
                        "succeeded",
                    )
                    self._retries.pop(machine_index)
                continue
            if fault.mode == "drop":
                landed: float | None = None
            else:  # partial
                current = self._applied_watts.get(
                    machine_index, self._cap_ceilings[machine_index]
                )
                landed = current + fault.fraction * (attempt_target - current)
                landed = min(
                    max(landed, self._cap_floors[machine_index]),
                    self._cap_ceilings[machine_index],
                )
                applied[machine_index] = landed
                self._applied_watts[machine_index] = landed
            if landed is not None and abs(landed - attempt_target) <= WATT_SLACK:
                record_retry(
                    machine_index,
                    attempt_target,
                    landed,
                    attempt_number,
                    "succeeded",
                )
                self._retries.pop(machine_index, None)
            elif (
                pending is not None
                and now - started + TIME_SLACK >= fault_plan.retry_deadline_seconds
            ):
                record_retry(
                    machine_index, attempt_target, landed, attempt_number,
                    "abandoned",
                )
                self._retries.pop(machine_index, None)
                self._abandoned[machine_index] = attempt_target
            else:
                record_retry(
                    machine_index,
                    attempt_target,
                    landed,
                    attempt_number,
                    "failed" if landed is None else "partial",
                )
                backoff = retry_backoff_seconds(
                    attempt_number,
                    fault_plan.retry_base_seconds,
                    fault_plan.retry_cap_seconds,
                )
                self._retries[machine_index] = RetryState(
                    target_watts=attempt_target,
                    commanded_at=started,
                    attempts=attempt_number,
                    next_attempt_at=now + backoff,
                )
        # Straggler overlay: the machine's clock runs slow no matter
        # what the applier landed; recovery restores the landed watts.
        for machine_index in range(len(self.machines)):
            if machine_index in self.dead_machines or machine_index in dying:
                continue
            straggle = fault_plan.straggler_at(machine_index, now)
            if straggle is not None:
                if machine_index not in self._straggling:
                    self._straggling.add(machine_index)
                    self._announce_fault(
                        now,
                        "straggler",
                        machine_index,
                        None,
                        ("straggler", fault_plan.stragglers.index(straggle)),
                    )
                applied[machine_index] = self._cap_floors[machine_index]
            elif machine_index in self._straggling:
                self._straggling.discard(machine_index)
                record = FaultRecord(
                    time=now,
                    kind="recovered",
                    machine_index=machine_index,
                    mode=None,
                )
                self._barrier_fault_records.append(record)
                self.fault_history.append(record)
                if applied[machine_index] is None:
                    restore = self._applied_watts.get(machine_index)
                    if restore is not None:
                        applied[machine_index] = restore
        fault_records = list(self._barrier_fault_records)
        self._barrier_fault_records = []
        if all(entry is None for entry in applied):
            return None, fault_records, retries_out
        return tuple(applied), fault_records, retries_out

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

    def _place_failures(
        self, plan: ControlPlan, now: float
    ) -> tuple[list[FailureRecord], list[tuple[str, int, TenantCheckpoint]]]:
        """Fail-stop the plan's machines and re-place their tenants.

        :func:`~repro.datacenter.controlplane.applier.plan_failures`
        picks each victim's surviving destination; the failing machines
        are marked dead here, so the effect's caps skip them.  Returns
        the failure records and the ``(tenant, dest, checkpoint)``
        restores the transport's effect carries out, from the
        checkpoints captured at this same barrier.
        """
        if not plan.failures:
            return [], []
        if not self._checkpointing:
            raise ControlError(
                "FailMachine requires barrier checkpoints: run with a journal "
                "attached or a policy declaring may_fail_machines (e.g. "
                "ChaosPolicy)"
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

    def _journal_barrier(
        self,
        now: float,
        actions: Sequence[Action],
        migrations: Sequence[MigrationRecord],
        failures: Sequence[FailureRecord],
        fault_records: Sequence[FaultRecord] = (),
        retry_records: Sequence[RetryRecord] = (),
    ) -> None:
        """Append one barrier record to the run journal (if attached).

        Written *after* the barrier's actions applied — a crash inside
        a barrier therefore leaves a journal ending at the previous
        complete barrier, which is the resume point.
        """
        if self.journal is None:
            return
        # Imported lazily: the journal package's replay module imports
        # this engine, so a module-level import would be circular.
        from repro.datacenter.journal import codec

        checkpoints = self._last_checkpoints or {}
        machine_checkpoints = self._last_machine_checkpoints
        record = {
            "kind": "barrier",
            "index": self._barrier_index,
            "time": now,
            "actions": [codec.encode_action(action) for action in actions],
            "budget_watts": self._budget,
            "caps": list(self._caps) if self._caps is not None else None,
            "tenants": [
                codec.encode_tenant_checkpoint(
                    checkpoints[binding.tenant.name],
                    self._journaled_checkpoints.get(binding.tenant.name),
                )
                for binding in self.bindings
            ],
            "machines": [
                codec.encode_machine_checkpoint(machine_checkpoints[index])
                for index in range(len(machine_checkpoints))
            ],
            "migrations": [
                codec.encode_migration_record(record)
                for record in migrations
            ],
            "failures": [
                codec.encode_failure_record(record) for record in failures
            ],
            "faults": [
                codec.encode_fault_record(record) for record in fault_records
            ],
            "retries": [
                codec.encode_retry_record(record) for record in retry_records
            ],
        }
        self.journal.write_record(record)
        self._journaled_checkpoints = dict(checkpoints)
        self._barrier_index += 1

    def _record_plan(self, plan: ControlPlan, now: float) -> None:
        """Book-keep a validated plan (budget level, cap history)."""
        if plan.budget_watts is not None:
            self._budget = plan.budget_watts
            self.budget_history.append((now, plan.budget_watts))
        if plan.caps is not None:
            self._caps = plan.caps
            self.cap_history.append((now, plan.caps))

    def _barrier(self, now: float, gathered: tuple[Any, Any], transport) -> None:
        """Run one control barrier; the same step on every backend.

        ``gathered`` is the transport's ``(tenant views, checkpoints)``
        for the settled barrier.  Then: view -> decide -> record ->
        actuate -> place failures and migrations -> the transport's
        effect -> journal.  Application order is canonical — budget,
        then caps, then failures, then migrations — so a migration's
        source-host drain always runs under the freshly enforced caps
        and never races a machine dying at the same barrier.  The
        journal record (actions, applied effects, checkpoints) is
        written after everything applied.
        """
        started = time.perf_counter()
        views, checkpoints = gathered
        if checkpoints is not None:
            self._last_checkpoints, self._last_machine_checkpoints = checkpoints
        actions, plan = self._decide_plan(self._control_view(now, views))
        self._record_plan(plan, now)
        applied, fault_records, retry_records = self._actuate(now, plan)
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
        self.failure_history.extend(failures)
        self.migration_history.extend(migrations)
        self._journal_barrier(
            now, actions, migrations, failures, fault_records, retry_records
        )
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
        while machine.now < until - SETTLE_SLACK:
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
        meter = machine.meter
        energy_before = meter.energy_joules
        started = machine.now
        status = instance.runtime.step()
        instance.ledger.charge(
            meter.energy_joules - energy_before, machine.now - started
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
        binding.stats.record_offer()
        if binding.runtime.pending_jobs >= binding.tenant.max_queue_depth:
            binding.stats.record_rejection()
            return
        index = binding.next_request
        binding.next_request += 1
        stats = binding.stats
        binding.runtime.feed(
            binding.tenant.job_factory(index),
            on_complete=lambda completion, arrival=now: stats.record_completion(
                arrival, completion
            ),
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
            if self._budget is not None:
                self.budget_history.append((0.0, self._budget))
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
        engine after ``run()`` see the same data on every backend.
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
            cap_history=list(self.cap_history),
            budget_history=list(self.budget_history),
            migrations=list(self.migration_history),
            failures=list(self.failure_history),
            faults=list(self.fault_history),
            retries=list(self.retry_history),
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
