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

**Control plane.**  The engine itself makes no cluster-level decisions.
When constructed with a ``policy`` (any
:class:`~repro.datacenter.controlplane.actions.ControlPolicy`), it
schedules control barriers — every ``control_period`` seconds plus any
policy-requested instants (e.g. budget-trace timestamps) — settles
every machine to the barrier, hands the policy an immutable
:class:`~repro.datacenter.controlplane.actions.ClusterView`, and
applies the returned actions (``SetCaps``, ``SetBudget``, ``Migrate``)
through the shared control-plane applier, which validates them against
the pool's hard limits first.  The legacy power arbiter is now just one
such policy (:meth:`repro.datacenter.arbiter.PowerArbiter.decide`).

Scheduling is *lazy*: an event only advances the machine it concerns
(arrivals touch one host; control barriers synchronize the pool, since
they may change DVFS states, the budget, or placement, and read every
tenant's SLA signal).  A machine with nothing to do is not visited per
event — its idle time is settled in a single O(1) ``idle_until`` when
it next matters — so the cost of a run scales with the number of
events, not events × machines.  Arrival streams are consumed through an
incremental merge of the per-tenant traces (each already sorted) whose
membership can change at barriers — which is how a migrated tenant's
arrival cursor moves with it, including across shard workers.

Every dispatched ``step()`` is metered for billing: the machine meter's
energy delta and the clock delta across the step are charged to the
stepping tenant's :class:`~repro.datacenter.billing.TenantLedger`,
while lazily settled idle gaps accumulate per machine as unattributed
idle energy — so :attr:`DatacenterResult.bills` attributes every
watt-second of pool energy to a tenant or to the idle floor (the
conservation invariant the billing tests pin, which survives both
migrations and mid-run budget changes).

Two execution backends share these semantics:

* ``"serial"`` — the lazy single-process scheduler (default);
* ``"sharded"`` — machines partitioned across ``workers`` forked
  processes which run independently between control barriers (see
  :mod:`repro.datacenter.shard`); identical results to ``"serial"``.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

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
)
from repro.datacenter.controlplane.actions import (
    Action,
    ClusterView,
    ControlPolicy,
    FailureRecord,
    MachineView,
    MigrationRecord,
    TenantView,
)
from repro.datacenter.controlplane.applier import (
    ControlPlan,
    RetryState,
    apply_failures,
    enforce_caps,
    machine_limits,
    merge_run_results,
    migrate_instance,
    plan_actions,
    retry_backoff_seconds,
)
from repro.datacenter.faults import FaultPlan, FaultRecord, RetryRecord
from repro.datacenter.tenants import TenantReport, TenantSpec, TenantStats
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
]

_ARRIVAL = 0
_BARRIER = 1

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

    Replaces a one-shot ``heapq.merge`` so that stream *membership* can
    change at control barriers: a migrated tenant's cursor is
    ``remove``d from the pump that loses it and ``add``ed (at the same
    trace position) to the pump that gains it — the mechanism by which
    arrivals follow an instance across sharded workers.  The heap holds
    one live entry per tenant (its next arrival); ties order by the
    tenant's global binding index then trace position, reproducing the
    original merged-stream dispatch order exactly.

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
        self._last_checkpoints: dict[str, TenantCheckpoint] | None = None
        self._last_machine_checkpoints: list[MachineCheckpoint] | None = None
        # The previous journaled barrier's tenant checkpoints, so each
        # barrier record stores completions as an append-only delta.
        self._journaled_checkpoints: dict[str, TenantCheckpoint] = {}
        self._barrier_index = 0
        # Watt-seconds per machine that no tenant was running for; the
        # billing conservation invariant is
        #   sum(binding.ledger.energy_joules) + sum(idle_energy_joules)
        #       == total metered pool energy.
        self.idle_energy_joules: list[float] = [0.0] * len(self.machines)
        # Filled by the sharded backend after run(): per-shard CPU
        # seconds, barrier waits excluded (bench-harness telemetry).
        self.shard_busy_seconds: list[float] | None = None
        # Barrier-plane telemetry, filled by run(): the coordinator's
        # own CPU seconds and a per-run breakdown of the barrier
        # plane (payload bytes, serialize/wait/apply seconds).  The
        # serial backend fills the same keys with no wire (zero bytes).
        self.coordinator_busy_seconds: float | None = None
        self.barrier_stats: dict[str, object] | None = None
        self._barrier_apply_seconds = 0.0
        self._barrier_count = 0
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
        self, now: float, tenants: tuple[TenantView, ...] | None = None
    ) -> ClusterView:
        """Assemble the immutable snapshot handed to the policy.

        ``tenants`` overrides the in-process snapshot (the sharded
        coordinator passes tenant views gathered from its workers,
        reassembled in binding order).
        """
        if tenants is None:
            tenants = tuple(self._tenant_view(b, now) for b in self.bindings)
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
                    if entry_time <= now - fault.delay + 1e-9:
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
                if now + 1e-9 >= self._reintegrate_at[machine_index]:
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
                    and abs(target - pending.target_watts) > 1e-12
                ):
                    # A new command supersedes the retry loop: fresh
                    # target, fresh deadline, fresh backoff.
                    self._retries.pop(machine_index)
                    self._abandoned.pop(machine_index, None)
                    pending = None
                    attempt_target = target
                elif now + 1e-9 >= pending.next_attempt_at:
                    attempt_target = pending.target_watts
                    attempt_number = pending.attempts + 1
                # else: backing off — leave the actuator alone.
            elif target is not None:
                abandoned = self._abandoned.get(machine_index)
                if (
                    abandoned is not None
                    and fault is not None
                    and abs(target - abandoned) <= 1e-12
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
            if landed is not None and abs(landed - attempt_target) <= 1e-9:
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
                and now - started + 1e-9 >= fault_plan.retry_deadline_seconds
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

    def _capture_checkpoints(self) -> None:
        """Checkpoint every tenant and machine at a settled barrier.

        Called before the policy decides, so the captured state is
        exactly what the policy's view summarizes — and exactly what a
        failure at this barrier restores from.
        """
        self._last_checkpoints = {
            binding.tenant.name: capture_tenant_checkpoint(binding)
            for binding in self.bindings
        }
        self._last_machine_checkpoints = [
            capture_machine_checkpoint(self, index)
            for index in range(len(self.machines))
        ]

    def _enforce_live_caps(
        self,
        caps: tuple[float | None, ...],
        dying: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        """Apply validated caps, skipping dead and dying machines.

        A machine failing at this same barrier keeps its pre-barrier
        frequency — it will never run again, and skipping it keeps the
        frozen DVFS state identical across backends (the sharded
        coordinator marks deaths before its workers enforce caps).
        A None entry (an actuator fault dropped the command, or the
        applier is backing off before a retry) likewise leaves that
        machine's DVFS state untouched.
        """
        alive = [
            index
            for index in range(len(self.machines))
            if index not in self.dead_machines
            and index not in dying
            and caps[index] is not None
        ]
        enforce_caps(
            [self.machines[index] for index in alive],
            [caps[index] for index in alive],
        )

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
                codec.encode_machine_checkpoint(checkpoint)
                for checkpoint in self._last_machine_checkpoints or []
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

    def _record_plan(
        self,
        plan: ControlPlan,
        now: float,
        cap_history: list[tuple[float, tuple[float, ...]]],
    ) -> None:
        """Book-keep a validated plan (budget level, cap history)."""
        if plan.budget_watts is not None:
            self._budget = plan.budget_watts
            self.budget_history.append((now, plan.budget_watts))
        if plan.caps is not None:
            self._caps = plan.caps
            cap_history.append((now, plan.caps))

    def _control_tick(
        self,
        now: float,
        cap_history: list[tuple[float, tuple[float, ...]]],
    ) -> None:
        """Run one in-process control barrier: view -> plan -> apply.

        Application order is canonical — budget, then caps, then
        failures, then migrations — so a migration's source-host drain
        always runs under the freshly enforced caps and never races a
        machine dying at the same barrier, on every backend.  When
        checkpointing is on, the cluster checkpoint is captured before
        the policy decides; the journal record (actions, applied
        effects, checkpoint) is written after everything applied.
        """
        ticked = time.perf_counter()
        if self._checkpointing:
            self._capture_checkpoints()
        actions, plan = self._decide_plan(self._control_view(now))
        self._record_plan(plan, now, cap_history)
        applied, fault_records, retry_records = self._actuate(now, plan)
        if applied is not None:
            self._enforce_live_caps(
                applied, {f.machine_index for f in plan.failures}
            )
        failures: list[FailureRecord] = []
        if plan.failures:
            failures = apply_failures(
                self, [f.machine_index for f in plan.failures], now
            )
            self.failure_history.extend(failures)
        migrations: list[MigrationRecord] = []
        for migration in plan.migrations:
            record = migrate_instance(self, migration, now)
            self.migration_history.append(record)
            migrations.append(record)
        self._journal_barrier(
            now, actions, migrations, failures, fault_records, retry_records
        )
        self._barrier_apply_seconds += time.perf_counter() - ticked
        self._barrier_count += 1

    # ------------------------------------------------------------------
    # Event plumbing for the serial backend
    # ------------------------------------------------------------------
    def _event_stream(
        self,
        bindings: Sequence[InstanceBinding],
        tick_times: Sequence[float],
    ) -> Iterator[tuple[float, int, int, int, InstanceBinding | None]]:
        """Lazily merge pre-sorted per-tenant arrival streams and barriers.

        Events are ``(time, kind, binding_index, seq, binding)`` tuples
        ordered by time; arrivals sort before a control barrier at the
        same instant, and simultaneous arrivals dispatch in binding
        order.  ``heapq.merge`` keeps this O(log k) per event over k
        already-sorted streams — no per-request heap entries are
        materialized.  Stream membership is fixed, which is fine for the
        serial backend: an in-process migration keeps the binding in
        this same stream and simply re-routes dispatch through its
        updated ``machine_index`` (shard workers, where a migrated
        tenant really leaves or joins, use :class:`_EventPump` instead).
        """
        index_of = {id(b): i for i, b in enumerate(self.bindings)}

        def arrivals(binding: InstanceBinding) -> Iterable[
            tuple[float, int, int, int, InstanceBinding | None]
        ]:
            bindex = index_of[id(binding)]
            for seq, at in enumerate(binding.tenant.trace.arrivals):
                yield (at, _ARRIVAL, bindex, seq, binding)

        def ticks() -> Iterable[tuple[float, int, int, int, InstanceBinding | None]]:
            for seq, at in enumerate(tick_times):
                yield (at, _BARRIER, -1, seq, None)

        streams = [arrivals(binding) for binding in bindings]
        if tick_times:
            streams.append(ticks())
        return heapq.merge(*streams)

    def _pump_stream(
        self,
        events: Iterator[tuple[float, int, int, int, InstanceBinding | None]],
        hosts: Sequence[_Host],
        final_time: float,
        on_tick: Callable[[float], None],
    ) -> None:
        """Drive ``hosts`` through the event stream, lazily.

        An arrival advances only its own host (idle neighbours are left
        alone — their gap is settled in one ``idle_until`` when they next
        matter); a control barrier settles every host in ``hosts`` to
        the barrier time, because DVFS states, the budget, or placement
        are about to change and every tenant's SLA signal is read.
        After the last event, every host settles to ``final_time`` so
        pool-level accounting (makespan, idle energy) is independent of
        per-host event density.
        """
        for time, kind, _, _, binding in events:
            if kind == _ARRIVAL:
                if binding is None:
                    raise EngineError("arrival event lost its tenant binding")
                self._advance(self.hosts[binding.machine_index], time)
                self._dispatch_arrival(binding, time)
            else:
                self._advance_barrier(hosts, time)
                on_tick(time)
        self._advance_barrier(hosts, final_time)

    # ------------------------------------------------------------------
    def _advance_barrier(self, hosts: Sequence[_Host], until: float) -> None:
        """Settle every host in ``hosts`` to a barrier instant.

        The one dispatch point where a whole group of instances is known
        to be due at the same time — serial barriers, the trailing
        settle, and the shard workers' per-tick loops all funnel through
        here.  Each host advances its residents in round-robin order
        (co-resident instances share one clock, so cross-instance
        reordering would change the interleaving the engine defines).
        """
        for host in hosts:
            self._advance(host, until)

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
        while machine.now < until - 1e-12:
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
    def _begin_run(self) -> list[tuple[float, tuple[float, ...]]]:
        """Arm every runtime and run the time-zero control barrier."""
        for index, machine in enumerate(self.machines):
            # Energy already on a meter (a machine reused after e.g. a
            # calibration run) predates every tenant: fold it into the
            # unattributed account so conservation holds regardless.
            if machine.meter.energy_joules:
                self.idle_energy_joules[index] += machine.meter.energy_joules
        for binding in self.bindings:
            binding.runtime.begin()
        cap_history: list[tuple[float, tuple[float, ...]]] = []
        if self.policy is not None:
            if self._budget is not None:
                self.budget_history.append((0.0, self._budget))
            # Enforce the budget from time zero (no SLA signal yet).
            self._control_tick(0.0, cap_history)
        return cap_history

    def _finalize(self) -> None:
        """Close every input stream and drain the remaining work."""
        for binding in self.bindings:
            binding.runtime.close_input()
        for host in self.hosts:
            self._drain(host)

    def _collect_result(
        self, cap_history: list[tuple[float, tuple[float, ...]]]
    ) -> DatacenterResult:
        """Assemble the :class:`DatacenterResult` from engine state."""
        segments = {
            binding.tenant.name: (
                *binding.run_segments,
                binding.runtime.finish(),
            )
            for binding in self.bindings
        }
        run_results = {
            name: merge_run_results(parts) for name, parts in segments.items()
        }
        reports = [
            binding.stats.report(binding.tenant.name, binding.tenant.sla)
            for binding in self.bindings
        ]
        bills = [
            compose_bill(
                binding.machine_index,
                report,
                binding.ledger,
                segments[binding.tenant.name],
            )
            for binding, report in zip(self.bindings, reports)
        ]
        machine_power = []
        for machine in self.machines:
            try:
                machine_power.append(machine.meter.mean_power())
            except PowerError:  # no samples yet
                machine_power.append(0.0)
        # In-process barrier telemetry: no wire, so the whole barrier
        # cost is "apply" and the payload is zero bytes.  Same keys as
        # the sharded backend's breakdown so bench consumers need no
        # per-backend cases.
        self.barrier_stats = {
            "barriers": self._barrier_count,
            "payload_bytes": 0,
            "serialize_seconds": 0.0,
            "wait_seconds": 0.0,
            "apply_seconds": self._barrier_apply_seconds,
        }
        return DatacenterResult(
            tenant_reports=reports,
            run_results=run_results,
            bills=bills,
            idle_energy_joules=list(self.idle_energy_joules),
            machine_mean_power=machine_power,
            total_energy_joules=sum(
                machine.meter.energy_joules for machine in self.machines
            ),
            makespan=max(machine.now for machine in self.machines),
            budget_watts=self._budget,
            cap_history=cap_history,
            budget_history=list(self.budget_history),
            migrations=list(self.migration_history),
            failures=list(self.failure_history),
            faults=list(self.fault_history),
            retries=list(self.retry_history),
        )

    def run(self) -> DatacenterResult:
        """Execute the scenario and collect per-tenant results."""
        if self._ran:
            raise EngineError("engine scenarios are single-use; build a new one")
        self._ran = True
        if self.backend == "sharded":
            from repro.datacenter.shard import run_sharded

            return run_sharded(self)
        return self._run_serial()

    def _run_serial(self) -> DatacenterResult:
        """The lazy single-process scheduler (see module docstring)."""
        # Barrier times first: a policy may derive per-run state (e.g.
        # a chaos kill schedule) in barrier_times(), which the time-zero
        # decide inside _begin_run() already relies on.
        tick_times = self._tick_times()
        cap_history = self._begin_run()

        def on_tick(now: float) -> None:
            # No pump: in-process migrations keep the binding in the
            # one merged stream (see _event_stream).
            self._control_tick(now, cap_history)

        self._pump_stream(
            self._event_stream(self.bindings, tick_times),
            self.hosts,
            self._final_event_time(tick_times),
            on_tick,
        )
        self._finalize()
        return self._collect_result(cap_history)
