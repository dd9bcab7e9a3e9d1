"""Composable control policies beyond plain cap arbitration.

:class:`~repro.datacenter.arbiter.PowerArbiter` (static-equal or
SLA-aware water-filling) is the base cap policy; this module layers the
behaviours the paper's fixed-budget, fixed-placement study could not
express:

* :class:`ScheduledBudgetPolicy` — drives the fleet budget from a
  :class:`~repro.datacenter.controlplane.budget.BudgetSchedule`,
  emitting :class:`SetBudget` exactly at the scheduled instants
  (schedule times become control barriers) and handing the inner
  policy a view with the new budget already in force.
* :class:`MigratingPolicy` — watches for the regime where moving watts
  stops working: a machine pinned at its cap ceiling whose tenants
  still miss their SLAs.  Watt reallocation cannot help (the §5.4
  mechanism is saturated), so the policy moves the worst-off tenant to
  the machine with the most cap headroom instead, with a per-tenant
  cooldown to prevent thrashing.
* :class:`ConsolidatingPolicy` — the §5.5 consolidation story as a
  closed loop: during demand troughs it *packs* tenants onto fewer
  machines with warm (live) migrations and parks the emptied machines
  at their cap floor, handing the freed watts to the machines still
  serving; when SLA shortfall reappears it *spreads* tenants back onto
  the parked machines.  One move per barrier — multi-step placements
  emerge across consecutive barriers.

* :class:`ChaosPolicy` — fault injection: wraps any policy stack and
  fail-stops machines at seeded, deterministic instants mid-run
  (each kill instant becomes a control barrier, so the failure lands
  exactly when scheduled).  Victims' tenants are re-placed from the
  barrier's checkpoints; billing conservation holds across the kill.

:func:`build_policy` maps the CLI's ``--policy`` names to assembled
policy stacks; :func:`inject_failures` wraps one in the failure
injectors a run asks for, always in the same order.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Sequence

from repro.datacenter.controlplane.actions import (
    Action,
    ClusterView,
    ControlError,
    ControlPolicy,
    FailMachine,
    Migrate,
    SetBudget,
    SetCaps,
)
from repro.datacenter.controlplane.budget import BudgetSchedule
from repro.datacenter.faults import (
    FaultPlan,
    FaultPlanError,
    KillFault,
    kill_schedule,
)
from repro.datacenter.tolerances import TIME_SLACK
from repro.heartbeats.health import (
    HEALTH_FRESH,
    HEALTH_STALE,
    HEALTH_UNRESPONSIVE,
)

__all__ = [
    "POLICY_NAMES",
    "ChaosPolicy",
    "ConsolidatingPolicy",
    "DegradedModePolicy",
    "MigratingPolicy",
    "ScheduledBudgetPolicy",
    "build_policy",
    "inject_failures",
]

POLICY_NAMES = (
    "static-equal",
    "sla-aware",
    "hier-arbitrated",
    "migrating",
    "consolidating",
)
"""Policy names accepted by :func:`build_policy` and the CLI."""


class ScheduledBudgetPolicy:
    """Wrap a policy with a time-varying budget schedule.

    Args:
        inner: The policy deciding caps/migrations under the budget.
        schedule: Timestamped budget levels; each change is emitted as
            a :class:`SetBudget` at its scheduled instant and the inner
            policy decides against the updated budget in the same
            barrier.
    """

    def __init__(self, inner: ControlPolicy, schedule: BudgetSchedule) -> None:
        self.inner = inner
        self.schedule = schedule

    def initial_budget_watts(self) -> float | None:
        """The inner policy's base budget (schedule changes come later)."""
        return self.inner.initial_budget_watts()

    def barrier_times(self, horizon: float) -> Sequence[float]:
        """Inner barriers plus every scheduled budget-change instant."""
        return tuple(self.inner.barrier_times(horizon)) + self.schedule.times

    def decide(self, view: ClusterView) -> Sequence[Action]:
        """Emit the scheduled budget change, then delegate under it."""
        target = self.schedule.budget_at(view.time, default=view.budget_watts)
        actions: list[Action] = []
        if target is not None and target != view.budget_watts:
            actions.append(SetBudget(target))
            view = replace(view, budget_watts=target)
        actions.extend(self.inner.decide(view))
        return actions


class MigratingPolicy:
    """Migrate tenants off machines where watt reallocation saturated.

    Args:
        inner: The cap policy whose allocations are inspected (usually
            an SLA-aware :class:`~repro.datacenter.arbiter.PowerArbiter`).
        cost_seconds: Machine-seconds charged to a moving tenant's
            billing ledger per migration.
        cooldown_seconds: Minimum barrier time between two migrations
            of the same tenant (hysteresis against thrashing).
        min_shortfall: Weighted per-machine SLA shortfall below which a
            saturated machine is left alone.
        warm: Whether emitted migrations carry warm control state
            (live migration) instead of restarting the mover cold.

    At most one migration is emitted per barrier: the highest-shortfall
    tenant on the most-violating ceiling-saturated machine moves to the
    machine with the most cap headroom (deterministic tie-breaks by
    machine/tenant order, so every backend decides identically).
    """

    def __init__(
        self,
        inner: ControlPolicy,
        cost_seconds: float = 2.0,
        cooldown_seconds: float = 30.0,
        min_shortfall: float = 0.02,
        warm: bool = False,
    ) -> None:
        if cost_seconds < 0.0:
            raise ControlError(
                f"migration cost must be >= 0, got {cost_seconds!r}"
            )
        if cooldown_seconds < 0.0:
            raise ControlError(
                f"cooldown must be >= 0, got {cooldown_seconds!r}"
            )
        self.inner = inner
        self.cost_seconds = cost_seconds
        self.cooldown_seconds = cooldown_seconds
        self.min_shortfall = min_shortfall
        self.warm = warm
        self._last_move: dict[str, float] = {}

    def initial_budget_watts(self) -> float | None:
        """Delegates to the inner cap policy."""
        return self.inner.initial_budget_watts()

    def barrier_times(self, horizon: float) -> Sequence[float]:
        """Delegates to the inner cap policy."""
        return self.inner.barrier_times(horizon)

    def _pick_migration(
        self, view: ClusterView, caps: Sequence[float]
    ) -> Migrate | None:
        """The single best migration under the just-decided caps, if any."""
        shortfalls = view.machine_shortfalls()
        source = None
        for machine in view.machines:
            saturated = caps[machine.index] >= machine.cap_ceiling - 1e-6
            if not saturated or shortfalls[machine.index] <= self.min_shortfall:
                continue
            if source is None or shortfalls[machine.index] > shortfalls[source]:
                source = machine.index
        if source is None:
            return None
        dest = None
        best_headroom = 1e-6
        for machine in view.machines:
            if machine.index == source or not machine.alive:
                continue
            headroom = machine.cap_ceiling - caps[machine.index]
            if headroom > best_headroom:
                dest = machine.index
                best_headroom = headroom
        if dest is None:
            return None
        mover = None
        mover_key = 0.0
        for tenant in view.tenants_on(source):
            if tenant.finished:
                continue
            last = self._last_move.get(tenant.name)
            if last is not None and view.time - last < self.cooldown_seconds:
                continue
            key = tenant.weight * tenant.sla_shortfall
            if key > mover_key:
                mover = tenant
                mover_key = key
        if mover is None:
            return None
        return Migrate(mover.name, dest, self.cost_seconds, warm=self.warm)

    def decide(self, view: ClusterView) -> Sequence[Action]:
        """Inner caps first; append a migration if the caps saturated."""
        actions = list(self.inner.decide(view))
        caps = None
        for action in actions:
            if isinstance(action, SetCaps):
                caps = action.caps
        if caps is None:
            return actions
        migration = self._pick_migration(view, caps)
        if migration is not None:
            self._last_move[migration.tenant] = view.time
            actions.append(migration)
        return actions


class ConsolidatingPolicy:
    """Pack tenants onto fewer machines in troughs; spread back on demand.

    The §5.5 consolidation mechanism run as a closed loop on the live
    SLA signal instead of a precomputed utilization profile.  Each
    barrier the policy takes the inner cap policy's allocation, then:

    1. **Parks** every machine with no unfinished tenants at its cap
       floor and hands the freed watts to the machines still serving
       (by headroom, in machine order) — an emptied machine costs the
       fleet only its floor power.
    2. **Spreads** when demand is back: if some machine's weighted SLA
       shortfall exceeds ``spread_shortfall`` and a parked machine
       exists, the worst-off tenant moves onto the lowest-index parked
       machine.
    3. **Packs** when demand is low: if every machine's weighted
       shortfall is at most ``pack_shortfall``, the occupied machine
       with the fewest residents donates its cheapest-to-move tenant
       (fewest queued requests) to the occupied machine with the most
       residents below ``max_residents``.

    All moves are *warm* (live migration): the mover's controller
    state travels with it, so packing and spreading do not re-pay the
    control loop's convergence transient.  At most one move per
    barrier — multi-step placements (empty a machine tenant by tenant,
    then park it) emerge across consecutive barriers.  Every choice is
    deterministic: donor ties prefer the *higher* machine index and
    recipient/destination ties the *lower*, so fleets drain toward
    low-index machines and all backends decide identically.

    Args:
        inner: The cap policy whose allocation is reshaped (usually an
            SLA-aware :class:`~repro.datacenter.arbiter.PowerArbiter`).
        cost_seconds: Machine-seconds charged to a mover's ledger.
        cooldown_seconds: Minimum barrier time between two moves of
            the same tenant (hysteresis against pack/spread thrash).
        pack_shortfall: Fleet-quiet threshold — packing only happens
            while every machine's weighted shortfall is at or below it.
        spread_shortfall: Per-machine weighted shortfall above which a
            parked machine is brought back into service.
        max_residents: Co-residency bound packing will not exceed.
    """

    def __init__(
        self,
        inner: ControlPolicy,
        cost_seconds: float = 2.0,
        cooldown_seconds: float = 20.0,
        pack_shortfall: float = 0.01,
        spread_shortfall: float = 0.05,
        max_residents: int = 4,
    ) -> None:
        if cost_seconds < 0.0:
            raise ControlError(
                f"migration cost must be >= 0, got {cost_seconds!r}"
            )
        if cooldown_seconds < 0.0:
            raise ControlError(
                f"cooldown must be >= 0, got {cooldown_seconds!r}"
            )
        if max_residents < 1:
            raise ControlError(
                f"max_residents must be >= 1, got {max_residents!r}"
            )
        if spread_shortfall <= pack_shortfall:
            raise ControlError(
                f"spread_shortfall {spread_shortfall!r} must exceed "
                f"pack_shortfall {pack_shortfall!r} (hysteresis band)"
            )
        self.inner = inner
        self.cost_seconds = cost_seconds
        self.cooldown_seconds = cooldown_seconds
        self.pack_shortfall = pack_shortfall
        self.spread_shortfall = spread_shortfall
        self.max_residents = max_residents
        self._last_move: dict[str, float] = {}

    def initial_budget_watts(self) -> float | None:
        """Delegates to the inner cap policy."""
        return self.inner.initial_budget_watts()

    def barrier_times(self, horizon: float) -> Sequence[float]:
        """Delegates to the inner cap policy."""
        return self.inner.barrier_times(horizon)

    def _occupancy(self, view: ClusterView) -> list[int]:
        """Unfinished residents per machine, in pool order."""
        counts = [0] * len(view.machines)
        for tenant in view.tenants:
            if not tenant.finished:
                counts[tenant.machine_index] += 1
        return counts

    def _movable(self, view: ClusterView, machine_index: int):
        """The machine's unfinished tenants off cooldown, in view order."""
        movable = []
        for tenant in view.tenants_on(machine_index):
            if tenant.finished:
                continue
            last = self._last_move.get(tenant.name)
            if last is not None and view.time - last < self.cooldown_seconds:
                continue
            movable.append(tenant)
        return movable

    def _pick_spread(
        self, view: ClusterView, occupancy: Sequence[int]
    ) -> Migrate | None:
        """Move the worst-off tenant onto a parked machine, if demand is back."""
        parked = [
            m.index
            for m in view.machines
            if m.alive and occupancy[m.index] == 0
        ]
        if not parked:
            return None
        shortfalls = view.machine_shortfalls()
        source = None
        for machine in view.machines:
            if occupancy[machine.index] < 2:
                # Spreading a machine's only tenant just relocates the
                # problem; contention relief needs >= 2 residents.
                continue
            if shortfalls[machine.index] <= self.spread_shortfall:
                continue
            if source is None or shortfalls[machine.index] > shortfalls[source]:
                source = machine.index
        if source is None:
            return None
        mover = None
        mover_key = 0.0
        for tenant in self._movable(view, source):
            key = tenant.weight * tenant.sla_shortfall
            if key > mover_key:
                mover = tenant
                mover_key = key
        if mover is None:
            return None
        return Migrate(mover.name, parked[0], self.cost_seconds, warm=True)

    def _pick_pack(
        self, view: ClusterView, occupancy: Sequence[int]
    ) -> Migrate | None:
        """Empty the lightest occupied machine into the fullest, if quiet."""
        if any(s > self.pack_shortfall for s in view.machine_shortfalls()):
            return None
        occupied = [m.index for m in view.machines if occupancy[m.index] > 0]
        if len(occupied) < 2:
            return None
        donor = max(occupied, key=lambda i: (-occupancy[i], i))
        recipient = None
        for index in occupied:
            if index == donor or occupancy[index] >= self.max_residents:
                continue
            if recipient is None or occupancy[index] > occupancy[recipient]:
                recipient = index
        if recipient is None:
            return None
        movable = self._movable(view, donor)
        if not movable:
            return None
        mover = min(movable, key=lambda t: t.pending_jobs)
        return Migrate(mover.name, recipient, self.cost_seconds, warm=True)

    def _reshaped_caps(
        self,
        view: ClusterView,
        caps: Sequence[float],
        arriving: int | None = None,
    ) -> tuple[float, ...]:
        """Park empty machines at their floor; give freed watts to the rest.

        ``arriving`` names a machine about to receive this barrier's
        migrant (caps are enforced before migrations apply): it counts
        as occupied, so a spread destination is never parked at its
        floor in the very barrier meant to relieve load onto it.
        """
        occupancy = self._occupancy(view)
        if arriving is not None:
            occupancy[arriving] += 1
        new_caps = list(caps)
        freed = 0.0
        for machine in view.machines:
            if occupancy[machine.index] == 0:
                freed += max(0.0, new_caps[machine.index] - machine.cap_floor)
                new_caps[machine.index] = machine.cap_floor
        if freed > 0.0:
            for machine in view.machines:
                if occupancy[machine.index] == 0:
                    continue
                headroom = machine.cap_ceiling - new_caps[machine.index]
                give = min(headroom, freed)
                if give > 0.0:
                    new_caps[machine.index] += give
                    freed -= give
                if freed <= 0.0:
                    break
        return tuple(new_caps)

    def decide(self, view: ClusterView) -> Sequence[Action]:
        """Inner caps reshaped around parked machines, plus one move.

        The time-zero barrier never migrates: before any request has
        arrived every tenant *looks* quiet, but that is absence of
        signal, not a trough — packing there would front-load moves a
        single busy period immediately undoes.
        """
        actions = list(self.inner.decide(view))
        occupancy = self._occupancy(view)
        migration = None
        if view.time > 0.0:
            migration = self._pick_spread(view, occupancy) or self._pick_pack(
                view, occupancy
            )
        arriving = migration.dest_machine_index if migration else None
        for index, action in enumerate(actions):
            if isinstance(action, SetCaps):
                actions[index] = SetCaps(
                    self._reshaped_caps(view, action.caps, arriving)
                )
        if migration is not None:
            self._last_move[migration.tenant] = view.time
            actions.append(migration)
        return actions


class ChaosPolicy:
    """Fault injection: fail-stop machines at seeded instants mid-run.

    Wraps any policy stack.
    :func:`~repro.datacenter.faults.kill_schedule` schedules the kill
    instants (each becomes a control barrier, so the failure
    lands exactly when scheduled, not at the next periodic tick); at
    each one the policy picks a seeded victim among the machines still
    alive — preferring machines that actually host unfinished tenants,
    and never killing the last survivor — and emits
    :class:`~repro.datacenter.controlplane.actions.FailMachine` after
    the inner policy's actions.  Inner migrations that touch a machine
    dying at the same barrier are dropped (the failure re-places those
    tenants anyway).

    Failure recovery restores from the cluster checkpoints captured at
    the failing barrier.  Once :meth:`barrier_times` has scheduled the
    kills, ``failure_times`` names their instants, so the engine
    captures only there; before that the class attribute
    ``may_fail_machines`` tells it any barrier may fail a machine.
    Deterministic by construction:
    the kill schedule and victim choices are pure functions of the
    seed and the observed views, so replaying or resuming a chaos run
    reproduces the same failures.

    The cap arbiter still allocates dead machines their floor watts
    (they cannot be powered off, merely frozen); the consolidating
    policy's parking logic treats them as permanently parked.

    Since the gray-failure layer landed, the seeded schedule is just a
    kills-only :class:`~repro.datacenter.faults.FaultPlan` — ``--chaos``
    is sugar over ``--faults`` — and a plan's explicit
    :class:`~repro.datacenter.faults.KillFault` entries (optionally
    pinning victims) can be passed directly via ``kill_times``.

    Args:
        inner: The policy stack deciding caps/budget/migrations.
        kills: Number of machines to kill over the run (ignored when
            ``kill_times`` is given).
        seed: Seed for the kill schedule and victim choices.
        start_fraction: Earliest kill, as a fraction of the horizon.
        end_fraction: Latest kill, as a fraction of the horizon.
        kill_times: Explicit kill schedule — an iterable of
            :class:`~repro.datacenter.faults.KillFault` (or bare
            times), e.g. ``FaultPlan.kills`` from a ``--faults`` file —
            instead of the seeded schedule.  Entries with a pinned
            ``machine_index`` kill exactly that machine (skipped if it
            is already dead or the last survivor); unpinned entries use
            the seeded victim choice.
    """

    may_fail_machines = True

    def __init__(
        self,
        inner: ControlPolicy,
        kills: int = 1,
        seed: int = 0,
        start_fraction: float = 0.3,
        end_fraction: float = 0.8,
        kill_times: Sequence[KillFault | float] | None = None,
    ) -> None:
        # Validate eagerly (barrier_times may be a while away).
        try:
            kill_schedule(1.0, kills, seed, start_fraction, end_fraction)
        except FaultPlanError as error:
            raise ControlError(str(error)) from None
        self.inner = inner
        self.seed = seed
        self.start_fraction = start_fraction
        self.end_fraction = end_fraction
        if kill_times is not None:
            self._scheduled: tuple[KillFault, ...] | None = tuple(
                sorted(
                    (
                        kill
                        if isinstance(kill, KillFault)
                        else KillFault(float(kill))
                        for kill in kill_times
                    ),
                    key=lambda kill: kill.time,
                )
            )
            self.kills = len(self._scheduled)
        else:
            self._scheduled = None
            self.kills = kills
        self._due: list[KillFault] | None = None
        self._kill_times: frozenset[float] | None = None
        self._victim_rng = random.Random(seed + 1)

    @property
    def failure_times(self) -> frozenset[float] | None:
        """The kill instants, once :meth:`barrier_times` scheduled them."""
        return self._kill_times

    def initial_budget_watts(self) -> float | None:
        """Delegates to the inner policy."""
        return self.inner.initial_budget_watts()

    def barrier_times(self, horizon: float) -> Sequence[float]:
        """Inner barriers plus the seeded (or explicit) kill instants."""
        if self._scheduled is not None:
            self._due = list(self._scheduled)
        else:
            plan = FaultPlan.generate(
                horizon=horizon,
                kills=self.kills,
                seed=self.seed,
                start_fraction=self.start_fraction,
                end_fraction=self.end_fraction,
            )
            self._due = list(plan.kills)
        self._kill_times = frozenset(kill.time for kill in self._due)
        return tuple(self.inner.barrier_times(horizon)) + tuple(
            kill.time for kill in self._due
        )

    def _pick_victim(
        self, view: ClusterView, dying: Sequence[int]
    ) -> int | None:
        """A seeded victim among the alive machines, or None to skip.

        Prefers machines hosting unfinished tenants (killing an empty
        machine exercises nothing) and never kills the last survivor.
        """
        alive = [
            m.index
            for m in view.machines
            if m.alive and m.index not in dying
        ]
        if len(alive) < 2:
            return None
        occupied = [
            index
            for index in alive
            if any(
                t.machine_index == index and not t.finished
                for t in view.tenants
            )
        ]
        pool = occupied or alive
        return pool[self._victim_rng.randrange(len(pool))]

    def decide(self, view: ClusterView) -> Sequence[Action]:
        """Inner actions, plus this barrier's scheduled kills (if due)."""
        actions = list(self.inner.decide(view))
        if self._due is None:
            raise ControlError(
                "ChaosPolicy.decide called before barrier_times scheduled "
                "the kills"
            )
        dying: list[int] = []
        while self._due and view.time >= self._due[0].time - TIME_SLACK:
            kill = self._due.pop(0)
            if kill.machine_index is not None:
                alive = [
                    m.index
                    for m in view.machines
                    if m.alive and m.index not in dying
                ]
                victim = (
                    kill.machine_index
                    if kill.machine_index in alive and len(alive) >= 2
                    else None
                )
            else:
                victim = self._pick_victim(view, dying)
            if victim is not None:
                dying.append(victim)
        if not dying:
            return actions
        placement = {t.name: t.machine_index for t in view.tenants}
        doomed = set(dying)
        actions = [
            action
            for action in actions
            if not (
                isinstance(action, Migrate)
                and (
                    action.dest_machine_index in doomed
                    or placement.get(action.tenant) in doomed
                )
            )
        ]
        actions.extend(FailMachine(index) for index in dying)
        return actions


class DegradedModePolicy:
    """Graceful degradation under gray failures, for any policy stack.

    Wraps any inner policy.  While every machine reads ``fresh`` (or
    ``dead`` — fail-stop recovery is the arbiter's business), the inner
    actions pass through untouched, so wrapping costs nothing on
    healthy runs and a kills-only fault plan stays byte-identical to
    plain chaos.  When the engine's health derivation reports
    degradation, the wrapper transforms the inner actions
    deterministically:

    * **stale** machines hold their last-known caps — decisions based
      on aging telemetry stop chasing it, and a machine coming back
      from quarantine keeps its held allocation through the
      reintegration hysteresis window (it reads ``stale`` until the
      window elapses, then ``fresh`` again);
    * **unresponsive** machines are quarantined at their cap floor and
      their freed watts are redistributed to fresh machines by
      headroom (the arbiter's allocation intent, re-expressed over the
      machines that can actually be trusted to use it);
    * migrations whose source or destination machine is not ``fresh``
      are dropped — consolidation never packs tenants onto a machine
      the control plane cannot see clearly;
    * if holding stale caps would overflow the budget (it shrank since
      the cap was learned), fresh machines shave toward their floors
      first, then stale ones — all plain arithmetic, so serial and
      sharded runs degrade byte-identically.

    ``SetBudget`` and ``FailMachine`` actions pass through unchanged;
    ``may_fail_machines`` and ``failure_times`` are inherited from the
    inner stack so the engine still checkpoints for an inner
    ``ChaosPolicy``.
    """

    def __init__(self, inner: ControlPolicy) -> None:
        self.inner = inner

    @property
    def may_fail_machines(self) -> bool:
        """Inherited from the inner stack (checkpointing trigger)."""
        return bool(getattr(self.inner, "may_fail_machines", False))

    @property
    def failure_times(self) -> frozenset[float] | None:
        """Inherited from the inner stack (checkpointing trigger)."""
        return getattr(self.inner, "failure_times", None)

    def initial_budget_watts(self) -> float | None:
        """Delegates to the inner policy."""
        return self.inner.initial_budget_watts()

    def barrier_times(self, horizon: float) -> Sequence[float]:
        """Delegates to the inner policy."""
        return self.inner.barrier_times(horizon)

    def decide(self, view: ClusterView) -> Sequence[Action]:
        """Inner actions, transformed for the cluster's health state."""
        actions = list(self.inner.decide(view))
        health = {machine.index: machine.health for machine in view.machines}
        if not any(
            state in (HEALTH_STALE, HEALTH_UNRESPONSIVE)
            for state in health.values()
        ):
            return actions
        budget = view.budget_watts
        placement = {t.name: t.machine_index for t in view.tenants}
        out: list[Action] = []
        for action in actions:
            if isinstance(action, SetBudget):
                budget = action.budget_watts
                out.append(action)
            elif isinstance(action, Migrate):
                if (
                    health.get(action.dest_machine_index) != HEALTH_FRESH
                    or health.get(placement.get(action.tenant)) != HEALTH_FRESH
                ):
                    continue
                out.append(action)
            elif isinstance(action, SetCaps):
                out.append(
                    SetCaps(caps=self._degrade_caps(view, action.caps, budget))
                )
            else:
                out.append(action)
        return out

    def _degrade_caps(
        self,
        view: ClusterView,
        caps: Sequence[float],
        budget: float | None,
    ) -> tuple[float, ...]:
        """Hold stale, quarantine unresponsive, rebalance the watts."""
        degraded = list(caps)
        fresh: list[int] = []
        held: list[int] = []
        for machine in view.machines:
            index = machine.index
            if not machine.alive:
                continue
            if machine.health == HEALTH_UNRESPONSIVE:
                degraded[index] = machine.cap_floor
            elif machine.health == HEALTH_STALE:
                if machine.cap_watts is not None:
                    degraded[index] = machine.cap_watts
                held.append(index)
            else:
                fresh.append(index)
        if budget is None:
            return tuple(degraded)
        floors = {m.index: m.cap_floor for m in view.machines}
        ceilings = {m.index: m.cap_ceiling for m in view.machines}
        slack = budget - sum(degraded)
        if slack > 0.0 and fresh:
            # Water-fill the freed watts into fresh machines by
            # headroom, never past a ceiling.
            headroom = sum(ceilings[i] - degraded[i] for i in fresh)
            if headroom > 0.0:
                fraction = min(1.0, slack / headroom)
                for index in fresh:
                    degraded[index] += fraction * (
                        ceilings[index] - degraded[index]
                    )
        elif slack < 0.0:
            # Holding stale caps overflowed a shrunken budget: shave
            # fresh machines toward their floors first, then the held
            # ones, so the validator never sees an over-budget plan.
            for group in (fresh, held):
                give = sum(degraded[i] - floors[i] for i in group)
                if give <= 0.0:
                    continue
                fraction = min(1.0, -slack / give)
                for index in group:
                    degraded[index] -= fraction * (
                        degraded[index] - floors[index]
                    )
                slack = budget - sum(degraded)
                if slack >= 0.0:
                    break
        return tuple(degraded)


def build_policy(
    name: str,
    budget_watts: float,
    machines: Sequence,
    gain: float = 8.0,
    schedule: BudgetSchedule | None = None,
    migration_cost_seconds: float = 2.0,
) -> ControlPolicy:
    """Assemble a named policy stack for a machine pool.

    ``name`` is one of :data:`POLICY_NAMES`: ``static-equal`` (even
    split), ``sla-aware`` (violation-weighted water-fill),
    ``hier-arbitrated`` (two-level group water-fill whose shard-local
    aggregates keep the sharded barrier payload at O(groups)),
    ``migrating`` (SLA-aware caps plus cold ceiling-saturation
    migration), or ``consolidating`` (SLA-aware caps plus warm
    pack/spread placement with cap-floor parking).  A ``schedule``
    wraps the stack in a :class:`ScheduledBudgetPolicy` after checking
    every level against the pool's cap floor.
    """
    # Imported here, not at module top: the arbiter module itself
    # imports controlplane.actions, so a module-level import would be
    # circular when loading starts from repro.datacenter.arbiter.
    from repro.datacenter.arbiter import ArbiterPolicy, PowerArbiter
    from repro.datacenter.controlplane.hierarchy import HierarchicalArbiter

    if name == "static-equal":
        policy: ControlPolicy = PowerArbiter(
            budget_watts, machines, policy=ArbiterPolicy.STATIC_EQUAL, gain=gain
        )
    elif name == "sla-aware":
        policy = PowerArbiter(
            budget_watts, machines, policy=ArbiterPolicy.SLA_AWARE, gain=gain
        )
    elif name == "hier-arbitrated":
        policy = HierarchicalArbiter(budget_watts, machines, gain=gain)
    elif name == "migrating":
        policy = MigratingPolicy(
            PowerArbiter(
                budget_watts, machines, policy=ArbiterPolicy.SLA_AWARE, gain=gain
            ),
            cost_seconds=migration_cost_seconds,
        )
    elif name == "consolidating":
        policy = ConsolidatingPolicy(
            PowerArbiter(
                budget_watts, machines, policy=ArbiterPolicy.SLA_AWARE, gain=gain
            ),
            cost_seconds=migration_cost_seconds,
        )
    else:
        raise ControlError(
            f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
        )
    if schedule is not None:
        from repro.datacenter.controlplane.applier import machine_limits

        floors, _ = machine_limits(machines)
        schedule.check_floor(sum(floors))
        policy = ScheduledBudgetPolicy(policy, schedule)
    return policy


def inject_failures(
    policy: ControlPolicy,
    chaos_kills: int = 0,
    chaos_seed: int = 0,
    faults: FaultPlan | None = None,
) -> ControlPolicy:
    """Wrap ``policy`` in the failure injectors a run asks for.

    ``chaos_kills`` > 0 adds a :class:`ChaosPolicy` killing that many
    machines at ``chaos_seed``-derived barriers.  A fault plan adds a
    second :class:`ChaosPolicy` for its kill schedule (if it has one)
    and then a :class:`DegradedModePolicy` around the whole stack, so
    control degrades gracefully instead of acting on faulted
    observations.  The order is part of every journaled run's bytes.
    """
    if chaos_kills > 0:
        policy = ChaosPolicy(policy, kills=chaos_kills, seed=chaos_seed)
    if faults is not None:
        if faults.kills:
            policy = ChaosPolicy(
                policy, seed=faults.seed, kill_times=faults.kills
            )
        policy = DegradedModePolicy(policy)
    return policy
