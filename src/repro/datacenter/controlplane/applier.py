"""The one place control actions are validated and applied.

Policies return data (:mod:`~repro.datacenter.controlplane.actions`);
this module turns that data into engine state, identically on every
backend:

* :func:`plan_actions` — central validation.  Whatever a policy emits
  is checked here before anything is enforced: budgets must cover the
  fleet's cap floor, caps must be within every machine's
  ``[cap_floor, cap_ceiling]`` range and sum within the budget (errors
  name the offending machine), migrations must reference live tenants
  and real destinations.  The serial engine and the sharded
  coordinator both plan through this function.
* :func:`enforce_caps` — cap -> DVFS application (the §5.4 mechanism).
* :func:`plan_failures` — where a failed machine's tenants go; the
  engine's barrier step places them and its transport restores them
  (:meth:`~repro.datacenter.engine.HostGroup.restore`, which also
  lands every migrant).
* :func:`merge_run_results` — stitches a migrated tenant's per-host
  run segments into the single :class:`~repro.core.runtime.RunResult`
  exposed by ``DatacenterResult.run_results``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.runtime import RunResult, SampleColumns
from repro.datacenter.caps import (
    ArbiterError,
    frequency_for_cap,
    machine_cap_ceiling,
    machine_cap_floor,
)
from repro.datacenter.controlplane.actions import (
    Action,
    ClusterView,
    ControlError,
    FailMachine,
    Migrate,
    SetBudget,
    SetCaps,
)
from repro.datacenter.tolerances import VALIDATION_SLACK

__all__ = [
    "ControlPlan",
    "machine_limits",
    "plan_actions",
    "enforce_caps",
    "plan_failures",
    "merge_run_results",
]

def machine_limits(machines: Sequence[Any]) -> tuple[list[float], list[float]]:
    """Per-machine enforceable cap floors and ceilings, in pool order."""
    floors = [machine_cap_floor(machine) for machine in machines]
    ceilings = [machine_cap_ceiling(machine) for machine in machines]
    return floors, ceilings


@dataclass(frozen=True)
class ControlPlan:
    """A validated, canonically ordered batch of control actions.

    Application order is always budget -> caps -> failures ->
    migrations, regardless of the order the policy emitted them: a new
    budget must govern the cap check, caps must be enforced before any
    placement changes, and failures must land before migrations so a
    migration never races a machine that died at the same barrier (the
    validator rejects such plans outright).

    Attributes:
        budget_watts: New global budget, or None if unchanged.
        caps: Validated per-machine caps, or None if this barrier
            leaves caps alone.
        failures: Machines to fail-stop, in policy order.
        migrations: Migrations to perform, in policy order.
    """

    budget_watts: float | None
    caps: tuple[float, ...] | None
    migrations: tuple[Migrate, ...]
    failures: tuple[FailMachine, ...] = ()


def plan_actions(
    actions: Sequence[Action],
    view: ClusterView,
    floors: Sequence[float],
    ceilings: Sequence[float],
    budget_watts: float | None,
) -> ControlPlan:
    """Validate a policy's actions against the cluster's hard limits.

    This is the control plane's single trust boundary: every backend
    plans through it, so no policy — built-in or user-supplied — can
    push a machine outside ``[cap_floor, cap_ceiling]``, overspend the
    budget, set a non-finite cap or budget, or migrate a tenant that
    does not exist.  Violations raise
    :class:`~repro.datacenter.arbiter.ArbiterError` (cap/budget limits,
    naming the offending machine) or :class:`ControlError` (malformed
    action batches).
    """
    new_budget: float | None = None
    caps: tuple[float, ...] | None = None
    migrations: list[Migrate] = []
    failures: list[FailMachine] = []
    tenants = {tenant.name: tenant for tenant in view.tenants}

    for action in actions:
        if isinstance(action, SetBudget):
            if new_budget is not None:
                raise ControlError(
                    "policy emitted more than one SetBudget in a single "
                    "decision"
                )
            if not math.isfinite(action.budget_watts):
                raise ArbiterError(
                    f"budget {action.budget_watts!r} W is not finite"
                )
            if action.budget_watts < sum(floors) - VALIDATION_SLACK:
                raise ArbiterError(
                    f"budget {action.budget_watts!r} W is below the pool's "
                    f"floor {sum(floors):.1f} W ({len(floors)} machines "
                    "pinned to their slowest P-state)"
                )
            new_budget = float(action.budget_watts)
        elif isinstance(action, SetCaps):
            if caps is not None:
                raise ControlError(
                    "policy emitted more than one SetCaps in a single "
                    "decision"
                )
            caps = tuple(float(cap) for cap in action.caps)
        elif isinstance(action, Migrate):
            tenant = tenants.get(action.tenant)
            if tenant is None:
                raise ControlError(
                    f"cannot migrate unknown tenant {action.tenant!r}"
                )
            if tenant.finished:
                raise ControlError(
                    f"cannot migrate finished tenant {action.tenant!r}"
                )
            if not 0 <= action.dest_machine_index < len(view.machines):
                raise ControlError(
                    f"migration destination {action.dest_machine_index!r} "
                    f"out of range for {len(view.machines)} machines"
                )
            if action.dest_machine_index == tenant.machine_index:
                raise ControlError(
                    f"tenant {action.tenant!r} is already on machine "
                    f"{tenant.machine_index}"
                )
            if action.cost_seconds < 0.0:
                raise ControlError(
                    f"migration cost must be >= 0, got {action.cost_seconds!r}"
                )
            if any(m.tenant == action.tenant for m in migrations):
                raise ControlError(
                    f"tenant {action.tenant!r} migrated twice in one decision"
                )
            migrations.append(action)
        elif isinstance(action, FailMachine):
            if not 0 <= action.machine_index < len(view.machines):
                raise ControlError(
                    f"cannot fail machine {action.machine_index!r}: out of "
                    f"range for {len(view.machines)} machines"
                )
            if not view.machines[action.machine_index].alive:
                raise ControlError(
                    f"machine {action.machine_index} is already dead"
                )
            if any(f.machine_index == action.machine_index for f in failures):
                raise ControlError(
                    f"machine {action.machine_index} failed twice in one "
                    "decision"
                )
            failures.append(action)
        else:
            raise ControlError(f"unknown control action {action!r}")

    if failures:
        dying = {failure.machine_index for failure in failures}
        survivors = [
            m for m in view.machines if m.alive and m.index not in dying
        ]
        if not survivors:
            raise ControlError(
                "plan fails every remaining machine; at least one must "
                "survive to host the victims' tenants"
            )
    else:
        dying = set()
    for migration in migrations:
        dest = view.machines[migration.dest_machine_index]
        if not dest.alive or migration.dest_machine_index in dying:
            raise ControlError(
                f"cannot migrate tenant {migration.tenant!r} to dead "
                f"machine {migration.dest_machine_index}"
            )
        if tenants[migration.tenant].machine_index in dying:
            raise ControlError(
                f"cannot migrate tenant {migration.tenant!r} off machine "
                f"{tenants[migration.tenant].machine_index}, which fails "
                "at this same barrier (failure recovery re-places it)"
            )

    if caps is not None:
        effective_budget = new_budget if new_budget is not None else budget_watts
        if len(caps) != len(floors):
            raise ArbiterError(
                f"expected {len(floors)} caps, got {len(caps)}"
            )
        for index, (cap, floor, ceiling) in enumerate(
            zip(caps, floors, ceilings)
        ):
            # NaN fails every comparison below, so reject it first.
            if not math.isfinite(cap):
                raise ArbiterError(
                    f"machine {index}: cap {cap!r} W is not finite"
                )
            if cap < floor - VALIDATION_SLACK:
                raise ArbiterError(
                    f"machine {index}: cap {cap:.3f} W below its floor "
                    f"{floor:.3f} W"
                )
            if cap > ceiling + VALIDATION_SLACK:
                raise ArbiterError(
                    f"machine {index}: cap {cap:.3f} W above its ceiling "
                    f"{ceiling:.3f} W"
                )
        if (
            effective_budget is not None
            and sum(caps) > effective_budget + VALIDATION_SLACK
        ):
            raise ArbiterError(
                f"caps sum to {sum(caps):.3f} W, exceeding the "
                f"{effective_budget:.3f} W budget"
            )
    return ControlPlan(
        budget_watts=new_budget,
        caps=caps,
        migrations=tuple(migrations),
        failures=tuple(failures),
    )


def enforce_caps(machines: Sequence[Any], caps: Sequence[float]) -> None:
    """Apply validated caps as DVFS settings, one machine at a time."""
    for machine, cap in zip(machines, caps):
        machine.set_frequency(frequency_for_cap(machine, cap))


def plan_failures(
    placements: Sequence[tuple[str, int]],
    machine_count: int,
    dead: set[int],
    failed: Sequence[int],
) -> list[tuple[int, list[tuple[str, int]]]]:
    """Deterministically re-place the victims of this barrier's failures.

    Pure placement math, run once per failure barrier by the engine's
    barrier step on every backend.  ``placements``
    is ``(tenant, machine_index)`` in engine binding order; the victims
    of each failed machine are re-placed, in that order, onto the
    surviving machine with the fewest resident tenants (ties break to
    the lowest index), counting victims as they land.  Returns
    ``(failed_machine_index, [(tenant, dest_machine_index), ...])`` per
    failure, in ``failed`` order.
    """
    dead_after = dead | set(failed)
    survivors = [i for i in range(machine_count) if i not in dead_after]
    if not survivors:
        raise ControlError("no machine survives to host the victims")
    occupancy = {index: 0 for index in survivors}
    victims: dict[int, list[str]] = {index: [] for index in failed}
    for tenant, placement in placements:
        if placement in occupancy:
            occupancy[placement] += 1
        elif placement in victims:
            victims[placement].append(tenant)
    moves = []
    for index in failed:
        machine_moves = []
        for tenant in victims[index]:
            dest = min(occupancy, key=lambda i: (occupancy[i], i))
            occupancy[dest] += 1
            machine_moves.append((tenant, dest))
        moves.append((index, machine_moves))
    return moves


def merge_run_results(segments: Sequence[RunResult]) -> RunResult:
    """Stitch per-host run segments into one tenant-facing result.

    A never-migrated tenant has one segment, returned untouched.  For
    migrated tenants, samples/outputs/settings concatenate in execution
    order, energy and elapsed sum, and ``mean_power`` is ``None`` —
    a mean across different machines' meters has no single referent
    (use ``DatacenterResult.bills`` for attributed energy instead).
    """
    if not segments:
        raise ControlError("cannot merge an empty run-segment list")
    if len(segments) == 1:
        return segments[0]
    columns = SampleColumns()
    for segment in segments:
        columns.extend(segment.columns)
    return RunResult(
        columns=columns,
        outputs_by_job=[o for segment in segments for o in segment.outputs_by_job],
        mean_power=None,
        energy_joules=sum(segment.energy_joules for segment in segments),
        elapsed=sum(segment.elapsed for segment in segments),
    )
