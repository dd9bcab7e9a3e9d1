"""Hierarchical budget arbitration: group aggregates, then local fills.

The flat :class:`~repro.datacenter.arbiter.PowerArbiter` water-fills
the global budget across every machine in one pass — O(machines) state
through the decision point every barrier.  At 1024 machines that pass
is what the shard barrier has to ship.  This module splits the
decision into two levels so the *cross-shard* half touches only
O(groups) numbers:

1. Machines are assigned to a **fixed set of arbitration groups**
   (round-robin by machine index).  Each group is summarized by the
   knee points of its aggregate demand curve — total bidding weight,
   total cap floor, total cap ceiling.  Those three numbers are all
   the parent needs: below the aggregate floor the group is infeasible,
   above the aggregate ceiling extra watts are worthless, and in
   between the group absorbs watts in proportion to its total weight.
2. The parent water-fills the budget **across group aggregates** into
   per-group sub-budgets, then each group water-fills its sub-budget
   **locally** over its own members.

Both levels reuse :func:`~repro.datacenter.arbiter.water_fill`
unchanged.  The group count is a property of the *policy*, never of
the backend: a serial run and 1/2/4-worker sharded runs group machines
identically, so :meth:`HierarchicalArbiter.decide` is a pure function
of the view and byte-parity across backends holds per policy
(ARCHITECTURE.md invariant 4).
"""

from __future__ import annotations

from typing import Sequence

from repro.datacenter.caps import (
    ArbiterError,
    machine_cap_ceiling,
    machine_cap_floor,
)
from repro.datacenter.controlplane.actions import (
    Action,
    ClusterView,
    SetCaps,
)
from repro.datacenter.tolerances import WATT_SLACK
from repro.hardware.machine import Machine

__all__ = ["DEFAULT_GROUPS", "HierarchicalArbiter", "round_robin_groups"]

DEFAULT_GROUPS = 8
"""Default arbitration-group count (clamped to the machine count)."""


def round_robin_groups(machine_count: int, groups: int) -> list[list[int]]:
    """Assign machine indices to ``groups`` round-robin buckets.

    Machine ``i`` lands in group ``i % groups`` (clamped to at most one
    group per machine), so membership depends only on the machine count
    and the configured group count — never on backend or worker count —
    and indices within each group are ascending, which pins the
    floating-point summation order of the group aggregates.
    """
    if machine_count <= 0:
        raise ArbiterError("grouping needs at least one machine")
    if groups <= 0:
        raise ArbiterError(f"group count must be >= 1, got {groups!r}")
    width = min(groups, machine_count)
    buckets: list[list[int]] = [[] for _ in range(width)]
    for index in range(machine_count):
        buckets[index % width].append(index)
    return buckets


class HierarchicalArbiter:
    """Two-level water-fill: budget -> group sub-budgets -> machine caps.

    Args:
        budget_watts: The global budget; must cover the pool's cap
            floors (same feasibility contract as the flat arbiter).
        machines: The machine pool being arbitrated.
        gain: SLA-aware bidding sensitivity — a machine with weighted
            shortfall ``v`` bids ``1 + gain * v``, exactly the flat
            SLA-aware weighting, so the hierarchy changes *where* the
            arithmetic happens, not what demand means.
        groups: Arbitration-group count (clamped to the machine count).
            Fixed per policy so every backend groups identically.
    """

    def __init__(
        self,
        budget_watts: float,
        machines: Sequence[Machine],
        gain: float = 8.0,
        groups: int = DEFAULT_GROUPS,
    ) -> None:
        if not machines:
            raise ArbiterError("arbiter needs at least one machine")
        if gain < 0:
            raise ArbiterError(f"gain must be >= 0, got {gain!r}")
        self.machines = list(machines)
        self.gain = gain
        self.groups = round_robin_groups(len(self.machines), groups)
        self.floors = [machine_cap_floor(m) for m in self.machines]
        self.ceilings = [machine_cap_ceiling(m) for m in self.machines]
        if budget_watts < sum(self.floors) - WATT_SLACK:
            raise ArbiterError(
                f"budget {budget_watts!r} W is below the pool's floor "
                f"{sum(self.floors):.1f} W ({len(self.machines)} machines "
                "pinned to their slowest P-state)"
            )
        self.budget_watts = float(budget_watts)

    def caps_for_demand(
        self,
        scores: Sequence[float],
        budget_watts: float | None = None,
        floors: Sequence[float] | None = None,
        ceilings: Sequence[float] | None = None,
    ) -> list[float]:
        """Per-machine caps from per-machine demand scores.

        The one arithmetic path of the hierarchy, behind :meth:`decide`.
        ``floors``/``ceilings``
        default to the construction-time pool limits; views pass their
        own (identical) copies.  Group aggregates are summed over
        ascending member indices — the float order is part of the
        cross-backend parity contract.
        """
        # Deferred: importing water_fill at module scope closes a cycle
        # (arbiter -> controlplane.actions -> this package -> arbiter).
        from repro.datacenter.arbiter import check_weights, water_fill

        if len(scores) != len(self.machines):
            raise ArbiterError(
                f"expected {len(self.machines)} scores, got {len(scores)!r}"
            )
        if any(score < 0 for score in scores):
            raise ArbiterError("violation scores must be >= 0")
        floors = self.floors if floors is None else floors
        ceilings = self.ceilings if ceilings is None else ceilings
        budget = self.budget_watts if budget_watts is None else budget_watts
        if budget < sum(floors) - WATT_SLACK:
            raise ArbiterError(
                f"budget {budget!r} W is below the pool's floor "
                f"{sum(floors):.1f} W"
            )
        weights = [1.0 + self.gain * score for score in scores]
        # Checked per machine here, so the error names the machine
        # rather than the group whose summed weight it poisons.
        check_weights(weights)
        group_weights = [sum(weights[i] for i in g) for g in self.groups]
        group_floors = [sum(floors[i] for i in g) for g in self.groups]
        group_ceilings = [sum(ceilings[i] for i in g) for g in self.groups]
        sub_budgets = water_fill(
            group_weights, group_floors, group_ceilings, budget
        )
        caps = [0.0] * len(self.machines)
        for members, sub_budget in zip(self.groups, sub_budgets):
            local = water_fill(
                [weights[i] for i in members],
                [floors[i] for i in members],
                [ceilings[i] for i in members],
                sub_budget,
            )
            for member, cap in zip(members, local):
                caps[member] = cap
        return caps

    # ------------------------------------------------------------------
    # ControlPolicy protocol
    # ------------------------------------------------------------------
    def initial_budget_watts(self) -> float | None:
        """The construction-time budget governs from time zero."""
        return self.budget_watts

    def barrier_times(self, horizon: float) -> Sequence[float]:
        """The hierarchy needs no barriers beyond the periodic ticks."""
        return ()

    def decide(self, view: ClusterView) -> Sequence[Action]:
        """One ``SetCaps`` from the two-level fill of the view's pool."""
        if len(view.machines) != len(self.machines):
            raise ArbiterError(
                f"arbiter configured for {len(self.machines)} machines got "
                f"a view of {len(view.machines)}"
            )
        caps = self.caps_for_demand(
            view.machine_shortfalls(),
            view.budget_watts,
            [m.cap_floor for m in view.machines],
            [m.cap_ceiling for m in view.machines],
        )
        return [SetCaps(tuple(caps))]
