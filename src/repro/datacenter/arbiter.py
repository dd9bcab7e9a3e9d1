"""Hierarchical power-budget arbitration: budget -> machine caps -> DVFS.

The top of the three-level hierarchy the datacenter subsystem runs:

1. **Global budget** — a facility power budget in watts (a circuit
   limit, or a demand-response commitment; time-varying when driven by
   a :class:`~repro.datacenter.controlplane.budget.BudgetSchedule`).
2. **Per-machine caps** — every control barrier the arbiter divides
   the budget into per-machine caps and enforces each cap with DVFS,
   exactly the mechanism of the paper's §5.4 power-capping study: a cap
   maps to the fastest P-state whose full-load system power stays under
   it, so the cap holds even if the machine saturates.
3. **Per-instance heartbeat control** — each instance's existing
   PowerDial controller observes the resulting slowdown through its
   heart rate and spends dynamic-knob speedup (QoS loss) to compensate.
   The arbiter never talks to instances; the knob layer reacts to the
   hardware it is given, as in the paper.

Under :data:`ArbiterPolicy.STATIC_EQUAL` the budget is split evenly — the
baseline a shared cluster without runtime knowledge would use.  Under
:data:`ArbiterPolicy.SLA_AWARE` each machine's share grows with the SLA
shortfall of its resident tenants, shifting watts toward violating
tenants at the expense of machines with headroom (whose tenants fall
back on their knobs).

Since the control-plane refactor the arbiter is *one policy among
several*: :class:`PowerArbiter` implements the
:class:`~repro.datacenter.controlplane.actions.ControlPolicy` protocol
— :meth:`PowerArbiter.decide` maps a
:class:`~repro.datacenter.controlplane.actions.ClusterView` to a single
``SetCaps`` action — and the engine applies it through the shared
control-plane applier like any other policy.  The water-filling math
itself lives in module functions, so ``decide`` is a thin adapter.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

from repro.datacenter.caps import (
    ArbiterError,
    frequency_for_cap,
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

__all__ = [
    "ArbiterError",
    "ArbiterPolicy",
    "machine_cap_floor",
    "machine_cap_ceiling",
    "frequency_for_cap",
    "water_fill",
    "check_weights",
    "PowerArbiter",
]


class ArbiterPolicy(enum.Enum):
    """How the global budget is divided across machines."""

    STATIC_EQUAL = "static-equal"
    SLA_AWARE = "sla-aware"


def check_weights(weights: Sequence[float]) -> None:
    """Reject any bidding weight that is not finite and >= 0.

    A NaN, infinite or negative weight would flow silently into the
    share arithmetic; the error names the first offending machine
    index.
    """
    for index, weight in enumerate(weights):
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ArbiterError(
                f"machine {index}: bidding weight {weight!r} must be "
                "finite and >= 0"
            )


def water_fill(
    weights: Sequence[float],
    floors: Sequence[float],
    ceilings: Sequence[float],
    budget_watts: float,
) -> list[float]:
    """Divide a budget into caps by weighted water-filling.

    Every machine is guaranteed its floor; the surplus is divided in
    proportion to ``weights``, and shares beyond a machine's ceiling
    cascade back to the machines still below theirs.  Pure function of
    its arguments — the arbiter's :meth:`PowerArbiter.allocate` and
    :meth:`PowerArbiter.decide` are both thin wrappers over it, so caps
    cannot depend on which code path (legacy or control-plane) asked.
    If no open machine holds any weight (all remaining bids are zero),
    the rest of the surplus goes undistributed and every machine keeps
    its floor — nobody bid for the watts.  Weights must be finite and
    non-negative (:func:`check_weights`); anything else raises
    :class:`ArbiterError` naming the machine.
    """
    check_weights(weights)
    caps = list(floors)
    surplus = budget_watts - sum(floors)
    open_set = set(range(len(caps)))
    # Water-fill: machines that hit their ceiling return the excess.
    while surplus > WATT_SLACK and open_set:
        total_weight = sum(weights[i] for i in open_set)
        if total_weight <= 0.0:
            break
        # Rescale the open bids by a power of two so their total lies in
        # [0.5, 1).  That is exact for normal weights, so each share is
        # bitwise ``surplus * weight / total_weight``; but a subnormal
        # total can no longer magnify the product's underflow into a
        # share beyond the surplus.
        unit, exponent = math.frexp(total_weight)
        granted = 0.0
        saturated = []
        for i in open_set:
            share = surplus * math.ldexp(weights[i], -exponent) / unit
            headroom = ceilings[i] - caps[i]
            take = min(share, headroom)
            caps[i] += take
            granted += take
            if headroom - take <= WATT_SLACK:
                saturated.append(i)
        open_set.difference_update(saturated)
        surplus -= granted
        if granted <= WATT_SLACK:
            break
    return caps


class PowerArbiter:
    """Divides a global power budget into enforceable per-machine caps.

    Args:
        budget_watts: The global budget.  Must be at least the sum of
            the machines' cap floors — machines cannot be pushed below
            their slowest P-state's full-load power.
        machines: The machine pool being arbitrated.
        policy: Allocation policy; see :class:`ArbiterPolicy`.
        gain: SLA-aware sensitivity — a machine with aggregate shortfall
            ``v`` bids weight ``1 + gain * v``, so ``gain`` watts-per-
            violation steers how aggressively the budget chases SLAs.
    """

    def __init__(
        self,
        budget_watts: float,
        machines: Sequence[Machine],
        policy: ArbiterPolicy = ArbiterPolicy.SLA_AWARE,
        gain: float = 8.0,
    ) -> None:
        if not machines:
            raise ArbiterError("arbiter needs at least one machine")
        if gain < 0:
            raise ArbiterError(f"gain must be >= 0, got {gain!r}")
        self.machines = list(machines)
        self.policy = policy
        self.gain = gain
        self.floors = [machine_cap_floor(m) for m in self.machines]
        self.ceilings = [machine_cap_ceiling(m) for m in self.machines]
        if budget_watts < sum(self.floors) - WATT_SLACK:
            raise ArbiterError(
                f"budget {budget_watts!r} W is below the pool's floor "
                f"{sum(self.floors):.1f} W ({len(self.machines)} machines "
                "pinned to their slowest P-state)"
            )
        self.budget_watts = float(budget_watts)

    def _weights(self, violation_scores: Sequence[float]) -> list[float]:
        """Per-machine bidding weights under the configured policy."""
        if any(score < 0 for score in violation_scores):
            raise ArbiterError("violation scores must be >= 0")
        if self.policy is ArbiterPolicy.STATIC_EQUAL:
            return [1.0] * len(violation_scores)
        return [1.0 + self.gain * score for score in violation_scores]

    def allocate(
        self,
        violation_scores: Sequence[float],
        budget_watts: float | None = None,
    ) -> list[float]:
        """Compute per-machine caps summing to at most the budget.

        ``violation_scores`` gives each machine's aggregate SLA shortfall
        (>= 0; the engine sums its resident tenants' shortfalls).  Every
        machine is guaranteed its floor; the surplus is divided equally
        (STATIC_EQUAL) or by violation-weighted bidding (SLA_AWARE), and
        shares beyond a machine's ceiling cascade to the others.
        ``budget_watts`` overrides the construction-time budget (the
        control plane passes the currently scheduled level).
        """
        if len(violation_scores) != len(self.machines):
            raise ArbiterError(
                f"expected {len(self.machines)} scores, got "
                f"{len(violation_scores)!r}"
            )
        budget = self.budget_watts if budget_watts is None else budget_watts
        if budget < sum(self.floors) - WATT_SLACK:
            raise ArbiterError(
                f"budget {budget!r} W is below the pool's floor "
                f"{sum(self.floors):.1f} W"
            )
        return water_fill(
            self._weights(violation_scores), self.floors, self.ceilings, budget
        )

    def apply(self, violation_scores: Sequence[float]) -> list[float]:
        """Allocate and enforce caps via DVFS; returns the caps."""
        caps = self.allocate(violation_scores)
        for machine, cap in zip(self.machines, caps):
            machine.set_frequency(frequency_for_cap(machine, cap))
        return caps

    # ------------------------------------------------------------------
    # ControlPolicy adapter: the arbiter as one policy among several
    # ------------------------------------------------------------------
    def initial_budget_watts(self) -> float | None:
        """The construction-time budget governs from time zero."""
        return self.budget_watts

    def barrier_times(self, horizon: float) -> Sequence[float]:
        """The arbiter needs no barriers beyond the periodic ticks."""
        return ()

    def decide(self, view: ClusterView) -> Sequence[Action]:
        """One ``SetCaps`` from water-filling the view's machines.

        A pure adapter: weighted shortfalls come from
        :meth:`~repro.datacenter.controlplane.actions.ClusterView.
        machine_shortfalls`, floors/ceilings from the view's machine
        entries, and the budget from the view (falling back to the
        construction-time budget on uncapped views) — so the caps are
        float-identical to :meth:`allocate` on the same pool.
        """
        scores = view.machine_shortfalls()
        if len(view.machines) != len(self.machines):
            raise ArbiterError(
                f"arbiter configured for {len(self.machines)} machines got a "
                f"view of {len(view.machines)}"
            )
        budget = (
            view.budget_watts
            if view.budget_watts is not None
            else self.budget_watts
        )
        caps = water_fill(
            self._weights(scores),
            [m.cap_floor for m in view.machines],
            [m.cap_ceiling for m in view.machines],
            budget,
        )
        return [SetCaps(tuple(caps))]
