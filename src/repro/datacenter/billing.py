"""Per-tenant billing: energy, QoS-loss, and admission attribution.

At datacenter scale the PowerDial trade — QoS for power — is only
meaningful if every watt-second and every unit of lost quality can be
attributed to the tenant that caused it.  This module is the metering
layer behind :attr:`~repro.datacenter.engine.DatacenterResult.bills`:

* **Energy** — the engine charges each tenant the *exact* increase of
  its host machine's integrated meter energy across every
  :meth:`~repro.core.runtime.PowerDialRuntime.step` it executes.  The
  machine meter already integrates the full-system power curve across
  DVFS changes (arbiter reallocations never span an unsettled interval
  — every host settles to the barrier instant before caps move), so a
  tenant is billed at the wattage that actually prevailed while it held
  the machine, including any race-to-idle tail its own actuation plan
  scheduled inside the step.  Idle intervals settled by the engine's
  lazy ``idle_until`` belong to no tenant and accumulate as
  *unattributed idle energy* per machine; by construction

      sum(per-tenant billed joules) + sum(unattributed idle joules)
          == total metered pool energy

  up to float-summation reordering (the engine's conservation check
  bounds the relative error at 1e-9).

* **QoS loss** — the paper's Eq. 9–11 actuator trades heart-rate
  speedup for output distortion; the billed quantity is that distortion
  integrated over wall time: ``sum(qos_loss(active setting) * dt)``
  over the tenant's heartbeat intervals, in loss-seconds.  A tenant
  that rode out a power cap on its dynamic knobs shows the deficit
  here; a knob-poor tenant shows it as latency instead.

* **Admission rejections** — arrivals shed by the tenant's queue bound,
  straight from :class:`~repro.datacenter.tenants.TenantStats`.

Determinism: ledgers accumulate identical floats in identical order on
the serial and sharded backends (a shard worker replays exactly the
step sequence the serial scheduler would run on its machines), so bills
are byte-identical across backends — pinned by the parity tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Sequence

from repro.core.runtime import RunResult
from repro.datacenter.tenants import TenantReport

__all__ = [
    "BillingError",
    "CONSERVATION_TOLERANCE",
    "TenantLedger",
    "TenantBill",
    "qos_loss_seconds",
    "compose_bill",
    "conservation_summary",
]

CONSERVATION_TOLERANCE = 1e-9
"""Max tolerated relative error of billed + idle vs metered energy.

The invariant's contract, owned here next to the accounting that
defines it: perfbench fails every timed repetition that breaks it, and the
tests/examples assert it.  Observed errors are float-summation noise
(~1e-16), so this bound has orders of magnitude of slack.
"""


class BillingError(ValueError):
    """Raised for invalid metering input or inconsistent accounting."""


@dataclass
class TenantLedger:
    """Mutable per-tenant meter the engine charges while it schedules.

    One ledger rides on each
    :class:`~repro.datacenter.engine.InstanceBinding`; the engine calls
    :meth:`charge` with the machine-meter energy delta and clock delta
    of every ``step()`` it dispatches for that tenant (on whichever
    backend executed the step).

    Attributes:
        energy_joules: Watt-seconds of machine energy attributed so far.
        busy_seconds: Machine-clock seconds the tenant's steps consumed.
        steps: Number of ``step()`` dispatches charged (starved steps
            charge zero energy and zero time but still count).
    """

    energy_joules: float = 0.0
    busy_seconds: float = 0.0
    steps: int = 0

    def charge(self, energy_joules: float, seconds: float) -> None:
        """Attribute one step's metered energy and machine time.

        Both deltas come from monotone counters (integrated meter
        energy, the machine clock), so negative values indicate a
        metering bug and raise :class:`BillingError`.
        """
        if energy_joules < 0.0:
            raise BillingError(
                f"cannot charge negative energy {energy_joules!r} J"
            )
        if seconds < 0.0:
            raise BillingError(f"cannot charge negative time {seconds!r} s")
        self.energy_joules += energy_joules
        self.busy_seconds += seconds
        self.steps += 1


@dataclass(frozen=True)
class TenantBill:
    """One tenant's end-of-scenario bill.

    Attributes:
        tenant: Tenant name.
        machine_index: The machine the tenant's instance ran on.
        offered: Arrivals the trace offered.
        admitted: Arrivals accepted by admission control.
        rejected: Arrivals shed by the queue bound.
        completed: Requests fully served.
        busy_seconds: Machine-clock seconds attributed to the tenant's
            steps (co-resident tenants split their shared machine's
            time; idle gaps belong to nobody).
        energy_joules: Watt-seconds of metered machine energy
            attributed to those steps.
        qos_loss_seconds: Eq. 9–11 output distortion integrated over
            wall time (loss-seconds); see :func:`qos_loss_seconds`.
        mean_qos_loss: ``qos_loss_seconds`` divided by the tenant's
            first-to-last-beat span (0 when it never beat twice).
        attainment: Fraction of completed requests within the SLA bound.
        sla_met: Whether attainment reached the SLA target.
    """

    tenant: str
    machine_index: int
    offered: int
    admitted: int
    rejected: int
    completed: int
    busy_seconds: float
    energy_joules: float
    qos_loss_seconds: float
    mean_qos_loss: float
    attainment: float
    sla_met: bool

    def to_dict(self) -> dict[str, Any]:
        """The bill as a JSON-ready plain dict (field name -> value)."""
        return asdict(self)


def qos_loss_seconds(run: RunResult) -> float:
    """Integrate Eq. 9–11 QoS loss over a run's heartbeat intervals.

    A beat's timestamp marks the *start* of its item's execution (the
    runtime applies the setting, records the heartbeat, then executes),
    so the interval ``(t[i], t[i+1]]`` ran under ``settings[i]`` and is
    weighted by that setting's QoS loss.  The result is in
    loss-seconds: a tenant served exactly (baseline setting) integrates
    0 regardless of runtime; one served at a degraded setting accrues
    loss proportional to how long the degradation lasted.  The final
    item's tail beyond the last beat has no closing timestamp in the
    samples and is excluded — identically on every backend.
    """
    times = run.columns.time
    settings = run.columns.setting
    if len(times) != len(settings):
        raise BillingError(
            f"run has {len(times)} samples but {len(settings)} settings"
        )
    total = 0.0
    for index in range(len(times) - 1):
        dt = times[index + 1] - times[index]
        total += settings[index].qos_loss * dt
    return total


def compose_bill(
    machine_index: int,
    report: TenantReport,
    ledger: TenantLedger,
    run: RunResult | Sequence[RunResult],
) -> TenantBill:
    """Assemble one tenant's :class:`TenantBill` from the run artifacts.

    ``run`` is a single :class:`RunResult` or, for a tenant the control
    plane migrated, its per-host run segments: QoS loss integrates and
    heartbeat spans sum *per segment*, so the clock discontinuity of a
    migration (machines keep independent virtual clocks) is never
    weighted by a knob setting.  ``machine_index`` is the tenant's
    final placement.

    Pure function of its inputs: the engine's one result assembly calls
    it on the host groups' closing payloads (one group serial, one per
    shard worker), so identical inputs yield bit-identical bills on both
    backends.
    """
    segments: Sequence[RunResult]
    if isinstance(run, RunResult):
        segments = (run,)
    else:
        segments = tuple(run)
        if not segments:
            raise BillingError("cannot bill an empty run-segment list")
    loss_seconds = 0.0
    span = 0.0
    for segment in segments:
        loss_seconds += qos_loss_seconds(segment)
        times = segment.columns.time
        if len(times) >= 2:
            span += times[-1] - times[0]
    return TenantBill(
        tenant=report.name,
        machine_index=machine_index,
        offered=report.offered,
        admitted=report.admitted,
        rejected=report.rejected,
        completed=report.completed,
        busy_seconds=ledger.busy_seconds,
        energy_joules=ledger.energy_joules,
        qos_loss_seconds=loss_seconds,
        mean_qos_loss=loss_seconds / span if span > 0.0 else 0.0,
        attainment=report.attainment,
        sla_met=report.sla_met,
    )


def conservation_summary(
    bills: Sequence[TenantBill],
    idle_energy_joules: Sequence[float],
    total_energy_joules: float,
) -> dict[str, float]:
    """Energy-conservation accounting for a finished scenario.

    Returns a JSON-ready dict with the billed total, the unattributed
    idle total, the metered pool total, and ``rel_error`` — the
    relative mismatch between ``billed + idle`` and the metered total,
    which float-summation reordering keeps far below 1e-9.
    """
    billed = sum(bill.energy_joules for bill in bills)
    idle = sum(idle_energy_joules)
    if total_energy_joules > 0.0:
        rel_error = abs(billed + idle - total_energy_joules) / total_energy_joules
    else:
        rel_error = abs(billed + idle)
    return {
        "billed_energy_joules": billed,
        "unattributed_idle_joules": idle,
        "total_energy_joules": total_energy_joules,
        "rel_error": rel_error,
    }
