#!/usr/bin/env python3
"""Per-tenant billing: who spent the watts, and who paid in quality?

The arbiter example shows the datacenter subsystem trading power and
QoS across tenants; this walkthrough shows the *meter* behind that
trade.  Every ``step()`` the engine dispatches charges the stepping
tenant's ledger with the host machine's exact energy delta (integrated
across DVFS changes, so a tenant is billed at the wattage that actually
prevailed while it held the machine), and the paper's Eq. 9–11 knob
distortion is integrated over wall time into QoS-loss-seconds.  Idle
energy belongs to nobody and is reported per machine, which makes the
books balance exactly:

    sum(per-tenant billed joules) + sum(unattributed idle joules)
        == total metered pool energy

The script runs the default four-tenant mix once under the SLA-aware
arbiter, prints each tenant's bill and the conservation audit, then
reruns the identical scenario on the sharded multiprocess backend to
show the bills are byte-identical — metering does not depend on how
the simulation was executed.

Run:
    python examples/datacenter_billing.py
"""

import json

from repro.datacenter import CONSERVATION_TOLERANCE, fork_available
from repro.experiments.datacenter import Scenario, default_tenant_mix

HORIZON = 40.0  # seconds of virtual time (the tiny-scale horizon)

# Well below the default 420 W: with the pool squeezed near its cap
# floor, the knobbed tenants visibly pay in QoS-loss-seconds while the
# knob-poor "billing" tenant (exact service) pays in latency instead.
BUDGET_WATTS = 370.0


def run_once(backend, workers=None):
    scenario = Scenario(
        default_tenant_mix(),
        machines=2,
        horizon=HORIZON,
        budget_watts=BUDGET_WATTS,
        policy="sla-aware",
    )
    return scenario.build(backend, workers).run()


def main():
    result = run_once("serial")

    print(
        f"Bills for {len(result.bills)} tenants, {HORIZON:.0f} s horizon, "
        f"{BUDGET_WATTS:.0f} W budget (sla-aware arbiter):\n"
    )
    header = (
        f"{'tenant':<10} {'mach':>4} {'energy J':>10} {'busy s':>8} "
        f"{'QoS-loss s':>11} {'rej':>4} {'SLA':>4}"
    )
    print(header)
    print("-" * len(header))
    for bill in result.bills:
        print(
            f"{bill.tenant:<10} {bill.machine_index:>4} "
            f"{bill.energy_joules:>10.1f} {bill.busy_seconds:>8.2f} "
            f"{bill.qos_loss_seconds:>11.5f} {bill.rejected:>4} "
            f"{'met' if bill.sla_met else 'MISS':>4}"
        )

    audit = result.energy_conservation()
    print(
        f"\nConservation audit: billed {audit['billed_energy_joules']:.1f} J "
        f"+ unattributed idle {audit['unattributed_idle_joules']:.1f} J "
        f"= metered {audit['total_energy_joules']:.1f} J "
        f"(rel error {audit['rel_error']:.1e})"
    )
    assert audit["rel_error"] <= CONSERVATION_TOLERANCE

    print("\nOne bill as the --bill CLI emits it (JSON):")
    print(json.dumps(result.bills[0].to_dict(), indent=2, sort_keys=True))

    if fork_available():
        sharded = run_once("sharded", workers=2)
        identical = sharded.bills == result.bills
        print(
            f"\nSharded rerun (2 workers): bills byte-identical to serial? "
            f"{identical}"
        )
        assert identical, "backend changed the bills"
    else:
        print("\n(fork unavailable: skipping the sharded identity demo)")


if __name__ == "__main__":
    main()
