#!/usr/bin/env python3
"""Inject gray failures and watch the control plane degrade gracefully.

A `--chaos` kill is honest: the machine stops and everyone knows.
Gray failures lie — heartbeats go silent while the machine keeps
serving, commanded caps are silently swallowed by the actuator, a
straggler pins itself at its cap floor.  ARCHITECTURE.md invariant 8
says degraded mode never violates conservation or parity: faulted runs
stay byte-identical across backends, every injected fault and every
applier retry is journaled, and billing meters the *applied* DVFS
ground truth rather than the commands a fault blocked.

This walkthrough:

1. parses a declarative fault plan (the same grammar `--faults FILE`
   accepts) with a sensor dropout, an actuator drop window, and a
   straggler;
2. runs it on the serial backend and prints the journaled fault and
   retry timeline — quarantine, backoff retries, hysteretic recovery;
3. re-runs it on the sharded backend and shows bills, fault records,
   and retry records are byte-identical, with conservation balanced.

Run:
    python examples/datacenter_grayfail.py
"""

from repro.datacenter import fork_available, parse_fault_plan
from repro.datacenter.journal import canonical_json, encode_record
from repro.experiments.common import Scale
from repro.experiments.datacenter import run_datacenter

FAULT_PLAN = """
# tuned for the tiny 40 s scenario (control barrier every ~6 s)
config seed=11 unresponsive_after=4 reintegrate=5 retry_base=2 retry_cap=8 retry_deadline=12
sensor machine=0 start=8 end=16 mode=dropout
actuator machine=1 start=10 end=22 mode=drop
straggler machine=0 start=24 end=30
"""


def main():
    print("1. Parsing the declarative fault plan...")
    plan = parse_fault_plan(FAULT_PLAN)
    print(
        f"   {len(plan.sensors)} sensor, {len(plan.actuators)} actuator, "
        f"{len(plan.stragglers)} straggler fault(s); retry deadline "
        f"{plan.retry_deadline_seconds:g}s"
    )

    print("\n2. Running the faulted scenario (serial backend)...")
    experiment = run_datacenter(scale=Scale.TINY, faults=plan)
    live = experiment.arbitrated
    for record in live.faults:
        where = (
            "" if record.machine_index is None else f" m{record.machine_index}"
        )
        mode = f" ({record.mode})" if record.mode else ""
        print(f"   t={record.time:5.1f}s  {record.kind}{mode}{where}")
    for retry in live.retries:
        applied = (
            "nothing (previous DVFS state survives)"
            if retry.applied_watts is None
            else f"{retry.applied_watts:.0f} W"
        )
        print(
            f"   t={retry.time:5.1f}s  retry attempt {retry.attempt} on "
            f"m{retry.machine_index}: target {retry.target_watts:.0f} W -> "
            f"applied {applied} ({retry.outcome})"
        )
    conservation = live.energy_conservation_rel_error()
    print(f"   billing conservation rel. error {conservation:.1e}")

    if not fork_available():
        print("\n3. (fork unavailable: skipping the sharded parity check)")
        return

    print("\n3. Re-running sharded (2 workers) — parity under faults...")
    sharded = run_datacenter(
        scale=Scale.TINY, faults=plan, backend="sharded", workers=2
    ).arbitrated
    assert sharded.faults == live.faults, "fault records diverged"
    assert sharded.retries == live.retries, "retry records diverged"
    serial_bills = [canonical_json(encode_record(bill)) for bill in live.bills]
    sharded_bills = [
        canonical_json(encode_record(bill)) for bill in sharded.bills
    ]
    assert sharded_bills == serial_bills, "bills diverged"
    print(
        f"   {len(serial_bills)} tenant bills, {len(live.faults)} fault "
        f"records, {len(live.retries)} retry records: byte-identical"
    )

    print("\nDegraded mode never violates conservation or parity.")


if __name__ == "__main__":
    main()
