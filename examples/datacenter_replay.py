#!/usr/bin/env python3
"""Record a run's journal, then reproduce the run from the journal alone.

Every journaled datacenter run is a *pure function of its journal*
(ARCHITECTURE.md invariant 7).  The journal is an append-only NDJSON
file: a header carrying the full scenario config (RNG seeds included),
one record per control barrier (the policy's raw actions, the applied
caps/budget/migrations/failures, and a complete cluster checkpoint),
and a closing record pinning the result's canonical payload.

This walkthrough records a chaos run — a machine is killed mid-run and
its tenants are rebuilt on survivors from barrier checkpoints — then:

1. replays the journal with zero inputs beyond the file itself and
   shows the replayed bills are byte-identical to the live run's;
2. simulates a crash by truncating the journal mid-write (a torn final
   line included) and resumes it, showing the resumed run still ends
   with the same bills and an exactly-balanced energy ledger.

Run:
    python examples/datacenter_replay.py
"""

import tempfile
from pathlib import Path

from repro.experiments.common import Scale
from repro.experiments.datacenter import run_datacenter
from repro.datacenter.journal import (
    canonical_json,
    encode_record,
    replay,
    resume,
)

BUDGET_WATTS = 640.0  # three machines: cap floor ~549 W, ceiling 660 W


def main():
    workdir = Path(tempfile.mkdtemp(prefix="powerdial-replay-"))
    journal = workdir / "run.ndjson"

    print("1. Recording a journaled chaos run (1 machine killed mid-run)...")
    experiment = run_datacenter(
        scale=Scale.TINY,
        machines=3,
        budget_watts=BUDGET_WATTS,
        journal=str(journal),
        chaos=1,
        chaos_seed=7,
    )
    live = experiment.arbitrated
    for failure in live.failures:
        print(
            f"   machine {failure.machine_index} failed at "
            f"{failure.time:.1f}s; {len(failure.replacements)} tenants "
            "rebuilt on survivors from barrier checkpoints"
        )
    lines = journal.read_text().splitlines()
    print(f"   journal: {len(lines)} records at {journal}")

    print("\n2. Replaying the journal (no inputs beyond the file)...")
    replayed = replay(str(journal))
    live_bills = [canonical_json(encode_record(bill)) for bill in live.bills]
    replay_bills = [
        canonical_json(encode_record(bill)) for bill in replayed.bills
    ]
    assert replay_bills == live_bills, "replayed bills diverged"
    print(f"   {len(replay_bills)} tenant bills byte-identical to the live run")

    print("\n3. Crashing mid-run (journal truncated, torn final write)...")
    barrier_count = sum(1 for line in lines if '"kind":"barrier"' in line)
    crash_after = len(lines) - 2  # drop the result and the last barrier
    crashed = workdir / "crashed.ndjson"
    crashed.write_text("\n".join(lines[:crash_after] + ['{"kind":"barr']) + "\n")
    resumed = resume(str(crashed))
    resumed_bills = [
        canonical_json(encode_record(bill)) for bill in resumed.bills
    ]
    assert resumed_bills == live_bills, "resumed bills diverged"
    conservation = resumed.energy_conservation_rel_error()
    print(
        f"   resumed from barrier {barrier_count - 2} of {barrier_count}; "
        f"bills identical, billing conservation rel. error "
        f"{conservation:.1e}"
    )

    print("\nEvery run is a pure function of its journal.")


if __name__ == "__main__":
    main()
