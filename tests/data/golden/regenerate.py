"""Regenerate the golden-trace corpus.

Five small seeded datacenter scenarios, each committed as a journal
(``<name>.ndjson``) plus the expected replay billing document
(``<name>.bills.json``).  The parity suite
(``tests/datacenter/test_golden_traces.py``) replays every journal and
diffs the bills byte-for-byte against the committed expectations — a
frozen, reviewable record that the engine reproduces historic runs
exactly.

Run from the repo root after any change that intentionally shifts
simulation results:

    PYTHONPATH=src python tests/data/golden/regenerate.py

and commit the rewritten corpus together with the change that moved it.
"""

from __future__ import annotations

import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

# Name -> run_datacenter keyword overrides (built lazily so importing
# this module for the scenario list stays cheap and side-effect free).
GOLDEN_NAMES = (
    "arbitrated",
    "budget_shock",
    "migrating",
    "chaos",
    "grayfail",
)


def golden_settings(name: str) -> dict:
    """The run_datacenter overrides for one corpus scenario."""
    from repro.datacenter.controlplane.budget import BudgetSchedule
    from repro.datacenter.faults import FaultPlan
    from repro.experiments.datacenter import DEFAULT_BUDGET_WATTS

    settings: dict = {"machines": 2}
    if name == "arbitrated":
        pass
    elif name == "budget_shock":
        settings["budget_trace"] = BudgetSchedule(
            ((15.0, 0.94 * DEFAULT_BUDGET_WATTS),)
        )
    elif name == "migrating":
        settings["policy"] = "migrating"
    elif name == "chaos":
        settings.update(chaos=1, chaos_seed=7)
    elif name == "grayfail":
        settings["faults"] = FaultPlan.generate(
            horizon=40.0,  # Scale.TINY's horizon
            machines=2,
            seed=7,
            kills=1,
            sensor_dropouts=2,
            actuator_drops=2,
            stragglers=1,
            unresponsive_after=4.0,
            reintegrate=5.0,
        )
    else:
        raise ValueError(f"unknown golden scenario {name!r}")
    return settings


def journal_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.ndjson"


def bills_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.bills.json"


def regenerate() -> None:
    from repro.experiments.common import Scale
    from repro.experiments.datacenter import (
        format_replay_bills,
        run_datacenter,
    )

    for name in GOLDEN_NAMES:
        experiment = run_datacenter(
            scale=Scale.TINY,
            journal=str(journal_path(name)),
            **golden_settings(name),
        )
        result = experiment.arbitrated
        bills_path(name).write_text(format_replay_bills(result))
        extras = ""
        if result.migrations:
            extras += f", {len(result.migrations)} migrations"
        if result.failures:
            extras += f", {len(result.failures)} failures"
        if result.faults:
            extras += f", {len(result.faults)} faults"
        print(f"{name}: {len(result.bills)} bills{extras}")
        if name == "migrating" and not result.migrations:
            sys.exit(
                "golden scenario 'migrating' recorded no migration — "
                "the corpus must cover a warm handoff"
            )
        if name in ("chaos", "grayfail") and not result.failures:
            sys.exit(
                f"golden scenario {name!r} recorded no machine failure — "
                "the corpus must cover a faulted run"
            )


if __name__ == "__main__":
    regenerate()
