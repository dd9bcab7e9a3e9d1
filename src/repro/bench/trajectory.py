"""The perf-trajectory gate: fresh bench run vs committed baselines.

CI's ``bench-trajectory`` step runs this module after the smoke bench::

    PYTHONPATH=src python -m repro.bench.trajectory \\
        --baseline-dir . --fresh-dir bench-artifacts \\
        --out bench-artifacts/TRAJECTORY.md

It compares the fresh run's per-scenario **serial** timings (and the
runtime microbench probes) against the committed repo-root
``BENCH_datacenter.json`` / ``BENCH_runtime.json`` trajectory
artifacts, and exits nonzero — naming the regressed scenario — when a
normalized cost grew past the tolerance.

Two normalizations make a smoke run on an arbitrary CI host comparable
to a committed full run from another machine:

* **per-event cost**: scenario wall-clock divided by its event count,
  so a 10 s smoke horizon compares against a 120 s committed horizon
  (the serial scheduler is O(events));
* **host speed**: each payload carries the
  ``calibration_ops_per_sec`` score measured alongside it
  (:mod:`repro.bench.calibration`); costs are expressed in
  *calibration ops per event*, cancelling host and interpreter speed
  to first order.

Residual noise (different pool sizes per kind, per-run fixed costs at
tiny event counts) is absorbed by a deliberately generous tolerance —
the gate is meant to catch structural slowdowns (an accidentally
quadratic path, a hot loop de-optimized), not single-digit-percent
drift.  ``--inject-slowdown 2.0`` scales the fresh costs for an
end-to-end check that the gate actually fails and names the scenario.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "DEFAULT_TOLERANCE",
    "TrajectoryCheck",
    "compare_datacenter",
    "compare_runtime",
    "format_markdown",
    "main",
    "scenario_kind",
]

DEFAULT_TOLERANCE = 1.6
"""Max tolerated normalized-cost ratio (fresh / baseline).

Generous by design: cross-host calibration and smoke-vs-full scenario
differences leave ~±25 % of noise, while the regressions worth gating
(complexity-class slips) show up as >=2x.  A synthetic 2x slowdown must
fail the gate, so the ceiling sits well below 2."""


@dataclass(frozen=True)
class TrajectoryCheck:
    """One scenario's (or probe's) fresh-vs-baseline comparison.

    Attributes:
        name: Fresh scenario label (e.g. ``open-4m``) or probe name.
        kind: Scenario family compared against (``open``,
            ``arbitrated``, …) or ``probe``.
        baseline_cost: Committed normalized cost (calibration ops per
            event / item / beat / call).
        fresh_cost: This run's normalized cost, same unit.
        ratio: ``fresh_cost / baseline_cost`` — > 1 means slower.
        regressed: Whether ``ratio`` exceeded the tolerance.
    """

    name: str
    kind: str
    baseline_cost: float
    fresh_cost: float
    ratio: float
    regressed: bool

    @property
    def message(self) -> str:
        """Human-readable one-liner, suitable for a CI failure log."""
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.name}: normalized cost {self.ratio:.2f}x the committed "
            f"baseline ({self.kind}) — {verdict}"
        )


def scenario_kind(label: str) -> str:
    """The scenario family of a bench label (``open-32m`` -> ``open``)."""
    return label.rsplit("-", 1)[0]


def _calibration(payload: dict[str, Any]) -> float | None:
    """The payload's host-speed score, or None for pre-gate artifacts."""
    score = payload.get("calibration_ops_per_sec")
    return float(score) if score else None


def _normalizer(
    baseline: dict[str, Any], fresh: dict[str, Any], notes: list[str]
) -> tuple[float, float]:
    """Per-payload calibration factors (1.0 with a note when absent)."""
    base_calib = _calibration(baseline)
    fresh_calib = _calibration(fresh)
    if base_calib is None or fresh_calib is None:
        notes.append(
            "calibration_ops_per_sec missing from "
            + ("baseline" if base_calib is None else "fresh run")
            + "; comparing raw (un-normalized) costs"
        )
        return 1.0, 1.0
    return base_calib, fresh_calib


def _serial_cost_per_event(scenario: dict[str, Any]) -> float | None:
    """A scenario's serial seconds per event, or None if malformed."""
    serial = scenario.get("backends", {}).get("serial")
    events = scenario.get("events")
    if not serial or not events:
        return None
    return serial["seconds"] / events


def compare_datacenter(
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    slowdown: float = 1.0,
    notes: list[str] | None = None,
) -> list[TrajectoryCheck]:
    """Compare a fresh datacenter payload against the committed one.

    Every fresh scenario whose *kind* exists in the baseline is
    checked: its calibrated per-event serial cost against the mean
    calibrated per-event cost of the baseline's scenarios of the same
    kind (pool sizes may differ — the serial scheduler is O(events), so
    per-event cost transfers).  Fresh kinds with no committed
    counterpart are skipped with a note; they gate once the baseline is
    regenerated.  ``slowdown`` scales the fresh costs (synthetic
    regression injection for validating the gate itself).
    """
    notes = notes if notes is not None else []
    base_calib, fresh_calib = _normalizer(baseline, fresh, notes)
    by_kind: dict[str, list[float]] = {}
    for scenario in baseline.get("scenarios", ()):
        cost = _serial_cost_per_event(scenario)
        if cost is not None:
            kind = scenario_kind(scenario["scenario"])
            by_kind.setdefault(kind, []).append(cost * base_calib)
    checks: list[TrajectoryCheck] = []
    for scenario in fresh.get("scenarios", ()):
        label = scenario["scenario"]
        cost = _serial_cost_per_event(scenario)
        if cost is None:
            notes.append(f"{label}: no serial timing in the fresh payload")
            continue
        kind = scenario_kind(label)
        reference = by_kind.get(kind)
        if not reference:
            notes.append(
                f"{label}: no committed baseline for kind {kind!r} yet "
                "(gates after the next full-bench regeneration)"
            )
            continue
        baseline_cost = sum(reference) / len(reference)
        fresh_cost = cost * fresh_calib * slowdown
        ratio = fresh_cost / baseline_cost
        checks.append(
            TrajectoryCheck(
                name=label,
                kind=kind,
                baseline_cost=baseline_cost,
                fresh_cost=fresh_cost,
                ratio=ratio,
                regressed=ratio > tolerance,
            )
        )
    return checks


_PROBE_COSTS = {
    "step_path": ("items_per_sec", "item"),
    "heartbeat_window": ("beats_per_sec", "beat"),
}


def compare_runtime(
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    slowdown: float = 1.0,
    notes: list[str] | None = None,
) -> list[TrajectoryCheck]:
    """Compare the runtime microbench probes against the committed run.

    ``step_path`` and ``heartbeat_window`` compare calibrated per-item
    / per-beat costs; ``actuation_plan`` compares the calibrated cost of
    a *cached* plan call (the steady-state path the cache exists for).
    Same tolerance and injection semantics as :func:`compare_datacenter`.
    """
    notes = notes if notes is not None else []
    base_calib, fresh_calib = _normalizer(baseline, fresh, notes)
    base_probes = baseline.get("probes", {})
    fresh_probes = fresh.get("probes", {})
    checks: list[TrajectoryCheck] = []

    def add(name: str, base_cost: float, fresh_cost: float) -> None:
        baseline_cost = base_cost * base_calib
        cost = fresh_cost * fresh_calib * slowdown
        ratio = cost / baseline_cost
        checks.append(
            TrajectoryCheck(
                name=name,
                kind="probe",
                baseline_cost=baseline_cost,
                fresh_cost=cost,
                ratio=ratio,
                regressed=ratio > tolerance,
            )
        )

    for probe, (rate_field, _unit) in _PROBE_COSTS.items():
        base = base_probes.get(probe)
        current = fresh_probes.get(probe)
        if not base or not current:
            notes.append(f"probe {probe!r} missing from a payload; skipped")
            continue
        add(probe, 1.0 / base[rate_field], 1.0 / current[rate_field])
    base_plan = base_probes.get("actuation_plan")
    fresh_plan = fresh_probes.get("actuation_plan")
    if base_plan and fresh_plan:
        add(
            "actuation_plan(cached)",
            1e-6 * base_plan["cached_us_per_call"],
            1e-6 * fresh_plan["cached_us_per_call"],
        )
    else:
        notes.append("probe 'actuation_plan' missing from a payload; skipped")
    return checks


def format_markdown(
    checks: Sequence[TrajectoryCheck],
    notes: Sequence[str],
    tolerance: float,
) -> str:
    """Render the comparison as the markdown summary CI uploads."""
    lines = [
        "# Bench trajectory: fresh run vs committed baseline",
        "",
        f"Tolerance: fresh normalized cost may be at most "
        f"**{tolerance:.2f}x** the committed baseline "
        "(costs in host-calibrated ops per event/item/beat/call; "
        "see `docs/BENCH.md`).",
        "",
        "| scenario / probe | kind | baseline cost | fresh cost | ratio | status |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for check in checks:
        status = "**REGRESSED**" if check.regressed else "ok"
        lines.append(
            f"| {check.name} | {check.kind} | {check.baseline_cost:,.0f} "
            f"| {check.fresh_cost:,.0f} | {check.ratio:.2f}x | {status} |"
        )
    if notes:
        lines += ["", "## Notes", ""]
        lines += [f"- {note}" for note in notes]
    regressed = [c for c in checks if c.regressed]
    lines += [
        "",
        (
            f"**{len(regressed)} regression(s)** out of {len(checks)} checks."
            if regressed
            else f"All {len(checks)} checks within tolerance."
        ),
        "",
    ]
    return "\n".join(lines)


def _load(path: Path) -> dict[str, Any]:
    """Read one bench JSON artifact, with a readable failure."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(
            f"bench-trajectory: {path} not found — run "
            "`python -m repro.bench` (baseline) or the smoke bench "
            "(fresh) first"
        ) from None
    except json.JSONDecodeError as error:
        raise SystemExit(f"bench-trajectory: {path} is not valid JSON: {error}")


def main(argv: list[str] | None = None) -> int:
    """CLI driver; exit 0 on pass, 1 on regression (scenario named)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trajectory",
        description="Gate a fresh bench run against the committed "
        "BENCH_*.json perf-trajectory baselines.",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("."),
        help="directory holding the committed BENCH_*.json (default: .)",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        required=True,
        help="directory holding the fresh run's BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"max fresh/baseline normalized-cost ratio "
        f"(default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="multiply fresh costs by FACTOR (synthetic regression, "
        "for validating the gate; default: 1.0)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the markdown diff summary to this file",
    )
    args = parser.parse_args(argv)

    notes: list[str] = []
    checks = compare_datacenter(
        _load(args.baseline_dir / "BENCH_datacenter.json"),
        _load(args.fresh_dir / "BENCH_datacenter.json"),
        tolerance=args.tolerance,
        slowdown=args.inject_slowdown,
        notes=notes,
    )
    checks += compare_runtime(
        _load(args.baseline_dir / "BENCH_runtime.json"),
        _load(args.fresh_dir / "BENCH_runtime.json"),
        tolerance=args.tolerance,
        slowdown=args.inject_slowdown,
        notes=notes,
    )

    markdown = format_markdown(checks, notes, args.tolerance)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(markdown)
    for check in checks:
        print(check.message)
    for note in notes:
        print(f"note: {note}")

    regressed = [check for check in checks if check.regressed]
    if regressed:
        worst = max(regressed, key=lambda check: check.ratio)
        print(
            f"\nbench-trajectory FAILED: scenario {worst.name!r} is "
            f"{worst.ratio:.2f}x the committed {worst.kind} baseline "
            f"(tolerance {args.tolerance:.2f}x)."
            "\nIf this slowdown is intended (new feature cost), regenerate "
            "the baselines with `PYTHONPATH=src python -m repro.bench` and "
            "commit the updated BENCH_*.json.",
            file=sys.stderr,
        )
        return 1
    print(f"\nbench-trajectory OK: {len(checks)} checks within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
