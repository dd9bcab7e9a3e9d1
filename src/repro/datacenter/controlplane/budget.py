"""Time-varying budgets: schedules of timestamped fleet-wide watt levels.

The paper's §5.4 study imposes one power cap on one machine; a
:class:`BudgetSchedule` generalizes the event to the fleet: a sequence
of ``(time, watts)`` levels — a demand-response trace, a brown-out, a
circuit de-rating — that the control plane applies as
:class:`~repro.datacenter.controlplane.actions.SetBudget` actions at
exactly the scheduled instants (schedule times become control
barriers).

Trace files are plain text, one ``<seconds> <watts>`` pair per line
(``#`` comments and blank lines ignored)::

    # demand-response event: shed 15% for a minute, then recover
    0    600
    30   510
    90   600

Parsing (:func:`parse_budget_trace` / :func:`load_budget_trace`)
reports actionable errors — the offending line, the non-monotonic
timestamp, the watt level below the fleet's enforceable floor — so a
bad trace fails before any simulation time is spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.datacenter.tolerances import WATT_SLACK

__all__ = [
    "BudgetTraceError",
    "BudgetSchedule",
    "parse_budget_trace",
    "load_budget_trace",
]


class BudgetTraceError(ValueError):
    """Raised for malformed or unenforceable budget traces."""


@dataclass(frozen=True)
class BudgetSchedule:
    """A step function of fleet-wide budget levels over the run.

    Attributes:
        entries: ``(time_seconds, budget_watts)`` pairs with strictly
            increasing, non-negative times and positive watt levels.
            Between entries the budget holds the last level; before the
            first entry the scenario's base budget applies.
    """

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        last_time = None
        for index, (time, watts) in enumerate(self.entries):
            if time < 0.0:
                raise BudgetTraceError(
                    f"entry {index}: negative timestamp {time!r}"
                )
            if last_time is not None and time <= last_time:
                raise BudgetTraceError(
                    f"entry {index}: timestamp {time!r} does not increase "
                    f"(previous entry at {last_time!r} s)"
                )
            if watts <= 0.0:
                raise BudgetTraceError(
                    f"entry {index}: budget must be positive, got {watts!r} W"
                )
            last_time = time

    @property
    def times(self) -> tuple[float, ...]:
        """The scheduled change instants, in order."""
        return tuple(time for time, _ in self.entries)

    def budget_at(self, time: float, default: float | None = None) -> float | None:
        """The scheduled budget in force at ``time``.

        Returns the level of the latest entry with timestamp <= ``time``,
        or ``default`` when ``time`` precedes the whole schedule.
        """
        level = default
        for at, watts in self.entries:
            if at > time:
                break
            level = watts
        return level

    def check_floor(self, floor_watts: float) -> None:
        """Reject levels no cap assignment could enforce.

        Every machine stays powered on, so the fleet can never draw
        less than the sum of its per-machine cap floors; a trace level
        below that is a configuration error, reported with the
        offending entry.
        """
        for index, (time, watts) in enumerate(self.entries):
            if watts < floor_watts - WATT_SLACK:
                raise BudgetTraceError(
                    f"entry {index} (t={time:g} s): budget {watts:g} W is "
                    f"below the fleet-wide cap floor {floor_watts:.1f} W "
                    "(machines pinned to their slowest P-state)"
                )


def parse_budget_trace(text: str) -> BudgetSchedule:
    """Parse budget-trace text into a :class:`BudgetSchedule`.

    One ``<seconds> <watts>`` pair per line; ``#`` starts a comment;
    blank lines are skipped.  Raises :class:`BudgetTraceError` naming
    the line for anything else — wrong field count, non-numeric values,
    non-monotonic timestamps.
    """
    entries: list[tuple[float, float]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BudgetTraceError(
                f"line {line_number}: expected '<seconds> <watts>', "
                f"got {raw.strip()!r}"
            )
        try:
            time, watts = float(fields[0]), float(fields[1])
        except ValueError:
            raise BudgetTraceError(
                f"line {line_number}: non-numeric entry {raw.strip()!r}"
            ) from None
        if entries and time <= entries[-1][0]:
            raise BudgetTraceError(
                f"line {line_number}: timestamp {time:g} s does not increase "
                f"(previous entry at {entries[-1][0]:g} s) — trace "
                "timestamps must be strictly monotonic"
            )
        entries.append((time, watts))
    if not entries:
        raise BudgetTraceError("budget trace is empty (no data lines)")
    return BudgetSchedule(tuple(entries))


def load_budget_trace(path: str | Path) -> BudgetSchedule:
    """Read and parse a budget-trace file; errors name the file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise BudgetTraceError(
            f"cannot read budget trace {str(path)!r}: {error}"
        ) from None
    try:
        return parse_budget_trace(text)
    except BudgetTraceError as error:
        raise BudgetTraceError(f"{path}: {error}") from None
