"""Seeded, declarative gray-failure injection plans.

PR 6's :class:`~repro.datacenter.controlplane.policy.ChaosPolicy`
covers exactly one fault shape — a clean fail-stop with a checkpoint
restore.  Real clusters fail *gray*: heartbeats go stale or noisy, cap
commands get lost or half-applied, machines straggle without dying.
This module makes those regimes first-class and deterministic: a
:class:`FaultPlan` schedules typed faults —

* **sensor faults** — a machine's telemetry drops out, arrives
  delayed, or turns noisy for a window; the control plane's view
  serves held/delayed/perturbed tenant stats while the machine's true
  physics (and therefore billing) is untouched;
* **actuator faults** — a ``SetCaps`` application to a machine fails
  outright or applies only partially at a barrier, driving the
  applier's deadline-based retry loop;
* **stragglers** — a machine's effective clock runs slow for a window
  (its DVFS state is pinned to the slowest P-state regardless of the
  commanded cap), recovering on its own at the window's end;
* **kills** — the existing fail-stop injection, re-expressed in the
  same plan (``ChaosPolicy`` is now sugar over a kills-only plan).

A plan is a *pure function of its seed and config*: the same
:meth:`FaultPlan.generate` arguments always produce byte-identical
schedules, plans embed losslessly in journal headers via
:meth:`FaultPlan.to_config`/:meth:`FaultPlan.from_config`, and every
injected fault and applier retry is journaled as a typed record — so a
faulted run replays and resumes byte-exactly, and serial and sharded
backends stay byte-identical under every fault class.

The plan says *when* a fault bites; one :class:`FaultInjector` per run
says *what it does*, and owns all per-run fault state: machine health,
the applier's retry loops (:class:`RetryState`) and the stragglers.  It
keeps no history: each barrier's fault and retry records go to that
barrier's record.

Plans can also be written by hand and loaded with
:func:`load_fault_plan` (the CLI's ``--faults FILE``): one fault per
line, ``kind key=value ...``, with parse errors naming the line and
the offending field::

    # a gray afternoon
    sensor machine=0 mode=dropout start=8 end=18
    sensor machine=1 mode=noise start=5 end=15 amplitude=0.3
    actuator machine=1 mode=drop start=12 end=24
    straggler machine=0 start=24 end=32
    kill time=26
    config unresponsive_after=6 reintegrate=6
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Collection, Mapping, Sequence

from repro.datacenter.tolerances import TARGET_SLACK, TIME_SLACK, WATT_SLACK
from repro.heartbeats.health import (
    HEALTH_DEAD,
    HEALTH_FRESH,
    HEALTH_STALE,
    HEALTH_UNRESPONSIVE,
    classify_heartbeat_age,
)

if TYPE_CHECKING:  # pragma: no cover - the control plane imports this module
    from repro.datacenter.controlplane.actions import ClusterView, TenantView

__all__ = [
    "ACTUATOR_MODES",
    "ActuatorFault",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRecord",
    "KillFault",
    "RETRY_OUTCOMES",
    "RetryRecord",
    "RetryState",
    "SENSOR_MODES",
    "SensorFault",
    "StragglerFault",
    "kill_schedule",
    "load_fault_plan",
    "parse_fault_plan",
    "retry_backoff_seconds",
]

SENSOR_MODES = ("dropout", "delay", "noise")
"""Recognized sensor-fault modes."""

ACTUATOR_MODES = ("drop", "partial")
"""Recognized actuator-fault modes."""

RETRY_OUTCOMES = ("failed", "partial", "succeeded", "abandoned")
"""Outcomes a journaled applier retry attempt may record."""


class FaultError(ValueError):
    """Raised for invalid fault plans or fault-injection usage."""


class FaultPlanError(FaultError):
    """Raised for malformed fault-plan files or generation arguments."""


@dataclass(frozen=True)
class SensorFault:
    """One machine's telemetry misbehaves for a window.

    Attributes:
        machine_index: The machine whose heartbeat telemetry lies.
        start: Window start (facility seconds; inclusive).
        end: Window end (exclusive; the machine reports fresh
            telemetry again at the first barrier at or after ``end``).
        mode: ``dropout`` (the control plane sees the last fresh
            stats, aging), ``delay`` (it sees stats from
            ``delay`` seconds ago), or ``noise`` (fresh stats with the
            SLA-shortfall signal deterministically perturbed).
        amplitude: Relative perturbation magnitude for ``noise``.
        delay: Telemetry lag in seconds for ``delay``.
    """

    machine_index: int
    start: float
    end: float
    mode: str = "dropout"
    amplitude: float = 0.25
    delay: float = 5.0

    def __post_init__(self) -> None:
        _check_window(self)
        if self.mode not in SENSOR_MODES:
            raise FaultPlanError(
                f"unknown sensor mode {self.mode!r}; expected one of "
                f"{SENSOR_MODES}"
            )
        if self.amplitude < 0.0:
            raise FaultPlanError(
                f"field 'amplitude' must be >= 0, got {self.amplitude!r}"
            )
        if self.delay <= 0.0:
            raise FaultPlanError(
                f"field 'delay' must be > 0, got {self.delay!r}"
            )


@dataclass(frozen=True)
class ActuatorFault:
    """Cap applications to one machine fail for a window.

    Attributes:
        machine_index: The machine whose DVFS actuator misbehaves.
        start: Window start (inclusive).
        end: Window end (exclusive).
        mode: ``drop`` (the commanded cap is lost outright; the
            machine keeps its previous DVFS state) or ``partial`` (the
            cap moves only ``fraction`` of the way to its target).
        fraction: How far a ``partial`` application gets.
    """

    machine_index: int
    start: float
    end: float
    mode: str = "drop"
    fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_window(self)
        if self.mode not in ACTUATOR_MODES:
            raise FaultPlanError(
                f"unknown actuator mode {self.mode!r}; expected one of "
                f"{ACTUATOR_MODES}"
            )
        if not 0.0 < self.fraction < 1.0:
            raise FaultPlanError(
                f"field 'fraction' must be in (0, 1), got {self.fraction!r}"
            )


@dataclass(frozen=True)
class StragglerFault:
    """One machine's clock runs slow for a window.

    The injector pins the machine to its slowest P-state (its cap floor)
    for the window regardless of the commanded cap — service rates sag
    exactly as a thermally throttled or noisy-neighbor machine's would
    — and restores the last cap that landed at the first barrier after
    ``end``.  Metering follows the *actual* frequency, so billing
    conservation is unaffected.

    Attributes:
        machine_index: The straggling machine.
        start: Window start (inclusive).
        end: Window end (exclusive).
    """

    machine_index: int
    start: float
    end: float

    def __post_init__(self) -> None:
        _check_window(self)


@dataclass(frozen=True)
class KillFault:
    """A scheduled fail-stop, optionally pinned to a machine.

    Attributes:
        time: The kill instant (becomes a control barrier).
        machine_index: The victim, or None to let the executing
            :class:`~repro.datacenter.controlplane.policy.ChaosPolicy`
            pick a seeded victim among the machines still alive.
    """

    time: float
    machine_index: int | None = None

    def __post_init__(self) -> None:
        if self.time <= 0.0:
            raise FaultPlanError(
                f"field 'time' must be > 0, got {self.time!r}"
            )
        if self.machine_index is not None and self.machine_index < 0:
            raise FaultPlanError(
                f"field 'machine' must be >= 0, got {self.machine_index!r}"
            )


def _check_window(fault: Any) -> None:
    """Shared window validation for the windowed fault types."""
    if fault.machine_index < 0:
        raise FaultPlanError(
            f"field 'machine' must be >= 0, got {fault.machine_index!r}"
        )
    if fault.start < 0.0:
        raise FaultPlanError(
            f"field 'start' must be >= 0, got {fault.start!r}"
        )
    if fault.end <= fault.start:
        raise FaultPlanError("field 'end' must be greater than field 'start'")


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, as journaled at the barrier it first bites.

    Attributes:
        time: The barrier at which the fault became active.
        kind: ``sensor``, ``actuator``, ``straggler``, or ``recovered``
            (a straggler window ending and the machine's last landed
            cap being restored).
        machine_index: The affected machine.
        mode: The fault's mode (None for stragglers/recoveries).
    """

    time: float
    kind: str
    machine_index: int
    mode: str | None = None


@dataclass(frozen=True)
class RetryRecord:
    """One applier attempt against a faulted actuator, as journaled.

    Attributes:
        time: The barrier at which the attempt ran.
        machine_index: The machine being commanded.
        target_watts: The cap the applier was trying to land.
        applied_watts: What actually stuck (None when the command was
            dropped outright and the previous DVFS state survived).
        attempt: 1-based attempt counter for this target.
        outcome: One of :data:`RETRY_OUTCOMES` — ``failed`` (dropped,
            retry scheduled), ``partial`` (moved part-way, retry
            scheduled), ``succeeded`` (landed on a retry), or
            ``abandoned`` (the deadline expired; the applier gives up
            until the fault window clears or a new target arrives).
    """

    time: float
    machine_index: int
    target_watts: float
    applied_watts: float | None
    attempt: int
    outcome: str


def kill_schedule(
    horizon: float,
    kills: int,
    seed: int,
    start_fraction: float = 0.3,
    end_fraction: float = 0.8,
) -> tuple[float, ...]:
    """The seeded, sorted fail-stop instants of a generated plan.

    The pure schedule function behind :meth:`FaultPlan.generate`,
    which :class:`~repro.datacenter.controlplane.policy.ChaosPolicy`
    runs for ``--chaos``, so ``--chaos`` and a kills-only
    :class:`FaultPlan` compute identical floats for the same seed.
    Kills land in the ``[start_fraction, end_fraction]`` span of the
    horizon: late enough that tenants have warm state worth losing,
    early enough that the recovered run still serves traffic.
    """
    if kills < 0:
        raise FaultPlanError(f"kills must be >= 0, got {kills!r}")
    if not 0.0 < start_fraction < end_fraction <= 1.0:
        raise FaultPlanError(
            f"kill span [{start_fraction!r}, {end_fraction!r}] must satisfy "
            "0 < start < end <= 1"
        )
    rng = random.Random(seed)
    span = (end_fraction - start_fraction) * horizon
    return tuple(
        sorted(
            start_fraction * horizon + rng.random() * span
            for _ in range(kills)
        )
    )


# config-line short names -> FaultPlan tuning field names (also the
# keyword names `generate()` accepts).
_TUNING_FIELDS = {
    "seed": "seed",
    "stale_after": "stale_after_seconds",
    "unresponsive_after": "unresponsive_after_seconds",
    "reintegrate": "reintegrate_seconds",
    "retry_base": "retry_base_seconds",
    "retry_cap": "retry_cap_seconds",
    "retry_deadline": "retry_deadline_seconds",
}


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, fully deterministic gray-failure schedule.

    The plan is pure data: a :class:`FaultInjector` consults it at
    every control barrier (``sensor_at``/``actuator_at``/
    ``straggler_at``) and the window edges and kill instants become
    control barriers themselves (:meth:`barrier_times`), so every fault
    lands exactly when scheduled on every backend.

    Attributes:
        sensors: Sensor-fault windows.
        actuators: Actuator-fault windows.
        stragglers: Straggler windows.
        kills: Scheduled fail-stops.
        seed: The plan's seed (victim selection for unpinned kills
            uses ``seed + 1``, matching ``ChaosPolicy``).
        stale_after_seconds: Telemetry age beyond which a machine's
            health degrades from ``fresh`` to ``stale``.
        unresponsive_after_seconds: Telemetry age beyond which it
            degrades to ``unresponsive`` (quarantine).
        reintegrate_seconds: Hysteresis window: a recovered machine
            stays ``stale`` this long after telemetry returns before
            being ``fresh`` again.
        retry_base_seconds: First retry backoff after a failed cap
            application.
        retry_cap_seconds: Backoff ceiling (capped exponential).
        retry_deadline_seconds: Give-up deadline per target, measured
            from the first failed attempt.
    """

    sensors: tuple[SensorFault, ...] = ()
    actuators: tuple[ActuatorFault, ...] = ()
    stragglers: tuple[StragglerFault, ...] = ()
    kills: tuple[KillFault, ...] = ()
    seed: int = 0
    stale_after_seconds: float = 0.0
    unresponsive_after_seconds: float = 12.0
    reintegrate_seconds: float = 8.0
    retry_base_seconds: float = 4.0
    retry_cap_seconds: float = 16.0
    retry_deadline_seconds: float = 48.0

    def __post_init__(self) -> None:
        if self.stale_after_seconds < 0.0:
            raise FaultPlanError(
                f"field 'stale_after' must be >= 0, "
                f"got {self.stale_after_seconds!r}"
            )
        if self.unresponsive_after_seconds <= self.stale_after_seconds:
            raise FaultPlanError(
                "field 'unresponsive_after' must be greater than "
                "field 'stale_after'"
            )
        for name, value in (
            ("reintegrate", self.reintegrate_seconds),
            ("retry_base", self.retry_base_seconds),
            ("retry_cap", self.retry_cap_seconds),
            ("retry_deadline", self.retry_deadline_seconds),
        ):
            if value <= 0.0:
                raise FaultPlanError(
                    f"field {name!r} must be > 0, got {value!r}"
                )
        object.__setattr__(self, "kills", tuple(
            sorted(self.kills, key=lambda kill: kill.time)
        ))

    # ------------------------------------------------------------------
    # Schedule queries (the injector's per-barrier interface)
    # ------------------------------------------------------------------
    def max_machine_index(self) -> int:
        """The largest machine index any fault references (-1 if none)."""
        indices = [f.machine_index for f in self.sensors]
        indices += [f.machine_index for f in self.actuators]
        indices += [f.machine_index for f in self.stragglers]
        indices += [
            k.machine_index for k in self.kills if k.machine_index is not None
        ]
        return max(indices, default=-1)

    def barrier_times(self, horizon: float) -> tuple[float, ...]:
        """Every instant the control plane must observe, sorted.

        Window starts and ends (so degradation and recovery land at
        their scheduled instants, not the next periodic tick) plus the
        kill times, within ``(0, horizon]``; the engine merges them
        with its periodic barriers.
        """
        times: set[float] = set()
        for window in (*self.sensors, *self.actuators, *self.stragglers):
            times.add(window.start)
            times.add(window.end)
        times.update(kill.time for kill in self.kills)
        return tuple(sorted(t for t in times if 0.0 < t <= horizon))

    def _active(
        self, faults: Sequence[Any], machine_index: int, now: float
    ) -> Any | None:
        """The first fault of ``faults`` covering ``machine`` at ``now``."""
        for fault in faults:
            if (
                fault.machine_index == machine_index
                and fault.start - TIME_SLACK <= now < fault.end - TIME_SLACK
            ):
                return fault
        return None

    def sensor_at(self, machine_index: int, now: float) -> SensorFault | None:
        """The sensor fault active on a machine at ``now``, if any."""
        return self._active(self.sensors, machine_index, now)

    def actuator_at(
        self, machine_index: int, now: float
    ) -> ActuatorFault | None:
        """The actuator fault active on a machine at ``now``, if any."""
        return self._active(self.actuators, machine_index, now)

    def straggler_at(
        self, machine_index: int, now: float
    ) -> StragglerFault | None:
        """The straggler window active on a machine at ``now``, if any."""
        return self._active(self.stragglers, machine_index, now)

    def noise_unit(self, machine_index: int, now: float) -> float:
        """A deterministic noise draw in ``[-1, 1]``.

        Pure in ``(seed, machine, barrier time)`` via integer seed
        mixing (no string hashing), so every process — serial, sharded
        coordinator, replay, resume — perturbs identically.
        """
        mixed = (
            self.seed * 1000003
            + machine_index * 8191
            + int(round(now * 1e6))
        )
        return 2.0 * random.Random(mixed).random() - 1.0

    # ------------------------------------------------------------------
    # Construction: seeded generation and config round-trips
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        horizon: float,
        machines: int = 0,
        seed: int = 0,
        kills: int = 0,
        sensor_dropouts: int = 0,
        sensor_noise: int = 0,
        actuator_drops: int = 0,
        stragglers: int = 0,
        start_fraction: float = 0.3,
        end_fraction: float = 0.8,
        window_fraction: float = 0.25,
        **tuning: float,
    ) -> "FaultPlan":
        """Generate a seeded plan — a pure function of its arguments.

        Fault windows land in the ``[start_fraction, end_fraction]``
        span of the horizon with lengths up to ``window_fraction`` of
        it; each fault class draws from its own ``seed``-derived RNG
        stream (``seed + 1`` is reserved for kill-victim selection),
        so adding one class never reshuffles another.  ``tuning``
        accepts the plan's threshold/retry fields by their config-line
        short names (``stale_after``, ``unresponsive_after``,
        ``reintegrate``, ``retry_base``, ``retry_cap``,
        ``retry_deadline``).
        """
        if horizon <= 0.0:
            raise FaultPlanError(f"horizon must be > 0, got {horizon!r}")
        windowed = sensor_dropouts + sensor_noise + actuator_drops + stragglers
        if windowed > 0 and machines < 1:
            raise FaultPlanError(
                "windowed faults need a machine pool: pass machines >= 1"
            )
        for name, count in (
            ("sensor_dropouts", sensor_dropouts),
            ("sensor_noise", sensor_noise),
            ("actuator_drops", actuator_drops),
            ("stragglers", stragglers),
        ):
            if count < 0:
                raise FaultPlanError(f"{name} must be >= 0, got {count!r}")

        def windows(count: int, stream: int) -> list[tuple[int, float, float]]:
            rng = random.Random(seed + stream)
            spans = []
            for _ in range(count):
                machine = rng.randrange(machines)
                start = start_fraction * horizon + rng.random() * (
                    (end_fraction - start_fraction) * horizon
                )
                length = (0.2 + 0.8 * rng.random()) * window_fraction * horizon
                spans.append((machine, start, min(start + length, horizon)))
            return spans

        extra = {}
        for short, value in tuning.items():
            if short not in _TUNING_FIELDS:
                raise FaultPlanError(
                    f"unknown tuning field {short!r}; expected one of "
                    f"{tuple(_TUNING_FIELDS)}"
                )
            extra[_TUNING_FIELDS[short]] = value
        extra.pop("seed", None)
        return cls(
            sensors=tuple(
                SensorFault(machine, start, end)
                for machine, start, end in windows(sensor_dropouts, 2)
            )
            + tuple(
                SensorFault(machine, start, end, mode="noise")
                for machine, start, end in windows(sensor_noise, 3)
            ),
            actuators=tuple(
                ActuatorFault(machine, start, end)
                for machine, start, end in windows(actuator_drops, 4)
            ),
            stragglers=tuple(
                StragglerFault(machine, start, end)
                for machine, start, end in windows(stragglers, 5)
            ),
            kills=tuple(
                KillFault(time)
                for time in kill_schedule(
                    horizon, kills, seed, start_fraction, end_fraction
                )
            ),
            seed=seed,
            **extra,
        )

    def to_config(self) -> dict[str, Any]:
        """The plan as JSON-native data (journal-header embeddable).

        Byte-stable under the journal codec's canonical JSON: the same
        plan always serializes to the same bytes, and
        :meth:`from_config` round-trips it exactly.
        """
        return {
            "seed": self.seed,
            "stale_after": self.stale_after_seconds,
            "unresponsive_after": self.unresponsive_after_seconds,
            "reintegrate": self.reintegrate_seconds,
            "retry_base": self.retry_base_seconds,
            "retry_cap": self.retry_cap_seconds,
            "retry_deadline": self.retry_deadline_seconds,
            "sensors": [
                [f.machine_index, f.start, f.end, f.mode, f.amplitude, f.delay]
                for f in self.sensors
            ],
            "actuators": [
                [f.machine_index, f.start, f.end, f.mode, f.fraction]
                for f in self.actuators
            ],
            "stragglers": [
                [f.machine_index, f.start, f.end] for f in self.stragglers
            ],
            "kills": [[k.time, k.machine_index] for k in self.kills],
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_config` data (journal replay)."""
        try:
            return cls(
                sensors=tuple(
                    SensorFault(
                        int(machine),
                        float(start),
                        float(end),
                        str(mode),
                        float(amplitude),
                        float(delay),
                    )
                    for machine, start, end, mode, amplitude, delay in config[
                        "sensors"
                    ]
                ),
                actuators=tuple(
                    ActuatorFault(
                        int(machine),
                        float(start),
                        float(end),
                        str(mode),
                        float(fraction),
                    )
                    for machine, start, end, mode, fraction in config[
                        "actuators"
                    ]
                ),
                stragglers=tuple(
                    StragglerFault(int(machine), float(start), float(end))
                    for machine, start, end in config["stragglers"]
                ),
                kills=tuple(
                    KillFault(
                        float(time),
                        None if machine is None else int(machine),
                    )
                    for time, machine in config["kills"]
                ),
                seed=int(config["seed"]),
                stale_after_seconds=float(config["stale_after"]),
                unresponsive_after_seconds=float(config["unresponsive_after"]),
                reintegrate_seconds=float(config["reintegrate"]),
                retry_base_seconds=float(config["retry_base"]),
                retry_cap_seconds=float(config["retry_cap"]),
                retry_deadline_seconds=float(config["retry_deadline"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise FaultPlanError(
                f"malformed fault-plan config: {error}"
            ) from error


@dataclass(frozen=True)
class RetryState:
    """One machine's in-flight cap-application retry loop.

    Opened by :meth:`FaultInjector.actuate` when a ``SetCaps``
    application fails (or lands only partially) under an actuator
    fault; closed when an attempt succeeds, a new target supersedes it,
    or the deadline expires and the target is abandoned.  Every attempt
    is journaled as a :class:`RetryRecord`.

    Attributes:
        target_watts: The cap the applier is trying to land.
        commanded_at: Barrier time of the first failed attempt — the
            retry deadline is measured from here.
        attempts: Attempts made so far (>= 1).
        next_attempt_at: Earliest barrier time the applier will try
            again (capped exponential backoff; attempts before this
            instant are skipped, not failed).
    """

    target_watts: float
    commanded_at: float
    attempts: int
    next_attempt_at: float


def retry_backoff_seconds(
    attempt: int, base_seconds: float, cap_seconds: float
) -> float:
    """Deterministic capped exponential backoff after a failed attempt.

    ``min(base * 2**(attempt - 1), cap)`` — no jitter, so every
    backend (and every replay) schedules byte-identical retries.
    """
    return min(base_seconds * (2.0 ** (attempt - 1)), cap_seconds)


class FaultInjector:
    """One run's gray failures: what a :class:`FaultPlan`'s faults do.

    The plan says *when* a fault bites; the injector owns everything
    a fault does and remembers — machine health and its reintegration
    deadlines, the last trusted telemetry, the applier's retry loops,
    the watts that actually landed and the straggling machines — and
    hands each barrier's :class:`FaultRecord` and :class:`RetryRecord`
    entries to that barrier, keeping none.  It works on plain
    data and never sees the engine, whose barrier step calls
    :meth:`observe` on the true cluster view and :meth:`actuate` on the
    validated caps, once each per barrier, on the coordinator only.

    Args:
        plan: The fault schedule.
        cap_floors: Each machine's lowest enforceable cap (watts).
        cap_ceilings: Each machine's highest enforceable cap (watts).
    """

    def __init__(
        self,
        plan: FaultPlan,
        cap_floors: Sequence[float],
        cap_ceilings: Sequence[float],
    ) -> None:
        self.plan = plan
        self._floors = cap_floors
        self._ceilings = cap_ceilings
        # Per-machine health as of the latest barrier, with recovery
        # hysteresis deadlines.
        self._health = [HEALTH_FRESH] * len(cap_floors)
        self._reintegrate_at: dict[int, float] = {}
        self._last_fresh_time = [0.0] * len(cap_floors)
        self._last_fresh_views: dict[str, TenantView] = {}
        # Barrier-view history, kept only for delay-mode machines and
        # only as far back as their longest delay reaches; a machine's
        # log goes once its last delay window has closed.
        self._delay_reach: dict[int, tuple[float, float]] = {}
        for fault in plan.sensors:
            if fault.mode == "delay":
                delay, end = self._delay_reach.get(fault.machine_index, (0, 0))
                self._delay_reach[fault.machine_index] = (
                    max(delay, fault.delay), max(end, fault.end)
                )
        self._view_log: dict[int, list[tuple[float, dict[str, Any]]]] = {
            index: [] for index in self._delay_reach
        }
        # Retry loops per machine, plus targets the applier gave up on
        # (until the fault clears or a new target arrives).
        self._retries: dict[int, RetryState] = {}
        self._abandoned: dict[int, float] = {}
        # Last watts actually landed on each machine's actuator: the
        # ground truth behind the commanded caps the control plane sees.
        self._applied_watts: dict[int, float] = {}
        self._straggling: set[int] = set()
        # Fault windows already recorded (once, at the first barrier
        # each bites), and this barrier's records until actuate()
        # hands them over.
        self._announced: set[Any] = set()
        self._faults: list[FaultRecord] = []
        self._retried: list[RetryRecord] = []

    def _record(
        self, now: float, kind: str, index: int, mode: str | None = None
    ) -> None:
        """Append one fault record: the one path every record takes."""
        self._faults.append(FaultRecord(now, kind, index, mode))

    def _announce(self, now: float, kind: str, fault: Any) -> None:
        """Record a fault window once, at the first barrier it bites."""
        if fault not in self._announced:
            self._announced.add(fault)
            mode = getattr(fault, "mode", None)
            self._record(now, kind, fault.machine_index, mode)

    # ------------------------------------------------------------------
    # Sensors: what the control plane sees
    # ------------------------------------------------------------------
    def observe(self, view: ClusterView) -> ClusterView:
        """Filter the true cluster view through the plan's sensor faults.

        The control plane sees what the (possibly lying) telemetry
        pipeline reports: dropout windows hold each resident tenant's
        last fresh stats, delay windows serve stats from ``delay``
        seconds ago, and noise windows deterministically perturb the
        SLA-shortfall signal.  Placement facts (machine index, weight,
        finished flag) stay current — only performance telemetry lies
        — and the machines' true physics (and therefore billing) are
        untouched.  Every machine's ``health`` is derived here from the
        age of its last trusted sample (:meth:`_health_of`).  The sensor
        faults it records are returned by this barrier's
        :meth:`actuate`.
        """
        now = view.time
        by_machine: dict[int, list[TenantView]] = {}
        for tenant in view.tenants:
            by_machine.setdefault(tenant.machine_index, []).append(tenant)
        self._log_views(now, by_machine)
        observed: dict[str, TenantView] = {}
        machines = []
        for machine in view.machines:
            index = machine.index
            if machine.alive:
                residents = by_machine.get(index, [])
                age = self._sense(now, index, residents, observed)
                health = self._health_of(now, index, age)
            else:
                health = HEALTH_DEAD
                self._reintegrate_at.pop(index, None)
            self._health[index] = health
            machines.append(replace(machine, health=health))
        return replace(
            view,
            machines=tuple(machines),
            tenants=tuple(observed.get(t.name, t) for t in view.tenants),
        )

    def _log_views(
        self, now: float, by_machine: Mapping[int, Sequence[TenantView]]
    ) -> None:
        """Append this barrier's views to each delay-mode machine's log.

        A delay window reads the newest entry at or before ``now -
        delay + TIME_SLACK``, and barriers only move forward, so no
        future read reaches past the newest entry at or before ``now``
        minus the machine's longest delay: everything older is
        dropped.  So is the whole log once the machine's last delay
        window has closed.
        """
        for index, (delay, end) in list(self._delay_reach.items()):
            if now >= end - TIME_SLACK:
                del self._delay_reach[index], self._view_log[index]
                continue
            log = self._view_log[index]
            log.append((now, {t.name: t for t in by_machine.get(index, [])}))
            reach = now - delay + TIME_SLACK
            while len(log) > 1 and log[1][0] <= reach:
                del log[0]

    def _sense(
        self,
        now: float,
        index: int,
        residents: Sequence[TenantView],
        observed: dict[str, TenantView],
    ) -> float:
        """Put what machine ``index``'s telemetry reports for its
        residents into ``observed``; returns the reported sample's age."""
        plan = self.plan
        fault = plan.sensor_at(index, now)
        if fault is not None:
            self._announce(now, "sensor", fault)
        if fault is None or fault.mode == "noise":
            # Telemetry flows (noise still counts as a heartbeat: the
            # machine is talking, just not truthfully).
            self._last_fresh_time[index] = now
            for tenant in residents:
                self._last_fresh_views[tenant.name] = tenant
            if fault is not None:
                scale = 1.0 + fault.amplitude * plan.noise_unit(index, now)
                for tenant in residents:
                    observed[tenant.name] = replace(
                        tenant,
                        sla_shortfall=max(0.0, tenant.sla_shortfall * scale),
                    )
            return 0.0
        # Dropout, or delay: the freshest trusted sample is old.
        source: dict[str, TenantView] = {}
        age = now - self._last_fresh_time[index]
        if fault.mode == "delay":
            for entry_time, snapshot in reversed(self._view_log[index]):
                if entry_time <= now - fault.delay + TIME_SLACK:
                    source = snapshot
                    age = now - entry_time
                    break
        for tenant in residents:
            cached = source.get(tenant.name)
            if cached is None:
                cached = self._last_fresh_views.get(tenant.name)
            # No trusted sample yet (the window opened at the run's
            # start): the true view is all there is.
            observed[tenant.name] = tenant if cached is None else replace(
                cached,
                machine_index=tenant.machine_index,
                weight=tenant.weight,
                finished=tenant.finished,
            )
        return age

    def _health_of(self, now: float, index: int, age: float) -> str:
        """A live machine's health from its telemetry ``age``.

        :func:`~repro.heartbeats.health.classify_heartbeat_age` with
        quarantine-recovery hysteresis: a machine that went
        unresponsive stays ``stale`` for ``reintegrate_seconds`` after
        its telemetry returns before it is trusted as ``fresh`` again.
        """
        plan = self.plan
        base = classify_heartbeat_age(
            age, plan.stale_after_seconds, plan.unresponsive_after_seconds
        )
        if base == HEALTH_UNRESPONSIVE:
            self._reintegrate_at.pop(index, None)
            return HEALTH_UNRESPONSIVE
        if base == HEALTH_STALE:
            return HEALTH_STALE
        if self._health[index] == HEALTH_UNRESPONSIVE:
            # Telemetry is back, but a quarantined machine earns trust
            # slowly: stale until the hysteresis deadline.
            self._reintegrate_at[index] = now + plan.reintegrate_seconds
            return HEALTH_STALE
        deadline = self._reintegrate_at.get(index)
        if deadline is None:
            return HEALTH_FRESH
        if now + TIME_SLACK >= deadline:
            del self._reintegrate_at[index]
            return HEALTH_FRESH
        return HEALTH_STALE

    # ------------------------------------------------------------------
    # Actuators: what lands on the machines
    # ------------------------------------------------------------------
    def actuate(
        self,
        now: float,
        caps: tuple[float, ...] | None,
        dead: Collection[int],
        dying: Collection[int],
    ) -> tuple[
        tuple[float | None, ...] | None,
        tuple[FaultRecord, ...],
        tuple[RetryRecord, ...],
    ]:
        """Push the commanded ``caps`` through the (possibly faulty)
        actuators.

        Actuator ``drop`` windows lose a command outright, ``partial``
        windows move it only part way, and the applier runs a
        deadline-based retry loop per machine — retries land at later
        barriers after a capped deterministic backoff
        (:func:`retry_backoff_seconds`), every attempt recorded.
        Straggler windows then pin their machine to its cap floor
        whatever was commanded, and restore the last landed watts when
        the window ends — the machine's ceiling, its pre-cap state, if
        no cap ever landed.  Machines ``dead`` or ``dying`` at this
        barrier are left alone and their loops dropped.

        Returns the per-machine watts to apply (a None entry leaves
        that machine's DVFS state alone; None when no entry is set),
        and the barrier's fault records (this barrier's
        :meth:`observe` included) and retry records.  The commanded caps
        still become the control plane's belief — exactly the
        gray-failure illusion — while the injector tracks the truth.
        """
        plan = self.plan
        applied: list[float | None] = [None] * len(self._floors)
        live = []
        for index in range(len(applied)):
            if index in dead or index in dying:
                self._retries.pop(index, None)
                self._abandoned.pop(index, None)
                self._straggling.discard(index)
            else:
                live.append(index)
        for index in live:
            target = caps[index] if caps is not None else None
            applied[index] = self._apply(now, index, target)
        # Straggler overlay: the machine's clock runs slow no matter
        # what the applier landed; recovery restores the landed watts,
        # or the ceiling where none ever landed.  Each window that
        # bites is announced once, an abutting one included.
        for index in live:
            straggle = plan.straggler_at(index, now)
            if straggle is not None:
                self._straggling.add(index)
                self._announce(now, "straggler", straggle)
                applied[index] = self._floors[index]
            elif index in self._straggling:
                self._straggling.discard(index)
                self._record(now, "recovered", index)
                if applied[index] is None:
                    applied[index] = self._applied_watts.get(
                        index, self._ceilings[index]
                    )
        landing = None if all(w is None for w in applied) else tuple(applied)
        faults, retries = tuple(self._faults), tuple(self._retried)
        self._faults.clear()
        self._retried.clear()
        return landing, faults, retries

    def _apply(
        self, now: float, index: int, target: float | None
    ) -> float | None:
        """One machine's applier step at ``now``: try the commanded
        ``target`` or its retry loop's pending one through the
        machine's actuator fault, and book the outcome.  Returns the
        watts that landed (None: the actuator is left alone, or the
        command was dropped)."""
        plan = self.plan
        fault = plan.actuator_at(index, now)
        if fault is not None:
            self._announce(now, "actuator", fault)
        attempt = self._attempt(now, index, target, fault)
        if attempt is None:
            return None
        target, pending = attempt
        number = pending.attempts + 1 if pending is not None else 1
        started = pending.commanded_at if pending is not None else now
        landed: float | None = target
        if fault is not None and fault.mode == "drop":
            landed = None
        elif fault is not None:  # partial
            current = self._applied_watts.get(index, self._ceilings[index])
            landed = current + fault.fraction * (target - current)
            landed = min(
                max(landed, self._floors[index]), self._ceilings[index]
            )
        if landed is not None:
            self._applied_watts[index] = landed
        outcome: str | None
        if landed is not None and abs(landed - target) <= WATT_SLACK:
            # A first attempt through a sound actuator is no retry.
            retried = fault is not None or pending is not None
            outcome = "succeeded" if retried else None
            self._retries.pop(index, None)
        elif (
            pending is not None
            and now - started + TIME_SLACK >= plan.retry_deadline_seconds
        ):
            outcome = "abandoned"
            del self._retries[index]
            self._abandoned[index] = target
        else:
            outcome = "failed" if landed is None else "partial"
            backoff = retry_backoff_seconds(
                number, plan.retry_base_seconds, plan.retry_cap_seconds
            )
            self._retries[index] = RetryState(
                target, started, number, now + backoff
            )
        if outcome is not None:
            self._retried.append(
                RetryRecord(now, index, target, landed, number, outcome)
            )
        return landed

    def _attempt(
        self,
        now: float,
        index: int,
        target: float | None,
        fault: ActuatorFault | None,
    ) -> tuple[float, RetryState | None] | None:
        """The watts the applier tries to land on ``index`` now, with
        the retry loop the attempt continues (None: a first attempt);
        None when it leaves the actuator alone this barrier."""
        pending = self._retries.get(index)
        if pending is not None:
            if (
                target is not None
                and abs(target - pending.target_watts) > TARGET_SLACK
            ):
                # A new command supersedes the retry loop: fresh
                # target, fresh deadline, fresh backoff.
                del self._retries[index]
                self._abandoned.pop(index, None)
                return target, None
            if now + TIME_SLACK >= pending.next_attempt_at:
                return pending.target_watts, pending
            return None  # backing off
        if target is None:
            return None
        abandoned = self._abandoned.get(index)
        if (
            abandoned is not None
            and fault is not None
            and abs(target - abandoned) <= TARGET_SLACK
        ):
            # Gave up on this exact target: leave the broken actuator
            # alone until the fault clears or the policy asks for
            # something new.
            return None
        self._abandoned.pop(index, None)
        return target, None


# ----------------------------------------------------------------------
# The --faults FILE format
# ----------------------------------------------------------------------

_LINE_FIELDS: dict[str, dict[str, Any]] = {
    "sensor": {
        "required": ("machine", "start", "end"),
        "optional": ("mode", "amplitude", "delay"),
    },
    "actuator": {
        "required": ("machine", "start", "end"),
        "optional": ("mode", "fraction"),
    },
    "straggler": {"required": ("machine", "start", "end"), "optional": ()},
    "kill": {"required": ("time",), "optional": ("machine",)},
    "config": {"required": (), "optional": tuple(_TUNING_FIELDS)},
}


def _parse_fields(
    tokens: Sequence[str], kind: str, line_number: int
) -> dict[str, str]:
    """Split ``key=value`` tokens, validating names against the kind."""
    spec = _LINE_FIELDS[kind]
    allowed = set(spec["required"]) | set(spec["optional"])
    parsed: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise FaultPlanError(
                f"line {line_number}: expected key=value, got {token!r}"
            )
        if key not in allowed:
            raise FaultPlanError(
                f"line {line_number}: unknown field {key!r} for {kind!r} "
                f"(expected one of {tuple(sorted(allowed))})"
            )
        if key in parsed:
            raise FaultPlanError(
                f"line {line_number}: field {key!r} given twice"
            )
        parsed[key] = value
    for key in spec["required"]:
        if key not in parsed:
            raise FaultPlanError(
                f"line {line_number}: missing required field {key!r}"
            )
    return parsed


def _field_float(parsed: Mapping[str, str], key: str, line_number: int) -> float:
    """Parse one numeric field, naming it on failure."""
    try:
        return float(parsed[key])
    except ValueError:
        raise FaultPlanError(
            f"line {line_number}: field {key!r}: expected a number, "
            f"got {parsed[key]!r}"
        ) from None


def _field_int(parsed: Mapping[str, str], key: str, line_number: int) -> int:
    """Parse one integer field, naming it on failure."""
    try:
        return int(parsed[key])
    except ValueError:
        raise FaultPlanError(
            f"line {line_number}: field {key!r}: expected an integer, "
            f"got {parsed[key]!r}"
        ) from None


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the ``--faults FILE`` format into a :class:`FaultPlan`.

    One fault per line (``kind key=value ...``; blank lines and ``#``
    comments ignored); ``config`` lines tune plan-level thresholds.
    Raises :class:`FaultPlanError` naming the line number and the
    offending field for every malformed input.
    """
    sensors: list[SensorFault] = []
    actuators: list[ActuatorFault] = []
    stragglers: list[StragglerFault] = []
    kills: list[KillFault] = []
    tuning: dict[str, float] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *tokens = line.split()
        if kind not in _LINE_FIELDS:
            raise FaultPlanError(
                f"line {line_number}: unknown fault kind {kind!r} "
                f"(expected one of {tuple(sorted(_LINE_FIELDS))})"
            )
        parsed = _parse_fields(tokens, kind, line_number)
        try:
            if kind == "sensor":
                sensors.append(
                    SensorFault(
                        machine_index=_field_int(parsed, "machine", line_number),
                        start=_field_float(parsed, "start", line_number),
                        end=_field_float(parsed, "end", line_number),
                        mode=parsed.get("mode", "dropout"),
                        amplitude=(
                            _field_float(parsed, "amplitude", line_number)
                            if "amplitude" in parsed
                            else 0.25
                        ),
                        delay=(
                            _field_float(parsed, "delay", line_number)
                            if "delay" in parsed
                            else 5.0
                        ),
                    )
                )
            elif kind == "actuator":
                actuators.append(
                    ActuatorFault(
                        machine_index=_field_int(parsed, "machine", line_number),
                        start=_field_float(parsed, "start", line_number),
                        end=_field_float(parsed, "end", line_number),
                        mode=parsed.get("mode", "drop"),
                        fraction=(
                            _field_float(parsed, "fraction", line_number)
                            if "fraction" in parsed
                            else 0.5
                        ),
                    )
                )
            elif kind == "straggler":
                stragglers.append(
                    StragglerFault(
                        machine_index=_field_int(parsed, "machine", line_number),
                        start=_field_float(parsed, "start", line_number),
                        end=_field_float(parsed, "end", line_number),
                    )
                )
            elif kind == "kill":
                kills.append(
                    KillFault(
                        time=_field_float(parsed, "time", line_number),
                        machine_index=(
                            _field_int(parsed, "machine", line_number)
                            if "machine" in parsed
                            else None
                        ),
                    )
                )
            else:  # config
                for short, value in parsed.items():
                    if short == "seed":
                        tuning["seed"] = _field_int(parsed, "seed", line_number)
                    else:
                        tuning[_TUNING_FIELDS[short]] = _field_float(
                            parsed, short, line_number
                        )
        except FaultPlanError as error:
            message = str(error)
            if message.startswith("line "):
                raise
            raise FaultPlanError(f"line {line_number}: {message}") from None
    try:
        return FaultPlan(
            sensors=tuple(sensors),
            actuators=tuple(actuators),
            stragglers=tuple(stragglers),
            kills=tuple(kills),
            **tuning,
        )
    except FaultPlanError as error:
        raise FaultPlanError(f"config: {error}") from None


def load_fault_plan(path: str) -> FaultPlan:
    """Load a fault plan file; errors name ``path`` and the line.

    Mirrors the ``--budget-trace`` convention:
    :class:`FaultPlanError` messages come out as
    ``<path>: line <n>: field '<name>' ...``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise FaultPlanError(f"{path}: cannot read fault plan: {error}")
    try:
        return parse_fault_plan(text)
    except FaultPlanError as error:
        raise FaultPlanError(f"{path}: {error}") from None
