"""The PowerDial actuation policy (paper Section 2.3.3, Eq. 9–11).

The controller emits a continuous speedup; the knob system is discrete.
The actuator reconciles the two by planning a *time quantum* (the time to
process twenty heartbeats) during which the application runs different knob
settings for fractions of the quantum so that the average speedup equals
the commanded one.  With ``t_max``, ``t_min``, ``t_default`` the fractions
spent at the fastest setting, the minimal sufficient setting, and the
default, the plan satisfies

    s_max*t_max + s_min*t_min + s_default*t_default = s     (Eq. 9)
    t_max + t_min + t_default <= 1                          (Eq. 10)
    t_max, t_min, t_default >= 0                            (Eq. 11)

Two solutions matter (Section 2.3.3):

* **race-to-idle** — ``t_min = t_default = 0``; run flat out for
  ``s / s_max`` of the quantum and idle the rest (best on platforms with
  low idle power).
* **minimal speedup** — ``t_max = 0`` and ``t_min + t_default = 1``; run
  the slowest sufficient setting, blended with the default, delivering the
  lowest feasible QoS loss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.knobs import KnobError, KnobSetting, KnobTable

__all__ = ["ActuationPolicy", "PlanSegment", "ActuationPlan", "Actuator", "ActuatorError"]

DEFAULT_QUANTUM_BEATS = 20
"""Heartbeats per time quantum ("heuristically ... twenty heartbeats")."""


class ActuatorError(ValueError):
    """Raised for invalid actuation requests."""


class ActuationPolicy(enum.Enum):
    """Which family of constraint solutions the actuator prefers.

    ``MINIMAL_SPEEDUP`` and ``RACE_TO_IDLE`` are the paper's two solutions.
    ``OPTIMAL_QOS`` is an extension: it solves the Eq. 9–11 system as a
    linear program over *all* table settings, minimizing work-weighted QoS
    loss — useful as an ablation against the paper's closed-form policy.
    """

    MINIMAL_SPEEDUP = "minimal-speedup"
    RACE_TO_IDLE = "race-to-idle"
    OPTIMAL_QOS = "optimal-qos"


@dataclass(frozen=True)
class PlanSegment:
    """A contiguous slice of the quantum at one knob setting (or idle).

    Attributes:
        setting: The knob setting to run, or ``None`` for idle.
        fraction: Fraction of the quantum's duration, in (0, 1].
    """

    setting: KnobSetting | None
    fraction: float

    @property
    def is_idle(self) -> bool:
        """True for the idle tail of a race-to-idle plan."""
        return self.setting is None

    @property
    def speedup(self) -> float:
        """Speedup while this segment runs (0 when idle)."""
        return 0.0 if self.setting is None else self.setting.speedup


@dataclass(frozen=True)
class ActuationPlan:
    """The schedule for one time quantum.

    Attributes:
        segments: Ordered plan segments; fractions sum to 1.
        commanded_speedup: The controller's requested speedup.
        achieved_speedup: Time-weighted average speedup of the plan
            (equals the commanded value when feasible; saturates at
            ``s_max`` otherwise).
    """

    segments: tuple[PlanSegment, ...]
    commanded_speedup: float
    achieved_speedup: float

    def __post_init__(self) -> None:
        total = sum(segment.fraction for segment in self.segments)
        if abs(total - 1.0) > 1e-9:
            raise ActuatorError(f"plan fractions sum to {total!r}, expected 1")
        for segment in self.segments:
            if not 0.0 < segment.fraction <= 1.0 + 1e-12:
                raise ActuatorError(f"segment fraction {segment.fraction!r} invalid")
        # (end, setting) per segment for setting_at, which runs once per
        # beat: each end is the running fraction sum less 1e-15.
        ends = []
        cumulative = 0.0
        for segment in self.segments:
            cumulative += segment.fraction
            ends.append((cumulative - 1e-15, segment.setting))
        object.__setattr__(self, "_ends", tuple(ends))

    def setting_at(self, quantum_position: float) -> KnobSetting | None:
        """The setting active at ``quantum_position`` in [0, 1)."""
        if not 0.0 <= quantum_position < 1.0 + 1e-12:
            raise ActuatorError(
                f"quantum position must be in [0,1), got {quantum_position!r}"
            )
        for end, setting in self._ends:
            if quantum_position < end:
                return setting
        return self.segments[-1].setting

    def expected_qos_loss(self) -> float:
        """Work-weighted mean QoS loss over the quantum.

        Each segment contributes in proportion to the *results it produces*
        (fraction × speedup), since QoS is a property of outputs.
        """
        weighted = 0.0
        produced = 0.0
        for segment in self.segments:
            if segment.setting is None:
                continue
            amount = segment.fraction * segment.setting.speedup
            weighted += amount * segment.setting.qos_loss
            produced += amount
        if produced == 0.0:
            raise ActuatorError("plan produces no output (all idle)")
        return weighted / produced

    def idle_fraction(self) -> float:
        """Fraction of the quantum spent idle."""
        return sum(s.fraction for s in self.segments if s.is_idle)


class Actuator:
    """Converts commanded speedups into per-quantum knob schedules.

    Args:
        table: Calibrated knob table (typically the Pareto frontier).
        policy: Preferred constraint solution; see module docstring.
        quantum_beats: Heartbeats per quantum (paper: 20).
        selection_tolerance: Relative slack when matching the commanded
            speedup to a table setting under the minimal-speedup policy.
            A command within this fraction *above* a setting runs that
            setting for the whole quantum instead of blending the next
            faster setting with the default — heart-rate measurement
            jitter otherwise flips plans across setting boundaries and
            needlessly degrades QoS.  The integral controller absorbs the
            bounded (<= tolerance) throughput shortfall.
    """

    def __init__(
        self,
        table: KnobTable,
        policy: ActuationPolicy = ActuationPolicy.MINIMAL_SPEEDUP,
        quantum_beats: int = DEFAULT_QUANTUM_BEATS,
        selection_tolerance: float = 0.0,
    ) -> None:
        if quantum_beats < 1:
            raise ActuatorError(f"quantum must be >= 1 beats, got {quantum_beats!r}")
        if not 0.0 <= selection_tolerance < 0.5:
            raise ActuatorError(
                f"selection tolerance must be in [0, 0.5), got "
                f"{selection_tolerance!r}"
            )
        self._table = table
        self._policy = policy
        self.quantum_beats = quantum_beats
        self.selection_tolerance = selection_tolerance

    @property
    def table(self) -> KnobTable:
        """The knob table the actuator selects from."""
        return self._table

    @property
    def policy(self) -> ActuationPolicy:
        """The active actuation policy."""
        return self._policy

    def plan(self, speedup: float) -> ActuationPlan:
        """Build the schedule for the next quantum.

        Saturates at the fastest setting when ``speedup > s_max`` and at
        the baseline when ``speedup <= 1``.
        """
        if speedup <= 0:
            raise ActuatorError(f"commanded speedup must be positive, got {speedup!r}")
        s_max = self._table.max_speedup
        if speedup >= s_max:
            fastest = self._table.fastest
            return ActuationPlan(
                segments=(PlanSegment(fastest, 1.0),),
                commanded_speedup=speedup,
                achieved_speedup=fastest.speedup,
            )
        if self._policy is ActuationPolicy.RACE_TO_IDLE:
            return self._race_to_idle(speedup)
        if self._policy is ActuationPolicy.OPTIMAL_QOS:
            return self._optimal_qos(speedup)
        return self._minimal_speedup(speedup)

    def _race_to_idle(self, speedup: float) -> ActuationPlan:
        """t_min = t_default = 0: run at s_max, idle the remainder."""
        fastest = self._table.fastest
        t_max = speedup / fastest.speedup
        segments: list[PlanSegment] = [PlanSegment(fastest, t_max)]
        if t_max < 1.0 - 1e-12:
            segments.append(PlanSegment(None, 1.0 - t_max))
        return ActuationPlan(
            segments=tuple(segments),
            commanded_speedup=speedup,
            achieved_speedup=speedup,
        )

    def _minimal_speedup(self, speedup: float) -> ActuationPlan:
        """t_max = 0, t_min + t_default = 1: lowest feasible QoS loss."""
        baseline = self._table.baseline
        if speedup <= baseline.speedup + 1e-12:
            return ActuationPlan(
                segments=(PlanSegment(baseline, 1.0),),
                commanded_speedup=speedup,
                achieved_speedup=baseline.speedup,
            )
        s_min_setting = self._table.minimal_speedup_at_least(
            speedup / (1.0 + self.selection_tolerance)
        )
        s_min = s_min_setting.speedup
        if s_min <= speedup + 1e-12:
            # Exact match, or within the selection tolerance just below the
            # command: run this setting for the whole quantum.
            return ActuationPlan(
                segments=(PlanSegment(s_min_setting, 1.0),),
                commanded_speedup=speedup,
                achieved_speedup=s_min,
            )
        # Blend: s_min * t_min + s_default * (1 - t_min) = speedup.
        t_min = (speedup - baseline.speedup) / (s_min - baseline.speedup)
        segments = (
            PlanSegment(s_min_setting, t_min),
            PlanSegment(baseline, 1.0 - t_min),
        )
        return ActuationPlan(
            segments=segments,
            commanded_speedup=speedup,
            achieved_speedup=speedup,
        )

    def _optimal_qos(self, speedup: float) -> ActuationPlan:
        """Extension: LP over all settings minimizing work-weighted QoS.

        Decision variables are the time fractions per setting; constraints
        are exactly Eq. 9 (equality) and Eq. 10–11 (simplex).  The paper's
        minimal-speedup solution coincides with this LP whenever the QoS
        loss is convex in speedup along the frontier; the LP can do better
        on non-convex frontiers by blending two non-default settings.
        """
        import numpy as np
        from scipy.optimize import linprog

        if speedup <= self._table.baseline.speedup + 1e-12:
            return self._minimal_speedup(speedup)
        settings = self._table.settings
        speeds = np.array([s.speedup for s in settings])
        losses = np.array([s.qos_loss for s in settings])
        result = linprog(
            c=losses * speeds,
            A_eq=np.vstack([speeds, np.ones_like(speeds)]),
            b_eq=np.array([speedup, 1.0]),
            bounds=[(0.0, 1.0)] * len(settings),
            method="highs",
        )
        if not result.success:  # pragma: no cover - Eq. 9 is always feasible here
            return self._minimal_speedup(speedup)
        segments = tuple(
            PlanSegment(setting, float(fraction))
            for setting, fraction in zip(settings, result.x)
            if fraction > 1e-9
        )
        return ActuationPlan(
            segments=segments,
            commanded_speedup=speedup,
            achieved_speedup=speedup,
        )
