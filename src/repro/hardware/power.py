"""Full-system power model and a WattsUp-style sampling power meter.

The paper measures *full-system* power with a WattsUp device sampling at
1-second intervals (Section 5.1): 80 W at idle minimum, "typical idle power
consumption of approximately 90 watts", and 220 W at full load in the
highest P-state.

We model instantaneous system power as

    P(u, s) = P_idle + (P_peak - P_idle) * u * (f/f_max) * (v/v_max)^2

where ``u`` is utilization (busy fraction of cores), ``s`` the P-state with
frequency ``f`` and voltage ``v``.  Dynamic CPU power scales as f*V^2, and
because the WattsUp measures the whole box, the idle floor (disks, fans,
PSU losses, DRAM refresh) does not scale with DVFS — this reproduces the
Figure 6 behaviour where dropping from 2.4 GHz to 1.6 GHz under load saves
roughly 16-21%% of *system* power, not 33%%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.cpu import PState

__all__ = ["PowerModel", "PowerMeter", "PowerSample", "PowerError"]


class PowerError(ValueError):
    """Raised for invalid power model parameters or meter usage."""


@dataclass(frozen=True)
class PowerModel:
    """Converts machine state (utilization, P-state) to system watts.

    Attributes:
        idle_watts: Full-system power with all cores idle (paper: ~90 W).
        peak_watts: Full-system power with all cores busy in the highest
            P-state (paper: 220 W).
        floor_watts: Hard minimum the meter ever reports (paper: 80 W).
        frequency_sensitive_fraction: Share of the active power that
            scales with f*V^2.  Memory, uncore, and disk activity do not
            follow core DVFS, so only part of the busy-idle span shrinks
            at lower P-states; 0.55 reproduces the paper's measured
            16-21%% full-system savings at 1.6 GHz (Figure 6).
    """

    idle_watts: float = 90.0
    peak_watts: float = 220.0
    floor_watts: float = 80.0
    frequency_sensitive_fraction: float = 0.55

    def __post_init__(self) -> None:
        if self.idle_watts <= 0 or self.peak_watts <= 0:
            raise PowerError("power levels must be positive")
        if self.peak_watts <= self.idle_watts:
            raise PowerError("peak power must exceed idle power")
        if self.floor_watts > self.idle_watts:
            raise PowerError("floor power cannot exceed idle power")
        if not 0.0 <= self.frequency_sensitive_fraction <= 1.0:
            raise PowerError(
                "frequency_sensitive_fraction must be in [0, 1], got "
                f"{self.frequency_sensitive_fraction!r}"
            )

    def power(
        self,
        utilization: float,
        pstate: PState,
        max_frequency_ghz: float,
        max_voltage: float = 1.0,
    ) -> float:
        """Instantaneous system power in watts.

        Args:
            utilization: Fraction of cores busy, in [0, 1].
            pstate: Current DVFS state.
            max_frequency_ghz: Frequency of the fastest P-state, used to
                normalize the dynamic-power term.
            max_voltage: Voltage of the fastest P-state.
        """
        if not 0.0 <= utilization <= 1.0 + 1e-9:
            raise PowerError(f"utilization must be in [0,1], got {utilization!r}")
        utilization = min(utilization, 1.0)
        f_ratio = pstate.frequency_ghz / max_frequency_ghz
        v_ratio = pstate.voltage / max_voltage
        span = (self.peak_watts - self.idle_watts) * utilization
        sensitive = self.frequency_sensitive_fraction
        scaling = (1.0 - sensitive) + sensitive * f_ratio * v_ratio**2
        return max(self.floor_watts, self.idle_watts + span * scaling)


@dataclass(frozen=True)
class PowerSample:
    """One reading of the power meter."""

    timestamp: float
    watts: float


@dataclass
class PowerMeter:
    """Integrates power over virtual time and takes 1 Hz samples.

    Mirrors the WattsUp usage in the paper: the meter stores one sample per
    ``interval`` seconds; mean power over an execution is the mean of the
    stored samples.  The meter also integrates exact energy, which the
    analytic-model experiments use directly.

    Samples are stored as two float columns, timestamps and watts, kept
    in step by every writer; :attr:`samples` builds the
    :class:`PowerSample` objects only when asked, and
    :meth:`mean_power` sums the watts column directly.
    """

    interval: float = 1.0
    _timestamps: list[float] = field(default_factory=list)
    _watts: list[float] = field(default_factory=list)
    _energy_joules: float = 0.0
    _last_time: float | None = None
    _next_sample_time: float | None = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise PowerError(f"sample interval must be positive, got {self.interval!r}")

    def observe(self, start: float, end: float, watts: float) -> None:
        """Record that system power was ``watts`` from ``start`` to ``end``.

        Intervals must be reported in non-decreasing time order; gaps are
        not allowed (report idle intervals explicitly so the meter sees the
        idle floor, as a real WattsUp would).
        """
        if end < start:
            raise PowerError(f"interval end {end!r} before start {start!r}")
        last = self._last_time
        if last is not None and start < last - 1e-9:
            raise PowerError(
                f"interval start {start!r} precedes last observed {last!r}"
            )
        due = self._next_sample_time
        if due is None:
            due = self._next_sample_time = start + self.interval
        self._energy_joules += watts * (end - start)
        self._last_time = end
        horizon = end + 1e-12
        if due > horizon:
            return  # the common case: the interval ends before a sample
        interval = self.interval
        while due <= horizon:
            self._timestamps.append(due)
            self._watts.append(watts)
            due += interval
        self._next_sample_time = due

    def observe_run(self, times: np.ndarray, watts: float) -> None:
        """Record a run of back-to-back constant-power intervals at once.

        The bulk twin of :meth:`observe`, called only by
        :meth:`~repro.hardware.machine.Machine.execute_run`, which has
        no caller in the package.  ``times`` holds the ``n+1`` boundary
        timestamps of ``n`` consecutive intervals all drawn at
        ``watts``.  Equivalent — float for float — to
        ``observe(times[i], times[i+1], watts)`` for each ``i`` in order:
        the energy integral is accumulated strictly left to right
        (``np.add.accumulate`` seeded with the current total, which adds
        in exactly the scalar order), and sample emission advances the
        same ``_next_sample_time`` recurrence.  Constant power across the
        run is what makes the single sample-emission sweep exact.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.shape[0] < 2:
            raise PowerError("observe_run needs at least two boundary timestamps")
        deltas = np.diff(times)
        if float(deltas.min()) < 0.0:
            raise PowerError("interval end precedes start in bulk observation")
        start = float(times[0])
        end = float(times[-1])
        if self._last_time is not None and start < self._last_time - 1e-9:
            raise PowerError(
                f"interval start {start!r} precedes last observed {self._last_time!r}"
            )
        if self._next_sample_time is None:
            self._next_sample_time = start + self.interval
        acc = np.empty(times.shape[0], dtype=float)
        acc[0] = self._energy_joules
        np.multiply(deltas, watts, out=acc[1:])
        self._energy_joules = float(np.add.accumulate(acc)[-1])
        while self._next_sample_time <= end + 1e-12:
            self._timestamps.append(self._next_sample_time)
            self._watts.append(watts)
            self._next_sample_time += self.interval
        self._last_time = end

    @property
    def samples(self) -> list[PowerSample]:
        """All 1 Hz samples recorded so far."""
        return list(map(PowerSample, self._timestamps, self._watts))

    @property
    def energy_joules(self) -> float:
        """Exact integrated energy over all observed intervals."""
        return self._energy_joules

    def mean_power(self) -> float:
        """Mean of the stored samples (the paper's reported 'mean power').

        The same ``sum()`` over the same floats in the same order as
        summing the :attr:`samples`' watts, so it is bit-identical to
        that on every Python version, 3.12's compensated ``sum()``
        included.  Raises :class:`PowerError` if no samples were taken
        (execution shorter than one sampling interval).
        """
        watts = self._watts
        if not watts:
            raise PowerError("no power samples recorded")
        return sum(watts) / len(watts)

    def reset(self) -> None:
        """Clear samples and integrated energy."""
        self._timestamps.clear()
        self._watts.clear()
        self._energy_joules = 0.0
        self._last_time = None
        self._next_sample_time = None
