"""A simulated server: cores + DVFS processor + power model + clock.

This is the substrate every experiment runs on.  A :class:`Machine`
executes *work units* on behalf of applications, advancing its virtual
clock and feeding the power meter; the PowerDial runtime reads heartbeat
timestamps from the same clock, so controller behaviour, power draw, and
application progress are all consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.clock import VirtualClock
from repro.hardware.cpu import Processor, CpuError
from repro.hardware.power import PowerMeter, PowerModel

__all__ = ["Machine", "MachineError"]

# Machine fields the derived (rate, watts) constants are computed from.
_DERIVED_FROM = frozenset({"cores", "processor", "power_model"})


class MachineError(RuntimeError):
    """Raised for invalid machine operations."""


@dataclass
class Machine:
    """An eight-core server modeled on the paper's Dell PowerEdge R410.

    Attributes:
        cores: Number of cores (paper platform: two quad-core Xeons = 8).
        processor: DVFS processor shared by all cores.
        power_model: Full-system power model.
        clock: The machine's virtual clock.
        meter: WattsUp-style power meter attached to the machine.
        load_factor: Multiplier (>= 1) on execution time modelling
            co-located load; the cluster simulator uses this to express
            capacity sharing when several instances run on one machine.

    :meth:`execute` and :meth:`idle` run once per simulated item, so the
    work rate and the power draw they need are derived once per
    ``(P-state index, busy threads)`` and cached (see :meth:`_derive`).
    The cache is dropped whenever ``cores``, ``processor`` or
    ``power_model`` is reassigned; a :class:`Processor`'s P-state table
    and work rate are configuration, fixed once it is built.
    """

    cores: int = 8
    processor: Processor = field(default_factory=Processor)
    power_model: PowerModel = field(default_factory=PowerModel)
    clock: VirtualClock = field(default_factory=VirtualClock)
    meter: PowerMeter = field(default_factory=PowerMeter)
    load_factor: float = 1.0
    _derived: dict[tuple[int, int], tuple[float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name in _DERIVED_FROM:
            object.__setattr__(self, "_derived", {})

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise MachineError(f"machine needs >= 1 core, got {self.cores!r}")
        if self.load_factor < 1.0:
            raise MachineError(f"load_factor must be >= 1, got {self.load_factor!r}")

    @property
    def now(self) -> float:
        """Current virtual time on this machine."""
        return self.clock.now

    def set_frequency(self, frequency_ghz: float) -> None:
        """Apply a DVFS change (e.g. impose or lift a power cap)."""
        self.processor.set_frequency(frequency_ghz)

    def _derive(self, threads: int) -> tuple[float, float]:
        """``(rate, watts)`` with ``threads`` busy cores in the current P-state.

        ``rate`` is the work units per second the busy cores retire and
        ``watts`` the system power they draw; ``threads == 0`` is the
        idle machine.  Both are computed with the very expressions of
        :meth:`Processor.seconds_for_work` and :meth:`PowerModel.power`,
        once per ``(P-state index, threads)``, so a cached value is the
        same float the uncached path computes.
        """
        processor = self.processor
        key = (processor.state_index, threads)
        derived = self._derived.get(key)
        if derived is None:
            rate = (
                processor.frequency_ghz
                * processor.work_units_per_ghz_second
                * threads
            )
            watts = self.power_model.power(
                threads / self.cores,
                processor.pstate,
                processor.max_frequency_ghz,
                processor.pstates[0].voltage,
            )
            derived = self._derived[key] = (rate, watts)
        return derived

    def execute(self, work_units: float, threads: int | None = None) -> float:
        """Run ``work_units`` of computation; return elapsed virtual seconds.

        The busy interval is reported to the power meter at the utilization
        implied by ``threads`` (default: all cores).
        """
        cores = self.cores
        if threads is None:
            threads = cores
        if not 1 <= threads <= cores:
            raise MachineError(f"threads must be in 1..{cores}, got {threads!r}")
        if work_units < 0:
            raise CpuError(f"work must be non-negative, got {work_units!r}")
        # _derive's cache hit, inline: this runs once per simulated item.
        derived = self._derived.get((self.processor.state_index, threads))
        if derived is None:
            derived = self._derive(threads)
        rate, watts = derived
        seconds = work_units / rate * self.load_factor
        clock = self.clock
        start = clock.now
        self.meter.observe(start, clock.advance(seconds), watts)
        return seconds

    def execute_run(
        self,
        count: int,
        work_units: float,
        threads: int | None = None,
        times: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run ``count`` identical work batches back to back, in one call.

        The bulk twin of :meth:`execute`.  It has no caller in the
        package; the repository benchmark's tracer (``perfbench/trace.py``)
        still patches it by name.  Per-batch seconds are computed once
        (the P-state is constant across the run by construction —
        frequency changes only happen between runs), the clock chain
        ``now, now+s, now+2s, ...`` is materialized with a strictly
        sequential ``np.add.accumulate`` (bit-identical to ``count``
        successive ``clock.advance`` calls), and the meter integrates the
        whole run at the constant watts the per-call path would compute
        for every batch.

        A caller that already materialized the identical chain may pass
        it as ``times`` — ``count + 1`` boundary timestamps whose first
        entry must be the current clock value; the chain is then trusted
        instead of recomputed.

        Returns the ``count + 1`` clock boundary timestamps, starting
        with the pre-execution time.
        """
        if count < 1:
            raise MachineError(f"execute_run needs count >= 1, got {count!r}")
        threads = self.cores if threads is None else threads
        if threads < 1 or threads > self.cores:
            raise MachineError(f"threads must be in 1..{self.cores}, got {threads!r}")
        if times is None:
            seconds = self.processor.seconds_for_work(work_units, threads=threads)
            seconds *= self.load_factor
            times = np.empty(count + 1, dtype=float)
            times[0] = self.clock.now
            times[1:] = seconds
            np.add.accumulate(times, out=times)
        elif times.shape[0] != count + 1 or times[0] != self.clock.now:
            raise MachineError(
                "precomputed times must hold count + 1 boundaries starting "
                "at the current clock"
            )
        self.clock.advance_to(float(times[-1]))
        self.meter.observe_run(times, self._derive(threads)[1])
        return times

    def idle(self, seconds: float) -> None:
        """Sit idle for ``seconds`` (power meter sees the idle floor)."""
        if seconds < 0:
            raise MachineError(f"cannot idle for negative {seconds!r}s")
        if seconds == 0:
            return
        clock = self.clock
        start = clock.now
        self.meter.observe(start, clock.advance(seconds), self._derive(0)[1])

    def idle_until(self, timestamp: float) -> None:
        """Idle until the absolute virtual ``timestamp``."""
        now = self.clock.now
        if timestamp < now:
            raise MachineError(
                f"idle_until target {timestamp!r} is in the past (now {now!r})"
            )
        self.idle(timestamp - now)

    def current_power(self, utilization: float) -> float:
        """Instantaneous power at ``utilization`` in the current P-state."""
        return self.power_model.power(
            utilization,
            self.processor.pstate,
            self.processor.max_frequency_ghz,
            self.processor.pstates[0].voltage,
        )
