"""DVFS-capable processor model.

Models the paper's experimental platform (two quad-core Intel Xeon E5530,
Section 5.1): seven software-selectable power states with clock frequencies
from 2.4 GHz down to 1.6 GHz.  Applications report *work* in abstract work
units (one unit = one unit of computation at nominal throughput); the
processor converts work into virtual seconds given its current frequency,
exactly the way a CPU-bound task's runtime scales with clock frequency
(Section 3: ``t2 = f_nodvfs / f_dvfs * t1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PState", "Processor", "XEON_E5530_PSTATES", "CpuError"]


class CpuError(ValueError):
    """Raised for invalid processor configuration or state changes."""


@dataclass(frozen=True)
class PState:
    """A processor power state (DVFS operating point).

    Attributes:
        frequency_ghz: Core clock frequency in GHz.
        voltage: Relative core voltage (1.0 at the highest state).  Used by
            the power model; scales roughly linearly with frequency across
            the small DVFS range of server parts.
    """

    frequency_ghz: float
    voltage: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0.0:
            raise CpuError(f"frequency must be positive, got {self.frequency_ghz!r}")
        if self.voltage <= 0.0:
            raise CpuError(f"voltage must be positive, got {self.voltage!r}")


def _xeon_pstates() -> tuple[PState, ...]:
    """The seven P-states of the paper's Xeon E5530 platform.

    Frequencies are the x-axis labels of Figure 6.  Voltage is modeled as
    scaling linearly from 1.0 at 2.4 GHz down to 0.85 at 1.6 GHz, a typical
    DVFS voltage span for this part.
    """
    frequencies = (2.4, 2.26, 2.13, 2.0, 1.86, 1.73, 1.6)
    f_max, f_min = frequencies[0], frequencies[-1]
    v_max, v_min = 1.0, 0.85
    states = []
    for f in frequencies:
        v = v_min + (v_max - v_min) * (f - f_min) / (f_max - f_min)
        states.append(PState(frequency_ghz=f, voltage=round(v, 4)))
    return tuple(states)


XEON_E5530_PSTATES: tuple[PState, ...] = _xeon_pstates()


@dataclass
class Processor:
    """A processor with a discrete set of DVFS states.

    Attributes:
        pstates: Available power states, ordered fastest first.
        work_units_per_ghz_second: Calibration constant: how many abstract
            work units one core retires per second per GHz.  With the
            default of 1e9 a work unit behaves like "one operation at one
            IPC", so ``work / (freq_ghz * 1e9)`` seconds per unit.
        state_index: Index of the current P-state in ``pstates``.
    """

    pstates: tuple[PState, ...] = XEON_E5530_PSTATES
    work_units_per_ghz_second: float = 1e9
    state_index: int = 0

    def __post_init__(self) -> None:
        if not self.pstates:
            raise CpuError("processor needs at least one P-state")
        ordered = sorted(self.pstates, key=lambda s: -s.frequency_ghz)
        self.pstates = tuple(ordered)
        if self.work_units_per_ghz_second <= 0:
            raise CpuError("work_units_per_ghz_second must be positive")
        if not 0 <= self.state_index < len(self.pstates):
            raise CpuError(f"state_index {self.state_index} out of range")

    @property
    def pstate(self) -> PState:
        """The current power state."""
        return self.pstates[self.state_index]

    @property
    def frequency_ghz(self) -> float:
        """Current clock frequency in GHz."""
        return self.pstates[self.state_index].frequency_ghz

    @property
    def max_frequency_ghz(self) -> float:
        """Frequency of the fastest P-state."""
        return self.pstates[0].frequency_ghz

    @property
    def min_frequency_ghz(self) -> float:
        """Frequency of the slowest P-state."""
        return self.pstates[-1].frequency_ghz

    def set_state(self, index: int) -> PState:
        """Switch to P-state ``index`` (0 = fastest) and return it."""
        if not 0 <= index < len(self.pstates):
            raise CpuError(
                f"P-state index {index} out of range 0..{len(self.pstates) - 1}"
            )
        self.state_index = index
        return self.pstate

    def set_frequency(self, frequency_ghz: float) -> PState:
        """Switch to the P-state with the given frequency.

        Mirrors ``cpufrequtils`` on the paper's platform: only the discrete
        advertised frequencies are legal.
        """
        for i, state in enumerate(self.pstates):
            if abs(state.frequency_ghz - frequency_ghz) < 1e-9:
                return self.set_state(i)
        known = [s.frequency_ghz for s in self.pstates]
        raise CpuError(f"no P-state at {frequency_ghz} GHz; available: {known}")

    def seconds_for_work(self, work_units: float, threads: int = 1) -> float:
        """Virtual seconds to retire ``work_units`` with ``threads`` cores.

        Perfectly parallel work is assumed (the paper's benchmarks are the
        PARSEC parallel versions); callers that want contention model it by
        passing fewer effective threads.
        """
        if work_units < 0:
            raise CpuError(f"work must be non-negative, got {work_units!r}")
        if threads < 1:
            raise CpuError(f"threads must be >= 1, got {threads!r}")
        rate = self.frequency_ghz * self.work_units_per_ghz_second * threads
        return work_units / rate

    def slowdown_vs_max(self) -> float:
        """How much slower the current state is than the fastest (>= 1)."""
        return self.max_frequency_ghz / self.frequency_ghz
