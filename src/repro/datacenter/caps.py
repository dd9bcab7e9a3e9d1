"""Power-cap physics: what caps a machine can enforce, and how.

The leaf module under both the arbiter and the control plane: given a
:class:`~repro.hardware.machine.Machine`, what is the lowest cap it can
guarantee while staying powered on (:func:`machine_cap_floor`), the cap
above which capping is slack (:func:`machine_cap_ceiling`), and which
DVFS setting enforces a given cap (:func:`frequency_for_cap` — the
paper's §5.4 mechanism: the fastest P-state whose full-load system
power stays under the cap, so the cap holds even at saturation).

:class:`ArbiterError` lives here too so cap validation anywhere in the
control plane can raise it without importing the arbiter's allocation
machinery (re-exported from :mod:`repro.datacenter.arbiter`, its
historical home).
"""

from __future__ import annotations

from repro.datacenter.tolerances import WATT_SLACK
from repro.hardware.machine import Machine

__all__ = [
    "ArbiterError",
    "machine_cap_floor",
    "machine_cap_ceiling",
    "frequency_for_cap",
]


class ArbiterError(ValueError):
    """Raised for invalid arbitration or cap-validation input."""


def machine_cap_floor(machine: Machine) -> float:
    """Lowest enforceable cap: full-load power in the slowest P-state.

    Machines stay powered on (the paper's testbed never powers servers
    off), so no DVFS setting can guarantee less than this under load.
    """
    slowest = machine.processor.pstates[-1]
    return machine.power_model.power(
        1.0,
        slowest,
        machine.processor.max_frequency_ghz,
        machine.processor.pstates[0].voltage,
    )


def machine_cap_ceiling(machine: Machine) -> float:
    """Full-load power in the fastest P-state; caps above this are slack."""
    fastest = machine.processor.pstates[0]
    return machine.power_model.power(
        1.0,
        fastest,
        machine.processor.max_frequency_ghz,
        machine.processor.pstates[0].voltage,
    )


def frequency_for_cap(machine: Machine, cap_watts: float) -> float:
    """The fastest frequency whose full-load power respects ``cap_watts``.

    Falls back to the slowest P-state when the cap is below the floor
    (the machine cannot do better while staying on).
    """
    processor = machine.processor
    v_max = processor.pstates[0].voltage
    for pstate in processor.pstates:  # ordered fastest first
        watts = machine.power_model.power(
            1.0, pstate, processor.max_frequency_ghz, v_max
        )
        if watts <= cap_watts + WATT_SLACK:
            return pstate.frequency_ghz
    return processor.pstates[-1].frequency_ghz
