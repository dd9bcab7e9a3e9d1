"""The application address space and its access log (paper Section 2.1).

The paper stores control variables "in the address space of the running
application" and instruments the production binary to register their
addresses.  Our applications keep their configuration-derived state in an
explicit :class:`AddressSpace` — a named variable store that records every
read and write together with the execution *phase* (before or after the
first heartbeat).  Those logs drive the Relevant and Constant checks, and
the store's :meth:`AddressSpace.poke` is the mechanism the dynamic-knob
runtime uses to move the application to a different operating point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterator

from repro.tracing.influence import influence_of, strip

__all__ = ["Phase", "Access", "AddressSpace", "AddressSpaceError"]


class AddressSpaceError(KeyError):
    """Raised on access to an unknown variable."""


class Phase(enum.Enum):
    """Execution phase relative to the application's first heartbeat."""

    STARTUP = "startup"
    MAIN = "main"


@dataclass(frozen=True)
class Access:
    """One logged variable access.

    Attributes:
        name: Variable name.
        phase: Phase in which the access happened.
        site: Code location label (``module.qualname`` of the accessor) —
            the paper's report lists "the statements in the application
            that access them".
    """

    name: str
    phase: Phase
    site: str


def _caller_site(depth: int = 2) -> str:
    import sys

    frame = sys._getframe(depth)
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{frame.f_code.co_qualname}"


class AddressSpace:
    """Named variable store with phase-aware access logging.

    Args:
        log_accesses: When True (tracing runs), every read/write is logged
            with its call site.  Production runs may disable logging; the
            knob runtime only needs :meth:`poke`.
    """

    def __init__(self, log_accesses: bool = True) -> None:
        self._values: dict[str, Any] = {}
        self._phase = Phase.STARTUP
        self._log = log_accesses
        self.reads: list[Access] = []
        self.writes: list[Access] = []
        self.pokes: list[Access] = []

    # -- phase ------------------------------------------------------------
    @property
    def phase(self) -> Phase:
        """Current execution phase."""
        return self._phase

    def mark_first_heartbeat(self) -> None:
        """Switch to the MAIN phase (idempotent)."""
        self._phase = Phase.MAIN

    # -- application-visible operations ------------------------------------
    def write(self, name: str, value: Any) -> None:
        """Store ``value`` under ``name`` (an application write)."""
        if self._log:
            self.writes.append(Access(name, self._phase, _caller_site()))
        self._values[name] = value

    def read(self, name: str) -> Any:
        """Read the variable ``name`` (an application read)."""
        try:
            value = self._values[name]
        except KeyError:
            raise AddressSpaceError(f"unknown variable {name!r}") from None
        if self._log:
            self.reads.append(Access(name, self._phase, _caller_site()))
        return value

    # -- runtime (non-application) operations -------------------------------
    def poke(self, name: str, value: Any) -> None:
        """Set a control variable from *outside* the application.

        This is the dynamic-knob actuation path: the PowerDial runtime
        writes a previously recorded value into the address space.  Pokes
        are logged separately and do not count as application writes for
        the Constant check.
        """
        if name not in self._values:
            raise AddressSpaceError(f"cannot poke unknown variable {name!r}")
        if self._log:
            self.pokes.append(Access(name, self._phase, "powerdial.runtime"))
        self._values[name] = value

    def peek(self, name: str) -> Any:
        """Read ``name`` without logging (for tooling, not applications)."""
        if name not in self._values:
            raise AddressSpaceError(f"unknown variable {name!r}")
        return self._values[name]

    # -- inspection ---------------------------------------------------------
    def names(self) -> list[str]:
        """All variable names, in insertion order."""
        return list(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def snapshot(self) -> dict[str, Any]:
        """Plain (influence-stripped) copy of all variables."""
        return {name: strip(value) for name, value in self._values.items()}

    def influence_map(self) -> dict[str, frozenset[str]]:
        """Influence set of every variable's current value."""
        return {name: influence_of(value) for name, value in self._values.items()}

    def reads_of(self, name: str, phase: Phase | None = None) -> list[Access]:
        """Logged reads of ``name``, optionally filtered by phase."""
        return [
            access
            for access in self.reads
            if access.name == name and (phase is None or access.phase == phase)
        ]

    def writes_of(self, name: str, phase: Phase | None = None) -> list[Access]:
        """Logged application writes of ``name``, optionally by phase."""
        return [
            access
            for access in self.writes
            if access.name == name and (phase is None or access.phase == phase)
        ]
