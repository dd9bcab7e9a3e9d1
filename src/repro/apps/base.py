"""The application protocol all benchmarks implement (paper Section 2).

PowerDial targets applications with the paper's computational pattern:

* **Initialization** parses configuration parameters and derives *control
  variables* into the address space.
* A **main control loop** emits a heartbeat, reads one unit of input,
  processes it (reading — never writing — the control variables), and
  produces output.

:class:`Application` captures exactly that shape.  Work is attributed
through a :class:`WorkTracker` in abstract work units (see
``repro.hardware.cpu``) and to named sections, which the heartbeat
instrumenter uses to locate the main control loop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Mapping, NamedTuple, Sequence

from repro.core.knobs import KnobConfiguration, KnobSpace, Parameter
from repro.core.qos import QoSMetric
from repro.tracing.variables import AddressSpace

__all__ = ["WorkTracker", "ItemResult", "Application", "ApplicationError"]


class ApplicationError(RuntimeError):
    """Raised for protocol violations by applications."""


@dataclass
class WorkTracker:
    """Accumulates work units, attributed to named sections.

    Attributes:
        events: Raw ``(section, units)`` events in emission order, kept for
            heartbeat-site profiling.
        keep_events: Whether :meth:`add` logs to ``events``.  The
            controlled runtime reads only the totals, so it turns the
            log off rather than keep one event per item for a whole run.
    """

    events: list[tuple[str, float]] = field(default_factory=list)
    _total: float = 0.0
    keep_events: bool = True

    def add(self, section: str, units: float) -> None:
        """Attribute ``units`` of work to ``section``."""
        if units < 0:
            raise ApplicationError(
                f"negative work {units!r} attributed to {section!r}"
            )
        if self.keep_events:
            self.events.append((section, units))
        self._total += units

    @property
    def total(self) -> float:
        """Total work units recorded so far."""
        return self._total

    def take(self) -> float:
        """Return the total and reset the tracker (per-item accounting)."""
        total = self._total
        self._total = 0.0
        self.events.clear()
        return total


class _ItemFields(NamedTuple):
    output: Any
    work: float


class ItemResult(_ItemFields):
    """Result of processing one main-loop item (an immutable record).

    Built once per simulated item, so it is a checked named tuple rather
    than a frozen dataclass.  The check is a Python-level ``__new__``,
    which costs more than the tuple; an application whose item work has
    already passed :meth:`WorkTracker.add` (which rejects negative work
    with the same :class:`ApplicationError`) may build the record with
    ``tuple.__new__(ItemResult, (output, work))`` instead.

    Attributes:
        output: The item's output (application-specific).
        work: Work units spent on this item.
    """

    __slots__ = ()

    def __new__(cls, output: Any, work: float) -> "ItemResult":
        if work < 0:
            raise ApplicationError(f"item work must be >= 0, got {work!r}")
        return tuple.__new__(cls, (output, work))


class Application(abc.ABC):
    """Abstract base class for PowerDial-managed applications.

    Subclasses define their knobbable parameters, derive control variables
    during :meth:`initialize`, and process main-loop items while *reading*
    control variables from the address space.  The paper's checks verify at
    trace time that subclasses honor the read-only contract.
    """

    name: ClassVar[str] = "application"

    # -- configuration surface -------------------------------------------
    @classmethod
    @abc.abstractmethod
    def parameters(cls) -> tuple[Parameter, ...]:
        """The configuration parameters to transform into dynamic knobs."""

    @classmethod
    def knob_space(cls) -> KnobSpace:
        """The cartesian knob space over :meth:`parameters`."""
        return KnobSpace(cls.parameters())

    @classmethod
    def default_configuration(cls) -> KnobConfiguration:
        """The highest-QoS (baseline) parameter combination."""
        return cls.knob_space().default_configuration()

    # -- lifecycle ----------------------------------------------------------
    @abc.abstractmethod
    def initialize(self, config: Mapping[str, Any], space: AddressSpace) -> None:
        """Parse ``config`` and store derived control variables in ``space``.

        Runs before the first heartbeat.  During tracing the knob
        parameters arrive as traced values; derivations must therefore be
        arithmetic on the parameter values (the tracer does not follow
        control-flow or array-index influence).
        """

    @abc.abstractmethod
    def prepare(self, job: Any) -> Sequence[Any]:
        """Split one input job into main-control-loop items."""

    @abc.abstractmethod
    def process_item(
        self, item: Any, space: AddressSpace, tracker: WorkTracker
    ) -> ItemResult:
        """Process one item: read control variables, compute, return output."""

    # -- QoS surface ----------------------------------------------------------
    @abc.abstractmethod
    def qos_metric(self) -> QoSMetric:
        """The application's QoS-loss metric over full-job output lists."""

    # -- optional hooks ---------------------------------------------------------
    def reset(self) -> None:
        """Clear inter-item state (e.g. reference frames) between jobs."""

    def threads(self) -> int:
        """Worker threads the application runs with (paper: app-appropriate)."""
        return 8


def run_job(
    app: Application,
    config: Mapping[str, Any],
    job: Any,
    space: AddressSpace | None = None,
) -> tuple[list[Any], float, WorkTracker]:
    """Execute one job at a fixed configuration (no dynamic control).

    This is the calibration-time execution path: initialize, then run the
    whole main loop at the given static configuration.

    Returns:
        ``(outputs, total_work, tracker)`` where ``outputs`` has one entry
        per item and ``tracker`` retains the section events of the run.
    """
    if space is None:
        space = AddressSpace(log_accesses=False)
    app.reset()
    app.initialize(config, space)
    tracker = WorkTracker()
    outputs: list[Any] = []
    total_work = 0.0
    for item in app.prepare(job):
        space.mark_first_heartbeat()
        result = app.process_item(item, space, tracker)
        outputs.append(result.output)
        total_work += result.work
    return outputs, total_work, tracker
