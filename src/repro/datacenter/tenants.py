"""Tenants: per-stream SLAs, admission control, and attainment accounting.

A *tenant* is one request stream served by one live PowerDial-controlled
application instance.  Its service level agreement is latency-based (the
§5.4 motivation: power capping "may violate latency service level
agreements"): a request meets the SLA when its end-to-end latency —
arrival to last-item completion — is within ``latency_bound``, and the
tenant's SLA is *attained* over a window when at least
``attainment_target`` of the admitted requests that completed in the
window met it.

Admission control bounds each instance's queue: an arrival finding
``max_queue_depth`` requests already queued (not counting the one in
service) is rejected rather than enqueued, so a bursty tenant degrades
by shedding load instead of building unbounded backlog (rejections are
reported, and count against goodput but not against the latency
attainment of admitted requests).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

import numpy as np

# np.percentile imports numpy.ma on its first call; load it with this
# module so that import never lands inside a timed run.
import numpy.ma  # noqa: F401

from repro.datacenter.traffic import TrafficTrace

__all__ = [
    "TenantError",
    "LatencySLA",
    "TenantSpec",
    "CompletedRequest",
    "TenantStats",
    "TenantReport",
]


class TenantError(ValueError):
    """Raised for invalid tenant configuration."""


@dataclass(frozen=True)
class LatencySLA:
    """A latency service level agreement.

    Attributes:
        latency_bound: Maximum acceptable end-to-end latency (seconds).
        attainment_target: Required fraction of admitted requests within
            the bound (e.g. 0.95 for a "95% under 2 s" SLA).
    """

    latency_bound: float
    attainment_target: float = 0.95

    def __post_init__(self) -> None:
        if self.latency_bound <= 0:
            raise TenantError(
                f"latency bound must be positive, got {self.latency_bound!r}"
            )
        if not 0.0 < self.attainment_target <= 1.0:
            raise TenantError(
                f"attainment target must be in (0, 1], got "
                f"{self.attainment_target!r}"
            )


@dataclass(frozen=True)
class TenantSpec:
    """Everything the engine needs to host one tenant.

    Attributes:
        name: Tenant identifier.
        trace: The tenant's request-arrival trace.
        sla: Its latency SLA.
        job_factory: Maps a request index to the application job that
            serves it.
        qos_cap: Accuracy tolerance — the knob table built for this
            tenant is restricted to settings with QoS loss <= this cap.
            ``0.0`` models a knob-poor tenant (exact service, baseline
            only) whose only remedy under contention is machine power;
            ``None`` leaves the full Pareto table available.
        max_queue_depth: Queued (not-yet-started) requests before
            admission control starts rejecting.
        weight: Relative importance in arbiter allocation.
    """

    name: str
    trace: TrafficTrace
    sla: LatencySLA
    job_factory: Callable[[int], Any]
    qos_cap: float | None = None
    max_queue_depth: int = 32
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise TenantError(
                f"max queue depth must be >= 1, got {self.max_queue_depth!r}"
            )
        if self.weight <= 0:
            raise TenantError(f"weight must be positive, got {self.weight!r}")
        if self.qos_cap is not None and self.qos_cap < 0:
            raise TenantError(f"qos cap must be >= 0, got {self.qos_cap!r}")


@dataclass(frozen=True)
class CompletedRequest:
    """One served request's timing.

    Attributes:
        arrival: Global arrival time.
        completion: Machine virtual time when its last item finished.
    """

    arrival: float
    completion: float

    @property
    def latency(self) -> float:
        """End-to-end response time."""
        return self.completion - self.arrival


@dataclass
class TenantStats:
    """Mutable per-tenant accounting the engine updates as it runs.

    ``completions`` is an append-only log; :meth:`record_completion` is
    its only writer.
    """

    offered: int = 0
    rejected: int = 0
    completions: list[CompletedRequest] = field(default_factory=list)

    # The tuple :meth:`completion_pairs` last handed out.  A plain class
    # attribute, not a dataclass field, so it stays out of ``__init__``,
    # ``==`` and ``repr``; ``__getstate__`` keeps it out of pickles.
    _pairs: ClassVar[tuple[tuple[float, float], ...]] = ()

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_pairs", None)
        return state

    def completion_pairs(self) -> tuple[tuple[float, float], ...]:
        """``(arrival, completion)`` of every completion, as one tuple.

        Extends the tuple of the previous call by only the completions
        recorded since, so consecutive results share their prefix
        element for element and a call costs O(new completions) pair
        builds.  Lazy, so :meth:`record_completion` does no extra work.
        """
        pairs = self._pairs
        done = len(pairs)
        if done < len(self.completions):
            pairs = self._pairs = pairs + tuple(
                (record.arrival, record.completion)
                for record in self.completions[done:]
            )
        return pairs

    @property
    def admitted(self) -> int:
        """Requests accepted by admission control."""
        return self.offered - self.rejected

    def record_offer(self) -> None:
        """Count one arrival (before the admission decision)."""
        self.offered += 1

    def record_rejection(self) -> None:
        """Count one arrival shed by admission control."""
        self.rejected += 1

    def record_completion(self, arrival: float, completion: float) -> None:
        """Record one served request (completions arrive in time order)."""
        if completion < arrival:
            raise TenantError(
                f"completion {completion!r} precedes arrival {arrival!r}"
            )
        self.completions.append(CompletedRequest(arrival, completion))

    def recent_attainment(
        self, bound: float, since: float, until: float
    ) -> float | None:
        """SLA attainment over completions in ``(since, until]``.

        Returns ``None`` when nothing completed in the window (the
        arbiter treats a silent-but-backlogged tenant as fully violating).
        """
        key = lambda record: record.completion
        lo = bisect.bisect_right(self.completions, since, key=key)
        hi = bisect.bisect_right(self.completions, until, key=key)
        window = self.completions[lo:hi]
        if not window:
            return None
        met = sum(1 for r in window if r.latency <= bound)
        return met / len(window)

    def report(self, name: str, sla: LatencySLA) -> "TenantReport":
        """Summarize the run for one tenant."""
        latencies = np.array([r.latency for r in self.completions])
        if latencies.size:
            mean = float(latencies.mean())
            p95 = float(np.percentile(latencies, 95))
            attainment = float((latencies <= sla.latency_bound).mean())
        else:
            mean = p95 = 0.0
            attainment = 0.0
        return TenantReport(
            name=name,
            offered=self.offered,
            admitted=self.admitted,
            rejected=self.rejected,
            completed=len(self.completions),
            mean_latency=mean,
            p95_latency=p95,
            attainment=attainment,
            sla_met=attainment >= sla.attainment_target,
        )


@dataclass(frozen=True)
class TenantReport:
    """End-of-run summary for one tenant.

    Attributes:
        attainment: Fraction of admitted-and-completed requests within
            the latency bound.
        sla_met: Whether attainment reached the SLA's target.
    """

    name: str
    offered: int
    admitted: int
    rejected: int
    completed: int
    mean_latency: float
    p95_latency: float
    attainment: float
    sla_met: bool
