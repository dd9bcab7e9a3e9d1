"""Heartbeat-age health classification.

The datacenter control plane judges a machine by the age of its most
recent trusted heartbeat telemetry: fresh telemetry means the machine
is controllable, aging telemetry means decisions are running on stale
state, and silence past a deadline means the machine must be treated
as unresponsive even though its workloads may still be running.  This
module holds the pure age -> health-state classifier used by the
datacenter's fault injector; the hysteresis on *recovery* (a
quarantined machine earns back trust slowly) lives with the
injector's per-machine state
(:class:`~repro.datacenter.faults.FaultInjector`), not here, because
it depends on history rather than on a single age.
"""

from __future__ import annotations

__all__ = [
    "HEALTH_DEAD",
    "HEALTH_FRESH",
    "HEALTH_STALE",
    "HEALTH_UNRESPONSIVE",
    "MACHINE_HEALTH_STATES",
    "classify_heartbeat_age",
]

HEALTH_FRESH = "fresh"
"""Telemetry is current; the machine is fully controllable."""

HEALTH_STALE = "stale"
"""Telemetry is aging (or the machine is in its post-recovery
hysteresis window); decisions should hold last-known state."""

HEALTH_UNRESPONSIVE = "unresponsive"
"""Telemetry is past the unresponsive deadline; quarantine the
machine and reallocate its power to healthy peers."""

HEALTH_DEAD = "dead"
"""The machine fail-stopped; it is gone, not merely silent."""

MACHINE_HEALTH_STATES = (
    HEALTH_FRESH,
    HEALTH_STALE,
    HEALTH_UNRESPONSIVE,
    HEALTH_DEAD,
)
"""All health states a ClusterView machine may report, least to most
degraded."""

_EPS = 1e-9


def classify_heartbeat_age(
    age_seconds: float,
    stale_after_seconds: float,
    unresponsive_after_seconds: float,
) -> str:
    """Classify a live machine by the age of its last fresh heartbeat.

    Args:
        age_seconds: Seconds since the control plane last saw trusted
            telemetry from the machine (0 when the current barrier's
            sample is fresh).
        stale_after_seconds: Age beyond which the machine counts as
            stale (strictly greater-than, so 0 means "any positive
            age is stale").
        unresponsive_after_seconds: Age beyond which the machine
            counts as unresponsive; must exceed
            ``stale_after_seconds``.

    Returns:
        :data:`HEALTH_FRESH`, :data:`HEALTH_STALE`, or
        :data:`HEALTH_UNRESPONSIVE`.  (:data:`HEALTH_DEAD` is not an
        age — fail-stop is tracked by the engine's dead-machine set.)
    """
    if age_seconds > unresponsive_after_seconds + _EPS:
        return HEALTH_UNRESPONSIVE
    if age_seconds > stale_after_seconds + _EPS:
        return HEALTH_STALE
    return HEALTH_FRESH
