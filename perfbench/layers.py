"""Per-layer metrics, named after the program's modules.

``layer_metrics`` turns one traced repetition's spans and counters into
metrics; ``barrier_metrics`` reads the engine's public barrier telemetry
(``barrier_stats``, ``shard_busy_seconds``, ``coordinator_busy_seconds``)
of an untraced repetition.  Which end-to-end metric each layer metric
should move, and on which workload, is tabled in ``README.md``.
"""

from __future__ import annotations

import statistics
from typing import Any

from perfbench.trace import Tracer, layer_sum

SPAN_METRICS = {
    "engine.self_s": "s",
    "engine.feeds": "count",
    "engine.rejections": "count",
    "runtime.steps": "count",
    "runtime.step_self_s": "s",
    "runtime.items_per_step": "items/step",
    "heartbeats.beats": "count",
    "heartbeats.s": "s",
    "controller.updates": "count",
    "controller.s": "s",
    "actuator.plans": "count",
    "actuator.s": "s",
    "actuator.plan_reuse_ratio": "ratio",
    "machine.executes": "count",
    "machine.idle_settles": "count",
    "machine.s": "s",
    "apps.items": "count",
    "apps.s": "s",
    "calibration.s": "s",
    "billing.charges": "count",
    "billing.s": "s",
    "controlplane.barriers": "count",
    "controlplane.decide_s": "s",
    "controlplane.plan_s": "s",
    "controlplane.migrations": "count",
    "controlplane.retry_success_ratio": "ratio",
    "checkpoint.captures": "count",
    "checkpoint.s": "s",
    "journal.records": "count",
    "journal.write_s": "s",
    "journal.read_s": "s",
    "journal.bytes": "bytes",
    "faults.injected": "count",
    "faults.retries": "count",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "trace.coverage": "ratio",
}
"""Metrics a traced repetition measures itself, with their units."""

BARRIER_METRICS = {
    "shard.barriers": "count",
    "shard.payload_bytes": "bytes",
    "shard.serialize_s": "s",
    "shard.wait_s": "s",
    "shard.apply_s": "s",
    "shard.coordinator_busy_s": "s",
    "shard.worker_busy_s_max": "s",
    "shard.worker_imbalance": "ratio",
}
"""Metrics read from an untraced repetition's barrier telemetry."""

RUN_METRICS = {
    "trace.overhead": "ratio",
    "journal.replay_events_per_s": "events/s",
    "host.reference_s": "s",
}
"""Metrics over all the repetitions of one run."""

PER_LAYER = {**SPAN_METRICS, **BARRIER_METRICS, **RUN_METRICS}
"""Every per-layer metric and its unit, in ``BENCHMARK.json`` order."""


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when ``whole`` is 0 (nothing to divide)."""
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer, outcome: Any
) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, self time per span name) of the timed run.

    Self times and counts cover the timed run only; ``calibration.s`` is
    the wall-clock inside calibration calls during set-up and the run,
    including the application and machine work they drive.
    """
    run_root = tracer.root_index("run")
    run_seconds = tracer.span_end[run_root] - tracer.span_start[run_root]
    times = tracer.self_times(run_root)
    counts = tracer.counts
    result = outcome.result
    reports = getattr(result, "tenant_reports", [])
    retries = getattr(result, "retries", [])
    items = counts["apps.process_item"] + counts["apps.batch_process"]
    updates = counts["controller.update"]
    # A runtime looks a plan up at every controller update and once when
    # its run starts; a lookup that builds no plan reused a cached one.
    lookups = updates + counts["runtime.begin"]
    metrics = {
        "engine.self_s": times.get("engine.run", 0.0),
        "engine.feeds": counts["runtime.feed"],
        "engine.rejections": sum(report.rejected for report in reports),
        "runtime.steps": counts["runtime.step"],
        "runtime.step_self_s": times.get("runtime.step", 0.0),
        "runtime.items_per_step": _ratio(items, counts["runtime.step"]),
        "heartbeats.beats": counts["heartbeats.heartbeat"]
        + counts["heartbeats.commit_run"],
        "heartbeats.s": layer_sum(times, ["heartbeats."]),
        "controller.updates": updates,
        "controller.s": layer_sum(times, ["controller."]),
        "actuator.plans": counts["actuator.plan"],
        "actuator.s": layer_sum(times, ["actuator."]),
        "actuator.plan_reuse_ratio": 1.0
        - _ratio(counts["actuator.plan"], lookups),
        "machine.executes": counts["machine.execute"]
        + counts["machine.execute_run"],
        "machine.idle_settles": counts["machine.idle_until"],
        "machine.s": layer_sum(times, ["machine."]),
        "apps.items": items,
        "apps.s": layer_sum(times, ["apps."]),
        "calibration.s": tracer.inclusive("calibration."),
        "billing.charges": counts["billing.charge"],
        "billing.s": layer_sum(times, ["billing."]),
        "controlplane.barriers": counts["controlplane.plan_actions"],
        "controlplane.decide_s": layer_sum(times, ["controlplane.decide"]),
        "controlplane.plan_s": layer_sum(times, ["controlplane.plan_actions"]),
        "controlplane.migrations": len(getattr(result, "migrations", [])),
        "controlplane.retry_success_ratio": _ratio(
            sum(1 for retry in retries if retry.outcome == "succeeded"),
            len(retries),
        ),
        "checkpoint.captures": counts["checkpoint.capture"],
        "checkpoint.s": layer_sum(times, ["checkpoint."]),
        "journal.records": counts["journal.write_record"],
        "journal.write_s": layer_sum(
            times, ["journal.write_record", "journal.journaled_run"]
        ),
        "journal.read_s": layer_sum(
            times, ["journal.read_journal", "journal.replay"]
        ),
        "journal.bytes": outcome.journal_bytes,
        "faults.injected": len(getattr(result, "faults", [])),
        "faults.retries": len(retries),
        "gc.pause_s": tracer.gc_pause_s,
        "gc.gen2_collections": tracer.gc_gen2_collections,
        "trace.coverage": 1.0 - _ratio(times.get("run", 0.0), run_seconds),
    }
    return metrics, times


def barrier_metrics(barrier: dict[str, Any] | None) -> dict[str, float]:
    """Barrier-plane and shard metrics from an engine's telemetry.

    The in-process backends report the same keys with no wire (zero
    payload, serialize and wait); workloads without an engine report 0.
    """
    if barrier is None:
        return {name: 0.0 for name in BARRIER_METRICS}
    busy = barrier["shard_busy_seconds"] or []
    busy_max = max(busy, default=0.0)
    return {
        "shard.barriers": barrier["barriers"],
        "shard.payload_bytes": barrier["payload_bytes"],
        "shard.serialize_s": barrier["serialize_seconds"],
        "shard.wait_s": barrier["wait_seconds"],
        "shard.apply_s": barrier["apply_seconds"],
        "shard.coordinator_busy_s": barrier["coordinator_busy_seconds"] or 0.0,
        "shard.worker_busy_s_max": busy_max,
        "shard.worker_imbalance": _ratio(
            busy_max, statistics.fmean(busy) if busy else 0.0
        ),
    }
