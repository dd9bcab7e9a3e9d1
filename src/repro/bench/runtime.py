"""Microbenchmarks of the PowerDial runtime's hot step path.

Three probes, matching the optimizations this harness exists to keep
honest:

* ``step_path`` — a full :meth:`~repro.core.runtime.PowerDialRuntime`
  run over a stream of service jobs: items/second and heartbeats/second
  through the whole monitor -> controller -> actuator -> machine loop.
* ``heartbeat_window`` — beats/second through
  :meth:`~repro.heartbeats.api.HeartbeatMonitor.heartbeat` plus a
  ``window_rate`` query per beat (O(1) running-sum path; the naive
  recompute made this O(window) per beat).
* ``actuation_plan`` — per-call cost of
  :meth:`~repro.core.actuator.Actuator.plan` versus the runtime's
  cached ``_plan_for`` on a repeated command (the steady-state case).

Every probe reports ``repeats`` and its best-of-``repeats`` timing,
with a ``gc.collect()`` drain before each timed run so collector debt
from a previous repeat (or the calling harness) never lands inside a
measurement.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable

from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter.service import ServiceApp, service_training_jobs
from repro.experiments.common import experiment_machine
from repro.experiments.registry import built_service_system
from repro.hardware.clock import VirtualClock
from repro.heartbeats.api import HeartbeatMonitor

__all__ = ["bench_runtime"]


def _best_of(
    repeats: int, run_once: Callable[[], dict[str, Any]], key: str
) -> dict[str, Any]:
    """Run ``run_once`` ``repeats`` times; keep the lowest-``key`` run.

    Collects garbage before every timed run so one repeat's debt never
    pollutes the next measurement.
    """
    best: dict[str, Any] | None = None
    for _ in range(repeats):
        gc.collect()
        payload = run_once()
        if best is None or payload[key] < best[key]:
            best = payload
    assert best is not None
    best["repeats"] = repeats
    return best


def _service_workload(jobs: int, items_per_job: int) -> list[list[float]]:
    return [[float(1 + i % 7)] * items_per_job for i in range(jobs)]


def _bench_step_path(
    jobs: int, items_per_job: int, repeats: int
) -> dict[str, Any]:
    system = built_service_system()

    def run_once() -> dict[str, Any]:
        machine = experiment_machine()
        target = measure_baseline_rate(
            ServiceApp, service_training_jobs()[0], machine
        )
        runtime = PowerDialRuntime(
            app=ServiceApp(),
            table=system.table,
            machine=machine,
            target_rate=target,
        )
        workload = _service_workload(jobs, items_per_job)
        start = time.perf_counter()
        result = runtime.run(workload)
        elapsed = time.perf_counter() - start
        beats = len(result.samples)
        return {
            "jobs": jobs,
            "items": jobs * items_per_job,
            "seconds": elapsed,
            "items_per_sec": jobs * items_per_job / elapsed,
            "beats_per_sec": beats / elapsed,
        }

    return _best_of(repeats, run_once, "seconds")


def _bench_heartbeat_window(beats: int, repeats: int) -> dict[str, Any]:
    def run_once() -> dict[str, Any]:
        clock = VirtualClock()
        monitor = HeartbeatMonitor(clock, window_size=20)
        start = time.perf_counter()
        for _ in range(beats):
            clock.advance(0.042)
            monitor.heartbeat()
            monitor.window_rate()
        elapsed = time.perf_counter() - start
        return {
            "beats": beats,
            "window_size": 20,
            "seconds": elapsed,
            "beats_per_sec": beats / elapsed,
        }

    return _best_of(repeats, run_once, "seconds")


def _bench_actuation_plan(calls: int, repeats: int) -> dict[str, Any]:
    system = built_service_system()

    def run_once() -> dict[str, Any]:
        machine = experiment_machine()
        runtime = PowerDialRuntime(
            app=ServiceApp(),
            table=system.table,
            machine=machine,
            target_rate=20.0,
        )
        # A blended command (between table settings) is the expensive case.
        speedup = 0.5 * (1.0 + system.table.max_speedup)
        start = time.perf_counter()
        for _ in range(calls):
            runtime.actuator.plan(speedup)
        uncached = time.perf_counter() - start
        gc.collect()
        start = time.perf_counter()
        for _ in range(calls):
            runtime._plan_for(speedup)
        cached = time.perf_counter() - start
        return {
            "calls": calls,
            "seconds": uncached + cached,
            "uncached_seconds": uncached,
            "cached_seconds": cached,
            "uncached_us_per_call": 1e6 * uncached / calls,
            "cached_us_per_call": 1e6 * cached / calls,
            "cache_speedup": uncached / cached if cached > 0 else float("inf"),
        }

    return _best_of(repeats, run_once, "seconds")


def bench_runtime(smoke: bool = False) -> dict[str, Any]:
    """Run the three step-path microbenchmarks; return the JSON payload."""
    if smoke:
        # Only the expensive probes shrink: heartbeat beats and plan
        # calls stay at full count because they cost well under a
        # second, and at smoke-sized counts the cached-plan timing
        # (~0.1 us/call) drops below the noise floor of a shared host,
        # making the trajectory gate flap on unchanged code.
        jobs, items, beats, calls, repeats = 40, 5, 200_000, 100_000, 2
    else:
        jobs, items, beats, calls, repeats = 400, 5, 200_000, 100_000, 3
    return {
        "benchmark": "runtime-step-path",
        "probes": {
            "step_path": _bench_step_path(jobs, items, repeats),
            "heartbeat_window": _bench_heartbeat_window(beats, repeats),
            "actuation_plan": _bench_actuation_plan(calls, repeats),
        },
    }
