"""Vectorized batched control kernel (scalar ``PowerDialRuntime`` is the
reference).

The scalar step path tops out near 119k items/sec because every item pays
a Python round trip: an event-heap probe, a quantum-boundary compare, a
plan lookup, a heartbeat, a work execution, a power observation, and a
sample record — each a handful of attribute loads and float ops.  The
control law itself (Eq. 9–11 integrator, heartbeat-window statistics,
actuation-plan selection, water-fill cap math) is small dense arithmetic
repeated identically per item and per instance, which is exactly the
shape that belongs in batched numpy kernels.

This module provides that kernel **without changing a single float**:

* :class:`BatchedServiceRuntime` subclasses
  :class:`~repro.core.runtime.PowerDialRuntime` and overrides only the
  ``_stepping`` generator.  The overridden loop is the scalar loop with a
  fast path: a maximal run of items that provably hits no event, no
  quantum boundary, and no plan-segment change executes as one numpy
  chunk (one time chain, one bulk heartbeat commit, one bulk power
  observation, one vectorized application batch), then falls back to the
  verbatim scalar code for everything else (events, boundaries,
  race-to-idle tails, starvation, snapshot/restore).  Every yield leaves
  queue, monitor, meter, clock, controller, and phase state bit-identical
  to the scalar runtime's, so billing, journaling, and shard parity are
  inherited rather than re-proven.
* :func:`to_batched` converts an un-begun scalar runtime in place-for-
  place; apps without a ``batch_process`` hook (or runtime subclasses)
  are returned unchanged.
* :func:`batched_controller_update`, :func:`batched_plan_parameters`,
  and :func:`batched_water_fill` are the standalone vectorized forms of
  the Eq. 9–11 update, minimal-speedup plan selection, and the arbiter's
  water-fill — each pinned bit-for-bit against its scalar twin by the
  differential test suite.

Bit-exactness ground rules (load-bearing, tested):

* ``np.add.accumulate`` is strictly sequential left-to-right, so a
  cumulative chain seeded with the current scalar value reproduces a
  ``+=`` loop exactly.  ``np.sum``/``np.add.reduce`` pairwise-reduce and
  are never used here.
* NumPy float64 elementwise arithmetic is IEEE-754 double arithmetic —
  bit-identical to the same Python float expression per element.
* Comparisons used for truncation (quantum crossing, segment edges,
  event beats) are evaluated on exactly the floats the scalar loop would
  compare, so the chunk ends precisely where the scalar loop would take
  a different branch.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.apps.base import WorkTracker
from repro.core.controller import ControllerError
from repro.core.knobs import KnobTable
from repro.core.runtime import (
    PowerDialRuntime,
    RunResult,
    SampleColumns,
    StepStatus,
)
from repro.hardware.power import PowerError

__all__ = [
    "BatchedServiceRuntime",
    "to_batched",
    "batched_controller_update",
    "batched_plan_parameters",
    "batched_water_fill",
]

# Below this many provably uniform items the chunk setup (numpy array
# construction, truncation searches) costs more than it saves; run the
# scalar body instead.
_MIN_BULK = 2
# Upper bound on candidate-chunk assembly, a guard against unbounded
# job pre-pull when per-item time is pathologically small.
_MAX_CHUNK = 4096


class BatchedServiceRuntime(PowerDialRuntime):
    """A :class:`PowerDialRuntime` whose step path advances items in
    numpy chunks.

    Drop-in: the resumable API (``begin``/``step``/``feed``/``snapshot``
    /``restore``/``finish``…) is inherited unchanged; only the internal
    ``_stepping`` generator differs.  The application must provide a
    ``batch_process(items, space, tracker) -> (outputs, work_per_item)``
    hook whose outputs are float-for-float equal to per-item
    ``process_item`` calls under a fixed knob configuration and whose
    per-item work is constant across the batch (chunks never span a knob
    change, so any app whose work depends only on its knobs qualifies).

    Host-visible invariants preserved at every yield, bit for bit:
    clock, meter energy/samples, heartbeat window state and count,
    controller state, plan cache, quantum phase, pending-job queue
    (jobs pulled into a chunk but not started are re-queued before the
    generator suspends), emitted samples, outputs, and settings.  Two
    documented narrowings, invisible to the engine: the monitor's
    per-beat record log is collapsed (``HeartbeatMonitor.commit_run``),
    and job completion callbacks are invoked at chunk commit with the
    exact completion timestamps rather than interleaved with execution —
    so callbacks must derive state from the passed timestamp, not from
    live machine inspection (the engine's latency accounting does).
    """

    def _stepping(self):
        """The scalar run loop with a vectorized uniform-run fast path."""
        app, machine, monitor = self.app, self.machine, self.monitor
        quantum_duration = self.actuator.quantum_beats / self.target_rate
        plan = self._plan_for(self.controller.speedup)
        quantum_start = machine.now
        beats_in_quantum = 0
        if self._restored_phase is not None:
            beats_in_quantum, quantum_start = self._restored_phase
            self._restored_phase = None

        tracker = WorkTracker(keep_events=False)
        columns = SampleColumns()
        outputs_by_job: list[list[Any]] = []
        first_beat_time: float | None = None
        threads = app.threads()
        target_rate = self.target_rate
        queue = self._job_queue
        bulk = getattr(app, "batch_process", None)
        # Expected items per chunk, refined from the realized per-item
        # seconds: enough to reach the next quantum boundary, plus slack.
        hint = self.actuator.quantum_beats + 1
        last_seconds: float | None = None

        # The job currently in service, mirroring the scalar loop's
        # (pending_job, prepared items, outputs, position) locals.  It
        # persists across yields exactly as the scalar generator's frame
        # does; queue observers never see it (scalar pops before any
        # yield too).
        job = None
        items: list[Any] = []
        outputs: list[Any] = []
        idx = 0

        while True:
            if job is None:
                if not queue:
                    if self._input_closed:
                        break
                    stalled_at = machine.now
                    self._phase = (beats_in_quantum, quantum_start)
                    yield StepStatus.STARVED
                    if machine.now > stalled_at:
                        quantum_start = machine.now
                        beats_in_quantum = 0
                    continue
                job = queue.popleft()
                items = app.prepare(job.job)
                outputs = []
                idx = 0
            if idx >= len(items):
                # Job drained (or prepared empty): complete it before
                # looking at the queue again, exactly as the scalar loop
                # falls out of its item loop.
                outputs_by_job.append(outputs)
                if job.on_complete is not None:
                    job.on_complete(machine.now)
                job = None
                continue

            # ---- scalar per-item prologue (verbatim semantics) ----
            while self._event_heap and self._event_heap[0][0] <= monitor.count:
                heapq.heappop(self._event_heap)[2].action(machine)

            if machine.now - quantum_start >= quantum_duration:
                plan = self._replan(beats_in_quantum, machine.now - quantum_start)
                quantum_start = machine.now
                beats_in_quantum = 0
                self._phase = (beats_in_quantum, quantum_start)
                yield StepStatus.RAN

            fraction = (machine.now - quantum_start) / quantum_duration
            fraction = min(max(fraction, 0.0), 1.0 - 1e-9)
            setting = plan.setting_at(fraction)
            if setting is None:
                # Race-to-idle tail: idle out the quantum, then replan.
                machine.idle_until(quantum_start + quantum_duration)
                plan = self._replan(beats_in_quantum, machine.now - quantum_start)
                quantum_start = machine.now
                beats_in_quantum = 0
                self._phase = (beats_in_quantum, quantum_start)
                yield StepStatus.RAN
                setting = plan.setting_at(0.0)
                if setting is None:  # pragma: no cover - plans run first
                    setting = self.table.fastest
            self._apply_setting(setting)

            # ---- assemble the candidate run ----
            # Pull whole jobs until the candidate covers the expected
            # chunk; anything not consumed is re-queued (or kept in
            # service) before the next yield, so between-step observers
            # see exactly the scalar queue.
            if last_seconds is not None and last_seconds > 0.0:
                room = quantum_duration - (machine.now - quantum_start)
                hint = int(room / last_seconds) + 2
                if hint < _MIN_BULK:
                    hint = _MIN_BULK
                elif hint > _MAX_CHUNK:
                    hint = _MAX_CHUNK
            flat = items[idx:]
            batch_jobs = [(job, items, outputs, idx)]
            while len(flat) < hint and queue:
                nxt = queue.popleft()
                prepared = app.prepare(nxt.job)
                batch_jobs.append((nxt, prepared, [], 0))
                flat.extend(prepared)
            n = len(flat)

            count = 0
            if bulk is not None and n >= _MIN_BULK:
                # ---- truncate to the provably uniform prefix ----
                # The application batch runs under the already-applied
                # setting; space phase matches the scalar loop (first
                # heartbeat precedes the first item's processing).
                self.space.mark_first_heartbeat()
                out_arr, work = bulk(flat, self.space, tracker)
                seconds = machine.processor.seconds_for_work(work, threads=threads)
                seconds *= machine.load_factor
                last_seconds = seconds
                cand = np.empty(n + 1, dtype=float)
                cand[0] = machine.now
                cand[1:] = seconds
                np.add.accumulate(cand, out=cand)
                # Quantum boundary: first item whose pre-execution check
                # `now - quantum_start >= quantum_duration` would fire.
                diffs = cand[:n] - quantum_start
                limit = int(np.searchsorted(diffs, quantum_duration, side="left"))
                # Event boundary: first item whose beat count reaches the
                # earliest scheduled event (the prologue drained beats
                # that are already due, so this is >= 1).
                if self._event_heap:
                    due_in = self._event_heap[0][0] - monitor.count
                    if due_in < limit:
                        limit = due_in
                count = min(limit, n)
                # Plan-segment boundary: first item whose quantum
                # fraction selects a different segment than the current.
                plan_segments = plan.segments
                if len(plan_segments) > 1 and count > 1:
                    fr = diffs[:count] / quantum_duration
                    np.maximum(fr, 0.0, out=fr)
                    np.minimum(fr, 1.0 - 1e-9, out=fr)
                    edges = np.empty(len(plan_segments))
                    cumulative = 0.0
                    for j, segment in enumerate(plan_segments):
                        cumulative += segment.fraction
                        edges[j] = cumulative - 1e-15
                    seg_idx = np.searchsorted(edges, fr, side="right")
                    np.minimum(seg_idx, len(plan_segments) - 1, out=seg_idx)
                    change = np.flatnonzero(seg_idx != seg_idx[0])
                    if change.size:
                        count = int(change[0])

            if count < _MIN_BULK:
                # No profitable uniform run (no batch hook, a lone item,
                # or a boundary right after the next item): re-queue the
                # pulled jobs and run the scalar item body verbatim.
                for pulled in reversed(batch_jobs[1:]):
                    queue.appendleft(pulled[0])
                record = monitor.heartbeat()
                if first_beat_time is None:
                    first_beat_time = record.timestamp
                self.space.mark_first_heartbeat()
                result = app.process_item(items[idx], self.space, tracker)
                machine.execute(result.work, threads=threads)
                outputs.append(result.output)
                beats_in_quantum += 1
                window_rate = monitor.window_rate()
                columns.beat.append(record.sequence)
                columns.time.append(record.timestamp)
                columns.window_rate.append(window_rate)
                columns.normalized_performance.append(
                    None if window_rate is None else window_rate / target_rate
                )
                columns.knob_gain.append(setting.speedup)
                columns.commanded_speedup.append(self.controller.speedup)
                columns.frequency_ghz.append(machine.processor.frequency_ghz)
                columns.setting.append(setting)
                idx += 1
                continue

            # ---- commit the chunk ----
            # The boundary chain is exactly ``cand`` (it was built from
            # the same seconds and the same starting clock), so hand it
            # to the machine rather than recomputing it.
            times = machine.execute_run(
                count, work, threads=threads, times=cand[: count + 1]
            )
            times_list = times.tolist()
            first_seq, rates = monitor.commit_run(times[:-1])
            if first_beat_time is None:
                first_beat_time = times_list[0]
            beats_in_quantum += count

            columns.beat.extend(range(first_seq, first_seq + count))
            columns.time.extend(times_list[:count])
            columns.window_rate.extend(rates)
            columns.normalized_performance.extend(
                [None if rate is None else rate / target_rate for rate in rates]
            )
            columns.knob_gain.extend([setting.speedup] * count)
            columns.commanded_speedup.extend([self.controller.speedup] * count)
            columns.frequency_ghz.extend(
                [machine.processor.frequency_ghz] * count
            )
            columns.setting.extend([setting] * count)

            # Distribute outputs to their jobs, complete the ones that
            # ended inside the chunk (in order, with the exact end-of-
            # item timestamps), and re-queue jobs the chunk never
            # reached.
            outs = out_arr.tolist()
            remaining = count
            pos = 0
            job = None
            bi = 0
            n_jobs = len(batch_jobs)
            while bi < n_jobs:
                pending, jitems, jouts, jstart = batch_jobs[bi]
                need = len(jitems) - jstart
                if need > remaining:
                    jouts.extend(outs[pos : pos + remaining])
                    job, items, outputs = pending, jitems, jouts
                    idx = jstart + remaining
                    pos += remaining
                    remaining = 0
                    bi += 1
                    break
                jouts.extend(outs[pos : pos + need])
                pos += need
                remaining -= need
                outputs_by_job.append(jouts)
                if pending.on_complete is not None:
                    pending.on_complete(times_list[pos])
                bi += 1
            for pulled in reversed(batch_jobs[bi:]):
                queue.appendleft(pulled[0])

        self._phase = (beats_in_quantum, quantum_start)
        elapsed = 0.0
        if first_beat_time is not None:
            elapsed = machine.now - first_beat_time
        try:
            mean_power: float | None = machine.meter.mean_power()
        except PowerError:
            mean_power = None
        self._result = RunResult(
            columns=columns,
            outputs_by_job=outputs_by_job,
            mean_power=mean_power,
            energy_joules=machine.meter.energy_joules,
            elapsed=elapsed,
        )


def to_batched(runtime: PowerDialRuntime) -> PowerDialRuntime:
    """Convert an un-begun scalar runtime to its batched equivalent.

    Returns the runtime unchanged when it is already batched, is a
    custom :class:`PowerDialRuntime` subclass (whose overridden behavior
    the kernel cannot vouch for), or hosts an application without a
    ``batch_process`` hook.  The converted runtime shares the original's
    app, table, machine, and controller objects, and is constructed with
    the same policy/quantum/window parameters, so ``begin()`` arms it
    exactly as it would have armed the original.
    """
    if isinstance(runtime, BatchedServiceRuntime):
        return runtime
    if type(runtime) is not PowerDialRuntime:
        return runtime
    if getattr(runtime.app, "batch_process", None) is None:
        return runtime
    if runtime._stepper is not None:
        raise RuntimeError("to_batched() requires an un-begun runtime")
    return BatchedServiceRuntime(
        app=runtime.app,
        table=runtime.table,
        machine=runtime.machine,
        target_rate=runtime.target_rate,
        baseline_rate=runtime.baseline_rate,
        policy=runtime.actuator.policy,
        quantum_beats=runtime.actuator.quantum_beats,
        window_size=runtime.monitor.window_size,
        controller=runtime.controller,
    )


def batched_controller_update(
    speedups: np.ndarray,
    heart_rates: np.ndarray,
    target_rates: np.ndarray | float,
    baseline_rates: np.ndarray | float,
    min_speedups: np.ndarray | float,
    max_speedups: np.ndarray | float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Eq. 9–11 integrator update for N independent loops.

    Bit-identical, element for element, to N scalar
    :meth:`~repro.core.controller.HeartRateController.update` calls:
    ``e = g - h``, ``s = clamp(s + e / b, min, max)`` — every operation
    is a single IEEE double op either way.  Returns ``(speedups,
    errors)``; the engine's bit-exact step path amortizes controller
    updates to one scalar call per instance per quantum (cross-instance
    batching cannot preserve the interleaved replan sequencing), so this
    kernel serves callers that advance many loops in lockstep — sweeps,
    policy searches, and the differential suite that pins it.
    """
    speedups = np.asarray(speedups, dtype=float)
    heart_rates = np.asarray(heart_rates, dtype=float)
    if heart_rates.size and float(heart_rates.min()) < 0.0:
        raise ControllerError("heart rates must be >= 0")
    errors = np.subtract(target_rates, heart_rates)
    updated = speedups + errors / np.asarray(baseline_rates, dtype=float)
    updated = np.maximum(updated, min_speedups)
    if max_speedups is not None:
        updated = np.minimum(updated, max_speedups)
    return updated, errors


def batched_plan_parameters(
    table: KnobTable,
    speedups: np.ndarray,
    selection_tolerance: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized minimal-speedup plan selection over a speedup vector.

    For each commanded speedup, computes the same decision
    :meth:`~repro.core.actuator.Actuator.plan` makes under the
    minimal-speedup policy: which table setting anchors the quantum and
    what fraction of the quantum it runs (the rest going to the
    baseline).  Returns ``(setting_index, fraction)`` arrays —
    ``fraction == 1.0`` for saturated / baseline / whole-quantum plans,
    and the Eq. 9 blend ``(s - s_base) / (s_min - s_base)`` otherwise,
    with every epsilon (``1e-12`` dead bands, the tolerance divisor)
    applied on exactly the floats the scalar path uses.
    """
    speedups = np.asarray(speedups, dtype=float)
    if speedups.size and float(speedups.min()) <= 0.0:
        raise ValueError("commanded speedups must be positive")
    speeds = np.asarray([s.speedup for s in table.settings], dtype=float)
    baseline_speedup = float(speeds[0])
    s_max = float(speeds[-1])
    n_settings = speeds.shape[0]

    # Candidate s_min per command: first setting at least as fast as the
    # tolerance-discounted target (KnobTable.minimal_speedup_at_least).
    targets = speedups / (1.0 + selection_tolerance) - 1e-12
    indices = np.searchsorted(speeds, targets, side="left")
    np.minimum(indices, n_settings - 1, out=indices)

    saturated = speedups >= s_max
    at_baseline = speedups <= baseline_speedup + 1e-12
    whole = speeds[indices] <= speedups + 1e-12

    with np.errstate(divide="ignore", invalid="ignore"):
        blend = (speedups - baseline_speedup) / (speeds[indices] - baseline_speedup)
    fractions = np.where(whole, 1.0, blend)
    fractions = np.where(saturated | at_baseline, 1.0, fractions)
    indices = np.where(at_baseline, 0, indices)
    indices = np.where(saturated, n_settings - 1, indices)
    return indices, fractions


def batched_water_fill(
    weights: Sequence[float],
    floors: Sequence[float],
    ceilings: Sequence[float],
    budget_watts: float,
) -> list[float]:
    """Vectorized twin of :func:`repro.datacenter.arbiter.water_fill`.

    Bit-identical caps for finite, non-negative inputs (watts): each
    round's shares, headrooms, and takes are single elementwise IEEE
    ops, and the two scalar reductions (``total_weight``, ``granted``)
    are reproduced with strictly sequential ``np.add.accumulate`` sums
    in which closed entries contribute an exact ``+0.0`` — so the
    accumulation visits the open set in the same ascending order the
    scalar loop iterates it, adding identical values.  Round count,
    saturation epsilons, and early-exit conditions are the scalar
    code's, so tie-breaking order is inherited.
    """
    weights_arr = np.asarray(weights, dtype=float)
    caps = np.array(floors, dtype=float)
    ceilings_arr = np.asarray(ceilings, dtype=float)
    n = caps.shape[0]
    if weights_arr.shape[0] != n or ceilings_arr.shape[0] != n:
        raise ValueError("weights, floors, and ceilings must have equal length")
    # Seed the surplus with Python's own left-to-right sum over the
    # caller's sequence, exactly as the scalar implementation does.
    surplus = budget_watts - sum(floors)
    open_mask = np.ones(n, dtype=bool)
    while surplus > 1e-9 and open_mask.any():
        masked_weights = np.where(open_mask, weights_arr, 0.0)
        total_weight = float(np.add.accumulate(masked_weights)[-1]) if n else 0.0
        if total_weight <= 0.0:
            break
        # The scalar code's exact power-of-two rescale; closed entries
        # bid 0.0, so a large closed weight cannot overflow the divide.
        unit, exponent = math.frexp(total_weight)
        share = surplus * np.ldexp(masked_weights, -exponent) / unit
        headroom = ceilings_arr - caps
        take = np.where(open_mask, np.minimum(share, headroom), 0.0)
        caps += take
        granted = float(np.add.accumulate(take)[-1])
        saturated = open_mask & (headroom - take <= 1e-9)
        open_mask &= ~saturated
        surplus -= granted
        if granted <= 1e-9:
            break
    return caps.tolist()
