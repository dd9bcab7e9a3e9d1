"""The PowerDial runtime: controlled execution of a knobbed application.

Wires together the pieces of Figure 2: the application (emitting
heartbeats into a :class:`~repro.heartbeats.api.HeartbeatMonitor`), the
integral :class:`~repro.core.controller.HeartRateController`, and the
:class:`~repro.core.actuator.Actuator`, all running on a simulated
:class:`~repro.hardware.machine.Machine`.

Every ``quantum_beats`` heartbeats the controller observes the windowed
heart rate and commands a speedup; the actuator converts it into a plan of
knob settings (and, under race-to-idle, idle time) for the next quantum.
Settings are applied by *poking recorded control-variable values into the
application's address space* — the application is never told its knobs
moved; its main loop simply reads different values, exactly the paper's
mechanism.

The runtime is resumable: :meth:`PowerDialRuntime.begin` arms a run,
:meth:`PowerDialRuntime.step` advances it one control quantum at a time,
and :meth:`PowerDialRuntime.finish` collects the :class:`RunResult`.
:meth:`PowerDialRuntime.run` is a thin loop over ``step`` and keeps the
original one-shot semantics.  Between steps a host may feed new jobs
(:meth:`PowerDialRuntime.feed`), inject events
(:meth:`PowerDialRuntime.inject`), or run *other* instances on the same
machine — which is how :mod:`repro.datacenter` cooperatively schedules
many live PowerDial instances on shared hardware.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from repro.apps.base import Application, WorkTracker
from repro.core.actuator import ActuationPolicy, Actuator, ActuationPlan
from repro.core.controller import HeartRateController
from repro.core.knobs import KnobSetting, KnobTable
from repro.heartbeats.api import HeartbeatMonitor, HeartbeatWindowState
from repro.hardware.machine import Machine
from repro.hardware.power import PowerError
from repro.tracing.variables import AddressSpace

__all__ = [
    "RuntimeEvent",
    "RuntimeSample",
    "SampleColumns",
    "RunResult",
    "RuntimeSnapshot",
    "StepStatus",
    "PowerDialRuntime",
]


@dataclass(frozen=True)
class RuntimeEvent:
    """An external event injected during a controlled run.

    Attributes:
        at_beat: Dispatch when the heartbeat count reaches this value.
        action: Callback receiving the machine (e.g. impose a power cap by
            dropping its frequency).
        label: Event name for the sample log.
    """

    at_beat: int
    action: Callable[[Machine], None]
    label: str = "event"


class StepStatus(enum.Enum):
    """What one :meth:`PowerDialRuntime.step` call accomplished.

    ``RAN`` — the runtime advanced through (about) one control quantum,
    closing the loop at the boundary.  ``STARVED`` — the job queue is
    empty but input is still open; the clock did not move, and the host
    should feed work or idle the machine.  ``FINISHED`` — input is closed
    and every job has been processed; :meth:`PowerDialRuntime.finish` may
    now be called.
    """

    RAN = "ran"
    STARVED = "starved"
    FINISHED = "finished"


@dataclass(frozen=True)
class _PendingJob:
    """A queued job, its submitter's completion callback, and its tag."""

    job: Any
    on_complete: Callable[[float], None] | None = None
    tag: Any = None


@dataclass(frozen=True)
class RuntimeSample:
    """One per-heartbeat observation of the controlled system.

    Attributes:
        beat: Heartbeat sequence number.
        time: Virtual timestamp of the beat.
        window_rate: Sliding-window heart rate (None before first interval).
        normalized_performance: ``window_rate / target`` — the Figure 7
            y-axis ("sliding mean of the last twenty times between
            heartbeats normalized to the target heart rate").
        knob_gain: Instantaneous speedup of the active knob setting — the
            Figure 7 "Knob Gain" series.
        commanded_speedup: The controller's current output ``s(t)``.
        frequency_ghz: Machine frequency when the beat was emitted.
    """

    beat: int
    time: float
    window_rate: float | None
    normalized_performance: float | None
    knob_gain: float
    commanded_speedup: float
    frequency_ghz: float


@dataclass
class SampleColumns:
    """A run's per-heartbeat observations, one list per field.

    Entry ``i`` of every list belongs to the ``i``-th beat: the first
    seven lists are the fields of :class:`RuntimeSample`, and
    ``setting`` holds the knob setting active at that beat.  The runtime
    appends to these lists instead of building one object per beat, and
    in-run consumers (billing, the segment merge, the journal's sample
    digest) read them directly.
    """

    beat: list[int] = field(default_factory=list)
    time: list[float] = field(default_factory=list)
    window_rate: list[float | None] = field(default_factory=list)
    normalized_performance: list[float | None] = field(default_factory=list)
    knob_gain: list[float] = field(default_factory=list)
    commanded_speedup: list[float] = field(default_factory=list)
    frequency_ghz: list[float] = field(default_factory=list)
    setting: list[KnobSetting] = field(default_factory=list)

    def extend(self, other: "SampleColumns") -> None:
        """Append every beat of ``other`` after this run's beats."""
        for name, column in vars(other).items():
            getattr(self, name).extend(column)

    def samples(self) -> list[RuntimeSample]:
        """The beats as :class:`RuntimeSample` records, in order."""
        return [
            RuntimeSample(*fields)
            for fields in zip(
                self.beat,
                self.time,
                self.window_rate,
                self.normalized_performance,
                self.knob_gain,
                self.commanded_speedup,
                self.frequency_ghz,
            )
        ]


@dataclass
class RunResult:
    """Everything observed during one controlled run.

    Attributes:
        columns: Per-heartbeat observations and settings, column-wise.
        outputs_by_job: Main-loop outputs, grouped per input job.
        mean_power: Mean of the machine's 1 Hz power samples (None if the
            run was shorter than one sampling interval).
        energy_joules: Exact integrated energy of the run.
        elapsed: Virtual seconds from first to last beat.
    """

    columns: SampleColumns
    outputs_by_job: list[list[Any]]
    mean_power: float | None
    energy_joules: float
    elapsed: float

    @cached_property
    def samples(self) -> list[RuntimeSample]:
        """Per-heartbeat observations, built from the columns once."""
        return self.columns.samples()

    @property
    def settings_used(self) -> list[KnobSetting]:
        """The knob setting active at each heartbeat."""
        return self.columns.setting

    def __getstate__(self) -> dict[str, Any]:
        # The built samples are a cache of the columns; never ship them.
        state = dict(vars(self))
        state.pop("samples", None)
        return state

    def performance_series(self) -> list[tuple[float, float]]:
        """(time, normalized performance) pairs where defined."""
        columns = self.columns
        return [
            (time, performance)
            for time, performance in zip(
                columns.time, columns.normalized_performance
            )
            if performance is not None
        ]

    def gain_series(self) -> list[tuple[float, float]]:
        """(time, knob gain) pairs."""
        return list(zip(self.columns.time, self.columns.knob_gain))

    def mean_normalized_performance(self, skip: int = 0) -> float:
        """Mean normalized performance over samples after ``skip`` beats."""
        values = [
            value
            for value in self.columns.normalized_performance[skip:]
            if value is not None
        ]
        if not values:
            raise ValueError("no performance samples available")
        return sum(values) / len(values)


@dataclass(frozen=True)
class RuntimeSnapshot:
    """A runtime's warm control state, detached for live migration.

    Captured with :meth:`PowerDialRuntime.snapshot` and replayed into a
    freshly armed runtime with :meth:`PowerDialRuntime.restore`: the
    controller's integrator, the actuation-plan cache key, the
    heartbeat rate window, and the position inside the current control
    quantum.  Pending jobs, emitted samples, and machine state are
    deliberately *not* here — hosts move jobs explicitly and samples
    stay with the host that produced them.  Plain data (floats, tuples)
    so it pickles across process boundaries.

    Attributes:
        controller_state: Opaque payload from the controller's
            ``export_state()`` (for the paper's integral controller:
            ``(s(t), e(t))``).
        plan_speedup: Key of the cached actuation plan (the last
            commanded speedup), or None if no plan was ever built.
        window: The heartbeat monitor's sliding-window state.
        beats_in_quantum: Beats emitted inside the current quantum.
        quantum_start: Source-clock time the current quantum started.
        taken_at: Source-clock time the snapshot was taken, so
            :meth:`PowerDialRuntime.restore` can re-anchor
            ``quantum_start`` on a clock at a different reading.
    """

    controller_state: Any
    plan_speedup: float | None
    window: HeartbeatWindowState
    beats_in_quantum: int
    quantum_start: float
    taken_at: float


class PowerDialRuntime:
    """Runs an application under PowerDial control on a simulated machine.

    Args:
        app: The application instance.
        table: Calibrated knob table (with recorded control values).
        machine: The machine to execute on.
        target_rate: Target heart rate ``g``.  The paper sets both min and
            max target to the baseline rate measured at the default
            configuration on the uncapped platform.
        baseline_rate: The model gain ``b`` (heart rate at the default
            knobs on the reference platform); defaults to ``target_rate``.
        policy: Actuation policy (minimal-speedup or race-to-idle).
        quantum_beats: Heartbeats per control quantum (paper: 20).
        window_size: Heartbeat window for rate measurement (paper: 20).
        controller: Optional replacement decision mechanism -- any object
            satisfying the :class:`~repro.control.alternatives.
            SpeedupController` protocol (``update``/``reset``/``speedup``).
            Defaults to the paper's integral controller; passing e.g. a
            PID or heuristic controller reruns the same scenario under a
            related-work policy (the controller ablation, on the real
            application instead of the plant model).
    """

    def __init__(
        self,
        app: Application,
        table: KnobTable,
        machine: Machine,
        target_rate: float,
        baseline_rate: float | None = None,
        policy: ActuationPolicy = ActuationPolicy.MINIMAL_SPEEDUP,
        quantum_beats: int = 20,
        window_size: int = 20,
        controller: Any | None = None,
    ) -> None:
        self.app = app
        self.table = table
        self.machine = machine
        self.target_rate = float(target_rate)
        self.baseline_rate = float(baseline_rate or target_rate)
        self.monitor = HeartbeatMonitor(
            machine.clock,
            window_size=window_size,
            min_target_rate=target_rate,
            max_target_rate=target_rate,
        )
        # Under race-to-idle the controller may command sub-baseline average
        # speedups — the slack becomes idle time.  Under the other policies
        # the baseline (highest-QoS) setting is the floor.
        min_speedup = 0.05 if policy is ActuationPolicy.RACE_TO_IDLE else 1.0
        if controller is None:
            controller = HeartRateController(
                target_rate=self.target_rate,
                baseline_rate=self.baseline_rate,
                min_speedup=min_speedup,
                max_speedup=table.max_speedup,
            )
        self.controller = controller
        self.actuator = Actuator(
            table,
            policy=policy,
            quantum_beats=quantum_beats,
            selection_tolerance=0.02,
        )
        self.space = AddressSpace(log_accesses=False)
        # Plans depend only on the (immutable) table, policy, and the
        # commanded speedup, so the last plan is reused whenever the
        # controller's output is unchanged — the common steady-state case.
        self._plan_cache: tuple[float, ActuationPlan] | None = None
        self._current_setting: KnobSetting | None = None
        self._job_queue: deque[_PendingJob] = deque()
        self._event_heap: list[tuple[int, int, RuntimeEvent]] = []
        self._event_seq = 0
        self._input_closed = False
        self._stepper: Any = None
        self._result: RunResult | None = None
        # (beats_in_quantum, quantum_start): the run loop's position in
        # the current control quantum, mirrored here at every yield so
        # snapshot() can read it while the generator is suspended.
        self._phase: tuple[int, float] = (0, machine.now)
        self._restored_phase: tuple[int, float] | None = None

    # ------------------------------------------------------------------
    def _apply_setting(self, setting: KnobSetting) -> None:
        """Poke the setting's recorded control-variable values."""
        if self._current_setting is setting:
            return
        for name, value in setting.control_values.items():
            self.space.poke(name, value)
        self._current_setting = setting

    def _plan_for(self, speedup: float) -> ActuationPlan:
        """The actuation plan for ``speedup``, cached across quanta.

        In steady state the integral controller repeats the same command
        for quantum after quantum; rebuilding the identical plan (table
        search + plan validation) was the hottest part of the replan path.
        """
        cached = self._plan_cache
        if cached is not None and cached[0] == speedup:
            return cached[1]
        plan = self.actuator.plan(speedup)
        self._plan_cache = (speedup, plan)
        return plan

    def _replan(self, beats_in_quantum: int, quantum_elapsed: float) -> ActuationPlan:
        """Controller + actuator step at a quantum boundary.

        The controller samples the heart rate over the quantum that just
        elapsed (beats emitted / wall time).  Under uniform beating this is
        exactly the 20-beat window rate; unlike the raw beat-interval
        window it also accounts for idle tails, which otherwise alias the
        measurement after a race-to-idle burst.
        """
        if quantum_elapsed > 0.0:
            rate = beats_in_quantum / quantum_elapsed
        else:
            rate = self.monitor.window_rate() or self.target_rate
        speedup = self.controller.update(rate)
        return self._plan_for(speedup)

    # ------------------------------------------------------------------
    # Resumable execution API
    # ------------------------------------------------------------------
    def begin(
        self,
        jobs: Sequence[Any] = (),
        events: Sequence[RuntimeEvent] = (),
    ) -> None:
        """Arm a new controlled run without executing anything yet.

        Resets the application, monitor, and controller; queues ``jobs``
        and ``events``.  Further jobs may be supplied with :meth:`feed`
        until :meth:`close_input` is called, and events injected with
        :meth:`inject` at any point while the run is live.
        """
        app = self.app
        app.reset()
        self.monitor.reset()
        self.controller.reset()
        self.space = AddressSpace(log_accesses=False)
        app.initialize(self.table.baseline.configuration.as_dict(), self.space)
        self._current_setting = None
        self._apply_setting(self.table.baseline)
        self._job_queue = deque(_PendingJob(job) for job in jobs)
        self._event_heap = []
        self._event_seq = 0
        self._input_closed = False
        self._result = None
        self._phase = (0, self.machine.now)
        self._restored_phase = None
        self._stepper = self._stepping()
        for event in events:
            self.inject(event)

    def feed(
        self,
        job: Any,
        on_complete: Callable[[float], None] | None = None,
        tag: Any = None,
    ) -> None:
        """Queue one more job on a live run.

        ``on_complete`` (if given) is called with the machine's virtual
        time when the job's last item has been processed — the completion
        hook request-driven hosts use to measure per-job latency.
        ``tag`` is opaque host data returned by :meth:`extract_pending`
        so a host relocating the instance can reconstruct per-job
        context (callbacks are closures and cannot move; tags can).
        """
        if self._stepper is None:
            raise RuntimeError("begin() must be called before feed()")
        if self._input_closed:
            raise RuntimeError("cannot feed jobs after close_input()")
        self._job_queue.append(_PendingJob(job, on_complete, tag))

    def extract_pending(self) -> list[tuple[Any, Any]]:
        """Remove and return queued-but-unstarted jobs as (job, tag).

        The job in service (if any) is not affected — after extraction
        the host can ``close_input()`` and drain ``step()`` to finish
        in-flight work, then re-feed the extracted jobs elsewhere.  The
        completion callbacks are dropped (they are closures over
        host-side state); the host rebuilds them from the tags it
        supplied to :meth:`feed`.
        """
        if self._stepper is None:
            raise RuntimeError("begin() must be called before extract_pending()")
        extracted = [(pending.job, pending.tag) for pending in self._job_queue]
        self._job_queue.clear()
        return extracted

    def peek_pending(self) -> list[tuple[Any, Any]]:
        """Return queued-but-unstarted jobs as (job, tag), without removal.

        The observational sibling of :meth:`extract_pending`: hosts that
        checkpoint a live instance (the datacenter's crash-recovery
        journal) record the tags so the queue can be rebuilt elsewhere,
        while this runtime keeps serving undisturbed.
        """
        if self._stepper is None:
            raise RuntimeError("begin() must be called before peek_pending()")
        return [(pending.job, pending.tag) for pending in self._job_queue]

    def close_input(self) -> None:
        """Declare the job stream complete; step() drains what remains."""
        self._input_closed = True

    def inject(self, event: RuntimeEvent) -> None:
        """Schedule an event on a live run (dispatched by beat count).

        Events whose ``at_beat`` is already in the past fire before the
        next processed item, matching the dispatch rule of :meth:`run`.
        """
        if self._stepper is None:
            raise RuntimeError("begin() must be called before inject()")
        heapq.heappush(
            self._event_heap, (event.at_beat, self._event_seq, event)
        )
        self._event_seq += 1

    @property
    def pending_jobs(self) -> int:
        """Jobs queued but not yet started (admission-control signal)."""
        return len(self._job_queue)

    @property
    def finished(self) -> bool:
        """True once the run has drained and the result is available."""
        return self._result is not None

    def step(self) -> StepStatus:
        """Advance the run by (about) one control quantum.

        Returns :data:`StepStatus.RAN` after crossing a quantum boundary,
        :data:`StepStatus.STARVED` when the queue is empty but input is
        still open (the clock does not move), and
        :data:`StepStatus.FINISHED` once everything has been processed.
        """
        if self._stepper is None:
            raise RuntimeError("begin() must be called before step()")
        try:
            return next(self._stepper)
        except StopIteration:
            return StepStatus.FINISHED

    def finish(self) -> RunResult:
        """Return the completed run's :class:`RunResult`."""
        if self._result is None:
            raise RuntimeError(
                "run not finished — drain step() until FINISHED first"
            )
        return self._result

    # ------------------------------------------------------------------
    # Warm handoff (live migration)
    # ------------------------------------------------------------------
    def snapshot(self) -> RuntimeSnapshot:
        """Capture the warm control state of a begun (or finished) run.

        Callable between ``step()`` calls or after the run drained:
        returns the controller's integrator state, the actuation-plan
        cache key, the heartbeat window, and the quantum phase as a
        plain-data :class:`RuntimeSnapshot`.  A host migrating this
        instance ships the snapshot (with the extracted pending jobs)
        and replays it into the destination runtime via
        :meth:`restore`, so the destination resumes at the learned
        operating point instead of re-converging from the baseline.
        """
        if self._stepper is None:
            raise RuntimeError("begin() must be called before snapshot()")
        export = getattr(self.controller, "export_state", None)
        if export is None:
            raise RuntimeError(
                f"controller {self.controller!r} does not support warm "
                "snapshots (missing export_state())"
            )
        beats_in_quantum, quantum_start = self._phase
        cached = self._plan_cache
        return RuntimeSnapshot(
            controller_state=export(),
            plan_speedup=None if cached is None else cached[0],
            window=self.monitor.export_window(),
            beats_in_quantum=beats_in_quantum,
            quantum_start=quantum_start,
            taken_at=self.machine.now,
        )

    def restore(self, snapshot: RuntimeSnapshot) -> None:
        """Replay a :class:`RuntimeSnapshot` into a freshly begun run.

        Must be called after :meth:`begin` and before the first beat:
        the controller integrator is restored, the actuation-plan cache
        is pre-warmed, the heartbeat window resumes where the source
        left off, and the run loop continues the source's control
        quantum in place (``quantum_start`` is re-anchored when this
        machine's clock reads differently from the snapshot's source).
        The next control decision therefore starts from the source's
        operating point — no cold-start transient.
        """
        if self._stepper is None:
            raise RuntimeError("begin() must be called before restore()")
        if self.monitor.count:
            raise RuntimeError(
                "restore() requires a fresh run (beats already emitted)"
            )
        restore_state = getattr(self.controller, "restore_state", None)
        if restore_state is None:
            raise RuntimeError(
                f"controller {self.controller!r} does not support warm "
                "snapshots (missing restore_state())"
            )
        restore_state(snapshot.controller_state)
        if snapshot.plan_speedup is not None:
            self._plan_for(snapshot.plan_speedup)
        self.monitor.restore_window(snapshot.window)
        now = self.machine.now
        if now == snapshot.taken_at:
            quantum_start = snapshot.quantum_start
        else:
            quantum_start = now - (snapshot.taken_at - snapshot.quantum_start)
        self._restored_phase = (snapshot.beats_in_quantum, quantum_start)
        # Mirror immediately: a snapshot() taken before the first step
        # (an instant re-migration) must ship the carried phase, not
        # the fresh-run zero that begin() left behind.
        self._phase = self._restored_phase

    def _stepping(self):
        """The run loop as a generator, yielding at quantum boundaries."""
        app, machine, monitor = self.app, self.machine, self.monitor
        clock, processor, space = machine.clock, machine.processor, self.space
        queue, events = self._job_queue, self._event_heap
        target_rate = self.target_rate
        # "We heuristically establish the time quantum as the time required
        # to process twenty heartbeats" — at the target rate, so it is a
        # fixed time window of quantum_beats / g seconds.
        quantum_duration = self.actuator.quantum_beats / target_rate
        plan = self._plan_for(self.controller.speedup)
        quantum_start = clock.now
        beats_in_quantum = 0

        # Only the per-item work totals are read, so keep no event log.
        tracker = WorkTracker(keep_events=False)
        columns = SampleColumns()
        add_beat = columns.beat.append
        add_time = columns.time.append
        add_rate = columns.window_rate.append
        add_performance = columns.normalized_performance.append
        add_gain = columns.knob_gain.append
        add_commanded = columns.commanded_speedup.append
        add_frequency = columns.frequency_ghz.append
        add_setting = columns.setting.append
        outputs_by_job: list[list[Any]] = []
        first_beat_time: float | None = None
        threads = app.threads()
        # The commanded speedup and the P-state change only in _replan,
        # while the generator is suspended (a cap, a restore()), or in
        # code it calls out to (an event, a completion hook), so they
        # are read after each of those rather than once per beat.

        def in_force() -> tuple[float, float]:
            return self.controller.speedup, processor.frequency_ghz

        commanded, frequency = in_force()

        while True:
            if self._restored_phase is not None:
                # Warm handoff: continue the source runtime's quantum in
                # place instead of opening a fresh one (see restore()).
                # Read here, not once at start, so a restore() after a
                # starved, beat-less first step() lands too, with the
                # plan for the restored command.
                beats_in_quantum, quantum_start = self._restored_phase
                self._restored_phase = None
                plan = self._plan_for(self.controller.speedup)
            if not queue:
                if self._input_closed:
                    break
                stalled_at = clock.now
                self._phase = (beats_in_quantum, quantum_start)
                yield StepStatus.STARVED
                commanded, frequency = in_force()
                if clock.now > stalled_at:
                    # The host idled the machine (or ran co-tenants) while
                    # we were starved; restart the quantum so the gap is
                    # not billed to this instance as slowness.
                    quantum_start = clock.now
                    beats_in_quantum = 0
                continue
            pending_job = queue.popleft()
            outputs: list[Any] = []
            for item in app.prepare(pending_job.job):
                # External events (power caps, load changes).
                while events and events[0][0] <= monitor.count:
                    heapq.heappop(events)[2].action(machine)
                    commanded, frequency = in_force()

                # Quantum boundary: close the loop, then yield the machine.
                now = clock.now
                if now - quantum_start >= quantum_duration:
                    plan = self._replan(beats_in_quantum, now - quantum_start)
                    quantum_start = now
                    beats_in_quantum = 0
                    self._phase = (beats_in_quantum, quantum_start)
                    yield StepStatus.RAN
                    commanded, frequency = in_force()
                    now = clock.now

                # Locate ourselves inside the quantum and pick the setting.
                fraction = (now - quantum_start) / quantum_duration
                fraction = min(max(fraction, 0.0), 1.0 - 1e-9)
                setting = plan.setting_at(fraction)
                if setting is None:
                    # Race-to-idle tail: idle out the quantum, then replan.
                    machine.idle_until(quantum_start + quantum_duration)
                    plan = self._replan(
                        beats_in_quantum, clock.now - quantum_start
                    )
                    quantum_start = clock.now
                    beats_in_quantum = 0
                    self._phase = (beats_in_quantum, quantum_start)
                    yield StepStatus.RAN
                    commanded, frequency = in_force()
                    setting = plan.setting_at(0.0)
                    if setting is None:  # pragma: no cover - plans run first
                        setting = self.table.fastest
                self._apply_setting(setting)

                sequence, timestamp, _ = monitor.heartbeat()
                if first_beat_time is None:
                    first_beat_time = timestamp
                    space.mark_first_heartbeat()

                result = app.process_item(item, space, tracker)
                machine.execute(result.work, threads=threads)
                outputs.append(result.output)
                beats_in_quantum += 1

                window_rate = monitor.window_rate()
                add_beat(sequence)
                add_time(timestamp)
                add_rate(window_rate)
                add_performance(
                    None if window_rate is None else window_rate / target_rate
                )
                add_gain(setting.speedup)
                add_commanded(commanded)
                add_frequency(frequency)
                add_setting(setting)
            outputs_by_job.append(outputs)
            if pending_job.on_complete is not None:
                pending_job.on_complete(clock.now)
                commanded, frequency = in_force()

        self._phase = (beats_in_quantum, quantum_start)
        elapsed = 0.0
        if first_beat_time is not None:
            elapsed = clock.now - first_beat_time
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

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[Any],
        events: Sequence[RuntimeEvent] = (),
    ) -> RunResult:
        """Run ``jobs`` to completion under dynamic-knob control.

        A thin loop over the resumable API: ``begin``, drain ``step``,
        ``finish``.
        """
        self.begin(jobs, events)
        self.close_input()
        while self.step() is not StepStatus.FINISHED:
            pass
        return self.finish()
