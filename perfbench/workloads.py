"""The benchmark's four workloads, built from a seed through the public API.

Each workload is split into an untimed ``setup`` (inputs, calibration and
the engine) and a timed ``run``; ``check`` verifies the run's outputs and
``digest`` fingerprints every simulated statistic.  The benchmark builds
its own inputs here, so a change to ``repro.bench`` or to any other helper
in ``src/`` cannot silently change a workload.

``Size`` holds the dimensions, so the benchmark's tests can run the same
code paths at a few machines; the benchmark itself only uses ``FULL``.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime, RunResult
from repro.datacenter import (
    CONSERVATION_TOLERANCE,
    DatacenterEngine,
    DatacenterResult,
    FaultPlan,
    InstanceBinding,
    LatencySLA,
    ServiceApp,
    TenantSpec,
    TrafficTrace,
    build_policy,
    poisson_trace,
    request_stream,
    service_training_jobs,
)
from repro.datacenter.journal import (
    JournalError,
    JournalWriter,
    canonical_json,
    journaled_run,
    replay,
    result_payload,
)
from repro.experiments.common import Scale, experiment_machine
from repro.experiments.datacenter import (
    TenantScenario,
    build_engine_from_config,
    scenario_config,
)
from repro.experiments.powercap import PowerCapExperiment, run_powercap
from repro.experiments.registry import built_service_system, built_system

WATTS_PER_MACHINE = 200.0
"""Fleet budget per machine for the arbitrated pools (cap floor ~183 W)."""

CONTROL_PERIOD = 10.0
"""Seconds between control barriers of the one-tenant-per-machine pools."""

FLEET_RATE = 0.4
"""Poisson request rate per tenant of ``fleet-scalar``."""

SHARD_WORKERS = 2
"""Worker processes of ``scale-sharded``: one per CPU of a 2-CPU host."""

JOURNAL_WATTS_PER_MACHINE = 210.0
"""Budget per machine of ``journal-faults`` (two tenants per machine)."""

JOURNAL_RATES = {"steady": 1.0, "diurnal": 1.5, "burst": 2.0}
"""Mean (steady) or peak (diurnal, burst) request rate per tenant kind."""

POWERCAP_SCALE = Scale.TINY
"""Scale of the ``paper-powercap`` experiment."""


@dataclass(frozen=True)
class Size:
    """Dimensions of the datacenter workloads that the tests shrink."""

    fleet_machines: int = 256
    scale_machines: int = 1024
    scale_rate: float = 0.1
    journal_machines: int = 32
    horizon: float = 120.0


FULL = Size()


@dataclass
class Prepared:
    """A set-up workload, ready for its single timed run.

    ``run`` executes the timed part and returns the outcome that
    ``check`` and ``digest`` read; ``traces`` are the generated arrival
    traces (none for the request-free powercap workload).
    ``journal_path`` is set for the journaled workload.
    """

    run: Callable[[], "Outcome"]
    traces: tuple[TrafficTrace, ...] = ()
    journal_path: str | None = None

    @property
    def arrivals(self) -> int:
        """Requests the generated traces offer."""
        return sum(trace.count for trace in self.traces)


@dataclass
class Outcome:
    """What one timed run produced."""

    result: Any
    events: int
    barrier: dict[str, Any] | None = None
    replay_seconds: float = 0.0
    replay_error: str | None = None
    journal_bytes: int = 0


def derived_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 31-bit seeds derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(value) & 0x7FFFFFFF for value in state]


def _service_engine(
    machines_count: int,
    rate: float,
    horizon: float,
    seed: int,
    policy: str,
    backend: str,
    workers: int | None,
    step_mode: str,
) -> DatacenterEngine:
    """One Poisson ServiceApp tenant per machine under ``policy``."""
    system = built_service_system()
    machines = [experiment_machine() for _ in range(machines_count)]
    target = measure_baseline_rate(
        ServiceApp, service_training_jobs()[0], machines[0]
    )

    def make_runtime(machine):
        return PowerDialRuntime(
            app=ServiceApp(),
            table=system.table,
            machine=machine,
            target_rate=target,
        )

    seeds = derived_seeds(seed, 2 * machines_count)
    bindings = []
    for index in range(machines_count):
        spec = TenantSpec(
            name=f"tenant-{index}",
            trace=poisson_trace(rate, horizon, seed=seeds[2 * index]),
            sla=LatencySLA(latency_bound=1.0, attainment_target=0.9),
            job_factory=request_stream(seed=seeds[2 * index + 1]),
        )
        bindings.append(
            InstanceBinding(
                tenant=spec,
                runtime=make_runtime(machines[index]),
                machine_index=index,
                runtime_factory=make_runtime,
            )
        )
    engine = DatacenterEngine(
        machines,
        bindings,
        policy=build_policy(
            policy, WATTS_PER_MACHINE * machines_count, machines
        ),
        control_period=CONTROL_PERIOD,
        backend=backend,
        workers=workers,
        step_mode=step_mode,
    )
    return engine


def barrier_telemetry(engine: DatacenterEngine) -> dict[str, Any]:
    """The engine's public barrier-plane telemetry after its run."""
    return {
        **engine.barrier_stats,
        "shard_busy_seconds": engine.shard_busy_seconds,
        "coordinator_busy_seconds": engine.coordinator_busy_seconds,
    }


def _engine_prepared(engine: DatacenterEngine, horizon: float) -> Prepared:
    traces = tuple(binding.tenant.trace for binding in engine.bindings)
    # Periodic control barriers, the one at time zero included; counted
    # from the scenario because backends count barriers differently.
    barriers = int(horizon // CONTROL_PERIOD) + 1

    def run() -> Outcome:
        result = engine.run()
        return Outcome(
            result, prepared.arrivals + barriers, barrier_telemetry(engine)
        )

    prepared = Prepared(run, traces)
    return prepared


def setup_fleet_scalar(seed: int, size: Size = FULL, **_: Any) -> Prepared:
    """256 machines, SLA-aware caps, scalar kernel, serial backend."""
    engine = _service_engine(
        size.fleet_machines,
        FLEET_RATE,
        size.horizon,
        seed,
        "sla-aware",
        backend="serial",
        workers=None,
        step_mode="scalar",
    )
    return _engine_prepared(engine, size.horizon)


def setup_scale_sharded(
    seed: int, size: Size = FULL, backend: str = "sharded", **_: Any
) -> Prepared:
    """1024 machines, hierarchical arbitration, batched kernel.

    ``backend="serial"`` builds the traced twin: the same inputs on the
    in-process backend, whose digest must equal the sharded one.
    """
    engine = _service_engine(
        size.scale_machines,
        size.scale_rate,
        size.horizon,
        seed,
        "hier-arbitrated",
        backend=backend,
        workers=SHARD_WORKERS if backend == "sharded" else None,
        step_mode="batched",
    )
    return _engine_prepared(engine, size.horizon)


def journal_tenants(seed: int, machines: int) -> tuple[TenantScenario, ...]:
    """Two tenants per machine; every fifth is knob-poor with weight 3."""
    kinds = ("steady", "diurnal", "burst")
    seeds = derived_seeds(seed, 2 * machines)
    tenants = []
    for index in range(2 * machines):
        kind = kinds[index % 3]
        knob_poor = index % 5 == 0
        tenants.append(
            TenantScenario(
                name=f"tenant-{index}",
                machine_index=index // 2,
                trace_kind=kind,
                rate=JOURNAL_RATES[kind],
                qos_cap=0.0 if knob_poor else None,
                weight=3.0 if knob_poor else 1.0,
                seed=seeds[index],
            )
        )
    return tuple(tenants)


def journal_fault_plan(seed: int, size: Size) -> FaultPlan:
    """The seeded gray-failure plan of ``journal-faults``."""
    return FaultPlan.generate(
        horizon=size.horizon,
        machines=size.journal_machines,
        seed=derived_seeds(seed + 1, 1)[0],
        kills=1,
        sensor_dropouts=2,
        actuator_drops=2,
        stragglers=1,
        unresponsive_after=4.0,
        reintegrate=5.0,
    )


def setup_journal_faults(
    seed: int, size: Size = FULL, workdir: str = ".", **_: Any
) -> Prepared:
    """Migrating policy under degraded mode with seeded faults, journaled.

    The timed run records the journal and then replays it; the journal
    file lives in ``workdir`` and is the caller's to remove.
    """
    tenants = journal_tenants(seed, size.journal_machines)
    budget = JOURNAL_WATTS_PER_MACHINE * size.journal_machines
    config = scenario_config(
        tenants,
        size.journal_machines,
        size.horizon,
        budget,
        "migrating",
        control_period=2.0,
        faults=journal_fault_plan(seed, size),
    )
    path = os.path.join(workdir, f"journal-{seed}-{os.getpid()}.ndjson")
    writer = JournalWriter(
        path,
        {
            "scenario": {
                "builder": "datacenter-experiment",
                "module": "repro.experiments.datacenter",
                "config": config,
            },
            "backend": "serial",
            "workers": None,
            "initial_budget_watts": budget,
        },
    )
    engine = build_engine_from_config(config, journal=writer)
    traces = tuple(binding.tenant.trace for binding in engine.bindings)

    def run() -> Outcome:
        try:
            result = journaled_run(engine, writer)
        finally:
            writer.close()
        # The replay processes the recorded events a second time.
        events = 2 * (prepared.arrivals + engine.barrier_stats["barriers"])
        outcome = Outcome(
            result,
            events,
            barrier_telemetry(engine),
            journal_bytes=os.path.getsize(path),
        )
        started = time.perf_counter()
        try:
            replay(path)
        except JournalError as error:
            outcome.replay_error = str(error)
        outcome.replay_seconds = time.perf_counter() - started
        return outcome

    prepared = Prepared(run, traces, journal_path=path)
    return prepared


def setup_paper_powercap(seed: int, **_: Any) -> Prepared:
    """The paper's Fig. 7 power-cap response for x264.

    The inputs are the registry's fixed synthetic video, so ``seed`` does
    not change them; set-up is the x264 calibration.
    """
    built_system("x264", POWERCAP_SCALE)

    def run() -> Outcome:
        experiment = run_powercap("x264", POWERCAP_SCALE)
        beats = sum(len(run.samples) for run in _powercap_runs(experiment))
        return Outcome(experiment, beats)

    return Prepared(run)


SETUPS: dict[str, Callable[..., Prepared]] = {
    "fleet-scalar": setup_fleet_scalar,
    "scale-sharded": setup_scale_sharded,
    "journal-faults": setup_journal_faults,
    "paper-powercap": setup_paper_powercap,
}
"""Workload name -> set-up function."""

SEEDED = ("fleet-scalar", "scale-sharded", "journal-faults")
"""Workloads whose inputs the seed derives."""


def _powercap_runs(experiment: PowerCapExperiment) -> tuple[RunResult, ...]:
    return (experiment.knobs, experiment.no_knobs, experiment.baseline)


def _hex(value: float | None) -> str:
    return "none" if value is None else float(value).hex()


def _run_record(run: RunResult) -> list[Any]:
    """Every sample of one powercap run, floats as exact hex."""
    return [
        _hex(run.energy_joules),
        _hex(run.elapsed),
        [
            [
                sample.beat,
                _hex(sample.time),
                _hex(sample.window_rate),
                _hex(sample.knob_gain),
                _hex(sample.commanded_speedup),
                _hex(sample.frequency_ghz),
            ]
            for sample in run.samples
        ],
    ]


def digest(outcome: Outcome) -> str:
    """SHA-256 of the canonical payload of the run's result."""
    result = outcome.result
    if isinstance(result, DatacenterResult):
        payload: Any = result_payload(result)
    else:
        payload = [_run_record(run) for run in _powercap_runs(result)]
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def check(prepared: Prepared, outcome: Outcome) -> list[str]:
    """Every output check the run fails, as readable messages."""
    failures = []
    result = outcome.result
    if isinstance(result, DatacenterResult):
        error = result.energy_conservation_rel_error()
        if not error <= CONSERVATION_TOLERANCE:
            failures.append(
                f"billing conservation error {error!r} exceeds "
                f"{CONSERVATION_TOLERANCE!r}"
            )
        offered = sum(report.offered for report in result.tenant_reports)
        if offered != prepared.arrivals:
            failures.append(
                f"{offered} requests offered but the traces hold "
                f"{prepared.arrivals}"
            )
    else:
        for run in _powercap_runs(result):
            if not run.samples or not math.isfinite(run.energy_joules):
                failures.append("a powercap run has no samples or energy")
        beats = {len(run.samples) for run in _powercap_runs(result)}
        if len(beats) != 1:
            failures.append(f"powercap runs beat different counts {beats}")
    if outcome.replay_error is not None:
        failures.append(f"replay failed: {outcome.replay_error}")
    return failures
