"""Experiment E-DC: multi-tenant serving under a global power budget.

The scenario the paper's §5.4 (power capping) and §5.5 (consolidation)
point at but never run: several live PowerDial instances, mixed traffic
shapes, one facility power budget.  The experiment executes the *same*
tenant mix — identical arrival traces, identical request contents —
twice through the event-driven engine:

* **static-equal** — the budget split evenly across machines, the
  baseline of a cluster without runtime knowledge;
* the chosen ``--policy`` — **sla-aware** (the hierarchical arbiter
  reallocating watts each period toward machines whose tenants are
  missing their latency SLAs; the default), **migrating** (SLA-aware
  caps plus cold instance migration off cap-ceiling-saturated
  machines), or **consolidating** (SLA-aware caps plus warm
  pack/spread placement: demand troughs pack tenants onto fewer
  machines with live migrations and park the emptied machines at
  their cap floor; returning load spreads them back out).

Either side can additionally run under a ``--budget-trace`` — a
timestamped schedule of fleet-wide budget levels (the §5.4 cap event
fleet-wide), applied identically to both runs.

The default mix stresses the interesting asymmetry: machine 0 hosts two
light, accuracy-tolerant tenants (a diurnal search front-end and a
bursty analytics stream) whose dynamic knobs absorb whatever frequency
they are given, while machine 1 hosts a heavily loaded *knob-poor*
billing tenant (exact service — baseline setting only) that can only be
helped with power, next to an accuracy-tolerant reports tenant.  The
SLA-aware arbiter finds that structure at runtime through the SLA
signal alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter.controlplane import (
    BudgetSchedule,
    ChaosPolicy,
    ControlError,
    DegradedModePolicy,
    build_policy,
)
from repro.datacenter.engine import (
    DatacenterEngine,
    DatacenterResult,
    InstanceBinding,
)
from repro.datacenter.faults import FaultPlan
from repro.datacenter.journal import (
    CODEC_VERSION,
    JournalWriter,
    encode_bill,
    journaled_run,
    register_scenario_builder,
)
from repro.datacenter.service import ServiceApp, request_stream, service_training_jobs
from repro.datacenter.tenants import LatencySLA, TenantSpec
from repro.datacenter.traffic import (
    TrafficTrace,
    burst_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.experiments.common import Scale, experiment_machine, format_table
from repro.experiments.registry import built_service_system

__all__ = [
    "TenantScenario",
    "DatacenterExperiment",
    "default_tenant_mix",
    "build_engine",
    "build_engine_from_config",
    "scenario_config",
    "run_datacenter",
    "format_datacenter",
    "billing_payload",
    "format_datacenter_bills",
    "replay_billing_payload",
    "format_replay",
    "format_replay_bills",
]

DEFAULT_BUDGET_WATTS = 420.0
"""Default facility budget for two machines (floor ≈ 366 W, peak 440 W)."""


@dataclass(frozen=True)
class TenantScenario:
    """Declarative description of one tenant in a scenario.

    Attributes:
        name: Tenant identifier.
        machine_index: Placement in the machine pool.
        trace_kind: ``steady`` (Poisson), ``diurnal``, or ``burst``.
        rate: Mean rate for ``steady``; peak rate for the other shapes.
        qos_cap: Accuracy tolerance (None = full knob table; 0.0 =
            knob-poor exact service).
        latency_bound: SLA latency bound in seconds.
        attainment_target: Required fraction within the bound.
        weight: Arbitration priority.
        seed: Trace and request-content seed.
    """

    name: str
    machine_index: int
    trace_kind: str
    rate: float
    qos_cap: float | None = None
    latency_bound: float = 1.0
    attainment_target: float = 0.9
    weight: float = 1.0
    seed: int = 0

    def trace(self, horizon: float) -> TrafficTrace:
        """Materialize this tenant's arrival trace over ``horizon``."""
        if self.trace_kind == "steady":
            return poisson_trace(
                self.rate, horizon, seed=self.seed, name="steady"
            )
        if self.trace_kind == "diurnal":
            return diurnal_trace(
                self.rate, horizon, period=90.0, seed=self.seed
            )
        if self.trace_kind == "burst":
            return burst_trace(
                0.15 * self.rate, self.rate, horizon, seed=self.seed
            )
        raise ValueError(f"unknown trace kind {self.trace_kind!r}")


def default_tenant_mix() -> tuple[TenantScenario, ...]:
    """The four-tenant, two-machine mix described in the module doc."""
    return (
        TenantScenario(
            "search", 0, "diurnal", rate=1.5, qos_cap=None, seed=1
        ),
        TenantScenario(
            "analytics", 0, "burst", rate=2.0, qos_cap=None, seed=2
        ),
        TenantScenario(
            "billing", 1, "steady", rate=2.8, qos_cap=0.0, weight=3.0, seed=3
        ),
        TenantScenario(
            "reports", 1, "steady", rate=1.0, qos_cap=None, seed=4
        ),
    )


def build_engine(
    tenants: tuple[TenantScenario, ...],
    machines_count: int,
    horizon: float,
    budget_watts: float | None,
    policy: str,
    control_period: float = 10.0,
    attainment_window: float = 20.0,
    backend: str = "serial",
    workers: int | None = None,
    budget_trace: BudgetSchedule | None = None,
    journal: JournalWriter | None = None,
    chaos_kills: int = 0,
    chaos_seed: int = 0,
    faults: FaultPlan | None = None,
) -> DatacenterEngine:
    """Assemble machines, instances, and control policy for one run.

    ``policy`` is a :data:`~repro.datacenter.controlplane.policy.
    POLICY_NAMES` name; ``budget_trace`` (if given) drives the global
    budget through the scheduled watt levels.  Every binding carries a
    ``runtime_factory`` so the ``migrating`` policy can rebuild
    instances on their destination machines.  ``journal`` attaches a
    :class:`~repro.datacenter.journal.writer.JournalWriter` to the
    engine; ``chaos_kills`` > 0 wraps the policy in a
    :class:`~repro.datacenter.controlplane.policy.ChaosPolicy` that
    kills that many machines at ``chaos_seed``-derived barriers.

    ``faults`` attaches a :class:`~repro.datacenter.faults.FaultPlan`
    to the engine (gray-failure injection): its kill schedule is
    applied through a :class:`~repro.datacenter.controlplane.policy.
    ChaosPolicy` wrapper, and the whole policy stack is wrapped in a
    :class:`~repro.datacenter.controlplane.policy.DegradedModePolicy`
    so control degrades gracefully (hold stale, quarantine
    unresponsive, reintegrate with hysteresis) instead of acting on
    faulted observations.
    """
    system = built_service_system()
    machines = [experiment_machine() for _ in range(machines_count)]
    target = measure_baseline_rate(
        ServiceApp, service_training_jobs()[0], machines[0]
    )
    bindings = []
    for index, tenant in enumerate(tenants):
        table = (
            system.table
            if tenant.qos_cap is None
            else system.table.with_qos_cap(tenant.qos_cap)
        )

        def make_runtime(machine, table=table):
            return PowerDialRuntime(
                app=ServiceApp(),
                table=table,
                machine=machine,
                target_rate=target,
            )

        spec = TenantSpec(
            name=tenant.name,
            trace=tenant.trace(horizon),
            sla=LatencySLA(tenant.latency_bound, tenant.attainment_target),
            job_factory=request_stream(seed=100 + index),
            qos_cap=tenant.qos_cap,
            weight=tenant.weight,
        )
        bindings.append(
            InstanceBinding(
                tenant=spec,
                runtime=make_runtime(machines[tenant.machine_index]),
                machine_index=tenant.machine_index,
                runtime_factory=make_runtime,
            )
        )
    control_policy = None
    if budget_watts is not None:
        control_policy = build_policy(
            policy, budget_watts, machines, schedule=budget_trace
        )
    if chaos_kills > 0:
        if control_policy is None:
            raise ControlError(
                "chaos injection requires a control policy: "
                "pass a budget so a policy exists to wrap"
            )
        control_policy = ChaosPolicy(
            control_policy, kills=chaos_kills, seed=chaos_seed
        )
    if faults is not None:
        if control_policy is None:
            raise ControlError(
                "fault injection requires a control policy: "
                "pass a budget so a policy exists to wrap"
            )
        if faults.kills:
            control_policy = ChaosPolicy(
                control_policy,
                seed=faults.seed,
                kill_times=faults.kills,
            )
        control_policy = DegradedModePolicy(control_policy)
    return DatacenterEngine(
        machines,
        bindings,
        policy=control_policy,
        control_period=control_period,
        attainment_window=attainment_window,
        backend=backend,
        workers=workers,
        journal=journal,
        faults=faults,
    )


def scenario_config(
    tenants: tuple[TenantScenario, ...],
    machines: int,
    horizon: float,
    budget_watts: float,
    policy: str,
    control_period: float = 10.0,
    attainment_window: float = 20.0,
    budget_trace: BudgetSchedule | None = None,
    chaos: Mapping[str, int] | None = None,
    faults: FaultPlan | None = None,
) -> dict[str, Any]:
    """The plain-JSON scenario description a journal header embeds.

    Everything :func:`build_engine_from_config` needs to rebuild the
    arbitrated engine of a :func:`run_datacenter` invocation — tenant
    mix (seeds included), pool size, horizon, budget, policy name,
    control cadence, budget schedule, chaos parameters, and the full
    fault plan (:meth:`~repro.datacenter.faults.FaultPlan.to_config`)
    — as JSON-native types only.
    """
    return {
        "tenants": [asdict(tenant) for tenant in tenants],
        "machines": machines,
        "horizon": horizon,
        "budget_watts": budget_watts,
        "policy": policy,
        "control_period": control_period,
        "attainment_window": attainment_window,
        "budget_trace": (
            [[at, watts] for at, watts in budget_trace.entries]
            if budget_trace is not None
            else None
        ),
        "chaos": dict(chaos) if chaos else None,
        "faults": faults.to_config() if faults is not None else None,
    }


def build_engine_from_config(
    config: Mapping[str, Any],
    backend: str = "serial",
    workers: int | None = None,
    journal: JournalWriter | None = None,
) -> DatacenterEngine:
    """Rebuild an engine from a :func:`scenario_config` dict.

    The registered ``datacenter-experiment`` scenario builder: journal
    headers written by :func:`run_datacenter` point here so ``replay``
    and ``resume`` can reconstruct the engine from the journal alone.
    """
    tenants = tuple(
        TenantScenario(**tenant) for tenant in config["tenants"]
    )
    budget_trace = None
    if config.get("budget_trace") is not None:
        budget_trace = BudgetSchedule(
            tuple(
                (float(at), float(watts))
                for at, watts in config["budget_trace"]
            )
        )
    chaos = config.get("chaos") or {}
    faults = None
    if config.get("faults") is not None:
        faults = FaultPlan.from_config(config["faults"])
    return build_engine(
        tenants,
        config["machines"],
        config["horizon"],
        config["budget_watts"],
        config["policy"],
        control_period=config.get("control_period", 10.0),
        attainment_window=config.get("attainment_window", 20.0),
        backend=backend,
        workers=workers,
        budget_trace=budget_trace,
        journal=journal,
        chaos_kills=int(chaos.get("kills", 0)),
        chaos_seed=int(chaos.get("seed", 0)),
        faults=faults,
    )


register_scenario_builder("datacenter-experiment", build_engine_from_config)


@dataclass
class DatacenterExperiment:
    """Static-vs-arbitrated comparison on one tenant mix.

    ``policy`` names the control policy of the arbitrated side
    (``static-equal`` is always the baseline side); ``budget_trace``
    (when set) drove both runs' budgets through the same schedule.
    """

    tenants: tuple[TenantScenario, ...]
    machines: int
    budget_watts: float
    horizon: float
    static: DatacenterResult
    arbitrated: DatacenterResult
    policy: str = "sla-aware"
    budget_trace: BudgetSchedule | None = None

    def attainment_delta(self, name: str) -> float:
        """Arbitrated minus static SLA attainment for one tenant."""
        return (
            self.arbitrated.report_for(name).attainment
            - self.static.report_for(name).attainment
        )

    def best_improvement(self) -> tuple[str, float]:
        """The tenant the arbiter helped most, and by how much."""
        return max(
            ((t.name, self.attainment_delta(t.name)) for t in self.tenants),
            key=lambda pair: pair[1],
        )


def run_datacenter(
    scale: Scale = Scale.PAPER,
    budget_watts: float = DEFAULT_BUDGET_WATTS,
    tenants: tuple[TenantScenario, ...] | None = None,
    machines: int = 2,
    backend: str = "serial",
    workers: int | None = None,
    policy: str = "sla-aware",
    budget_trace: BudgetSchedule | None = None,
    journal: str | None = None,
    chaos: int = 0,
    chaos_seed: int = 0,
    faults: FaultPlan | None = None,
) -> DatacenterExperiment:
    """Run the tenant mix under static-equal and the chosen policy.

    ``backend``/``workers`` select the engine execution backend (the
    sharded backend produces identical results to serial, so the
    comparison is backend-invariant).  ``policy`` picks the arbitrated
    side (``sla-aware``, ``migrating``, or ``consolidating``);
    ``budget_trace`` applies the same budget schedule to both sides.

    ``journal`` (a path) records the *arbitrated* run — the baseline
    side is untouched — as a deterministic NDJSON journal that
    :func:`repro.datacenter.journal.replay` re-executes byte-exactly.
    ``chaos`` > 0 kills that many machines mid-run (seeded by
    ``chaos_seed``) on the arbitrated side only, rebuilding the
    victims' tenants on survivors from barrier checkpoints.
    ``faults`` injects a gray-failure plan (sensor, actuator,
    straggler, and kill windows) on the arbitrated side only; the
    plan is embedded in the journal header so replay reproduces the
    faulted run byte-exactly.
    """
    tenants = tenants if tenants is not None else default_tenant_mix()
    horizon = 40.0 if scale is Scale.TINY else 120.0
    writer = None
    if journal is not None:
        config = scenario_config(
            tenants,
            machines,
            horizon,
            budget_watts,
            policy,
            budget_trace=budget_trace,
            chaos=(
                {"kills": chaos, "seed": chaos_seed} if chaos > 0 else None
            ),
            faults=faults,
        )
        writer = JournalWriter(
            journal,
            {
                "scenario": {
                    "builder": "datacenter-experiment",
                    "module": "repro.experiments.datacenter",
                    "config": config,
                },
                "backend": backend,
                "workers": workers,
                "initial_budget_watts": budget_watts,
            },
        )
    static = build_engine(
        tenants,
        machines,
        horizon,
        budget_watts,
        "static-equal",
        backend=backend,
        workers=workers,
        budget_trace=budget_trace,
    ).run()
    arbitrated_engine = build_engine(
        tenants,
        machines,
        horizon,
        budget_watts,
        policy,
        backend=backend,
        workers=workers,
        budget_trace=budget_trace,
        journal=writer,
        chaos_kills=chaos,
        chaos_seed=chaos_seed,
        faults=faults,
    )
    if writer is not None:
        try:
            arbitrated = journaled_run(arbitrated_engine, writer)
        finally:
            writer.close()
    else:
        arbitrated = arbitrated_engine.run()
    return DatacenterExperiment(
        tenants=tenants,
        machines=machines,
        budget_watts=budget_watts,
        horizon=horizon,
        static=static,
        arbitrated=arbitrated,
        policy=policy,
        budget_trace=budget_trace,
    )


def _policy_billing(result: DatacenterResult) -> dict[str, Any]:
    """One policy's bills plus the energy-conservation accounting.

    Bills go through the journal codec's :func:`~repro.datacenter.
    journal.codec.encode_bill` — the one serialization shared with
    journal result records, so ``--bill`` output and journaled bills
    compare byte-for-byte.
    """
    return {
        "bills": [encode_bill(bill) for bill in result.bills],
        "idle_energy_joules_per_machine": list(result.idle_energy_joules),
        "energy_conservation": result.energy_conservation(),
    }


def billing_payload(experiment: DatacenterExperiment) -> dict[str, Any]:
    """The ``--bill`` JSON document: per-tenant bills for both policies.

    Floats are emitted untouched, so two runs of the same scenario on
    different backends (serial vs sharded) serialize to byte-identical
    JSON — the cross-backend billing contract, testable end to end from
    the CLI.
    """
    # `--policy static-equal` would collide with the baseline's key;
    # suffix the compared run so both sides stay in the document.
    compared = experiment.policy
    if compared == "static-equal":
        compared = "static-equal-rerun"
    return {
        "artifact": "datacenter-billing",
        "codec": CODEC_VERSION,
        "budget_watts": experiment.budget_watts,
        "machines": experiment.machines,
        "horizon_seconds": experiment.horizon,
        "tenants": [tenant.name for tenant in experiment.tenants],
        "policies": {
            "static-equal": _policy_billing(experiment.static),
            compared: _policy_billing(experiment.arbitrated),
        },
    }


def format_datacenter_bills(experiment: DatacenterExperiment) -> str:
    """Render :func:`billing_payload` as deterministic, indented JSON."""
    return json.dumps(billing_payload(experiment), indent=2, sort_keys=True)


def replay_billing_payload(result: DatacenterResult) -> dict[str, Any]:
    """The ``replay --bill`` JSON document: bills of the replayed run.

    Deliberately free of backend, worker-count, and path provenance,
    so replaying one journal on the serial and sharded backends emits
    byte-identical documents — the CI replay-parity check diffs them
    directly.
    """
    return {
        "artifact": "datacenter-replay-billing",
        "codec": CODEC_VERSION,
        **_policy_billing(result),
    }


def format_replay_bills(result: DatacenterResult) -> str:
    """Render :func:`replay_billing_payload` as deterministic JSON."""
    return json.dumps(
        replay_billing_payload(result), indent=2, sort_keys=True
    )


def format_replay(result: DatacenterResult, verb: str = "replayed") -> str:
    """Render a replayed (or resumed) run's outcome as text."""
    conservation = result.energy_conservation_rel_error()
    header = (
        f"Journal {verb}: {len(result.tenant_reports)} tenants, "
        f"mean pool power {result.total_mean_power:.1f} W, "
        f"billing conservation rel. error {conservation:.1e}"
    )
    if result.failures:
        deaths = ", ".join(
            f"m{f.machine_index}@{f.time:.0f}s"
            for f in result.failures
        )
        header += f"\n  machine failures reproduced: {deaths}"
    if result.migrations:
        moves = ", ".join(
            f"{m.tenant} m{m.source_machine_index}->m{m.dest_machine_index}"
            f"@{m.time:.0f}s"
            for m in result.migrations
        )
        header += f"\n  migrations reproduced: {moves}"
    if result.faults:
        header += (
            f"\n  gray faults reproduced: {len(result.faults)} "
            f"({len(result.retries)} applier retries)"
        )
    rows = [
        [
            report.name,
            f"{report.offered}",
            f"{report.rejected}",
            f"{report.p95_latency:.2f}",
            f"{report.attainment:.3f}",
            "yes" if report.sla_met else "no",
        ]
        for report in result.tenant_reports
    ]
    return f"{header}\n" + format_table(
        ["tenant", "offered", "rejected", "p95", "attainment", "SLA met"],
        rows,
    )


def format_datacenter(experiment: DatacenterExperiment) -> str:
    """Render the per-tenant SLA comparison as text."""
    rows = []
    for tenant in experiment.tenants:
        static = experiment.static.report_for(tenant.name)
        arbitrated = experiment.arbitrated.report_for(tenant.name)
        rows.append(
            [
                tenant.name,
                f"m{tenant.machine_index}",
                tenant.trace_kind,
                "exact" if tenant.qos_cap == 0.0 else "knobbed",
                f"{static.offered}",
                f"{static.rejected}/{arbitrated.rejected}",
                f"{static.p95_latency:.2f}/{arbitrated.p95_latency:.2f}",
                f"{static.attainment:.3f}",
                f"{arbitrated.attainment:.3f}",
                "yes" if arbitrated.sla_met else "no",
            ]
        )
    name, delta = experiment.best_improvement()
    policy = experiment.policy
    header = (
        f"Datacenter arbitration: {len(experiment.tenants)} tenants on "
        f"{experiment.machines} machines, {experiment.budget_watts:.0f} W "
        f"budget, {experiment.horizon:.0f} s horizon\n"
        f"  mean pool power: static-equal "
        f"{experiment.static.total_mean_power:.1f} W, {policy} "
        f"{experiment.arbitrated.total_mean_power:.1f} W "
        f"(budget {experiment.budget_watts:.0f} W)\n"
        f"  SLAs met: static-equal {experiment.static.slas_met()}/"
        f"{len(experiment.tenants)}, {policy} "
        f"{experiment.arbitrated.slas_met()}/{len(experiment.tenants)}\n"
        f"  largest arbiter gain: {name} "
        f"{experiment.static.report_for(name).attainment:.3f} -> "
        f"{experiment.arbitrated.report_for(name).attainment:.3f} "
        f"({delta:+.3f} attainment)"
    )
    if len(experiment.arbitrated.budget_history) > 1:
        levels = " -> ".join(
            f"{watts:.0f} W@{at:.0f}s"
            for at, watts in experiment.arbitrated.budget_history
        )
        header += f"\n  budget trace: {levels}"
    if experiment.arbitrated.migrations:
        moves = ", ".join(
            f"{m.tenant} m{m.source_machine_index}->m{m.dest_machine_index}"
            f"@{m.time:.0f}s"
            for m in experiment.arbitrated.migrations
        )
        header += f"\n  migrations ({policy}): {moves}"
    if experiment.arbitrated.failures:
        deaths = ", ".join(
            f"m{f.machine_index}@{f.time:.0f}s"
            f" ({len(f.replacements)} tenants re-placed)"
            for f in experiment.arbitrated.failures
        )
        header += f"\n  machine failures (chaos): {deaths}"
    if experiment.arbitrated.faults:
        kinds = {}
        for fault in experiment.arbitrated.faults:
            kinds[fault.kind] = kinds.get(fault.kind, 0) + 1
        summary = ", ".join(
            f"{count} {kind}" for kind, count in sorted(kinds.items())
        )
        header += (
            f"\n  gray faults injected ({policy}): {summary}; "
            f"{len(experiment.arbitrated.retries)} applier retries"
        )
    return f"{header}\n" + format_table(
        [
            "tenant",
            "mach",
            "traffic",
            "service",
            "offered",
            "rej s/a",
            "p95 s/a",
            "att static",
            f"att {policy}",
            "SLA met",
        ],
        rows,
    )
