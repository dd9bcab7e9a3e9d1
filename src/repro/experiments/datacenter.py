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
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping

from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter.controlplane import (
    POLICY_NAMES,
    BudgetSchedule,
    build_policy,
    inject_failures,
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
)
from repro.datacenter.journal.replay import SCENARIO_BUILDER, SCENARIO_MODULE
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
    "Scenario",
    "ScenarioError",
    "DatacenterExperiment",
    "default_tenant_mix",
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

TRACE_KINDS = ("steady", "diurnal", "burst")
"""The arrival shapes :meth:`TenantScenario.trace` can materialize."""


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


class ScenarioError(ValueError):
    """A :class:`Scenario` that describes no buildable run."""


@dataclass(frozen=True)
class Scenario:
    """One datacenter run: described, checked and built in one place.

    Its fields are the config a journal header embeds
    (:meth:`to_config`) and ``replay``/``resume`` rebuild the run from
    (:meth:`from_config`); each is checked once, at construction.
    :meth:`build` is the one place that builds the machines
    (:func:`~repro.experiments.common.experiment_machine`), the
    ``ServiceApp`` calibration
    (:func:`~repro.experiments.registry.built_service_system`), the
    tenant bindings and the policy stack.

    ``budget_watts`` None runs without a control policy; ``chaos`` is
    ``{"kills": n, "seed": s}`` (absent keys read as 0) or None.
    """

    tenants: tuple[TenantScenario, ...]
    machines: int
    horizon: float
    budget_watts: float | None
    policy: str
    control_period: float = 10.0
    attainment_window: float = 20.0
    budget_trace: BudgetSchedule | None = None
    chaos: Mapping[str, int] | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ScenarioError("a scenario needs at least one tenant")
        for tenant in self.tenants:
            if tenant.trace_kind not in TRACE_KINDS:
                raise ScenarioError(
                    f"tenant {tenant.name!r}: unknown trace_kind "
                    f"{tenant.trace_kind!r}; expected one of {TRACE_KINDS}"
                )
            if tenant.machine_index < 0:
                raise ScenarioError(
                    f"tenant {tenant.name!r}: machine_index must be >= 0, "
                    f"got {tenant.machine_index}"
                )
        fewest = 1 + max(tenant.machine_index for tenant in self.tenants)
        if self.machines < fewest:
            raise ScenarioError(
                f"--machines must be >= {fewest} (the tenant mix places "
                f"tenants on machines 0-{fewest - 1}), got {self.machines}"
            )
        if self.faults is not None and (
            self.faults.max_machine_index() >= self.machines
        ):
            raise ScenarioError(
                f"fault plan references machine "
                f"{self.faults.max_machine_index()} but the pool has only "
                f"{self.machines} machines"
            )
        for name in (
            "horizon",
            "budget_watts",
            "control_period",
            "attainment_window",
        ):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ScenarioError(f"{name} must be positive, got {value!r}")
        if self.policy not in POLICY_NAMES:
            raise ScenarioError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{POLICY_NAMES}"
            )
        kills = (self.chaos or {}).get("kills", 0)
        if kills < 0:
            raise ScenarioError(f"--chaos must be >= 0, got {kills}")
        if self.budget_watts is None and (kills or self.faults is not None):
            raise ScenarioError(
                f"{'chaos' if kills else 'fault'} injection requires a "
                "control policy: pass a budget so a policy exists to wrap"
            )

    def to_config(self) -> dict[str, Any]:
        """This scenario as the plain JSON a journal header embeds."""
        return {
            "tenants": [asdict(tenant) for tenant in self.tenants],
            "machines": self.machines,
            "horizon": self.horizon,
            "budget_watts": self.budget_watts,
            "policy": self.policy,
            "control_period": self.control_period,
            "attainment_window": self.attainment_window,
            "budget_trace": (
                [[at, watts] for at, watts in self.budget_trace.entries]
                if self.budget_trace is not None
                else None
            ),
            "chaos": dict(self.chaos) if self.chaos else None,
            "faults": (
                self.faults.to_config() if self.faults is not None else None
            ),
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> Scenario:
        """The inverse of :meth:`to_config`; every key is required."""
        if not isinstance(config, Mapping):
            raise ScenarioError(
                f"scenario config must be an object, got {config!r}"
            )
        for field in fields(cls):
            if field.name not in config:
                raise ScenarioError(
                    f"scenario config is missing {field.name!r}"
                )
        trace, faults = config["budget_trace"], config["faults"]
        try:
            return cls(
                **{
                    **config,
                    "tenants": tuple(
                        TenantScenario(**tenant)
                        for tenant in config["tenants"]
                    ),
                    "budget_trace": None
                    if trace is None
                    else BudgetSchedule(
                        tuple((float(at), float(w)) for at, w in trace)
                    ),
                    "faults": None
                    if faults is None
                    else FaultPlan.from_config(faults),
                }
            )
        except ScenarioError:
            raise
        except (AttributeError, TypeError, ValueError) as error:
            raise ScenarioError(f"malformed scenario config: {error}") from None

    def build(
        self,
        backend: str = "serial",
        workers: int | None = None,
        journal: JournalWriter | None = None,
    ) -> DatacenterEngine:
        """Assemble machines, instances and the policy stack for one run.

        Every binding carries a ``runtime_factory`` so a migration or a
        failure restore can rebuild its instance on another machine.
        Chaos and a fault plan wrap the named policy through
        :func:`~repro.datacenter.controlplane.policy.inject_failures`.
        ``journal`` attaches a
        :class:`~repro.datacenter.journal.writer.JournalWriter`.
        """
        system = built_service_system()
        machines = [experiment_machine() for _ in range(self.machines)]
        target = measure_baseline_rate(
            ServiceApp, service_training_jobs()[0], machines[0]
        )
        bindings = []
        for index, tenant in enumerate(self.tenants):
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
                trace=tenant.trace(self.horizon),
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
        policy = None
        if self.budget_watts is not None:
            chaos = self.chaos or {}
            policy = inject_failures(
                build_policy(
                    self.policy,
                    self.budget_watts,
                    machines,
                    schedule=self.budget_trace,
                ),
                chaos.get("kills", 0),
                chaos.get("seed", 0),
                self.faults,
            )
        return DatacenterEngine(
            machines,
            bindings,
            policy=policy,
            control_period=self.control_period,
            attainment_window=self.attainment_window,
            backend=backend,
            workers=workers,
            journal=journal,
            faults=self.faults,
        )

    def record(
        self,
        path: str,
        backend: str = "serial",
        workers: int | None = None,
    ) -> DatacenterResult:
        """Run this scenario journaled to ``path`` and return the result.

        The header names this module's builder and embeds
        :meth:`to_config`, so ``replay``/``resume`` rebuild the run
        from the journal alone.
        """
        writer = JournalWriter(
            path,
            {
                "scenario": {
                    "builder": SCENARIO_BUILDER,
                    "module": SCENARIO_MODULE,
                    "config": self.to_config(),
                },
                "backend": backend,
                "workers": workers,
                "initial_budget_watts": self.budget_watts,
            },
        )
        try:
            return journaled_run(self.build(backend, workers), writer)
        finally:
            writer.close()


# Kept for the benchmark harness (perfbench), which builds its journaled
# workload through these two names.
def scenario_config(*args: Any, **kwargs: Any) -> dict[str, Any]:
    """``Scenario(*args, **kwargs).to_config()``."""
    return Scenario(*args, **kwargs).to_config()


def build_engine_from_config(config, *args, **kwargs) -> DatacenterEngine:
    """``Scenario.from_config(config).build(*args, **kwargs)``."""
    return Scenario.from_config(config).build(*args, **kwargs)


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
    faulted run byte-exactly.  An invalid combination raises
    :class:`ScenarioError` before anything runs.
    """
    scenario = Scenario(
        tenants if tenants is not None else default_tenant_mix(),
        machines,
        40.0 if scale is Scale.TINY else 120.0,
        budget_watts,
        policy,
        budget_trace=budget_trace,
        chaos={"kills": chaos, "seed": chaos_seed} if chaos else None,
        faults=faults,
    )
    static = replace(
        scenario, policy="static-equal", chaos=None, faults=None
    ).build(backend, workers).run()
    if journal is not None:
        arbitrated = scenario.record(journal, backend, workers)
    else:
        arbitrated = scenario.build(backend, workers).run()
    return DatacenterExperiment(
        tenants=scenario.tenants,
        machines=machines,
        budget_watts=budget_watts,
        horizon=scenario.horizon,
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
