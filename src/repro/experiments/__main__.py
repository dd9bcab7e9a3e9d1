"""Command-line entry point for the experiment harness.

Regenerate any paper artifact directly (one subcommand per artifact;
``python -m repro.experiments --help`` lists them all with the same
descriptions ``docs/SCENARIOS.md`` documents recipe by recipe)::

    python -m repro.experiments table1
    python -m repro.experiments table2
    python -m repro.experiments fig5 --app x264
    python -m repro.experiments fig6 --app swaptions --scale tiny
    python -m repro.experiments fig7 --app bodytrack
    python -m repro.experiments fig8 --app swish++
    python -m repro.experiments fig34
    python -m repro.experiments overhead
    python -m repro.experiments datacenter
    python -m repro.experiments datacenter --backend sharded --workers 4
    python -m repro.experiments datacenter --bill
    python -m repro.experiments datacenter --policy migrating
    python -m repro.experiments datacenter --policy consolidating
    python -m repro.experiments datacenter --budget-trace shock.trace
    python -m repro.experiments datacenter --journal run.ndjson
    python -m repro.experiments datacenter --journal run.ndjson --chaos 1
    python -m repro.experiments datacenter --faults gray.faults
    python -m repro.experiments replay --journal run.ndjson
    python -m repro.experiments replay --journal run.ndjson --resume
    python -m repro.experiments ablation-controllers --app bodytrack
    python -m repro.experiments ablation-quantum --app swaptions
"""

from __future__ import annotations

import argparse
import sys

from repro.datacenter.controlplane import (
    POLICY_NAMES,
    BudgetSchedule,
    BudgetTraceError,
    load_budget_trace,
)
from repro.datacenter.engine import ENGINE_BACKENDS
from repro.datacenter.faults import (
    FaultPlan,
    FaultPlanError,
    load_fault_plan,
)
from repro.datacenter.journal import (
    JournalError,
    prepare_journal_path,
)
from repro.datacenter.journal import replay as journal_replay
from repro.datacenter.journal import resume as journal_resume
from repro.experiments.catalog import ARTIFACTS, PER_APP_ARTIFACTS
from repro.experiments.common import Scale
from repro.experiments.datacenter import (
    DEFAULT_BUDGET_WATTS,
    default_tenant_mix,
    format_datacenter,
    format_datacenter_bills,
    format_replay,
    format_replay_bills,
    run_datacenter,
)
from repro.experiments.registry import APP_SPECS


def _run(
    artifact: str,
    app: str,
    scale: Scale,
    backend: str = "serial",
    workers: int | None = None,
    bill: bool = False,
    policy: str = "sla-aware",
    budget_trace: BudgetSchedule | None = None,
    journal: str | None = None,
    chaos: int = 0,
    chaos_seed: int = 0,
    resume_run: bool = False,
    faults: FaultPlan | None = None,
    machines: int = 2,
) -> str:
    """Execute one artifact subcommand and return its rendered output.

    Each branch imports its own experiment module, so a subcommand loads
    only the layers it runs (``datacenter`` and ``replay`` never import
    a paper application).
    """
    if artifact == "table1":
        from repro.experiments.inputs import format_table1, summarize_inputs

        return format_table1(summarize_inputs(scale))
    if artifact == "table2":
        from repro.experiments.tradeoff import format_table2, run_tradeoff

        return format_table2(
            [run_tradeoff(name, scale) for name in APP_SPECS]
        )
    if artifact == "fig5":
        from repro.experiments.tradeoff import format_fig5, run_tradeoff

        return format_fig5(run_tradeoff(app, scale))
    if artifact == "fig6":
        from repro.experiments.power_qos import format_fig6, run_power_qos

        return format_fig6(run_power_qos(app, scale))
    if artifact == "fig7":
        from repro.experiments.powercap import format_fig7, run_powercap

        return format_fig7(run_powercap(app, scale))
    if artifact == "fig8":
        from repro.experiments.consolidation import (
            format_fig8,
            run_consolidation,
        )

        return format_fig8(run_consolidation(app, scale))
    if artifact == "fig34":
        from repro.experiments.energy_models import (
            format_fig34,
            run_energy_models,
        )

        return format_fig34(run_energy_models())
    if artifact == "ablation-controllers":
        from repro.experiments.controllers import (
            format_controller_ablation,
            run_controller_ablation,
        )

        return format_controller_ablation(run_controller_ablation(app, scale))
    if artifact == "ablation-quantum":
        from repro.experiments.quantum import (
            format_quantum_ablation,
            run_quantum_ablation,
        )

        return format_quantum_ablation(run_quantum_ablation(app, scale))
    if artifact == "sla":
        from repro.experiments.sla import format_sla, run_sla

        return format_sla(run_sla(app, scale))
    if artifact == "datacenter":
        experiment = run_datacenter(
            scale,
            # The default budget covers the default 2-machine pool;
            # larger pools scale it linearly so the arbiters stay
            # feasible (every machine's cap floor covered).
            budget_watts=DEFAULT_BUDGET_WATTS * (machines / 2.0),
            machines=machines,
            backend=backend,
            workers=workers,
            policy=policy,
            budget_trace=budget_trace,
            journal=journal,
            chaos=chaos,
            chaos_seed=chaos_seed,
            faults=faults,
        )
        if bill:
            return format_datacenter_bills(experiment)
        return format_datacenter(experiment)
    if artifact == "replay":
        runner = journal_resume if resume_run else journal_replay
        result = runner(journal, backend=backend, workers=workers)
        if bill:
            return format_replay_bills(result)
        return format_replay(
            result, verb="resumed" if resume_run else "replayed"
        )
    if artifact == "overhead":
        from repro.experiments.overhead import format_overhead, run_overhead

        return format_overhead(
            [run_overhead(name, Scale.TINY) for name in APP_SPECS]
        )
    raise ValueError(f"unknown artifact {artifact!r}")


def build_parser() -> argparse.ArgumentParser:
    """The experiment CLI: one documented subparser per catalog entry."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a PowerDial paper table or figure.",
    )
    subparsers = parser.add_subparsers(
        dest="artifact",
        metavar="artifact",
        required=True,
    )
    for name, info in ARTIFACTS.items():
        sub = subparsers.add_parser(
            name,
            help=info.help,
            description=f"{info.help} ({info.paper_ref}).",
        )
        sub.add_argument(
            "--scale",
            choices=[s.value for s in Scale],
            default=Scale.PAPER.value,
            help="experiment scale (default: paper)",
        )
        if name in PER_APP_ARTIFACTS:
            sub.add_argument(
                "--app",
                choices=sorted(APP_SPECS),
                default="swaptions",
                help="benchmark application (default: swaptions)",
            )
        if name in ("datacenter", "replay"):
            sub.add_argument(
                "--backend",
                choices=list(ENGINE_BACKENDS),
                default="serial",
                help="datacenter engine backend (default: serial)",
            )
            sub.add_argument(
                "--workers",
                type=int,
                default=None,
                help="worker processes for the sharded backend "
                "(default: usable CPU count)",
            )
            sub.add_argument(
                "--bill",
                action="store_true",
                help="emit per-tenant JSON bills (energy, QoS loss, "
                "rejections) instead of the SLA comparison table",
            )
        if name == "replay":
            sub.add_argument(
                "--journal",
                metavar="FILE",
                required=True,
                help="the NDJSON run journal to re-execute",
            )
            sub.add_argument(
                "--resume",
                action="store_true",
                help="finish an incomplete (crashed) journal instead of "
                "replaying a complete one: the recorded prefix is "
                "re-executed and attested barrier-by-barrier, then the "
                "run continues to completion",
            )
        if name == "datacenter":
            sub.add_argument(
                "--machines",
                type=int,
                default=2,
                metavar="N",
                help="machine-pool size (default: 2; the facility "
                "budget scales linearly with the pool so arbitration "
                "stays feasible — pair large pools with --policy "
                "hier-arbitrated and --backend sharded)",
            )
            sub.add_argument(
                "--policy",
                choices=list(POLICY_NAMES),
                default="sla-aware",
                help="control policy compared against static-equal "
                "(default: sla-aware; 'migrating' also cold-moves "
                "instances off cap-saturated machines; 'consolidating' "
                "warm-packs tenants onto fewer machines in demand "
                "troughs and spreads them back under load)",
            )
            sub.add_argument(
                "--budget-trace",
                metavar="FILE",
                default=None,
                help="drive the global budget from a trace file of "
                "'<seconds> <watts>' lines (fleet-wide budget shocks)",
            )
            sub.add_argument(
                "--journal",
                metavar="FILE",
                default=None,
                help="record the arbitrated run as a deterministic "
                "NDJSON journal that the 'replay' subcommand "
                "re-executes byte-exactly",
            )
            sub.add_argument(
                "--chaos",
                type=int,
                default=0,
                metavar="N",
                help="kill N machines mid-run at seeded instants on the "
                "arbitrated side, rebuilding their tenants on survivors "
                "from barrier checkpoints (default: 0)",
            )
            sub.add_argument(
                "--chaos-seed",
                type=int,
                default=0,
                metavar="SEED",
                help="seed for the chaos kill schedule and victim "
                "choice (default: 0)",
            )
            sub.add_argument(
                "--faults",
                metavar="FILE",
                default=None,
                help="inject a declarative gray-failure plan on the "
                "arbitrated side: a file of 'sensor|actuator|"
                "straggler|kill|config key=value ...' lines "
                "scheduling heartbeat dropout/delay/noise windows, "
                "cap-application failures, slow-clock stragglers, "
                "and fail-stop kills (see docs/SCENARIOS.md)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI driver; returns a process exit code."""
    args = build_parser().parse_args(argv)
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        print(f"error: --workers must be >= 1, got {workers}", file=sys.stderr)
        return 2
    machines = getattr(args, "machines", None)
    fewest = 1 + max(tenant.machine_index for tenant in default_tenant_mix())
    if machines is not None and machines < fewest:
        print(
            f"error: --machines must be >= {fewest} (the tenant mix places "
            f"tenants on machines 0-{fewest - 1}), got {machines}",
            file=sys.stderr,
        )
        return 2
    chaos = getattr(args, "chaos", 0)
    if chaos < 0:
        print(f"error: --chaos must be >= 0, got {chaos}", file=sys.stderr)
        return 2
    budget_trace = None
    trace_path = getattr(args, "budget_trace", None)
    if trace_path is not None:
        try:
            budget_trace = load_budget_trace(trace_path)
        except BudgetTraceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    faults = None
    faults_path = getattr(args, "faults", None)
    if faults_path is not None:
        try:
            faults = load_fault_plan(faults_path)
        except FaultPlanError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    journal_path = getattr(args, "journal", None)
    if args.artifact == "datacenter" and journal_path is not None:
        # Fail fast — an unwritable destination or a schema-mismatched
        # existing journal should abort before the run burns any time.
        try:
            prepare_journal_path(journal_path)
        except JournalError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        text = _run(
            args.artifact,
            getattr(args, "app", "swaptions"),
            Scale(args.scale),
            getattr(args, "backend", "serial"),
            workers,
            getattr(args, "bill", False),
            getattr(args, "policy", "sla-aware"),
            budget_trace,
            journal_path,
            chaos,
            getattr(args, "chaos_seed", 0),
            getattr(args, "resume", False),
            faults,
            getattr(args, "machines", 2),
        )
    except BudgetTraceError as error:
        # E.g. a trace level below the pool's enforceable cap floor,
        # detectable only once the machine pool is known.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except JournalError as error:
        # E.g. a corrupt or truncated journal handed to `replay`, or a
        # replay that failed its byte-exactness assertion.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
