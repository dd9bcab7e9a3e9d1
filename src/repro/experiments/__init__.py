"""Experiment harness: one module per paper table/figure (Section 5).

See DESIGN.md's per-experiment index for the mapping from paper artifact
to module and bench target.

The public names below resolve on first access (PEP 562), so importing
one submodule — ``repro.experiments.common`` for :class:`Scale`, say —
does not execute every experiment module.
"""

import importlib
from typing import Any

_EXPORTS = {
    "Scale": "common",
    "experiment_machine": "common",
    "format_table": "common",
    "AppSpec": "registry",
    "APP_SPECS": "registry",
    "get_spec": "registry",
    "built_system": "registry",
    "TradeoffExperiment": "tradeoff",
    "run_tradeoff": "tradeoff",
    "correlation": "tradeoff",
    "format_fig5": "tradeoff",
    "format_table2": "tradeoff",
    "PowerQosExperiment": "power_qos",
    "PowerQosPoint": "power_qos",
    "run_power_qos": "power_qos",
    "format_fig6": "power_qos",
    "PowerCapExperiment": "powercap",
    "run_powercap": "powercap",
    "format_fig7": "powercap",
    "ConsolidationExperiment": "consolidation",
    "ConsolidationPoint": "consolidation",
    "run_consolidation": "consolidation",
    "format_fig8": "consolidation",
    "DatacenterExperiment": "datacenter",
    "TenantScenario": "datacenter",
    "Scenario": "datacenter",
    "ScenarioError": "datacenter",
    "default_tenant_mix": "datacenter",
    "run_datacenter": "datacenter",
    "format_datacenter": "datacenter",
    "format_datacenter_bills": "datacenter",
    "format_replay": "datacenter",
    "format_replay_bills": "datacenter",
    "billing_payload": "datacenter",
    "replay_billing_payload": "datacenter",
    "ARTIFACTS": "catalog",
    "Artifact": "catalog",
    "PER_APP_ARTIFACTS": "catalog",
    "built_service_system": "registry",
    "InputSummary": "inputs",
    "summarize_inputs": "inputs",
    "format_table1": "inputs",
    "EnergyScenario": "energy_models",
    "run_energy_models": "energy_models",
    "format_fig34": "energy_models",
    "OverheadResult": "overhead",
    "run_overhead": "overhead",
    "format_overhead": "overhead",
    "ControllerAblation": "controllers",
    "ControllerResult": "controllers",
    "run_controller_ablation": "controllers",
    "format_controller_ablation": "controllers",
    "QuantumAblation": "quantum",
    "QuantumResult": "quantum",
    "run_quantum_ablation": "quantum",
    "format_quantum_ablation": "quantum",
    "SlaExperiment": "sla",
    "SlaSeries": "sla",
    "run_sla": "sla",
    "format_sla": "sla",
}
"""Each public name and the submodule that defines it."""

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Import a public name's submodule on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
