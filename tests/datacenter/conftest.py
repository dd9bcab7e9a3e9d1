"""Shared fixtures and helpers for the datacenter tests."""

import pytest

from repro.datacenter.engine import DatacenterEngine
from repro.datacenter.journal import canonical_json, result_payload
from repro.experiments.datacenter import Scenario, TenantScenario


def tiny_scenario(
    machines=2, budget=420.0, policy="sla-aware", control_period=6.0, **fields
):
    """Three mixed tenants spread over the first ``machines`` machines,
    a 24 s horizon; ``fields`` sets the other :class:`Scenario` fields."""
    tenants = (
        TenantScenario("alpha", 0, "steady", rate=1.2, seed=1),
        TenantScenario(
            "beta", 1 % machines, "steady", rate=0.8, qos_cap=0.0, seed=2
        ),
        TenantScenario("gamma", 2 % machines, "burst", rate=1.5, seed=3),
    )
    return Scenario(
        tenants,
        machines,
        24.0,
        budget,
        policy,
        control_period=control_period,
        **fields,
    )


def assert_same_result(left, right):
    """Whole-result byte parity of two runs: the one parity check.

    Compares the canonical result record — bills, reports, every
    history, pool energy, the final budget and a digest of every
    heartbeat sample — so a parity test misses no field a replay would
    check, and then what that record leaves out of each tenant's run:
    its samples, its per-job outputs and its mean power.
    """
    assert canonical_json(result_payload(left)) == canonical_json(
        result_payload(right)
    )
    assert left.run_results.keys() == right.run_results.keys()
    for name, run in left.run_results.items():
        other = right.run_results[name]
        assert run.samples == other.samples, name
        assert run.outputs_by_job == other.outputs_by_job, name
        assert run.mean_power == other.mean_power, name


@pytest.fixture
def batched_step_mode(monkeypatch):
    """Return a switch that makes later engines pass ``step_mode="batched"``.

    The engine has one per-item step kernel and accepts the keyword
    only because ``perfbench/workloads.py`` passes it.  Calling the
    switch patches ``DatacenterEngine.__init__`` for the rest of the
    test, so any builder (bench scenario, experiment, journal replay)
    constructs its engine with the keyword; it returns the list every
    engine so built is appended to.  ``monkeypatch.undo()`` switches
    it off again.
    """
    built = []

    def switch_on():
        init = DatacenterEngine.__init__

        def batched_init(self, *args, **kwargs):
            kwargs["step_mode"] = "batched"
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(DatacenterEngine, "__init__", batched_init)
        return built

    return switch_on
