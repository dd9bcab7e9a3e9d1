"""Tests for the datacenter experiment and its CLI entry (tiny scale)."""

import dataclasses
import json

import pytest

from repro.datacenter import CONSERVATION_TOLERANCE, fork_available
from repro.experiments import Scale, format_datacenter, run_datacenter
from repro.experiments.__main__ import main
from repro.datacenter.controlplane import BudgetSchedule
from repro.datacenter.faults import FaultPlan, SensorFault
from repro.experiments.datacenter import (
    Scenario,
    ScenarioError,
    TenantScenario,
    billing_payload,
    default_tenant_mix,
    format_datacenter_bills,
)


@pytest.fixture(scope="module")
def experiment():
    return run_datacenter(Scale.TINY)


class TestRunDatacenter:
    def test_both_policies_within_budget(self, experiment):
        assert experiment.static.total_mean_power <= experiment.budget_watts
        assert experiment.arbitrated.total_mean_power <= experiment.budget_watts

    def test_identical_offered_load_across_policies(self, experiment):
        """Both policies must see the very same arrival traces."""
        for static, arbitrated in zip(
            experiment.static.tenant_reports,
            experiment.arbitrated.tenant_reports,
        ):
            assert static.name == arbitrated.name
            assert static.offered == arbitrated.offered

    def test_arbiter_improves_a_tenant(self, experiment):
        name, delta = experiment.best_improvement()
        assert delta > 0.0
        assert experiment.arbitrated.slas_met() >= experiment.static.slas_met()

    def test_scenario_shape(self, experiment):
        assert len(experiment.tenants) >= 3
        assert experiment.machines >= 2
        machine_indices = {t.machine_index for t in experiment.tenants}
        assert len(machine_indices) >= 2

    def test_caps_recorded_every_period(self, experiment):
        times = [t for t, _ in experiment.arbitrated.cap_history]
        assert times[0] == 0.0
        assert len(times) >= experiment.horizon / 10.0

    def test_mix_has_a_knob_poor_tenant(self):
        assert any(t.qos_cap == 0.0 for t in default_tenant_mix())


class TestScenario:
    FULL = Scenario(
        default_tenant_mix(),
        3,
        40.0,
        630.0,
        "migrating",
        budget_trace=BudgetSchedule(((15.0, 600.0),)),
        chaos={"kills": 1, "seed": 7},
        faults=FaultPlan(sensors=(SensorFault(2, 4.0, 8.0),), seed=3),
    )

    def test_config_round_trips(self):
        config = json.loads(json.dumps(self.FULL.to_config()))
        assert Scenario.from_config(config) == self.FULL

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"machines": 2}, "references machine 2 but the pool has only 2"),
            ({"policy": "round-robin"}, "unknown policy 'round-robin'"),
            ({"horizon": 0.0}, "horizon must be positive, got 0.0"),
            ({"budget_watts": None}, "chaos injection requires a control"),
            (
                {"budget_watts": None, "chaos": None},
                "fault injection requires a control",
            ),
            (
                {"tenants": (TenantScenario("x", -1, "steady", 1.0),)},
                "tenant 'x': machine_index must be >= 0, got -1",
            ),
        ],
    )
    def test_invalid_fields_are_rejected(self, changes, message):
        with pytest.raises(ScenarioError, match=message):
            dataclasses.replace(self.FULL, **changes)


class TestFormat:
    def test_format_mentions_every_tenant(self, experiment):
        text = format_datacenter(experiment)
        for tenant in experiment.tenants:
            assert tenant.name in text
        assert "SLAs met" in text
        assert "budget" in text

    def test_cli_runs_tiny_scenario(self, capsys):
        assert main(["datacenter", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Datacenter arbitration" in out
        assert "sla-aware" in out

    def test_cli_rejects_backend_on_other_artifacts(self):
        with pytest.raises(SystemExit):
            main(["table1", "--backend", "sharded"])
        with pytest.raises(SystemExit):
            main(["fig34", "--bill"])
        with pytest.raises(SystemExit):
            main(["table2", "--policy", "migrating"])
        with pytest.raises(SystemExit):
            main(["fig34", "--budget-trace", "x.trace"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                [artifact, "--workers", workers],
                f"--workers must be >= 1, got {workers}",
                id=f"workers{workers}-{artifact}",
            )
            for artifact in ("datacenter", "replay")
            for workers in ("0", "-1")
        ]
        + [
            pytest.param(
                ["datacenter", "--machines", machines],
                "--machines must be >= 2 (the tenant mix places tenants on "
                f"machines 0-1), got {machines}",
                id=f"machines{machines}",
            )
            for machines in ("1", "0")
        ]
        + [
            pytest.param(
                ["datacenter", "--chaos", "-1"],
                "--chaos must be >= 0, got -1",
                id="chaos-1",
            )
        ],
    )
    def test_cli_rejects_malformed_input(self, capsys, argv, message):
        """Out-of-range numbers get one ``error:`` line and exit code 2,
        before any run starts (``replay`` never reads its journal)."""
        argv = [*argv, "--scale", "tiny"]
        if argv[0] == "replay":
            argv += ["--journal", "never-read.ndjson"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_cli_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["datacenter", "--policy", "round-robin"])


class TestControlPlaneCli:
    def test_static_equal_policy_keeps_both_billing_sides(self):
        from repro.experiments.datacenter import billing_payload

        experiment = run_datacenter(Scale.TINY, policy="static-equal")
        payload = billing_payload(experiment)
        assert set(payload["policies"]) == {
            "static-equal",
            "static-equal-rerun",
        }

    def test_cli_policy_migrating_runs(self, capsys):
        assert main(["datacenter", "--scale", "tiny", "--policy", "migrating"]) == 0
        out = capsys.readouterr().out
        assert "att migrating" in out

    def test_cli_budget_trace_drives_the_budget(self, capsys, tmp_path):
        trace = tmp_path / "shock.trace"
        # Two machines: floor ~366 W, so both levels are enforceable.
        trace.write_text("0 420\n15 390\n30 420\n")
        assert main(
            ["datacenter", "--scale", "tiny", "--budget-trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "budget trace: 420 W@0s -> 390 W@15s -> 420 W@30s" in out

    def test_cli_budget_trace_parse_error_is_actionable(self, capsys, tmp_path):
        trace = tmp_path / "bad.trace"
        trace.write_text("0 420\n0 390\n")
        assert main(["datacenter", "--budget-trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "does not increase" in err

    def test_cli_budget_trace_floor_error_is_actionable(self, capsys, tmp_path):
        trace = tmp_path / "low.trace"
        trace.write_text("0 100\n")
        assert main(
            ["datacenter", "--scale", "tiny", "--budget-trace", str(trace)]
        ) == 2
        err = capsys.readouterr().err
        assert "below the fleet-wide cap floor" in err


class TestFaultsCli:
    def test_cli_faults_runs_and_reports_injection(self, capsys, tmp_path):
        plan = tmp_path / "gray.faults"
        plan.write_text(
            "config seed=11 unresponsive_after=4 reintegrate=5\n"
            "sensor machine=0 start=8 end=16 mode=dropout\n"
            "actuator machine=1 start=10 end=22 mode=drop\n"
            "straggler machine=0 start=24 end=30\n"
        )
        assert main(
            ["datacenter", "--scale", "tiny", "--faults", str(plan)]
        ) == 0
        out = capsys.readouterr().out
        assert "gray faults injected" in out
        assert "applier retries" in out

    def test_cli_faults_parse_error_names_path_line_and_field(
        self, capsys, tmp_path
    ):
        plan = tmp_path / "bad.faults"
        plan.write_text("sensor machine=0 start=2 end=6\nkill when=9\n")
        assert main(["datacenter", "--faults", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(plan) in err
        assert "line 2" in err and "'when'" in err

    def test_cli_faults_bad_value_names_field(self, capsys, tmp_path):
        plan = tmp_path / "bad.faults"
        plan.write_text("straggler machine=0 start=later end=9\n")
        assert main(["datacenter", "--faults", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "'start'" in err

    def test_cli_faults_missing_file_names_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.faults"
        assert main(["datacenter", "--faults", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "cannot read fault plan" in err

    def test_cli_faults_rejected_on_other_artifacts(self):
        with pytest.raises(SystemExit):
            main(["fig34", "--faults", "x.faults"])


class TestBilling:
    def test_billing_payload_conserves_energy(self, experiment):
        payload = billing_payload(experiment)
        assert set(payload["policies"]) == {"static-equal", "sla-aware"}
        for policy in payload["policies"].values():
            conservation = policy["energy_conservation"]
            assert conservation["rel_error"] <= CONSERVATION_TOLERANCE
            billed = sum(b["energy_joules"] for b in policy["bills"])
            assert billed == conservation["billed_energy_joules"]
        names = {b["tenant"] for b in payload["policies"]["sla-aware"]["bills"]}
        assert names == {t.name for t in experiment.tenants}

    def test_format_is_valid_deterministic_json(self, experiment):
        text = format_datacenter_bills(experiment)
        parsed = json.loads(text)
        assert parsed["artifact"] == "datacenter-billing"
        assert text == format_datacenter_bills(experiment)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_cli_bill_json_identical_across_backends(self, capsys):
        """The acceptance contract: serial and sharded emit the same bill."""
        assert main(["datacenter", "--scale", "tiny", "--bill"]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["datacenter", "--scale", "tiny", "--bill", "--backend", "sharded",
             "--workers", "2"]
        ) == 0
        sharded_out = capsys.readouterr().out
        assert serial_out == sharded_out
        document = json.loads(serial_out)
        for policy in document["policies"].values():
            assert (
                policy["energy_conservation"]["rel_error"]
                <= CONSERVATION_TOLERANCE
            )
