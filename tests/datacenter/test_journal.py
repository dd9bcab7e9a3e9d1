"""Journal subsystem tests: codec round-trips, byte-exact replay,
crash-at-every-barrier resume, chaos conservation, and the CLI paths.

The tiny scenarios here run through the *registered* scenario builder
(``datacenter-experiment``), exactly as a journal header references it,
so every test doubles as a check that a journal really is a sufficient
statistic for its run (ARCHITECTURE.md invariant 7).
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datacenter import fork_available
from repro.datacenter.billing import TenantBill
from repro.datacenter.controlplane import (
    FailMachine,
    Migrate,
    SetBudget,
    SetCaps,
)
from repro.datacenter.journal import (
    JournalDecodeError,
    JournalError,
    JournalWriter,
    canonical_json,
    decode_action,
    decode_bill,
    encode_action,
    encode_bill,
    journaled_run,
    read_journal,
    replay,
    resume,
)
from repro.experiments.__main__ import main
from repro.experiments.datacenter import (
    TenantScenario,
    build_engine_from_config,
    scenario_config,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)

HORIZON = 24.0


def tiny_tenants(machines):
    """Three mixed tenants spread over the first ``machines`` machines."""
    return (
        TenantScenario("alpha", 0, "steady", rate=1.2, seed=1),
        TenantScenario(
            "beta", 1 % machines, "steady", rate=0.8, qos_cap=0.0, seed=2
        ),
        TenantScenario("gamma", 2 % machines, "burst", rate=1.5, seed=3),
    )


def make_config(machines=2, budget=420.0, policy="sla-aware", chaos=None):
    return scenario_config(
        tiny_tenants(machines),
        machines,
        HORIZON,
        budget,
        policy,
        control_period=6.0,
        chaos=chaos,
    )


def record_run(path, config, backend="serial", workers=None):
    """Record one journaled run of ``config``; return its live result."""
    writer = JournalWriter(
        str(path),
        {
            "scenario": {
                "builder": "datacenter-experiment",
                "module": "repro.experiments.datacenter",
                "config": config,
            },
            "backend": backend,
            "workers": workers,
            "initial_budget_watts": config["budget_watts"],
        },
    )
    engine = build_engine_from_config(
        config, backend=backend, workers=workers, journal=writer
    )
    with writer:
        return journaled_run(engine, writer)


finite = st.floats(allow_nan=False, allow_infinity=False)

actions = st.one_of(
    st.builds(
        lambda caps: SetCaps(caps=tuple(caps)),
        st.lists(finite, min_size=1, max_size=6),
    ),
    st.builds(SetBudget, budget_watts=finite),
    st.builds(
        Migrate,
        tenant=st.text(max_size=12),
        dest_machine_index=st.integers(min_value=0, max_value=64),
        cost_seconds=finite,
        warm=st.booleans(),
    ),
    st.builds(FailMachine, machine_index=st.integers(min_value=0, max_value=64)),
)

bills = st.builds(
    TenantBill,
    tenant=st.text(max_size=12),
    machine_index=st.integers(min_value=0, max_value=64),
    offered=st.integers(min_value=0, max_value=10**6),
    admitted=st.integers(min_value=0, max_value=10**6),
    rejected=st.integers(min_value=0, max_value=10**6),
    completed=st.integers(min_value=0, max_value=10**6),
    busy_seconds=finite,
    energy_joules=finite,
    qos_loss_seconds=finite,
    mean_qos_loss=finite,
    attainment=finite,
    sla_met=st.booleans(),
)


class TestCodecRoundTrip:
    """encode -> decode -> encode is byte-stable for every finite value."""

    @given(actions)
    def test_action_round_trip_is_byte_stable(self, action):
        first = encode_action(action)
        again = encode_action(decode_action(first))
        assert canonical_json(again) == canonical_json(first)

    @given(actions)
    def test_action_round_trip_preserves_equality(self, action):
        assert decode_action(encode_action(action)) == action

    @given(bills)
    def test_bill_round_trip_is_exact(self, bill):
        assert decode_bill(encode_bill(bill)) == bill
        first = encode_bill(bill)
        again = encode_bill(decode_bill(first))
        assert canonical_json(again) == canonical_json(first)

    def test_decode_action_errors_name_the_problem(self):
        with pytest.raises(JournalDecodeError, match="unknown action type"):
            decode_action({"type": "reboot"}, where="barrier 3 action 1")
        with pytest.raises(JournalDecodeError, match="barrier 3"):
            decode_action({"caps": [1.0]}, where="barrier 3 action 1")


class TestReplayParity:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("journal") / "run.ndjson"
        result = record_run(path, make_config())
        return path, result

    def test_journal_is_complete_and_typed(self, recorded):
        path, _ = recorded
        journal = read_journal(str(path))
        assert journal.complete
        assert journal.header["scenario"]["builder"] == "datacenter-experiment"
        assert len(journal.barriers) >= 4
        indices = [barrier.index for barrier in journal.barriers]
        assert indices == sorted(indices)

    def test_serial_replay_reproduces_the_run(self, recorded):
        path, live = recorded
        replayed = replay(str(path))
        assert replayed.bills == live.bills
        assert replayed.tenant_reports == live.tenant_reports
        assert replayed.total_energy_joules == live.total_energy_joules

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_replay_reproduces_the_run(self, recorded, workers):
        path, live = recorded
        replayed = replay(str(path), backend="sharded", workers=workers)
        assert replayed.bills == live.bills
        assert replayed.tenant_reports == live.tenant_reports

    @needs_fork
    def test_sharded_recording_differs_only_in_header(
        self, recorded, tmp_path
    ):
        path, _ = recorded
        sharded_path = tmp_path / "sharded.ndjson"
        record_run(sharded_path, make_config(), backend="sharded", workers=2)
        serial_lines = path.read_text().splitlines()
        sharded_lines = sharded_path.read_text().splitlines()
        assert len(serial_lines) == len(sharded_lines)
        # Line 1 carries backend/workers provenance; all barrier and
        # result records must be byte-identical across backends.
        assert serial_lines[1:] == sharded_lines[1:]


class TestChaosAndResume:
    @pytest.fixture(scope="class")
    def chaos_config(self):
        return make_config(
            machines=3, budget=640.0, chaos={"kills": 1, "seed": 7}
        )

    @pytest.fixture(scope="class")
    def chaos_recorded(self, tmp_path_factory, chaos_config):
        path = tmp_path_factory.mktemp("chaos") / "chaos.ndjson"
        result = record_run(path, chaos_config)
        return path, result

    def test_failure_recorded_and_billing_conserved(self, chaos_recorded):
        path, result = chaos_recorded
        assert len(result.failures) == 1
        assert result.energy_conservation_rel_error() <= 1e-12
        journal = read_journal(str(path))
        journaled_failures = [
            failure
            for barrier in journal.barriers
            for failure in barrier.failures
        ]
        assert journaled_failures == result.failures

    def test_chaos_replay_reproduces_the_failure(self, chaos_recorded):
        path, live = chaos_recorded
        replayed = replay(str(path))
        assert replayed.failures == live.failures
        assert replayed.bills == live.bills

    @needs_fork
    def test_sharded_chaos_matches_serial(self, chaos_recorded, chaos_config):
        _, serial = chaos_recorded
        engine = build_engine_from_config(
            chaos_config, backend="sharded", workers=2
        )
        sharded = engine.run()
        assert sharded.failures == serial.failures
        assert sharded.bills == serial.bills
        assert sharded.tenant_reports == serial.tenant_reports

    def test_crash_at_every_barrier_resumes_identically(
        self, chaos_recorded, tmp_path
    ):
        """Truncate the journal after each barrier (with a torn final
        write) and resume: bills must equal the uncrashed run's and
        conservation must hold."""
        path, reference = chaos_recorded
        lines = path.read_text().splitlines()
        barrier_lines = [
            i
            for i, line in enumerate(lines)
            if json.loads(line)["kind"] == "barrier"
        ]
        assert barrier_lines, "recorded journal has no barrier records"
        for crash_at, keep in enumerate(barrier_lines):
            crashed = tmp_path / f"crash-{crash_at}.ndjson"
            crashed.write_text(
                "\n".join(lines[: keep + 1] + ['{"kind":"barr']) + "\n"
            )
            resumed = resume(str(crashed))
            assert resumed.bills == reference.bills
            assert resumed.failures == reference.failures
            assert resumed.energy_conservation_rel_error() <= 1e-12

    def test_resume_can_record_a_fresh_replayable_journal(
        self, chaos_recorded, tmp_path
    ):
        path, reference = chaos_recorded
        lines = path.read_text().splitlines()
        first_barrier = next(
            i
            for i, line in enumerate(lines)
            if json.loads(line)["kind"] == "barrier"
        )
        crashed = tmp_path / "crashed.ndjson"
        crashed.write_text("\n".join(lines[: first_barrier + 1]) + "\n")
        fresh = tmp_path / "resumed.ndjson"
        resumed = resume(str(crashed), journal_path=str(fresh))
        assert resumed.bills == reference.bills
        replayed = replay(str(fresh))
        assert replayed.bills == reference.bills


def corrupt_barrier(path, tmp_path, corrupt, line=3):
    """Copy the journal at ``path`` with ``corrupt`` applied to one line."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[line - 1])
    assert record["kind"] == "barrier"
    corrupt(record)
    lines[line - 1] = json.dumps(record)
    copy = tmp_path / "corrupt.ndjson"
    copy.write_text("\n".join(lines) + "\n")
    return copy


WRONG_TYPED_BARRIERS = [
    pytest.param(
        lambda r: r.update(tenants=5),
        "field 'tenants' must be a list, got 5",
        id="tenants-not-a-list",
    ),
    pytest.param(
        lambda r: r.update(caps=5),
        "field 'caps' must be a list, got 5",
        id="caps-not-a-list",
    ),
    pytest.param(
        lambda r: r["tenants"][0].update(completions_delta=3),
        "field 'completions_delta' must be a list, got 3",
        id="completions-not-a-list",
    ),
    pytest.param(
        lambda r: r["tenants"][0].update(completions_delta=[[1.0]]),
        "field 'completions_delta' holds [1.0], not a two-element list",
        id="one-element-completion",
    ),
    pytest.param(
        lambda r: r["tenants"][0].update(completions_delta=["ab"]),
        "field 'completions_delta' holds 'ab', not a two-element list",
        id="string-completion",
    ),
    pytest.param(
        lambda r: r["tenants"][0].update(pending=[{"x": 1, "y": 2}]),
        "field 'pending' holds {'x': 1, 'y': 2}, not a two-element list",
        id="object-pending",
    ),
    pytest.param(
        lambda r: r.update(index=str(r["index"])),
        "barrier index must be an integer, got '1'",
        id="string-index",
    ),
]


class TestReaderErrors:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("reader") / "run.ndjson"
        result = record_run(path, make_config())
        return path, result

    def test_torn_final_line_is_tolerated(self, recorded, tmp_path):
        path, _ = recorded
        torn = tmp_path / "torn.ndjson"
        torn.write_text(path.read_text() + '{"kind":"barr')
        journal = read_journal(str(torn))
        assert journal.complete

    def test_mid_journal_corruption_names_path_and_line(
        self, recorded, tmp_path
    ):
        path, _ = recorded
        lines = path.read_text().splitlines()
        lines[1] = '{"kind": "barrier", not json'
        corrupt = tmp_path / "corrupt.ndjson"
        corrupt.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalDecodeError) as excinfo:
            read_journal(str(corrupt))
        message = str(excinfo.value)
        assert "corrupt.ndjson" in message
        assert "2" in message

    @pytest.mark.parametrize("corrupt, expected", WRONG_TYPED_BARRIERS)
    def test_wrong_typed_barrier_field_names_path_and_line(
        self, recorded, tmp_path, corrupt, expected
    ):
        path, _ = recorded
        copy = corrupt_barrier(path, tmp_path, corrupt)
        with pytest.raises(JournalDecodeError) as excinfo:
            read_journal(str(copy))
        message = str(excinfo.value)
        assert "corrupt.ndjson:3" in message
        assert expected in message

    def test_replay_of_a_wrong_typed_journal_exits_2(
        self, recorded, tmp_path, capsys
    ):
        path, _ = recorded
        copy = corrupt_barrier(path, tmp_path, lambda r: r.update(tenants=5))
        assert main(["replay", "--journal", str(copy)]) == 2
        err = capsys.readouterr().err
        assert "corrupt.ndjson:3" in err
        assert "must be a list" in err

    def test_replay_refuses_an_incomplete_journal(self, recorded, tmp_path):
        path, _ = recorded
        lines = [
            line
            for line in path.read_text().splitlines()
            if json.loads(line)["kind"] != "result"
        ]
        partial = tmp_path / "partial.ndjson"
        partial.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="resume"):
            replay(str(partial))


class TestJournalCli:
    def test_record_then_replay_round_trips(self, tmp_path, capsys):
        journal = tmp_path / "run.ndjson"
        assert (
            main(["datacenter", "--scale", "tiny", "--journal", str(journal)])
            == 0
        )
        capsys.readouterr()
        assert main(["replay", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "Journal replayed" in out

    def test_unwritable_journal_path_exits_2(self, capsys):
        code = main(
            [
                "datacenter",
                "--scale",
                "tiny",
                "--journal",
                "/nonexistent-dir/run.ndjson",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err

    def test_non_journal_file_is_refused(self, tmp_path, capsys):
        existing = tmp_path / "notes.txt"
        existing.write_text("not a journal\n")
        code = main(
            ["datacenter", "--scale", "tiny", "--journal", str(existing)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "not a run journal" in err

    def test_schema_mismatch_is_refused(self, tmp_path, capsys):
        stale = tmp_path / "old.ndjson"
        stale.write_text('{"kind":"header","journal_schema":99}\n')
        code = main(["datacenter", "--scale", "tiny", "--journal", str(stale)])
        assert code == 2
        err = capsys.readouterr().err
        assert "schema version 99" in err

    def test_replay_of_missing_journal_exits_2(self, tmp_path, capsys):
        code = main(
            ["replay", "--journal", str(tmp_path / "missing.ndjson")]
        )
        assert code == 2
        assert "cannot read journal" in capsys.readouterr().err
