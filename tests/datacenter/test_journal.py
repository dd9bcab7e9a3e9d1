"""Journal subsystem tests: codec round-trips, byte-exact replay,
crash-at-every-barrier resume, chaos conservation, and the CLI paths.

The tiny scenarios here run through the *registered* scenario builder
(``datacenter-experiment``), exactly as a journal header references it,
so every test doubles as a check that a journal really is a sufficient
statistic for its run (ARCHITECTURE.md invariant 7).
"""

import hashlib
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.runtime import RunResult, SampleColumns
from repro.datacenter import DatacenterEngine, DatacenterResult, fork_available
from repro.datacenter import engine as engine_module
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
    canonical_json,
    decode_action,
    decode_bill,
    encode_action,
    encode_bill,
    read_journal,
    replay,
    result_payload,
    resume,
)
from repro.experiments.__main__ import main
from tests.datacenter.conftest import assert_same_result, tiny_scenario

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)

# Where a journal replays or a crashed run resumes: it must finish
# identically on either.
RESUME_BACKENDS = [
    pytest.param("serial", None, id="serial"),
    pytest.param("sharded", 2, id="sharded-2", marks=needs_fork),
]

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


SAMPLED_FIELDS = (
    "time",
    "window_rate",
    "normalized_performance",
    "knob_gain",
    "commanded_speedup",
    "frequency_ghz",
)


def oracle_samples_digest(result):
    """The samples digest hashed one beat line at a time."""

    def token(value):
        return "none" if value is None else float(value).hex()

    digest = hashlib.sha256()
    for name in sorted(result.run_results):
        run = result.run_results[name]
        digest.update(name.encode("utf-8"))
        digest.update(
            f"|{token(run.energy_joules)}|{token(run.elapsed)}\n".encode()
        )
        columns = run.columns
        for beat, *values in zip(
            columns.beat,
            columns.time,
            columns.window_rate,
            columns.normalized_performance,
            columns.knob_gain,
            columns.commanded_speedup,
            columns.frequency_ghz,
        ):
            digest.update(
                "|".join((str(beat), *map(token, values))).encode() + b"\n"
            )
    return digest.hexdigest()


def sampled_result(runs):
    """A result holding only ``runs``: name -> (energy, elapsed, rows)."""
    run_results = {}
    for name, (energy, elapsed, rows) in runs.items():
        columns = SampleColumns()
        for beat, row in enumerate(rows):
            columns.beat.append(beat)
            for field_name, value in zip(SAMPLED_FIELDS, row):
                getattr(columns, field_name).append(value)
        run_results[name] = RunResult(columns, [], None, energy, elapsed)
    return DatacenterResult(
        tenant_reports=[],
        run_results=run_results,
        bills=[],
        idle_energy_joules=[],
        machine_mean_power=[],
        total_energy_joules=0.0,
        makespan=0.0,
        budget_watts=None,
        cap_history=[],
    )


# Values whose tokens a shared memo could confuse: the two zeros (one
# dict key, two tokens), NaN (equal to no key), ints equal to floats,
# infinities and subnormals.
sample_values = st.one_of(
    st.none(),
    st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.0]
    ),
    st.integers(min_value=-(2**60), max_value=2**60),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
sampled_runs = st.dictionaries(
    st.text(max_size=6),
    st.tuples(
        sample_values,
        sample_values,
        st.lists(st.tuples(*[sample_values] * len(SAMPLED_FIELDS)), max_size=6),
    ),
    max_size=4,
)


class TestSamplesDigest:
    """The payload's samples digest is the per-beat-line hash."""

    @given(sampled_runs)
    def test_digest_matches_the_per_line_oracle(self, runs):
        result = sampled_result(runs)
        assert result_payload(result)["samples_digest"] == (
            oracle_samples_digest(result)
        )

    def test_signed_zeros_keep_their_tokens_across_runs(self):
        zeros = (0.0, -0.0, 0, -0.0, 0.0, -0.0)
        runs = {
            "b": (-0.0, 0.0, [zeros, tuple(reversed(zeros))]),
            "a": (0.0, -0.0, [tuple(-v for v in zeros)]),
            "c": (None, math.nan, []),
        }
        result = sampled_result(runs)
        assert result_payload(result)["samples_digest"] == (
            oracle_samples_digest(result)
        )
        flipped = sampled_result(
            {**runs, "a": (0.0, -0.0, [tuple(-v for v in reversed(zeros))])}
        )
        assert result_payload(flipped)["samples_digest"] != (
            result_payload(result)["samples_digest"]
        )


def spy_on_captures(monkeypatch, log):
    """Record checkpoint captures: each tenant capture as a line of
    ``log`` (shard workers append to it too), and the barrier times
    whose checkpoints reached the coordinator, which this returns."""
    capture = engine_module.capture_tenant_checkpoint

    def counting(binding):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(binding.tenant.name + "\n")
        return capture(binding)

    captured_at = []
    barrier = DatacenterEngine._barrier

    def spying(engine, now, gathered, transport):
        if gathered[1] is not None:
            captured_at.append(now)
        return barrier(engine, now, gathered, transport)

    monkeypatch.setattr(engine_module, "capture_tenant_checkpoint", counting)
    monkeypatch.setattr(DatacenterEngine, "_barrier", spying)
    return captured_at


class TestReplayParity:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("journal") / "run.ndjson"
        result = tiny_scenario().record(str(path))
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

    @pytest.mark.parametrize("backend, workers", RESUME_BACKENDS)
    def test_replay_without_failures_captures_nothing(
        self, recorded, tmp_path, monkeypatch, backend, workers
    ):
        path, live = recorded
        log = tmp_path / "captures.txt"
        captured_at = spy_on_captures(monkeypatch, log)
        replayed = replay(str(path), backend=backend, workers=workers)
        assert captured_at == []
        assert not log.exists()
        assert replayed.bills == live.bills

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_replay_reproduces_the_run(self, recorded, workers):
        path, live = recorded
        replayed = replay(str(path), backend="sharded", workers=workers)
        assert_same_result(replayed, live)
        assert replayed.bills == live.bills
        assert replayed.tenant_reports == live.tenant_reports

    @needs_fork
    def test_sharded_recording_differs_only_in_header(
        self, recorded, tmp_path
    ):
        path, _ = recorded
        sharded_path = tmp_path / "sharded.ndjson"
        tiny_scenario().record(str(sharded_path), "sharded", 2)
        serial_lines = path.read_text().splitlines()
        sharded_lines = sharded_path.read_text().splitlines()
        assert len(serial_lines) == len(sharded_lines)
        # Line 1 carries backend/workers provenance; all barrier and
        # result records must be byte-identical across backends.
        assert serial_lines[1:] == sharded_lines[1:]


class TestChaosAndResume:
    @pytest.fixture(scope="class")
    def chaos_scenario(self):
        return tiny_scenario(
            machines=3, budget=640.0, chaos={"kills": 1, "seed": 7}
        )

    @pytest.fixture(scope="class")
    def chaos_recorded(self, tmp_path_factory, chaos_scenario):
        path = tmp_path_factory.mktemp("chaos") / "chaos.ndjson"
        result = chaos_scenario.record(str(path))
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

    @pytest.mark.parametrize("backend, workers", RESUME_BACKENDS)
    def test_replay_captures_only_at_the_failure_barrier(
        self, chaos_recorded, tmp_path, monkeypatch, backend, workers
    ):
        path, live = chaos_recorded
        log = tmp_path / "captures.txt"
        captured_at = spy_on_captures(monkeypatch, log)
        replayed = replay(str(path), backend=backend, workers=workers)
        failed_at = [failure.time for failure in live.failures]
        assert len(failed_at) == 1
        assert captured_at == failed_at
        names = sorted(bill.tenant for bill in live.bills)
        assert sorted(log.read_text().split()) == names
        assert replayed.bills == live.bills
        assert replayed.failures == live.failures

    @needs_fork
    def test_sharded_chaos_matches_serial(
        self, chaos_recorded, chaos_scenario
    ):
        _, serial = chaos_recorded
        sharded = chaos_scenario.build("sharded", 2).run()
        assert_same_result(sharded, serial)
        assert sharded.failures == serial.failures
        assert sharded.bills == serial.bills
        assert sharded.tenant_reports == serial.tenant_reports

    @pytest.mark.parametrize("backend, workers", RESUME_BACKENDS)
    def test_crash_at_every_barrier_resumes_identically(
        self, chaos_recorded, tmp_path, backend, workers
    ):
        """Truncate the journal after each barrier (with a torn final
        write) and resume: the result must equal the uncrashed run's
        and conservation must hold."""
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
            resumed = resume(str(crashed), backend=backend, workers=workers)
            assert_same_result(resumed, reference)
            assert resumed.bills == reference.bills
            assert resumed.failures == reference.failures
            assert resumed.energy_conservation_rel_error() <= 1e-12

    @pytest.mark.parametrize("cut", [1, 2], ids=["before-kill", "at-kill"])
    @pytest.mark.parametrize("backend, workers", RESUME_BACKENDS)
    def test_resume_captures_only_where_it_reads(
        self, chaos_recorded, tmp_path, monkeypatch, backend, workers, cut
    ):
        """Resume reads the crash barrier (to attest it) and the live
        kill barrier (to restore from it), and captures nowhere else:
        at most 6 tenant captures, where capturing every barrier made
        18."""
        path, reference = chaos_recorded
        lines = path.read_text().splitlines()
        barrier_lines = [
            i
            for i, line in enumerate(lines)
            if json.loads(line)["kind"] == "barrier"
        ]
        crashed = tmp_path / "crashed.ndjson"
        crashed.write_text("\n".join(lines[: barrier_lines[cut] + 1]) + "\n")
        crash_time = read_journal(str(crashed)).barriers[-1].time
        log = tmp_path / "captures.txt"
        captured_at = spy_on_captures(monkeypatch, log)
        resumed = resume(str(crashed), backend=backend, workers=workers)
        expected = sorted(
            {crash_time, *(failure.time for failure in reference.failures)}
        )
        assert captured_at == expected
        captures = log.read_text().split()
        assert len(captures) == len(reference.bills) * len(expected) <= 6
        assert resumed.bills == reference.bills
        assert resumed.failures == reference.failures

    @pytest.mark.parametrize("backend, workers", RESUME_BACKENDS)
    def test_resume_can_record_a_fresh_replayable_journal(
        self, chaos_recorded, tmp_path, backend, workers
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
        resumed = resume(
            str(crashed), backend=backend, workers=workers,
            journal_path=str(fresh),
        )
        assert resumed.bills == reference.bills
        replayed = replay(str(fresh))
        assert replayed.bills == reference.bills


def corrupt_record(path, tmp_path, corrupt, line=3):
    """Copy the journal at ``path`` with ``corrupt`` applied to one line
    (by default the second barrier; line 1 is the header)."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[line - 1])
    assert record["kind"] == ("header" if line == 1 else "barrier")
    corrupt(record)
    lines[line - 1] = json.dumps(record)
    copy = tmp_path / "corrupt.ndjson"
    copy.write_text("\n".join(lines) + "\n")
    return copy


MALFORMED_HEADERS = [
    pytest.param(
        lambda h: h["scenario"]["config"].pop("machines"),
        "scenario config is missing 'machines'",
        id="missing-key",
    ),
    pytest.param(
        lambda h: h["scenario"]["config"]["tenants"][0].update(
            trace_kind="zig"
        ),
        "tenant 'alpha': unknown trace_kind 'zig'",
        id="unknown-trace-kind",
    ),
    pytest.param(
        lambda h: h["scenario"]["config"].update(machines=1),
        "--machines must be >= 2 (the tenant mix places tenants on "
        "machines 0-1), got 1",
        id="too-few-machines",
    ),
    pytest.param(
        lambda h: h["scenario"].update(builder="other"),
        "scenario builder is 'other'; expected 'datacenter-experiment'",
        id="wrong-builder",
    ),
    pytest.param(
        lambda h: h["scenario"].update(module="os"),
        "scenario module is 'os'; expected 'repro.experiments.datacenter'",
        id="wrong-module",
    ),
]

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
        result = tiny_scenario().record(str(path))
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
        copy = corrupt_record(path, tmp_path, corrupt)
        with pytest.raises(JournalDecodeError) as excinfo:
            read_journal(str(copy))
        message = str(excinfo.value)
        assert "corrupt.ndjson:3" in message
        assert expected in message

    def test_replay_of_a_wrong_typed_journal_exits_2(
        self, recorded, tmp_path, capsys
    ):
        path, _ = recorded
        copy = corrupt_record(path, tmp_path, lambda r: r.update(tenants=5))
        assert main(["replay", "--journal", str(copy)]) == 2
        err = capsys.readouterr().err
        assert "corrupt.ndjson:3" in err
        assert "must be a list" in err

    @pytest.mark.parametrize("resume", [False, True], ids=["replay", "resume"])
    @pytest.mark.parametrize("corrupt, expected", MALFORMED_HEADERS)
    def test_malformed_header_exits_2_naming_line_1(
        self, recorded, tmp_path, capsys, corrupt, expected, resume
    ):
        path, _ = recorded
        copy = corrupt_record(path, tmp_path, corrupt, line=1)
        argv = ["replay", "--journal", str(copy)]
        assert main(argv + ["--resume"] * resume) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {copy}:1 (header record): ")
        assert expected in captured.err
        assert captured.out == ""

    def test_a_malformed_checkpoint_is_reported_by_resume_not_replay(
        self, recorded, tmp_path, capsys
    ):
        path, live = recorded
        copy = corrupt_record(
            path,
            tmp_path,
            lambda r: r["tenants"][0].update(completions_delta=3),
        )
        assert main(["replay", "--journal", str(copy), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "corrupt.ndjson:3" in err
        assert "field 'completions_delta' must be a list, got 3" in err
        # Plain replay vouches for the actions and the result only.
        replayed = replay(str(copy))
        assert replayed.bills == live.bills
        assert main(["replay", "--journal", str(copy)]) == 0

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
