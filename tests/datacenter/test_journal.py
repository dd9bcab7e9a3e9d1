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
import re
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.runtime import RunResult, RuntimeSnapshot, SampleColumns
from repro.datacenter import DatacenterEngine, DatacenterResult, fork_available
from repro.datacenter import engine as engine_module
from repro.datacenter.billing import TenantBill
from repro.datacenter.checkpoint import (
    BarrierRecord,
    MachineCheckpoint,
    TenantCheckpoint,
)
from repro.datacenter.controlplane import (
    Action,
    FailMachine,
    FailureRecord,
    Migrate,
    MigrationRecord,
    SetBudget,
    SetCaps,
)
from repro.datacenter.faults import FaultRecord, RetryRecord
from repro.datacenter.journal import (
    JournalDecodeError,
    JournalError,
    canonical_json,
    decode_barrier,
    decode_record,
    encode_barrier,
    encode_record,
    read_journal,
    replay,
    result_payload,
    resume,
)
from repro.datacenter.tenants import TenantReport
from repro.experiments import datacenter as experiments_module
from repro.experiments.__main__ import main
from repro.experiments.common import Scale
from repro.experiments.datacenter import run_datacenter
from repro.heartbeats.api import HeartbeatWindowState
from tests.datacenter.conftest import assert_same_result, tiny_scenario
from tests.datacenter.test_faults import (
    FAULT_PLANS,
    fault_records,
    retry_records,
)

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

indices = st.integers(min_value=0, max_value=64)

migration_records = st.builds(
    MigrationRecord,
    time=finite,
    tenant=st.text(max_size=12),
    source_machine_index=indices,
    dest_machine_index=indices,
    cost_seconds=finite,
    warm=st.booleans(),
)

machine_checkpoints = st.builds(
    MachineCheckpoint,
    index=indices,
    now=finite,
    frequency_ghz=finite,
    energy_joules=finite,
    idle_energy_joules=finite,
    mean_power=finite,
    alive=st.booleans(),
)

counts = st.integers(min_value=0, max_value=10**6)


def tuples_of(elements, max_size=3):
    return st.lists(elements, max_size=max_size).map(tuple)


tenant_reports = st.builds(
    TenantReport,
    name=st.text(max_size=12),
    offered=counts,
    admitted=counts,
    rejected=counts,
    completed=counts,
    mean_latency=finite,
    p95_latency=finite,
    attainment=finite,
    sla_met=st.booleans(),
)

failure_records = st.builds(
    FailureRecord,
    time=finite,
    machine_index=indices,
    replacements=tuples_of(migration_records),
)

windows = st.builds(
    HeartbeatWindowState,
    count=counts,
    last_timestamp=st.one_of(st.none(), finite),
    intervals=tuples_of(finite, max_size=20),
    window_sum=finite,
)

# Controller state is an opaque tree of JSON scalars and tuples.
opaque_states = st.recursive(
    st.one_of(st.none(), st.booleans(), counts, finite, st.text(max_size=4)),
    lambda children: tuples_of(children),
    max_leaves=6,
)

snapshots = st.builds(
    RuntimeSnapshot,
    controller_state=opaque_states,
    plan_speedup=st.one_of(st.none(), finite),
    window=windows,
    beats_in_quantum=counts,
    quantum_start=finite,
    taken_at=finite,
)


# Tenant checkpoints, warm or cold, renamed so each barrier's tenants
# are unique by name, as the journal keys them.
barrier_tenants = tuples_of(
    st.builds(
        TenantCheckpoint,
        tenant=st.just(""),
        machine_index=indices,
        offered=counts,
        rejected=counts,
        completions=tuples_of(st.tuples(finite, finite)),
        next_request=counts,
        pending=tuples_of(st.tuples(counts, finite)),
        energy_joules=finite,
        busy_seconds=finite,
        steps=counts,
        finished=st.booleans(),
        snapshot=st.one_of(st.none(), snapshots),
    )
).map(
    lambda tenants: tuple(
        replace(checkpoint, tenant=f"t{i}")
        for i, checkpoint in enumerate(tenants)
    )
)

# What the engine keeps per barrier: no checkpoints.
barrier_records = st.builds(
    BarrierRecord,
    index=counts,
    time=finite,
    actions=tuples_of(actions, max_size=4),
    budget_watts=st.one_of(st.none(), finite),
    caps=st.one_of(st.none(), tuples_of(finite, max_size=6)),
    tenants=st.none(),
    machines=st.none(),
    migrations=tuples_of(migration_records),
    failures=tuples_of(failure_records),
    faults=tuples_of(fault_records),
    retries=tuples_of(retry_records),
)


# Every type the schema reads through decode_record, with its values.
RECORD_TYPES = [
    pytest.param(Action, actions, id="action"),
    pytest.param(TenantBill, bills, id="bill"),
    pytest.param(TenantReport, tenant_reports, id="tenant-report"),
    pytest.param(MigrationRecord, migration_records, id="migration"),
    pytest.param(FailureRecord, failure_records, id="failure"),
    pytest.param(FaultRecord, fault_records, id="fault"),
    pytest.param(RetryRecord, retry_records, id="retry"),
    pytest.param(MachineCheckpoint, machine_checkpoints, id="machine"),
    pytest.param(HeartbeatWindowState, windows, id="window"),
    pytest.param(RuntimeSnapshot, snapshots, id="snapshot"),
]


class TestCodecRoundTrip:
    """encode -> decode -> encode is byte-stable for every finite value."""

    @pytest.mark.parametrize("record_type, records", RECORD_TYPES)
    @given(data=st.data())
    def test_record_round_trip_is_exact(self, record_type, records, data):
        record = data.draw(records)
        first = encode_record(record)
        line = json.loads(canonical_json(first))
        decoded = decode_record(record_type, line, "test")
        assert decoded == record
        assert canonical_json(encode_record(decoded)) == canonical_json(first)

    @pytest.mark.parametrize("record_type, records", RECORD_TYPES)
    def test_missing_field_is_named(self, record_type, records):
        first = "type" if record_type is Action else fields(record_type)[0].name
        with pytest.raises(
            JournalDecodeError, match=f"^test: missing field '{first}'$"
        ):
            decode_record(record_type, {}, "test")

    @given(
        barrier_records,
        barrier_tenants,
        tuples_of(machine_checkpoints),
    )
    def test_barrier_round_trip_is_exact(self, record, tenants, machines):
        first = encode_barrier(record, (tenants, machines), {})
        line = json.loads(canonical_json(first))
        decoded = decode_barrier(line, {}, "test")
        assert decoded == replace(
            record,
            tenants={checkpoint.tenant: checkpoint for checkpoint in tenants},
            machines=machines,
        )
        again = encode_barrier(
            decoded, (tuple(decoded.tenants.values()), decoded.machines), {}
        )
        assert canonical_json(again) == canonical_json(first)
        # Read without checkpoints, the line is the record itself.
        assert decode_barrier(line, {}, "test", checkpoints=False) == record

    def test_action_errors_name_the_problem(self):
        with pytest.raises(JournalDecodeError, match="unknown action type"):
            decode_record(Action, {"type": "reboot"}, "barrier 3 action 1")
        with pytest.raises(
            JournalDecodeError,
            match="^barrier 3 action 1: missing field 'type'$",
        ):
            decode_record(Action, {"caps": [1.0]}, "barrier 3 action 1")

    def test_only_coerced_floats_refuse_an_int(self):
        # SetCaps.caps is written through float(), so a JSON int there
        # is one the encoder never writes; other float fields are
        # written as they are, and take one.
        with pytest.raises(
            JournalDecodeError, match=r"^a: caps\[0\]: expected float, got 5$"
        ):
            decode_record(Action, {"type": "set_caps", "caps": [5]}, "a")
        budget = {"type": "set_budget", "budget_watts": 5}
        assert decode_record(Action, budget, "a") == SetBudget(5)
        assert canonical_json(encode_record(SetCaps((5,)))) == (
            '{"caps":[5.0],"type":"set_caps"}'
        )

    @pytest.mark.parametrize(
        "value, expected",
        [
            (True, "index: expected int, got True"),
            (2.0, "index: expected int, got 2.0"),
            ("2", "index: expected int, got '2'"),
        ],
    )
    def test_an_int_field_takes_neither_bool_nor_float(self, value, expected):
        with pytest.raises(JournalDecodeError, match=f"^m: {expected}$"):
            decode_record(MachineCheckpoint, {"index": value}, "m")

    def test_opaque_controller_state_refuses_an_object(self):
        snapshot = json.loads(
            canonical_json(
                encode_record(
                    RuntimeSnapshot(
                        (1.0, (2, "x", None)),
                        None,
                        HeartbeatWindowState(0, None, (), 0.0),
                        0,
                        0.0,
                        0.0,
                    )
                )
            )
        )
        assert decode_record(RuntimeSnapshot, snapshot, "s").controller_state == (
            1.0,
            (2, "x", None),
        )
        snapshot["controller_state"][1][0] = {"a": 1}
        with pytest.raises(
            JournalDecodeError,
            match=r"^s: controller_state\[1\]\[0\]: expected a scalar or a list",
        ):
            decode_record(RuntimeSnapshot, snapshot, "s")


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


def record_keeping_engine(monkeypatch, record):
    """Run ``record()`` and return the journaled engine with its result."""
    engines = []
    journaled_run = experiments_module.journaled_run

    def keeping(engine, writer):
        engines.append(engine)
        return journaled_run(engine, writer)

    monkeypatch.setattr(experiments_module, "journaled_run", keeping)
    result = record()
    (engine,) = engines
    return engine, result


# Each run, with the histories it must fill.
LIVE_RECORD_RUNS = {
    "everything": (
        lambda path, backend, workers: tiny_scenario(
            3, 630.0, faults=FAULT_PLANS["everything"]
        ).record(path, backend, workers),
        ("failures", "faults", "retries"),
    ),
    # `datacenter --scale tiny --policy migrating --chaos 1` on three
    # machines: a kill, then a cold move at the last barrier.
    "migrating-chaos": (
        lambda path, backend, workers: run_datacenter(
            scale=Scale.TINY,
            machines=3,
            budget_watts=640.0,
            policy="migrating",
            chaos=1,
            journal=path,
            backend=backend,
            workers=workers,
        ).arbitrated,
        ("failures", "migrations"),
    ),
}


class TestJournalIsTheLiveRecord:
    """The engine keeps one ``BarrierRecord`` per barrier; the journal
    is its persisted subset and the result's histories derive from it."""

    @pytest.mark.parametrize("backend, workers", RESUME_BACKENDS)
    @pytest.mark.parametrize("run", sorted(LIVE_RECORD_RUNS))
    def test_journal_barriers_are_the_engine_records(
        self, run, backend, workers, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "run.ndjson")
        record, filled = LIVE_RECORD_RUNS[run]
        engine, result = record_keeping_engine(
            monkeypatch, lambda: record(path, backend, workers)
        )
        barriers = engine.barriers
        journal = read_journal(path, checkpoints=False)
        assert journal.barriers == tuple(barriers)
        assert all(
            barrier.tenants is None and barrier.machines is None
            for barrier in barriers
        )
        for history in filled:
            assert getattr(result, history), history

        def with_action(kind):
            return [
                barrier
                for barrier in barriers
                if any(isinstance(action, kind) for action in barrier.actions)
            ]

        assert result.cap_history == [
            (barrier.time, barrier.caps) for barrier in with_action(SetCaps)
        ]
        assert result.budget_history == [
            (0.0, journal.header["initial_budget_watts"]),
            *((b.time, b.budget_watts) for b in with_action(SetBudget)),
        ]
        for history in ("migrations", "failures", "faults", "retries"):
            assert getattr(result, history) == [
                entry for barrier in barriers for entry in getattr(barrier, history)
            ], history


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
        lambda h: h["scenario"]["config"]["tenants"][1].update(name="alpha"),
        "tenant 'alpha': tenant names must be unique",
        id="duplicate-tenant-name",
    ),
    pytest.param(
        lambda h: h["scenario"]["config"]["tenants"][0].update(rate=-1),
        "tenant 'alpha': rate must be positive and finite, got -1",
        id="negative-rate",
    ),
    pytest.param(
        lambda h: h["scenario"]["config"]["tenants"][0].update(
            latency_bound=-1
        ),
        "tenant 'alpha': latency_bound must be positive, got -1",
        id="negative-latency-bound",
    ),
    pytest.param(
        lambda h: h["scenario"]["config"]["tenants"][0].update(seed="1"),
        "tenant 'alpha': seed must be a non-negative integer, got '1'",
        id="string-seed",
    ),
    pytest.param(
        lambda h: h["scenario"]["config"].update(budget_watts=10.0),
        "budget_watts 10.0 is below the pool's floor 365.9 W",
        id="budget-below-floor",
    ),
    pytest.param(
        lambda h: h["scenario"]["config"].update(budget_trace=[[5.0, 10.0]]),
        "budget_trace entry 0 (t=5 s): budget 10 W is below the fleet-wide "
        "cap floor 365.9 W",
        id="budget-trace-below-floor",
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
    pytest.param(
        lambda h: h.update(codec=99),
        "codec 99 != supported 1",
        id="codec-99",
    ),
    pytest.param(
        lambda h: h.update(codec=True),
        "codec True != supported 1",
        id="codec-true",
    ),
    pytest.param(
        lambda h: h.update(journal_schema=99),
        "journal_schema 99 != supported 2",
        id="schema-99",
    ),
]

WRONG_TYPED_BARRIERS = [
    pytest.param(
        lambda r: r.update(tenants=5),
        "tenants: expected a list, got 5",
        id="tenants-not-a-list",
    ),
    pytest.param(
        lambda r: r.update(caps=5),
        "caps: expected a list, got 5",
        id="caps-not-a-list",
    ),
    pytest.param(
        lambda r: r["tenants"][0].update(completions_delta=3),
        "tenants[0].completions_delta: expected a list, got 3",
        id="completions-not-a-list",
    ),
    pytest.param(
        lambda r: r["tenants"][0].update(completions_delta=[[1.0]]),
        "tenants[0].completions_delta[0]: expected a 2-element list, "
        "got [1.0]",
        id="one-element-completion",
    ),
    pytest.param(
        lambda r: r["tenants"][0].update(completions_delta=["ab"]),
        "tenants[0].completions_delta[0]: expected a 2-element list, "
        "got 'ab'",
        id="string-completion",
    ),
    pytest.param(
        lambda r: r["tenants"][0].update(pending=[{"x": 1, "y": 2}]),
        "tenants[0].pending[0]: expected a 2-element list, got "
        "{'x': 1, 'y': 2}",
        id="object-pending",
    ),
    pytest.param(
        lambda r: r.update(index=str(r["index"])),
        "index: expected int, got '1'",
        id="string-index",
    ),
    pytest.param(
        lambda r: r.update(time=str(r["time"])),
        "time: expected float, got '6.0'",
        id="string-time",
    ),
    pytest.param(
        lambda r: r.update(budget_watts="lots"),
        "budget_watts: expected float, got 'lots'",
        id="string-budget",
    ),
    pytest.param(
        lambda r: r["actions"][0].update(caps=["a", "b"]),
        "actions[0].caps[0]: expected float, got 'a'",
        id="string-action-cap",
    ),
    pytest.param(
        lambda r: r["actions"][0].update(caps="ab"),
        "actions[0].caps: expected a list, got 'ab'",
        id="string-action-caps",
    ),
    pytest.param(
        lambda r: r["tenants"][0]["ledger"].update(energy_joules="1.0"),
        "tenants[0].ledger.energy_joules: expected float, got '1.0'",
        id="string-ledger",
    ),
    pytest.param(
        lambda r: r["tenants"][1]["ledger_delta"].update(steps=1.0),
        "tenants[1].ledger_delta.steps: expected int, got 1.0",
        id="float-ledger-delta-steps",
    ),
    pytest.param(
        lambda r: r["tenants"][0]["snapshot"]["window"].update(count=True),
        "tenants[0].snapshot.window.count: expected int, got True",
        id="bool-window-count",
    ),
    pytest.param(
        lambda r: r["machines"][0].update(now="5"),
        "machines[0].now: expected float, got '5'",
        id="string-machine-now",
    ),
    pytest.param(
        lambda r: r["machines"][1].update(alive=1),
        "machines[1].alive: expected bool, got 1",
        id="int-machine-alive",
    ),
    pytest.param(
        lambda r: r["machines"][0].update(index=0.0),
        "machines[0].index: expected int, got 0.0",
        id="float-machine-index",
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
        assert str(excinfo.value) == (
            f"{copy}:3 (barrier record): {expected}"
        )

    def test_decode_errors_name_the_field_path(self, recorded, tmp_path):
        """The format every decode error follows: ``path:line (record
        kind): field path: what was expected, got what``."""
        path, _ = recorded
        copy = corrupt_record(
            path, tmp_path, lambda r: r["actions"][0]["caps"].__setitem__(1, "a")
        )
        with pytest.raises(JournalDecodeError) as excinfo:
            read_journal(str(copy))
        assert str(excinfo.value) == (
            f"{copy}:3 (barrier record): actions[0].caps[1]: expected float, "
            "got 'a'"
        )

    def test_replay_of_a_wrong_typed_journal_exits_2(
        self, recorded, tmp_path, capsys
    ):
        path, _ = recorded
        copy = corrupt_record(path, tmp_path, lambda r: r.update(tenants=5))
        assert main(["replay", "--journal", str(copy)]) == 2
        err = capsys.readouterr().err
        assert "corrupt.ndjson:3" in err
        assert "tenants: expected a list, got 5" in err

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
        assert "tenants[0].completions_delta: expected a list, got 3" in err
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


def scalar_paths(value, path=()):
    """The path of every scalar in a decoded JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from scalar_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from scalar_paths(item, path + (index,))
    else:
        yield path


def set_at(value, path, replacement):
    """Replace the item at ``path`` inside ``value``."""
    for step in path[:-1]:
        value = value[step]
    value[path[-1]] = replacement


def is_number(value):
    """A JSON number: a float field's value wherever the encoder writes
    the field's value as it is, which may be an int."""
    return type(value) in (int, float)


# The wire type of each named scalar in a barrier line, written out
# independently of the codec.
WIRE_TYPES = {
    **dict.fromkeys(
        (
            "index",
            "machine_index",
            "dest_machine_index",
            "source_machine_index",
            "offered",
            "rejected",
            "completed_total",
            "next_request",
            "steps",
            "count",
            "beats_in_quantum",
            "attempt",
        ),
        lambda value: type(value) is int,
    ),
    **dict.fromkeys(
        ("warm", "finished", "alive"), lambda value: type(value) is bool
    ),
    **dict.fromkeys(
        ("tenant", "kind", "outcome"), lambda value: type(value) is str
    ),
    **dict.fromkeys(
        (
            "time",
            "cost_seconds",
            "energy_joules",
            "busy_seconds",
            "now",
            "frequency_ghz",
            "idle_energy_joules",
            "mean_power",
            "window_sum",
            "quantum_start",
            "taken_at",
            "target_watts",
            "budget_watts",
        ),
        is_number,
    ),
    **dict.fromkeys(
        ("plan_speedup", "last_timestamp", "applied_watts"),
        lambda value: value is None or is_number(value),
    ),
    "mode": lambda value: value is None or type(value) is str,
    # Every action type has its own fields: no other value fits.
    "type": lambda value: False,
    # Null while the tenant is cold; an object needs every field.
    "snapshot": lambda value: value is None,
}


def wire_type_accepts(path, value):
    """Whether ``value`` has the wire type of the barrier-line scalar
    at ``path``."""
    keys = tuple("*" if isinstance(step, int) else step for step in path)
    if "controller_state" in keys:
        return not isinstance(value, dict)
    if keys == ("kind",):
        return value == "barrier"
    if keys == ("caps",):  # null before the first SetCaps
        return value is None or value == []
    if keys == ("budget_watts",):  # null on an uncapped run
        return value is None or is_number(value)
    if keys[-4:-1] == ("actions", "*", "caps"):  # written through float()
        return type(value) is float
    if keys[-3:-1] == ("pending", "*"):  # (index, arrival) pairs
        return type(value) is int if path[-1] == 0 else is_number(value)
    if keys[-1] == "*":  # caps, completions and heartbeat intervals
        return is_number(value)
    return WIRE_TYPES[keys[-1]](value)


WRONG_VALUES = ("x", True, None, 7, 1.5, [], {})

CHECKPOINT_KEYS = ("tenants", "machines")
"""A barrier line's checkpoint entries, which plain replay skips."""


class TestWrongTypedScalars:
    """One scalar of one barrier line replaced by a value of the wrong
    type: every reader refuses it as a ``JournalDecodeError`` naming
    ``path:line``, except that plain replay decodes no checkpoint and
    reproduces the bills past a bad one."""

    @pytest.fixture(scope="class")
    def chaos_journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chaos") / "chaos.ndjson"
        argv = ["datacenter", "--scale", "tiny", "--journal", str(path)]
        assert main(argv + ["--chaos", "1"]) == 0
        return path

    @staticmethod
    def corrupt(journal, data, directory):
        """Write a copy of ``journal`` with one barrier scalar replaced;
        return it, its ``path:line`` and the replaced scalar's path."""
        lines = journal.read_text().splitlines()
        number = data.draw(st.integers(2, len(lines) - 1), label="line")
        record = json.loads(lines[number - 1])
        assert record["kind"] == "barrier"
        # As many draws outside the tenant and machine checkpoints as
        # inside them, where most of a line's scalars are.
        paths = list(scalar_paths(record))
        inside = [path for path in paths if path[0] in CHECKPOINT_KEYS]
        outside = [path for path in paths if path[0] not in CHECKPOINT_KEYS]
        region = data.draw(st.sampled_from([inside, outside]), label="region")
        path = data.draw(st.sampled_from(region), label="path")
        value = data.draw(st.sampled_from(WRONG_VALUES), label="value")
        assume(not wire_type_accepts(path, value))
        set_at(record, path, value)
        lines[number - 1] = canonical_json(record)
        copy = directory / "corrupt.ndjson"
        copy.write_text("\n".join(lines) + "\n")
        return copy, f"{copy}:{number}", path

    def assert_refused(self, read, copy, where):
        with pytest.raises(JournalDecodeError) as excinfo:
            read(str(copy))
        assert re.match(re.escape(where) + "[: ]", str(excinfo.value))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_read_and_resume_refuse_it(
        self, chaos_journal, tmp_path_factory, data
    ):
        directory = tmp_path_factory.mktemp("wrong-typed")
        copy, where, _ = self.corrupt(chaos_journal, data, directory)
        self.assert_refused(read_journal, copy, where)
        self.assert_refused(resume, copy, where)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_replay_refuses_it_outside_the_checkpoints(
        self, chaos_journal, tmp_path_factory, data
    ):
        directory = tmp_path_factory.mktemp("wrong-typed")
        copy, where, path = self.corrupt(chaos_journal, data, directory)
        if path[0] not in CHECKPOINT_KEYS:
            self.assert_refused(replay, copy, where)
            return
        recorded = json.loads(chaos_journal.read_text().splitlines()[-1])
        replayed = result_payload(replay(str(copy)))
        assert replayed["bills"] == recorded["payload"]["bills"]


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
