"""Engine-level parity for the kept ``step_mode="batched"`` keyword.

The engine has one per-item step kernel; ``DatacenterEngine`` still
accepts ``step_mode="batched"`` because ``perfbench/workloads.py``
passes it.  The keyword must change no byte: every standing bench
scenario kind — open, arbitrated, budget-shock, consolidation, chaos,
grayfail — produces byte-identical bills, cap/budget/migration history
and journals with and without it, on the serial and sharded backends
alike, and plain ``PowerDialRuntime`` instances step either way.  The
canonical result payload (the same record ``replay`` verifies) is the
comparison surface, so a single ``canonical_json`` equality pins every
float of every artifact.
"""

import json

import pytest

from repro.bench.scenarios import PoolScenario, build_pool_engine
from repro.core.runtime import PowerDialRuntime
from repro.datacenter.engine import DatacenterEngine, EngineError
from repro.datacenter.journal.codec import canonical_json
from repro.datacenter.journal.reader import read_journal
from repro.datacenter.journal.replay import (
    journaled_run,
    replay,
    result_payload,
)
from repro.datacenter.journal.writer import JournalWriter

HORIZON = 20.0

SCENARIOS = {
    "open": PoolScenario(machines=2, horizon=HORIZON, rate=0.4),
    "arbitrated": PoolScenario(
        machines=2, horizon=HORIZON, rate=0.4, arbitrated=True
    ),
    "budget_shock": PoolScenario(
        machines=3, horizon=HORIZON, rate=0.4, arbitrated=True,
        budget_shock=True,
    ),
    "consolidation": PoolScenario(
        machines=3, horizon=HORIZON, rate=0.4, consolidation=True
    ),
    "chaos": PoolScenario(
        machines=3, horizon=HORIZON, rate=0.4, chaos_kills=1
    ),
    "grayfail": PoolScenario(
        machines=3, horizon=HORIZON, rate=0.4, grayfail=True
    ),
}


def canonical_result(scenario, backend="serial", workers=None):
    engine = build_pool_engine(scenario, backend=backend, workers=workers)
    return canonical_json(result_payload(engine.run()))


def record(scenario, path):
    engine = build_pool_engine(scenario)
    writer = JournalWriter(str(path), {"scenario": "parity"})
    try:
        journaled_run(engine, writer)
    finally:
        writer.close()
    return path.read_bytes()


def assert_plain_runtimes(built):
    """The keyword reached every engine, and none swapped its runtimes."""
    assert built
    for engine in built:
        assert all(
            type(binding.runtime) is PowerDialRuntime
            for binding in engine.bindings
        )


@pytest.fixture(scope="module")
def scalar_references():
    """Serial canonical payloads without the keyword, once per scenario."""
    return {
        name: canonical_result(scenario)
        for name, scenario in SCENARIOS.items()
    }


class TestSerialParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_batched_serial_matches_scalar(
        self, scalar_references, batched_step_mode, name
    ):
        """Bills, histories, and sample digests: byte-identical."""
        built = batched_step_mode()
        got = canonical_result(SCENARIOS[name])
        assert_plain_runtimes(built)
        assert got == scalar_references[name]


class TestShardedParity:
    @pytest.mark.parametrize("name", ["chaos", "grayfail"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_batched_sharded_matches_scalar(
        self, scalar_references, batched_step_mode, name, workers
    ):
        """The heaviest scenarios (kills, checkpoints, warm rebuilds,
        fault injection) across 1/2/4 workers."""
        built = batched_step_mode()
        got = canonical_result(
            SCENARIOS[name], backend="sharded", workers=workers
        )
        assert_plain_runtimes(built)
        assert got == scalar_references[name]


class TestJournalParity:
    def test_journals_are_byte_identical(self, tmp_path, batched_step_mode):
        """A run with the keyword writes the exact bytes a run without
        it writes — step_mode never leaks into records or checkpoints."""
        scenario = SCENARIOS["arbitrated"]
        scalar = record(scenario, tmp_path / "scalar.ndjson")
        built = batched_step_mode()
        batched = record(scenario, tmp_path / "batched.ndjson")
        assert_plain_runtimes(built)
        assert batched == scalar

    def test_header_never_records_step_mode(self, tmp_path, batched_step_mode):
        path = tmp_path / "run.ndjson"
        built = batched_step_mode()
        record(SCENARIOS["arbitrated"], path)
        assert built
        for line in path.read_text().splitlines():
            assert "step_mode" not in json.loads(line)


class TestReplayAcrossKernels:
    def test_batched_replay_of_experiment_journal(
        self, tmp_path, batched_step_mode
    ):
        """A journal recorded by the experiment runner replays byte-
        exactly with the keyword (the keyword-free replay is covered by
        the standing replay tests)."""
        from repro.experiments.common import Scale
        from repro.experiments.datacenter import run_datacenter

        path = tmp_path / "experiment.ndjson"
        run_datacenter(scale=Scale.TINY, machines=2, journal=str(path))
        built = batched_step_mode()
        result = replay(str(path))
        assert_plain_runtimes(built)
        journal = read_journal(str(path))
        assert canonical_json(result_payload(result)) == canonical_json(
            journal.result
        )

    def test_batched_recorded_journal_replays_scalar(
        self, tmp_path, monkeypatch, batched_step_mode
    ):
        """Record with the keyword, replay without it: the journal
        carries no trace of it."""
        from repro.experiments.common import Scale
        from repro.experiments.datacenter import run_datacenter

        path = tmp_path / "batched.ndjson"
        built = batched_step_mode()
        run_datacenter(scale=Scale.TINY, machines=2, journal=str(path))
        assert_plain_runtimes(built)
        monkeypatch.undo()
        replay(str(path))  # raises JournalError on any divergence


class TestStepModeValidation:
    def test_unknown_step_mode_rejected(self):
        engine = build_pool_engine(SCENARIOS["open"])
        with pytest.raises(EngineError, match="step_mode"):
            DatacenterEngine(
                engine.machines, engine.bindings, step_mode="vectorized"
            )
