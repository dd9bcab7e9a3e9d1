"""Barrier checkpoints: incremental completions, machine meters, codec.

A tenant checkpoint's ``completions`` grows by sharing: each capture
extends the previous capture's tuple by only the requests completed
since, so consecutive checkpoints share one immutable prefix.  These
tests pin that the shared tuple is always exactly what a from-scratch
rebuild would give (on both backends, across warm migration and
failure restore), that a run builds each pair once, and that the cache
never reaches the wire, ``==`` or ``repr``.
"""

import multiprocessing
import pickle

import pytest

from repro.datacenter import engine as engine_module
from repro.datacenter import fork_available
from repro.datacenter.checkpoint import (
    TenantCheckpoint,
    capture_machine_checkpoint,
    capture_tenant_checkpoint,
)
from repro.datacenter.journal import JournalDecodeError, JournalError
from repro.datacenter.journal.codec import (
    decode_tenant_checkpoint,
    encode_tenant_checkpoint,
)
from repro.datacenter.tenants import TenantStats
from repro.experiments.common import Scale
from repro.experiments.datacenter import (
    TenantScenario,
    build_engine_from_config,
    run_datacenter,
    scenario_config,
)
from repro.hardware.power import PowerMeter
from tests.data.golden.regenerate import golden_settings, journal_path

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="sharded backend requires fork start method"
)


def rebuilt_pairs(stats):
    """The completions tuple as the pre-incremental capture built it."""
    return tuple((done.arrival, done.completion) for done in stats.completions)


def record_golden(name, path, backend="serial"):
    """Re-record one golden-corpus scenario's journaled run."""
    experiment = run_datacenter(
        scale=Scale.TINY,
        journal=str(path),
        backend=backend,
        workers=2 if backend == "sharded" else None,
        **golden_settings(name),
    )
    return experiment.arbitrated


def stats_with(*pairs):
    stats = TenantStats(offered=len(pairs))
    for arrival, completion in pairs:
        stats.record_completion(arrival, completion)
    return stats


def checkpoint_of(completions):
    return TenantCheckpoint(
        tenant="alpha",
        machine_index=0,
        offered=len(completions),
        rejected=0,
        completions=completions,
        next_request=len(completions),
        pending=(),
        energy_joules=0.0,
        busy_seconds=0.0,
        steps=0,
        finished=False,
        snapshot=None,
    )


class TestIncrementalCapture:
    @pytest.mark.parametrize(
        "backend",
        ["serial", pytest.param("sharded", marks=needs_fork)],
    )
    @pytest.mark.parametrize("name", ["migrating", "chaos"])
    def test_every_capture_equals_a_rebuild(
        self, name, backend, tmp_path, monkeypatch
    ):
        """At every barrier, on both backends, the shared tuple equals a
        from-scratch rebuild — also after a warm migration (stats cross
        the wire by pickle on the sharded backend) and after a failure
        restore (a fresh ``TenantStats``) — and the journal bytes are
        the committed corpus's."""
        checks = multiprocessing.Value("i", 0)  # shared with shard workers
        capture = capture_tenant_checkpoint

        def checked(binding):
            checkpoint = capture(binding)
            assert checkpoint.completions == rebuilt_pairs(binding.stats), (
                binding.tenant.name
            )
            with checks.get_lock():
                checks.value += 1
            return checkpoint

        # The one capture path on both backends: shard workers capture
        # through their host group, which reads the engine module.
        monkeypatch.setattr(engine_module, "capture_tenant_checkpoint", checked)
        path = tmp_path / f"{name}.ndjson"
        result = record_golden(name, path, backend)
        assert result.migrations if name == "migrating" else result.failures
        assert checks.value > 0
        # Line 1 carries backend provenance; every barrier and result
        # record must match the committed golden journal byte for byte.
        recorded = path.read_text().splitlines()
        golden = journal_path(name).read_text().splitlines()
        assert recorded[1:] == golden[1:]

    def test_a_run_builds_each_pair_once(self, tmp_path, monkeypatch):
        """O(new) as a count: every pair object any capture of a
        journaled, migrating run holds is built once, so the distinct
        pairs equal the completions captured, not their sum over
        barriers."""
        captured = []
        capture = capture_tenant_checkpoint

        def keeping(binding):
            checkpoint = capture(binding)
            captured.append((binding, checkpoint))
            return checkpoint

        monkeypatch.setattr(engine_module, "capture_tenant_checkpoint", keeping)
        result = record_golden("migrating", tmp_path / "run.ndjson")
        assert result.migrations
        last = {id(binding): cp for binding, cp in captured}
        completions = sum(len(cp.completions) for cp in last.values())
        built = {
            id(pair) for _, cp in captured for pair in cp.completions
        }
        assert len(built) == completions
        # Re-copying the history every barrier would build this many.
        assert sum(len(cp.completions) for _, cp in captured) > 2 * completions

    def test_consecutive_calls_share_their_prefix(self):
        stats = stats_with((0.0, 1.0), (0.5, 2.0))
        first = stats.completion_pairs()
        assert stats.completion_pairs() is first
        stats.record_completion(1.0, 3.0)
        second = stats.completion_pairs()
        assert second == ((0.0, 1.0), (0.5, 2.0), (1.0, 3.0))
        assert all(a is b for a, b in zip(first, second))


class TestCacheStaysLocal:
    def test_pickle_carries_no_cache(self):
        cached = stats_with((0.0, 1.0), (0.5, 2.0))
        cached.completion_pairs()
        fresh = stats_with((0.0, 1.0), (0.5, 2.0))
        assert pickle.dumps(cached) == pickle.dumps(fresh)
        loaded = pickle.loads(pickle.dumps(cached))
        assert "_pairs" not in vars(loaded)
        assert loaded.completion_pairs() == cached.completion_pairs()

    def test_equality_and_repr_ignore_the_cache(self):
        cached = stats_with((0.0, 1.0))
        cached.completion_pairs()
        fresh = stats_with((0.0, 1.0))
        assert cached == fresh
        assert repr(cached) == repr(fresh)
        cached.record_completion(1.0, 2.0)
        assert cached != fresh


class TestMachineCheckpoint:
    @pytest.fixture
    def engine(self):
        config = scenario_config(
            (TenantScenario("alpha", 0, "steady", rate=1.0, seed=1),),
            1,
            12.0,
            420.0,
            "sla-aware",
        )
        return build_engine_from_config(config)

    def test_no_samples_checkpoints_zero_mean_power(self, engine):
        checkpoint = capture_machine_checkpoint(engine, 0)
        assert checkpoint.mean_power == 0.0

    def test_other_meter_errors_propagate(self, engine, monkeypatch):
        def broken(self):
            raise ZeroDivisionError("meter bug")

        monkeypatch.setattr(PowerMeter, "mean_power", broken)
        with pytest.raises(ZeroDivisionError, match="meter bug"):
            capture_machine_checkpoint(engine, 0)


class TestCompletionsCodec:
    def test_encode_refuses_a_rewritten_history(self):
        previous = checkpoint_of(((0.0, 1.0), (0.5, 2.0)))
        rewritten = checkpoint_of(((0.0, 1.0), (0.5, 2.5), (1.0, 3.0)))
        with pytest.raises(JournalError, match="append-only"):
            encode_tenant_checkpoint(rewritten, previous)

    def test_decode_refuses_a_wrong_completed_total(self):
        previous = checkpoint_of(((0.0, 1.0),))
        current = checkpoint_of(((0.0, 1.0), (0.5, 2.0)))
        record = encode_tenant_checkpoint(current, previous)
        assert decode_tenant_checkpoint(record, previous) == current
        # Decoding against a missing earlier barrier loses a completion.
        with pytest.raises(JournalDecodeError, match="claims 2"):
            decode_tenant_checkpoint(record, None, where="barrier 3")
