"""The runtime keeps per-beat history in columns, not one object per beat.

``RunResult.samples`` is rebuilt from the columns; these tests pin it
against a reference recorded beat by beat while the run executes, check
that it survives pickling and the migration merge, and guard that a
run keeps no per-item object alive once the item is done.
"""

import gc
import pickle

import pytest

from repro.core.actuator import ActuationPolicy
from repro.core.powerdial import build_powerdial, measure_baseline_rate
from repro.core.runtime import (
    PowerDialRuntime,
    RuntimeEvent,
    RuntimeSample,
    StepStatus,
)
from repro.datacenter import ServiceApp, qos_loss_seconds, service_training_jobs
from repro.datacenter.controlplane import merge_run_results
from repro.experiments.common import experiment_machine
from repro.experiments.registry import built_service_system
from repro.hardware.machine import Machine
from tests.core.toyapp import ToyApp, toy_jobs


class RecordingToyApp(ToyApp):
    """Records, as each item starts, what a per-beat sample would hold.

    ``process_item`` runs right after the item's heartbeat and before
    the machine executes it, so the clock still reads the beat's
    timestamp and the window rate is the one just after the beat.
    """

    runtime: PowerDialRuntime

    def __init__(self):
        self.reference: list[RuntimeSample] = []

    def process_item(self, item, space, tracker):
        runtime = self.runtime
        rate = runtime.monitor.window_rate()
        self.reference.append(
            RuntimeSample(
                beat=runtime.monitor.count - 1,
                time=runtime.machine.now,
                window_rate=rate,
                normalized_performance=(
                    None if rate is None else rate / runtime.target_rate
                ),
                knob_gain=runtime._current_setting.speedup,
                commanded_speedup=runtime.controller.speedup,
                frequency_ghz=runtime.machine.processor.frequency_ghz,
            )
        )
        return super().process_item(item, space, tracker)


@pytest.fixture(scope="module")
def system():
    return build_powerdial(ToyApp, toy_jobs())


def recording_runtime(system, policy=ActuationPolicy.MINIMAL_SPEEDUP):
    machine = Machine()
    target = measure_baseline_rate(ToyApp, toy_jobs()[0], machine)
    app = RecordingToyApp()
    runtime = PowerDialRuntime(
        app=app,
        table=system.table,
        machine=machine,
        target_rate=target,
        policy=policy,
    )
    app.runtime = runtime
    return runtime


def capped_run(runtime):
    jobs = toy_jobs(count=3, items=80, seed=5)
    events = [
        RuntimeEvent(60, lambda m: m.set_frequency(1.6), "cap"),
        RuntimeEvent(170, lambda m: m.set_frequency(2.4), "lift"),
    ]
    return runtime.run(jobs, events=events)


class TestSamplesFromColumns:
    @pytest.mark.parametrize(
        "policy", [ActuationPolicy.MINIMAL_SPEEDUP, ActuationPolicy.RACE_TO_IDLE]
    )
    def test_samples_equal_per_beat_reference(self, system, policy):
        runtime = recording_runtime(system, policy)
        result = capped_run(runtime)
        reference = runtime.app.reference
        assert len(reference) == 240
        assert result.samples == reference
        # The cap moved the frequency column and the controller reacted.
        assert {s.frequency_ghz for s in reference} == {1.6, 2.4}
        assert len({s.commanded_speedup for s in reference}) > 1

    def test_samples_are_built_once(self, system):
        result = capped_run(recording_runtime(system))
        assert result.samples is result.samples

    def test_columns_line_up(self, system):
        result = capped_run(recording_runtime(system))
        columns = result.columns
        assert len(columns.beat) == len(columns.setting) == 240
        assert result.settings_used is columns.setting
        assert [s.speedup for s in result.settings_used] == columns.knob_gain
        assert columns.beat == list(range(240))

    def test_series_helpers_read_the_columns(self, system):
        result = capped_run(recording_runtime(system))
        samples = result.samples
        assert result.gain_series() == [(s.time, s.knob_gain) for s in samples]
        assert result.performance_series() == [
            (s.time, s.normalized_performance)
            for s in samples
            if s.normalized_performance is not None
        ]
        values = [
            s.normalized_performance
            for s in samples[40:]
            if s.normalized_performance is not None
        ]
        assert result.mean_normalized_performance(skip=40) == sum(values) / len(
            values
        )

    def test_pickle_round_trip_without_the_built_samples(self, system):
        runtime = recording_runtime(system)
        result = capped_run(runtime)
        fresh = pickle.dumps(result)
        assert result.samples == runtime.app.reference  # builds the cache
        # The built samples are a cache of the columns and never pickled.
        assert pickle.dumps(result) == fresh
        clone = pickle.loads(fresh)
        assert clone == result
        assert clone.samples == runtime.app.reference

    def test_qos_loss_reads_the_same_beats(self, system):
        result = capped_run(recording_runtime(system))
        samples, settings = result.samples, result.settings_used
        expected = 0.0
        for index in range(len(samples) - 1):
            dt = samples[index + 1].time - samples[index].time
            expected += settings[index].qos_loss * dt
        assert qos_loss_seconds(result) == expected


def drain(runtime):
    while runtime.step() is not StepStatus.FINISHED:
        pass
    return runtime.finish()


def assert_matches_per_beat_reads(runtime, result):
    """The frequency and commanded-speedup columns equal what the
    processor and the controller read at each beat."""
    reference = runtime.app.reference
    assert result.columns.frequency_ghz == [s.frequency_ghz for s in reference]
    assert result.columns.commanded_speedup == [
        s.commanded_speedup for s in reference
    ]
    assert result.samples == reference


class TestPerBeatReadsAcrossChanges:
    """The speedup and frequency a beat records are the ones in force at
    that beat, whichever way they changed: an event firing inside a
    step, a cap applied while the run is suspended, or a warm restore
    after the run already started."""

    def test_event_setting_frequency_mid_step(self, system):
        runtime = recording_runtime(system)
        runtime.begin(toy_jobs(count=3, items=80, seed=5))
        runtime.close_input()
        runtime.step()
        beat = runtime.monitor.count
        # Neither lands on a quantum boundary (every 20 beats).
        runtime.inject(
            RuntimeEvent(beat + 7, lambda m: m.set_frequency(1.6), "cap")
        )
        runtime.inject(
            RuntimeEvent(beat + 93, lambda m: m.set_frequency(2.4), "lift")
        )
        result = drain(runtime)
        assert_matches_per_beat_reads(runtime, result)
        frequencies = result.columns.frequency_ghz
        assert frequencies[beat + 6] == 2.4 and frequencies[beat + 7] == 1.6
        assert frequencies[beat + 93] == 2.4
        assert len(set(result.columns.commanded_speedup)) > 1

    def test_cap_applied_between_steps(self, system):
        runtime = recording_runtime(system)
        runtime.begin(toy_jobs(count=3, items=80, seed=5))
        runtime.close_input()
        for _ in range(2):
            runtime.step()
        capped_at = runtime.monitor.count
        runtime.machine.set_frequency(1.6)
        for _ in range(4):
            runtime.step()
        lifted_at = runtime.monitor.count
        runtime.machine.set_frequency(2.4)
        result = drain(runtime)
        assert_matches_per_beat_reads(runtime, result)
        frequencies = result.columns.frequency_ghz
        assert frequencies[capped_at - 1] == 2.4
        assert set(frequencies[capped_at:lifted_at]) == {1.6}
        assert set(frequencies[lifted_at:]) == {2.4}
        assert len(set(result.columns.commanded_speedup)) > 1

    def test_completion_hook_setting_frequency(self, system):
        runtime = recording_runtime(system)
        first, *rest = toy_jobs(count=3, items=50, seed=5)
        runtime.begin()
        runtime.feed(first, on_complete=lambda _: runtime.machine.set_frequency(1.6))
        for job in rest:
            runtime.feed(job)
        runtime.close_input()
        result = drain(runtime)
        assert_matches_per_beat_reads(runtime, result)
        frequencies = result.columns.frequency_ghz
        assert set(frequencies[:50]) == {2.4}
        assert set(frequencies[50:]) == {1.6}

    def test_restore_after_a_starved_first_step(self, system):
        source = recording_runtime(system)
        source.machine.set_frequency(1.6)
        source.begin(toy_jobs(count=2, items=60, seed=11))
        source.close_input()
        drain(source)
        snapshot = source.snapshot()
        restored_speedup = snapshot.controller_state[0]
        assert restored_speedup > 1.0
        assert snapshot.beats_in_quantum > 0

        def restored(starve_first):
            dest = recording_runtime(system)
            dest.machine.set_frequency(1.6)
            dest.machine.idle_until(source.machine.now)
            dest.begin()
            if starve_first:
                assert dest.step() is StepStatus.STARVED
                assert dest.monitor.count == 0
            dest.restore(snapshot)
            for job in toy_jobs(count=2, items=60, seed=12):
                dest.feed(job)
            dest.close_input()
            return dest, drain(dest)

        dest, result = restored(starve_first=True)
        assert_matches_per_beat_reads(dest, result)
        assert result.columns.commanded_speedup[0] == restored_speedup
        assert dest._restored_phase is None
        # The first quantum continues the source's phase, so the run is
        # the one a restore before any step() gives.
        _, expected = restored(starve_first=False)
        assert result.columns.time == expected.columns.time
        assert (
            result.columns.commanded_speedup
            == expected.columns.commanded_speedup
        )


class TestMergeColumns:
    def test_merged_segments_equal_the_unsplit_run(self, system):
        jobs = toy_jobs(count=3, items=60, seed=11)
        reference_runtime = recording_runtime(system)
        reference = reference_runtime.run(jobs)

        source = recording_runtime(system)
        source.begin()
        for job in jobs:
            source.feed(job)
        source.step()
        source.step()
        pending = source.extract_pending()
        source.close_input()
        while source.step() is not StepStatus.FINISHED:
            pass
        first = source.finish()
        dest = recording_runtime(system)
        dest.machine.idle_until(source.machine.now)
        dest.begin()
        dest.restore(source.snapshot())
        for job, tag in pending:
            dest.feed(job, tag=tag)
        dest.close_input()
        while dest.step() is not StepStatus.FINISHED:
            pass
        second = dest.finish()

        merged = merge_run_results(
            [pickle.loads(pickle.dumps(first)), pickle.loads(pickle.dumps(second))]
        )
        assert merged.samples == reference.samples
        assert merged.samples == source.app.reference + dest.app.reference
        assert merged.settings_used == reference.settings_used
        assert merged.outputs_by_job == reference.outputs_by_job
        # The merge builds new columns; the segments are not touched.
        assert len(first.columns.time) + len(second.columns.time) == len(
            merged.columns.time
        )
        assert first.samples == source.app.reference


class TestNoPerItemGarbage:
    ITEMS_PER_JOB = 10

    def _live_growth(self, items):
        system = built_service_system()
        machine = experiment_machine()
        target = measure_baseline_rate(
            ServiceApp, service_training_jobs()[0], machine
        )
        runtime = PowerDialRuntime(
            app=ServiceApp(),
            table=system.table,
            machine=machine,
            target_rate=target,
        )
        jobs = [
            [1.0 + (index % 7)] * self.ITEMS_PER_JOB
            for index in range(items // self.ITEMS_PER_JOB)
        ]
        gc.collect()
        before = len(gc.get_objects())
        result = runtime.run(jobs)
        gc.collect()
        growth = len(gc.get_objects()) - before
        assert len(result.columns.time) == items
        return growth

    def test_tracked_objects_per_item_stay_flat(self):
        """No per-item object outlives its item unless something reads
        it: between N and 4N items, the collector's tracked-object count
        grows by well under one object per item."""
        items = 2000
        small = self._live_growth(items)
        large = self._live_growth(4 * items)
        per_item = (large - small) / (3 * items)
        assert per_item < 0.3, per_item
