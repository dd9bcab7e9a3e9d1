"""Unit tests for the simulated server machine."""

import numpy as np
import pytest

from repro.hardware.cpu import CpuError, Processor
from repro.hardware.machine import Machine, MachineError
from repro.hardware.power import PowerMeter, PowerModel


class TestMachineExecution:
    def test_execute_advances_clock(self):
        machine = Machine()
        seconds = machine.execute(2.4e9)  # one second at 2.4 GHz x 1 thread? no: 8 threads
        assert machine.now == pytest.approx(seconds)

    def test_execute_full_threads_by_default(self):
        machine = Machine()
        # 8 threads at 2.4 GHz retire 8 * 2.4e9 units/second.
        seconds = machine.execute(8 * 2.4e9)
        assert seconds == pytest.approx(1.0)

    def test_execute_single_thread(self):
        machine = Machine()
        seconds = machine.execute(2.4e9, threads=1)
        assert seconds == pytest.approx(1.0)

    def test_dvfs_slows_execution(self):
        machine = Machine()
        t_fast = machine.execute(1e9)
        machine.set_frequency(1.6)
        t_slow = machine.execute(1e9)
        assert t_slow / t_fast == pytest.approx(2.4 / 1.6)

    def test_load_factor_scales_time(self):
        loaded = Machine(load_factor=4.0)
        unloaded = Machine()
        assert loaded.execute(1e9) == pytest.approx(4.0 * unloaded.execute(1e9))

    def test_invalid_load_factor_rejected(self):
        with pytest.raises(MachineError):
            Machine(load_factor=0.5)

    def test_invalid_threads_rejected(self):
        machine = Machine()
        with pytest.raises(MachineError):
            machine.execute(1.0, threads=9)
        with pytest.raises(MachineError):
            machine.execute(1.0, threads=0)

    def test_invalid_cores_rejected(self):
        with pytest.raises(MachineError):
            Machine(cores=0)


class TestMachinePowerAccounting:
    def test_busy_power_reaches_peak_at_full_load(self):
        machine = Machine()
        machine.execute(8 * 2.4e9 * 3)  # three seconds, all cores busy
        assert machine.meter.mean_power() == pytest.approx(220.0)

    def test_idle_power_is_idle_floor(self):
        machine = Machine()
        machine.idle(3.0)
        assert machine.meter.mean_power() == pytest.approx(90.0)

    def test_partial_utilization_power_between_idle_and_peak(self):
        machine = Machine()
        machine.execute(4 * 2.4e9 * 3, threads=4)  # half the cores
        mean = machine.meter.mean_power()
        assert 90.0 < mean < 220.0

    def test_energy_accumulates_across_busy_and_idle(self):
        machine = Machine()
        machine.execute(8 * 2.4e9)  # 1 s at 220 W
        machine.idle(1.0)  # 1 s at 90 W
        assert machine.meter.energy_joules == pytest.approx(310.0)

    def test_capped_machine_draws_less_at_full_load(self):
        capped = Machine()
        capped.set_frequency(1.6)
        capped.execute(8 * 1.6e9 * 3)  # three seconds busy at 1.6 GHz
        assert capped.meter.mean_power() < 220.0

    def test_idle_until_absolute_time(self):
        machine = Machine()
        machine.idle_until(5.0)
        assert machine.now == 5.0

    def test_idle_until_past_rejected(self):
        machine = Machine()
        machine.idle(2.0)
        with pytest.raises(MachineError):
            machine.idle_until(1.0)

    def test_negative_idle_rejected(self):
        with pytest.raises(MachineError):
            Machine().idle(-1.0)

    def test_zero_idle_is_noop(self):
        machine = Machine()
        machine.idle(0.0)
        assert machine.now == 0.0
        assert machine.meter.energy_joules == 0.0

    def test_current_power_reports_instantaneous_draw(self):
        machine = Machine()
        assert machine.current_power(0.0) == pytest.approx(90.0)
        assert machine.current_power(1.0) == pytest.approx(220.0)


def _uncached_reference(steps, machine):
    """Replay ``steps`` with the per-call formulas :meth:`Machine.execute`
    and :meth:`Machine.idle` computed before their constants were cached:
    ``Processor.seconds_for_work`` times the load factor, and
    ``PowerModel.power`` at the step's utilization.  Returns the per-step
    seconds, the clock, and a meter fed the same intervals."""
    processor = Processor(
        work_units_per_ghz_second=machine.processor.work_units_per_ghz_second
    )
    model = machine.power_model
    meter = PowerMeter()
    now = 0.0
    seconds_seen = []
    for kind, value, threads in steps:
        if kind == "freq":
            processor.set_frequency(value)
            continue
        if kind == "run":
            seconds = processor.seconds_for_work(value, threads=threads)
            seconds *= machine.load_factor
            utilization = threads / machine.cores
        else:
            seconds = value
            utilization = 0.0
        watts = model.power(
            utilization,
            processor.pstate,
            processor.max_frequency_ghz,
            processor.pstates[0].voltage,
        )
        start = now
        now += seconds
        meter.observe(start, now, watts)
        seconds_seen.append(seconds)
    return seconds_seen, now, meter


class TestDerivedConstantCache:
    """``execute``/``idle`` derive (rate, watts) once per (P-state,
    threads); every result must still be the uncached float."""

    STEPS = [
        ("run", 3.1e9, 8),
        ("run", 1.7e9, 3),
        ("idle", 0.37, 0),
        ("run", 2.9e9, 8),
        ("freq", 1.86, 0),  # a power cap lands mid-run
        ("run", 3.1e9, 8),
        ("run", 1.7e9, 3),
        ("idle", 1.25, 0),
        ("freq", 2.4, 0),  # ... and lifts: the warm entry is reused
        ("run", 3.1e9, 8),
        ("idle", 0.5, 0),
        ("run", 2.2e9, 5),
    ]

    def _drive(self, machine):
        seconds_seen = []
        for kind, value, threads in self.STEPS:
            if kind == "freq":
                machine.set_frequency(value)
            elif kind == "run":
                seconds_seen.append(machine.execute(value, threads=threads))
            else:
                machine.idle(value)
                seconds_seen.append(value)
        return seconds_seen

    @pytest.mark.parametrize("load_factor", [1.0, 1.7])
    def test_bit_equal_to_uncached_formula(self, load_factor):
        machine = Machine(load_factor=load_factor)
        seconds_seen = self._drive(machine)
        ref_seconds, ref_now, ref_meter = _uncached_reference(self.STEPS, machine)
        assert seconds_seen == ref_seconds
        assert machine.now == ref_now
        assert machine.meter.energy_joules == ref_meter.energy_joules
        assert machine.meter.samples == ref_meter.samples

    def test_load_factor_applies_on_every_call(self):
        machine = Machine()
        fast = machine.execute(1e9)
        machine.load_factor = 3.0
        assert machine.execute(1e9) == fast * 3.0

    def test_errors_still_fire_on_a_warm_cache(self):
        machine = Machine()
        machine.execute(1e9, threads=4)
        machine.execute(1e9)
        machine.idle(0.5)
        now, energy = machine.now, machine.meter.energy_joules
        with pytest.raises(MachineError):
            machine.execute(1.0, threads=9)
        with pytest.raises(MachineError):
            machine.execute(1.0, threads=0)
        with pytest.raises(CpuError):
            machine.execute(-1.0, threads=4)
        with pytest.raises(CpuError):
            machine.execute(-1.0)
        with pytest.raises(MachineError):
            machine.idle(-0.5)
        # A rejected call leaves no trace on the clock or the meter.
        assert machine.now == now
        assert machine.meter.energy_joules == energy

    def test_reassigned_power_model_drops_the_cache(self):
        machine = Machine()
        machine.execute(1e9)
        machine.power_model = PowerModel(
            idle_watts=60.0, peak_watts=160.0, floor_watts=50.0
        )
        start = machine.meter.energy_joules
        seconds = machine.execute(1e9)
        assert machine.meter.energy_joules - start == pytest.approx(160.0 * seconds)


class TestExecuteRun:
    """``execute_run`` must equal a chain of ``execute`` calls bit for bit."""

    def test_matches_per_call_execute_chain(self):
        serial = Machine()
        bulk = Machine()
        for _ in range(10):
            serial.execute(3.0e8, threads=8)
        times = bulk.execute_run(10, 3.0e8, threads=8)
        assert times.shape == (11,)
        assert bulk.now == serial.now
        assert bulk.meter.energy_joules.hex() == serial.meter.energy_joules.hex()
        assert bulk.meter.samples == serial.meter.samples

    def test_precomputed_times_are_trusted(self):
        reference = Machine()
        chain = reference.execute_run(6, 2.0e8)
        machine = Machine()
        times = machine.execute_run(6, 2.0e8, times=chain.copy())
        assert times.tolist() == chain.tolist()
        assert machine.now == reference.now
        assert machine.meter.samples == reference.meter.samples

    def test_rejects_malformed_times(self):
        machine = Machine()
        with pytest.raises(MachineError):
            machine.execute_run(3, 1.0e8, times=np.zeros(3))  # wrong length
        with pytest.raises(MachineError):
            machine.execute_run(
                3, 1.0e8, times=np.asarray([1.0, 2.0, 3.0, 4.0])
            )  # first entry is not the current clock

    def test_rejects_nonpositive_count(self):
        with pytest.raises(MachineError):
            Machine().execute_run(0, 1.0e8)
