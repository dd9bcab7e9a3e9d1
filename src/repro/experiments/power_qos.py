"""Experiment E-F6: power versus QoS across DVFS states (Figure 6, §5.3).

For each of the platform's seven power states: configure the application
at its highest-QoS point, instruct PowerDial to maintain the heart rate
observed at 2.4 GHz, drop the clock, run the production inputs, and
record mean power, QoS loss, and whether performance stayed within 5% of
the target — the paper verifies all three.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import run_job
from repro.core.powerdial import measure_baseline_rate
from repro.experiments.common import (
    Scale,
    experiment_machine,
    fork_map,
    format_table,
)
from repro.experiments.registry import built_system, get_spec
from repro.hardware.cpu import XEON_E5530_PSTATES

__all__ = ["PowerQosPoint", "PowerQosExperiment", "run_power_qos", "format_fig6"]


@dataclass(frozen=True)
class PowerQosPoint:
    """One frequency's measurements (one x-position of Figure 6).

    Attributes:
        frequency_ghz: The P-state.
        mean_power: Mean of the 1 Hz power samples over the run.
        qos_loss: QoS loss against the default-configuration output.
        normalized_performance: Delivered/target heart rate, measured as
            the whole-run (global) rate so variable per-item work does not
            bias the ratio.
    """

    frequency_ghz: float
    mean_power: float
    qos_loss: float
    normalized_performance: float

    @property
    def within_target(self) -> bool:
        """Paper check: performance within 5% of the target."""
        return abs(self.normalized_performance - 1.0) <= 0.05


@dataclass
class PowerQosExperiment:
    """Figure 6 data for one benchmark."""

    name: str
    points: list[PowerQosPoint]

    def power_reduction(self) -> float:
        """Fractional system-power reduction from 2.4 GHz to 1.6 GHz."""
        first, last = self.points[0], self.points[-1]
        return (first.mean_power - last.mean_power) / first.mean_power


def run_power_qos(name: str, scale: Scale = Scale.PAPER) -> PowerQosExperiment:
    """Run the frequency sweep for one benchmark."""
    spec = get_spec(name)
    system = built_system(name, scale)
    app_factory = spec.app_factory(scale)
    jobs = spec.control_jobs(scale)

    reference = experiment_machine(2.4)
    target = measure_baseline_rate(
        app_factory,
        jobs[0],
        reference,
        configuration=system.table.baseline.configuration.as_dict(),
    )

    # Baseline outputs for QoS comparison, at the highest-QoS setting of
    # the explored space (the knob table's baseline).
    probe = app_factory()
    metric = probe.qos_metric()
    baseline_config = system.table.baseline.configuration.as_dict()
    baseline_outputs = [
        run_job(app_factory(), baseline_config, job)[0] for job in jobs
    ]

    def measure(pstate) -> PowerQosPoint:
        machine = experiment_machine(pstate.frequency_ghz)
        runtime = system.runtime(machine, target_rate=target)
        result = runtime.run(jobs)
        losses = [
            metric(base, observed)
            for base, observed in zip(baseline_outputs, result.outputs_by_job)
        ]
        # Steady-state rate: exclude the first two control quanta (the
        # paper verifies maintained performance, not the initial step).
        skip = min(2 * runtime.actuator.quantum_beats, len(result.samples) // 3)
        steady = result.samples[skip:]
        steady_rate = (len(steady) - 1) / (steady[-1].time - steady[0].time)
        return PowerQosPoint(
            frequency_ghz=pstate.frequency_ghz,
            mean_power=result.mean_power if result.mean_power else 0.0,
            qos_loss=sum(losses) / len(losses),
            normalized_performance=steady_rate / target,
        )

    # Each P-state's run starts from a fresh machine and runtime, so the
    # seven runs are independent and can use every CPU.
    points = fork_map(measure, XEON_E5530_PSTATES)
    return PowerQosExperiment(name=name, points=points)


def format_fig6(experiment: PowerQosExperiment) -> str:
    """Figure 6 panel as text: power and QoS loss per frequency."""
    rows = [
        [
            f"{p.frequency_ghz:.2f}",
            f"{p.mean_power:.1f}",
            f"{100 * p.qos_loss:.3f}",
            f"{p.normalized_performance:.3f}",
            "yes" if p.within_target else "NO",
        ]
        for p in experiment.points
    ]
    header = (
        f"Figure 6 ({experiment.name}): "
        f"{100 * experiment.power_reduction():.1f}% system power reduction "
        f"at 1.6 GHz"
    )
    return f"{header}\n" + format_table(
        ["freq GHz", "power W", "qos loss %", "norm. perf", "within 5%"], rows
    )
