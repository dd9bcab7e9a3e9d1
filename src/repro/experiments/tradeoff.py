"""Experiment E-F5 / E-T2: the trade-off space (Figure 5, Table 2, §5.2).

Calibrates each benchmark over its knob space on the training inputs
(the gray dots of Figure 5), extracts the Pareto frontier (black
squares), re-measures the frontier configurations on the production
inputs (white squares), and computes the Table 2 correlation
coefficients between training and production behavior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import TradeoffPoint, evaluate_points
from repro.datacenter import shard
from repro.experiments.common import Scale, fork_map, format_table
from repro.experiments.registry import built_system, get_spec

__all__ = [
    "TradeoffExperiment",
    "run_tradeoff",
    "correlation",
    "format_fig5",
    "format_table2",
]


def correlation(training: list[float], production: list[float]) -> float:
    """Correlation coefficient of the training-to-production fit (Table 2).

    Degenerate (zero-variance) series correlate perfectly when they agree
    and not at all when they differ — the right reading of "behavior on
    training inputs predicts behavior on production inputs".
    """
    train = np.asarray(training, dtype=float)
    prod = np.asarray(production, dtype=float)
    if train.shape != prod.shape or train.size < 2:
        raise ValueError("correlation needs two same-length series (n >= 2)")
    if np.std(train) < 1e-12 or np.std(prod) < 1e-12:
        return 1.0 if np.allclose(train, prod, atol=1e-9) else 0.0
    return float(np.corrcoef(train, prod)[0, 1])


@dataclass
class TradeoffExperiment:
    """Results of the Figure 5 / Table 2 experiment for one benchmark.

    Attributes:
        name: Benchmark name.
        training_points: Every explored combination (gray dots).
        pareto_training: Pareto-optimal combinations (black squares).
        pareto_production: The same combinations re-measured on the
            production inputs (white squares).
        speedup_correlation: Table 2 speedup column.
        qos_correlation: Table 2 QoS-loss column.
    """

    name: str
    training_points: list[TradeoffPoint]
    pareto_training: list[TradeoffPoint]
    pareto_production: list[TradeoffPoint]
    speedup_correlation: float
    qos_correlation: float

    @property
    def max_speedup(self) -> float:
        """Largest Pareto speedup (the §5.2 headline number)."""
        return max(point.speedup for point in self.pareto_training)


def run_tradeoff(name: str, scale: Scale = Scale.PAPER) -> TradeoffExperiment:
    """Run the trade-off exploration for one benchmark."""
    spec = get_spec(name)
    system = built_system(name, scale)
    calibration = system.calibration
    pareto = calibration.pareto_points()
    app_factory = spec.app_factory(scale)
    jobs = spec.production_jobs(scale)
    configurations = [point.configuration for point in pareto]
    # Every configuration is measured on its own against the same
    # baseline runs, so dealing them out to one child per CPU (each
    # repeating the baseline) gives the same points in less time.
    chunks = max(1, min(shard.usable_cpu_count(), len(configurations)))
    measured = fork_map(
        lambda chunk: evaluate_points(app_factory, chunk, jobs),
        [configurations[start::chunks] for start in range(chunks)],
    )
    production = [
        measured[index % chunks][index // chunks]
        for index in range(len(configurations))
    ]
    return TradeoffExperiment(
        name=name,
        training_points=list(calibration.points),
        pareto_training=pareto,
        pareto_production=production,
        speedup_correlation=correlation(
            [p.speedup for p in pareto], [p.speedup for p in production]
        ),
        qos_correlation=correlation(
            [p.qos_loss for p in pareto], [p.qos_loss for p in production]
        ),
    )


def format_fig5(experiment: TradeoffExperiment) -> str:
    """Figure 5 panel as text: the Pareto series, training vs production."""
    rows = []
    for train, prod in zip(
        experiment.pareto_training, experiment.pareto_production
    ):
        rows.append(
            [
                dict(train.configuration),
                f"{train.speedup:.3f}",
                f"{100 * train.qos_loss:.3f}",
                f"{prod.speedup:.3f}",
                f"{100 * prod.qos_loss:.3f}",
            ]
        )
    table = format_table(
        [
            "pareto knob setting",
            "speedup (train)",
            "qos loss % (train)",
            "speedup (prod)",
            "qos loss % (prod)",
        ],
        rows,
    )
    header = (
        f"Figure 5 ({experiment.name}): {len(experiment.training_points)} "
        f"explored settings, {len(experiment.pareto_training)} Pareto-optimal, "
        f"max speedup {experiment.max_speedup:.1f}x"
    )
    return f"{header}\n{table}"


def format_table2(experiments: list[TradeoffExperiment]) -> str:
    """Table 2: correlation of training and production behavior."""
    rows = [
        [e.name, f"{e.speedup_correlation:.3f}", f"{e.qos_correlation:.3f}"]
        for e in experiments
    ]
    return "Table 2: training-vs-production correlation\n" + format_table(
        ["Benchmark", "Speedup", "QoS Loss"], rows
    )
