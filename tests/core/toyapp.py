"""A tiny deterministic application used throughout the core tests.

``ToyApp`` models a Monte-Carlo-style computation: one knob ``n`` controls
how many inner iterations each item runs.  Work is exactly ``n`` units per
item, and the output converges toward the item's true value as ``n`` grows
(error shrinks like 1/n), so the speedup/QoS trade-off is perfectly
predictable: setting ``n`` to ``N_MAX / s`` yields speedup ``s``.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application, ItemResult
from repro.core.knobs import Parameter
from repro.core.qos import DistortionMetric, QoSMetric

N_MAX = 800
N_VALUES = (50, 100, 200, 400, N_MAX)

# Work units per inner iteration.  Sized so one item at the default knob
# takes ~40 ms of virtual time on the 8-core reference machine, giving the
# 1 Hz power meter plenty of samples over a few-hundred-item run.
WORK_SCALE = 1.0e6


class ToyApp(Application):
    """Estimates item values with a knob-controlled iteration count."""

    name = "toy"

    @classmethod
    def parameters(cls) -> tuple[Parameter, ...]:
        return (Parameter("n", N_VALUES, default=N_MAX),)

    def initialize(self, config, space) -> None:
        space.write("iterations", config["n"] * 1)
        space.write("half_iterations", config["n"] // 2)

    def prepare(self, job):
        # A job is a list of target float values.
        return list(job)

    def process_item(self, item, space, tracker) -> ItemResult:
        iterations = int(space.read("iterations"))
        _ = space.read("half_iterations")
        work = float(iterations) * WORK_SCALE
        tracker.add("main", work)
        # Deterministic 1/n convergence toward the true value.
        estimate = item * (1.0 + 1.0 / iterations)
        return ItemResult(output=estimate, work=work)

    def qos_metric(self) -> QoSMetric:
        return DistortionMetric(lambda outputs: np.asarray(outputs, dtype=float))

    def threads(self) -> int:
        return 8


def toy_jobs(count: int = 3, items: int = 6, seed: int = 7):
    """Deterministic toy jobs: lists of positive floats."""
    rng = np.random.default_rng(seed)
    return [list(rng.uniform(1.0, 10.0, size=items)) for _ in range(count)]
