"""A lightweight knobbed service application for datacenter scenarios.

The four paper benchmarks compute real signal-processing kernels and are
too heavy to run thousands of requests through in a multi-tenant sweep.
``ServiceApp`` keeps the paper's computational pattern — initialization
derives control variables, the main loop reads them per item — but with a
perfectly predictable trade-off space: one knob ``n`` sets the inner
iteration count, work is exactly ``n`` units per item, and output error
shrinks like ``1/n``.  Calibrating it through the regular PowerDial
pipeline (influence tracing, calibration, Pareto restriction) yields a
knob table with speedups {1, 1.33, 2, 4} at QoS losses growing with the
skipped iterations, so a tenant's accuracy tolerance maps directly onto
the table's reach.

A *request* is one job: ``items_per_request`` main-loop items, each a
target value the service estimates.  ``request_stream`` builds the seeded
per-request job factory the tenant layer uses.  Requests are seeded in
blocks of ``REQUEST_BLOCK``: one generator draws a block's requests as the
rows of one array, so the generator's set-up (most of a request's cost)
is paid once per block, while a request stays a pure function of its
``(seed, index)``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from repro.apps.base import Application, ItemResult, WorkTracker
from repro.core.knobs import Parameter
from repro.core.qos import DistortionMetric, QoSMetric
from repro.tracing.variables import AddressSpace

__all__ = ["REQUEST_BLOCK", "ServiceApp", "request_stream", "service_training_jobs"]

N_MAX = 800
N_VALUES = (200, 400, 600, N_MAX)

# Work units per inner iteration.  On the experiment machines (1e6 work
# units per GHz-second, 8 cores at 2.4 GHz) one item at the default knob
# takes ~42 ms of virtual time, so a service instance beats at ~24 Hz —
# the heartbeat granularity of the paper's benchmarks.
WORK_SCALE = 1.0e3

REQUEST_BLOCK = 16
"""Requests drawn by one generator (see :func:`request_stream`)."""

_new_tuple = tuple.__new__


class ServiceApp(Application):
    """Estimates request values with a knob-controlled iteration count."""

    name = "service"

    @classmethod
    def parameters(cls) -> tuple[Parameter, ...]:
        return (Parameter("n", N_VALUES, default=N_MAX),)

    def initialize(self, config: Mapping[str, Any], space: AddressSpace) -> None:
        space.write("iterations", config["n"] * 1)

    def prepare(self, job: Any):
        # A request job is a list of target float values.
        return list(job)

    def process_item(
        self, item: Any, space: AddressSpace, tracker: WorkTracker
    ) -> ItemResult:
        iterations = int(space.read("iterations"))
        work = float(iterations) * WORK_SCALE
        tracker.add("serve", work)
        # Deterministic 1/n convergence toward the true value.
        estimate = item * (1.0 + 1.0 / iterations)
        # tracker.add has rejected negative work, so skip ItemResult's
        # Python-level re-check (see ItemResult).
        return _new_tuple(ItemResult, (estimate, work))

    def batch_process(
        self, items: list[Any], space: AddressSpace, tracker: WorkTracker
    ) -> tuple[np.ndarray, float]:
        """Vectorized twin of :meth:`process_item`.

        It has no caller in the package; the repository benchmark's
        tracer (``perfbench/trace.py``) still patches it by name.
        Processes ``items`` under the *current* knob configuration in one
        numpy expression, returning ``(outputs, work_per_item)``: outputs
        float-for-float equal to per-item :meth:`process_item` calls, and
        one per-item work constant for the whole batch (work depends only
        on the knob).
        """
        iterations = int(space.read("iterations"))
        work = float(iterations) * WORK_SCALE
        tracker.add("serve", work * len(items))
        # Same scalar multiplier as process_item, applied elementwise:
        # IEEE multiplication is bit-identical either way.
        outputs = np.asarray(items, dtype=float) * (1.0 + 1.0 / iterations)
        return outputs, work

    def qos_metric(self) -> QoSMetric:
        return DistortionMetric(lambda outputs: np.asarray(outputs, dtype=float))

    def threads(self) -> int:
        return 8


def request_stream(
    seed: int, items_per_request: int = 5
) -> Callable[[int], list[float]]:
    """A deterministic request-index -> job factory for one tenant.

    Each request is ``items_per_request`` positive floats.  Request ``i``
    is row ``i % REQUEST_BLOCK`` of
    ``default_rng((seed, i // REQUEST_BLOCK)).uniform(1.0, 10.0,
    size=(REQUEST_BLOCK, items_per_request))``: distinct blocks draw from
    independent, reproducible substreams.  The factory keeps the block it
    drew last, so consecutive indices share one generator, but any index
    may be asked for in any order, in any process (checkpoint restore and
    migration rebuild pending jobs this way) and gets the same values.
    """
    if items_per_request < 1:
        raise ValueError(
            f"items_per_request must be >= 1, got {items_per_request!r}"
        )
    shape = (REQUEST_BLOCK, items_per_request)
    # (block number, its rows), replaced as one object.
    last: tuple[int | None, Any] = (None, None)

    def make_job(index: int) -> list[float]:
        nonlocal last
        block, row = divmod(index, REQUEST_BLOCK)
        drawn, rows = last
        if drawn != block:
            # Exactly what ``np.random.default_rng((seed, block))`` builds,
            # without its argument dispatch.
            rng = Generator(PCG64(SeedSequence((seed, block))))
            rows = rng.uniform(1.0, 10.0, size=shape)
            last = (block, rows)
        # ``tolist`` returns a new list of Python floats.
        return rows[row].tolist()

    return make_job


def service_training_jobs(count: int = 3, items: int = 8, seed: int = 17):
    """Calibration inputs for :class:`ServiceApp`."""
    rng = np.random.default_rng(seed)
    return [list(rng.uniform(1.0, 10.0, size=items)) for _ in range(count)]
