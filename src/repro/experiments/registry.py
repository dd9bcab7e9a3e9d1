"""Benchmark registry: everything an experiment needs per application.

One :class:`AppSpec` per paper benchmark, bundling factories for the
application, its training/production/control workloads at each scale, the
knob space the calibration sweeps, and the Section 5.5 cluster sizing.
Built PowerDial systems are cached per (application, scale) so the bench
harness calibrates each application once per process.

Each spec imports its application's package on first use, not when this
module loads: the datacenter scenarios only need
:func:`built_service_system`, and x264 alone brings in ``scipy.fft``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.apps.base import Application
from repro.core.knobs import KnobSpace, Parameter
from repro.core.powerdial import PowerDialSystem, build_powerdial
from repro.datacenter.service import ServiceApp, service_training_jobs
from repro.experiments.common import Scale

if TYPE_CHECKING:
    from repro.apps.swish import InvertedIndex

__all__ = [
    "AppSpec",
    "APP_SPECS",
    "get_spec",
    "built_system",
    "built_service_system",
]


@dataclass(frozen=True)
class AppSpec:
    """Experiment-facing description of one benchmark.

    Attributes:
        name: Benchmark name as the paper spells it.
        app_factory: Builds application instances (per scale).
        training_jobs: Calibration inputs (per scale).
        production_jobs: Held-out evaluation inputs (per scale).
        control_jobs: Long job streams for the dynamic-control
            experiments (Figures 6 and 7).
        knob_space: Parameter combinations to sweep (per scale).
        qos_bound: The Section 5.5 QoS-loss bound (5%% PARSEC, 30%% swish).
        cluster_machines: Baseline provisioning (paper: 4 for PARSEC
            benchmarks, 3 for swish++).
        cluster_slots: Full-speed instances per machine (8 single-threaded
            PARSEC instances per 8-core box; 1 eight-thread swish server).
    """

    name: str
    app_factory: Callable[[Scale], Callable[[], Application]]
    training_jobs: Callable[[Scale], list[Any]]
    production_jobs: Callable[[Scale], list[Any]]
    control_jobs: Callable[[Scale], list[Any]]
    knob_space: Callable[[Scale], KnobSpace]
    qos_bound: float
    cluster_machines: int
    cluster_slots: int


def _app(package: str) -> ModuleType:
    """A paper application's package, imported on its spec's first use."""
    return importlib.import_module(f"repro.apps.{package}")


# ----------------------------------------------------------------------
# swaptions
# ----------------------------------------------------------------------
def _swaptions_space(scale: Scale) -> KnobSpace:
    if scale is Scale.TINY:
        values = (1000, 4000, 20_000)
    else:
        values = tuple(range(400, 20_001, 400))  # 50 settings
    return KnobSpace((Parameter("sm", values, default=20_000),))


def _swaptions_portfolios(
    count: int, seeds: Sequence[int], uniform_contract: bool = False
) -> list[Any]:
    generate = _app("swaptions").generate_swaptions
    return [
        generate(count, seed=seed, uniform_contract=uniform_contract)
        for seed in seeds
    ]


_SWAPTIONS = AppSpec(
    name="swaptions",
    app_factory=lambda scale: _app("swaptions").SwaptionsApp,
    training_jobs=lambda scale: (
        _swaptions_portfolios(4, [11])
        if scale is Scale.TINY
        else _swaptions_portfolios(16, range(11, 15))
    ),
    production_jobs=lambda scale: (
        _swaptions_portfolios(4, [211])
        if scale is Scale.TINY
        else _swaptions_portfolios(16, range(211, 215))
    ),
    control_jobs=lambda scale: (
        _swaptions_portfolios(200, [311], uniform_contract=True)
        if scale is Scale.TINY
        else _swaptions_portfolios(220, [311, 312], uniform_contract=True)
    ),
    knob_space=_swaptions_space,
    qos_bound=0.05,
    cluster_machines=4,
    cluster_slots=8,
)


# ----------------------------------------------------------------------
# x264
# ----------------------------------------------------------------------
def _x264_space(scale: Scale) -> KnobSpace:
    if scale is Scale.TINY:
        return KnobSpace(
            (
                Parameter("subme", (1, 7), 7),
                Parameter("merange", (1, 8), 8),
                Parameter("ref", (1,), 1),
            )
        )
    return KnobSpace(
        (
            Parameter("subme", (1, 3, 5, 7), 7),
            Parameter("merange", (1, 2, 4, 8), 8),
            Parameter("ref", (1, 2, 3), 3),
        )
    )


def _x264_videos(scale: Scale, base_seed: int, jobs: int, frames: int):
    size = 32 if scale is Scale.TINY else 48
    synthesize_video = _app("x264").synthesize_video
    return [
        synthesize_video(
            f"synthetic-{base_seed + index}",
            frames=frames,
            height=size,
            width=size,
            seed=base_seed + index,
        )
        for index in range(jobs)
    ]


_X264 = AppSpec(
    name="x264",
    app_factory=lambda scale: _app("x264").X264App,
    training_jobs=lambda scale: (
        _x264_videos(scale, 21, jobs=1, frames=8)
        if scale is Scale.TINY
        else _x264_videos(scale, 21, jobs=2, frames=12)
    ),
    production_jobs=lambda scale: (
        _x264_videos(scale, 121, jobs=1, frames=8)
        if scale is Scale.TINY
        else _x264_videos(scale, 121, jobs=3, frames=12)
    ),
    control_jobs=lambda scale: (
        _x264_videos(scale, 221, jobs=1, frames=100)
        if scale is Scale.TINY
        else _x264_videos(scale, 221, jobs=2, frames=150)
    ),
    knob_space=_x264_space,
    qos_bound=0.05,
    cluster_machines=4,
    cluster_slots=8,
)


# ----------------------------------------------------------------------
# bodytrack
# ----------------------------------------------------------------------
def _bodytrack_space(scale: Scale) -> KnobSpace:
    if scale is Scale.TINY:
        return KnobSpace(
            (
                Parameter("particles", (100, 500, 2000), 2000),
                Parameter("layers", (1, 5), 5),
            )
        )
    return KnobSpace(
        (
            Parameter(
                "particles",
                (100, 200, 300, 400, 500, 600, 800, 1000, 1500, 2000),
                2000,
            ),
            Parameter("layers", (1, 2, 3, 4, 5), 5),
        )
    )


def _bodytrack_sequences(frames: int, seeds: Sequence[int]) -> list[Any]:
    generate = _app("bodytrack").generate_sequence
    return [generate(frames=frames, seed=seed) for seed in seeds]


_BODYTRACK = AppSpec(
    name="bodytrack",
    app_factory=lambda scale: _app("bodytrack").BodytrackApp,
    training_jobs=lambda scale: (
        _bodytrack_sequences(10, [31])
        if scale is Scale.TINY
        else _bodytrack_sequences(25, [31])
    ),
    production_jobs=lambda scale: (
        _bodytrack_sequences(10, [131])
        if scale is Scale.TINY
        else _bodytrack_sequences(40, [131])
    ),
    control_jobs=lambda scale: (
        _bodytrack_sequences(120, [231])
        if scale is Scale.TINY
        else _bodytrack_sequences(200, [231, 232])
    ),
    knob_space=_bodytrack_space,
    qos_bound=0.05,
    cluster_machines=4,
    cluster_slots=8,
)


# ----------------------------------------------------------------------
# swish++
# ----------------------------------------------------------------------
_INDICES: dict[Scale, InvertedIndex] = {}


def _swish_index(scale: Scale) -> InvertedIndex:
    if scale not in _INDICES:
        swish = _app("swish")
        if scale is Scale.TINY:
            corpus = swish.generate_corpus(
                documents=200, tokens_per_document=400, vocabulary_size=4000, seed=41
            )
        else:
            # Paper: 2000 Project Gutenberg books per split.
            corpus = swish.generate_corpus(
                documents=2000,
                tokens_per_document=500,
                vocabulary_size=20_000,
                seed=41,
            )
        _INDICES[scale] = swish.InvertedIndex(corpus)
    return _INDICES[scale]


def _swish_factory(scale: Scale) -> Callable[[], Application]:
    index = _swish_index(scale)
    swish_app = _app("swish").SwishApp
    return lambda: swish_app(index=index, qos_cutoff=10)


def _swish_queries(scale: Scale, seed: int, count_tiny: int, count_paper: int):
    index = _swish_index(scale)
    count = count_tiny if scale is Scale.TINY else count_paper
    return _app("swish").generate_queries(index.corpus, count=count, seed=seed)


_SWISH = AppSpec(
    name="swish++",
    app_factory=_swish_factory,
    training_jobs=lambda scale: [_swish_queries(scale, 43, 30, 120)],
    production_jobs=lambda scale: [_swish_queries(scale, 143, 30, 120)],
    control_jobs=lambda scale: (
        [_swish_queries(scale, 243, 150, 150)]
        if scale is Scale.TINY
        else [_swish_queries(scale, 243, 150, 450)]
    ),
    knob_space=lambda scale: _app("swish").SwishApp.knob_space(),
    # The paper bounds swish++ at 30%; on our denser synthetic corpus the
    # mean query matches >= 10 documents, so the 5-result setting costs
    # exactly 1/3 under P@10 — the bound is calibrated just above it.
    qos_bound=0.35,
    cluster_machines=3,
    cluster_slots=1,
)


APP_SPECS: dict[str, AppSpec] = {
    spec.name: spec for spec in (_SWAPTIONS, _X264, _BODYTRACK, _SWISH)
}
"""All four paper benchmarks, keyed by name."""


def get_spec(name: str) -> AppSpec:
    """Look up a benchmark spec by paper name."""
    if name not in APP_SPECS:
        raise KeyError(f"unknown benchmark {name!r}; have {sorted(APP_SPECS)}")
    return APP_SPECS[name]


_SYSTEMS: dict[tuple[str, Scale, float | None], PowerDialSystem] = {}


def built_system(
    name: str, scale: Scale, qos_cap: float | None = None
) -> PowerDialSystem:
    """Build (and cache) the PowerDial system for one benchmark and scale."""
    key = (name, scale, qos_cap)
    if key not in _SYSTEMS:
        spec = get_spec(name)
        _SYSTEMS[key] = build_powerdial(
            spec.app_factory(scale),
            spec.training_jobs(scale),
            knob_space=spec.knob_space(scale),
            qos_cap=qos_cap,
            trace_iterations=2,
        )
    return _SYSTEMS[key]


_SERVICE_SYSTEM: list[PowerDialSystem] = []


def built_service_system() -> PowerDialSystem:
    """Build (and cache) the PowerDial system for the datacenter service.

    The datacenter scenarios host many instances of the lightweight
    :class:`~repro.datacenter.service.ServiceApp`; one calibration serves
    them all — tenants with accuracy tolerances restrict the shared table
    via :meth:`~repro.core.knobs.KnobTable.with_qos_cap`.
    """
    if not _SERVICE_SYSTEM:
        _SERVICE_SYSTEM.append(
            build_powerdial(
                ServiceApp, service_training_jobs(), trace_iterations=2
            )
        )
    return _SERVICE_SYSTEM[0]
