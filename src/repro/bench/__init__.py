"""Perf-tracking bench harness: ``python -m repro.bench``.

The repo's performance trajectory lives in machine-readable artifacts
at the repo root, regenerated by this package and uploaded per-PR by
CI's smoke job:

* ``BENCH_datacenter.json`` — the datacenter engine at several pool
  sizes, timed through every backend (``serial`` = the lazy
  scheduler, ``sharded-N`` = the multiprocess backend), with
  events/second and speedups.
* ``BENCH_runtime.json`` — microbenchmarks of the PowerDial runtime's
  step path (full control loop, O(1) heartbeat-window statistics,
  actuation-plan caching).

Every artifact carries an environment header (CPU count, Python,
platform, timestamp) so numbers from different hosts are never compared
blindly, and every timed datacenter run doubles as a billing audit
(per-tenant billed energy + unattributed idle must reproduce the
metered pool energy, or the bench aborts).  ``--smoke`` runs a
seconds-long subset for CI; the full run is the per-PR trajectory
entry.  See ``docs/BENCH.md`` for the artifact schema and how to
compare runs across hosts.
"""

from repro.bench.datacenter import (
    CONSERVATION_TOLERANCE,
    DEFAULT_POOL_SIZES,
    SMOKE_POOL_SIZES,
    bench_datacenter,
)
from repro.bench.report import (
    environment_header,
    format_backend_table,
    write_bench_json,
)
from repro.bench.runtime import bench_runtime
from repro.bench.scenarios import PoolScenario, build_pool_engine, count_events

__all__ = [
    "CONSERVATION_TOLERANCE",
    "DEFAULT_POOL_SIZES",
    "SMOKE_POOL_SIZES",
    "PoolScenario",
    "bench_datacenter",
    "bench_runtime",
    "build_pool_engine",
    "count_events",
    "environment_header",
    "format_backend_table",
    "write_bench_json",
]
