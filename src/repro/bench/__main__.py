"""CLI driver for the perf-tracking bench harness.

Full run (regenerates the repo-root trajectory artifacts)::

    PYTHONPATH=src python -m repro.bench

CI smoke run (tiny pools, seconds not minutes)::

    PYTHONPATH=src python -m repro.bench --smoke
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.datacenter import (
    DEFAULT_POOL_SIZES,
    SMOKE_POOL_SIZES,
    bench_datacenter,
)
from repro.bench.report import format_backend_table, write_bench_json
from repro.bench.runtime import bench_runtime
from repro.experiments.common import format_table


def _summarize_runtime(payload: dict) -> str:
    probes = payload["probes"]
    rows = [
        [
            "step_path",
            f"{probes['step_path']['items_per_sec']:.0f} items/s",
            f"{probes['step_path']['beats_per_sec']:.0f} beats/s",
        ],
        [
            "heartbeat_window",
            f"{probes['heartbeat_window']['beats_per_sec']:.0f} beats/s",
            "window 20, O(1) rate query per beat",
        ],
        [
            "actuation_plan",
            f"{probes['actuation_plan']['uncached_us_per_call']:.2f} us uncached",
            f"{probes['actuation_plan']['cached_us_per_call']:.2f} us cached "
            f"({probes['actuation_plan']['cache_speedup']:.0f}x)",
        ],
    ]
    return format_table(["probe", "throughput", "detail"], rows)


def main(argv: list[str] | None = None) -> int:
    """Run the bench suites and write ``BENCH_*.json``; exit code 0."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time the engine backends and runtime hot paths; "
        "write BENCH_*.json perf artifacts.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny pools and short probes (seconds; used by CI)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path("."),
        help="directory for BENCH_*.json (default: current directory)",
    )
    parser.add_argument(
        "--pools",
        type=lambda text: tuple(int(p) for p in text.split(",")),
        default=None,
        help="comma-separated pool sizes (default: 8,32,128; smoke: 8,16)",
    )
    parser.add_argument(
        "--workers",
        type=lambda text: tuple(int(w) for w in text.split(",")),
        default=None,
        help="comma-separated sharded worker counts (default: 4; smoke: 2)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per backend, best-of (default: 2; "
        "smoke also 2 — best-of-2 keeps first-run warmup out of the "
        "trajectory gate's tiny scenarios)",
    )
    args = parser.parse_args(argv)

    pools = args.pools or (SMOKE_POOL_SIZES if args.smoke else DEFAULT_POOL_SIZES)
    workers = args.workers or ((2,) if args.smoke else (4,))
    repeats = args.repeats if args.repeats is not None else 2
    # Long enough that per-run fixed costs (fork, result transfer) do
    # not swamp the engine time being measured.  The smoke run keeps
    # the full horizon on purpose: the faulted scenarios carry a fixed
    # per-run workload (the fault plan injects the same fault count at
    # any horizon), so halving the horizon doubles their per-event cost
    # and the trajectory gate would flag unchanged code.  At the full
    # horizon the smoke's special scenarios are byte-for-byte the
    # committed baseline configs, so per-event costs transfer exactly.
    horizon = 120.0

    datacenter_payload = bench_datacenter(
        pool_sizes=pools,
        worker_counts=workers,
        repeats=repeats,
        horizon=horizon,
    )
    path = write_bench_json(
        args.out_dir, "datacenter", datacenter_payload, args.smoke
    )
    print(format_backend_table(datacenter_payload))
    print(f"[saved to {path}]\n")

    runtime_payload = bench_runtime(smoke=args.smoke)
    path = write_bench_json(args.out_dir, "runtime", runtime_payload, args.smoke)
    print(_summarize_runtime(runtime_payload))
    print(f"[saved to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
