"""Machine-readable bench artifacts: ``BENCH_<name>.json`` writers.

Every payload is stamped with the same environment header so a
trajectory of artifacts across PRs records *where* each number was
measured (a 1-core CI container and an 8-core workstation are different
instruments).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Any

from repro.bench.calibration import host_speed_score
from repro.datacenter.shard import usable_cpu_count
from repro.experiments.common import format_table

__all__ = ["environment_header", "format_backend_table", "write_bench_json"]

SCHEMA_VERSION = 3


def environment_header() -> dict[str, Any]:
    """Provenance recorded alongside every bench payload.

    Since schema version 2 the header also carries
    ``calibration_ops_per_sec`` — the host-speed score measured right
    before the payload's numbers (:mod:`repro.bench.calibration`) —
    which is what lets the trajectory gate compare runs across hosts.
    Schema version 3 adds per-backend ``barrier_stats`` (barrier
    count, payload bytes, serialize/wait/apply seconds), the
    coordinator's CPU seconds on sharded entries, re-derives
    ``projected_parallel_seconds`` from measured CPU times
    (coordinator + slowest worker), and adds the standing
    ``scale-1024m`` scenario.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": usable_cpu_count(),
        "calibration_ops_per_sec": host_speed_score(),
    }


def format_backend_table(payload: dict[str, Any]) -> str:
    """Plain-text rendition of a ``bench_datacenter`` payload.

    Shared by the CLI summary and the ``datacenter_speedup`` benchmark
    artifact so the two never drift apart.
    """
    rows = []
    for scenario in payload["scenarios"]:
        for name, entry in scenario["backends"].items():
            if "speedup_vs_serial" in entry:
                speedup = f"{entry['speedup_vs_serial']:.2f}x vs serial"
            else:
                speedup = "baseline"
            projected = entry.get("projected_parallel_seconds")
            rows.append(
                [
                    scenario["scenario"],
                    name,
                    f"{entry['seconds']:.3f}",
                    f"{entry['events_per_sec']:.0f}",
                    speedup,
                    f"{projected:.3f}" if projected is not None else "-",
                ]
            )
    return format_table(
        ["scenario", "backend", "seconds", "events/s", "speedup", "projected s"],
        rows,
    )


def write_bench_json(
    out_dir: Path, name: str, payload: dict[str, Any], smoke: bool
) -> Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``; return the path."""
    document = dict(environment_header())
    document["smoke"] = smoke
    document.update(payload)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path
