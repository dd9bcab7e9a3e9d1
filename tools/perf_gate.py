"""The perf gate: every perfbench workload against a committed baseline.

Run from anywhere; it takes no arguments::

    python tools/perf_gate.py

For each workload that ``BENCHMARK.json`` names, the gate runs
``perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace 0``
in a subprocess and keeps the JSON result line it prints last.  All
results, with the Python version, seed, ``SECONDS`` and commit they were
measured at, go to ``perf-gate.json`` in the working directory.  That
file is also the baseline format: to re-record the baseline, copy it to
``tools/perf_baseline.json``.

Each host-scaled end-to-end metric is then compared with the baseline,
using the ``better`` direction and ``bound`` of ``BENCHMARK.json``'s
``end_to_end`` list.  Exit codes:

* 0 — every metric is within its bound;
* 1 — a metric is past its bound, or a run failed a repetition or an
  output check (``correct`` false or ``failed`` above 0);
* 2 — the baseline cannot be compared: it is missing, lacks a workload
  or metric, was recorded at another seed or ``SECONDS``, or on another
  Python ``major.minor`` (timings and peak RSS depend on the
  interpreter).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "tools" / "perf_baseline.json"
OUTPUT = Path("perf-gate.json")

SEED = 1
SECONDS = 20.0
"""Per-workload ``--seconds``, as in ``BENCHMARK.json``: 6-13 repetitions."""

Record = dict[str, Any]


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def _commit() -> str:
    """The checkout's commit, ``-dirty`` when the tree has local edits."""
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def run_workload(workload: str) -> Record:
    """Run perfbench on one workload and return its result line.

    A run that prints no result (perfbench could not run at all) is
    returned as an incorrect result with no metrics.
    """
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(SEED),
        "--seconds",
        str(SECONDS),
        "--trace",
        "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(completed.stdout)
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def compare(
    baseline: Record, fresh: Record, end_to_end: list[Record]
) -> tuple[int, list[str]]:
    """Compare fresh results with the baseline; return (exit code, report).

    ``baseline`` and ``fresh`` are both in the ``perf-gate.json`` format;
    ``end_to_end`` is ``BENCHMARK.json``'s list of gated metrics.  A
    "lower is better" metric fails when ``fresh > base * (1 + bound)``, a
    "higher is better" one when ``fresh < base * (1 - bound)``.
    """
    if _major_minor(baseline["python"]) != _major_minor(fresh["python"]):
        return 2, [
            f"baseline was recorded on Python {baseline['python']}, this is "
            f"Python {fresh['python']}: timings and RSS do not compare "
            "across interpreters; re-record the baseline"
        ]
    for key in ("seed", "seconds"):
        if baseline[key] != fresh[key]:
            return 2, [
                f"baseline was recorded at {key} {baseline[key]}, this run "
                f"used {fresh[key]}; re-record the baseline"
            ]
    code = 0
    report = []
    for workload, result in fresh["results"].items():
        if not result["correct"] or result["failed"] > 0:
            code = max(code, 1)
            report.append(
                f"FAIL {workload}: correct {result['correct']}, "
                f"{result['failed']} of {result['attempted']} repetitions failed"
            )
        base = baseline["results"].get(workload)
        if base is None:
            code = 2
            report.append(f"baseline has no workload {workload!r}")
            continue
        for spec in end_to_end:
            name, bound = spec["name"], spec["bound"]
            if name not in base["metrics"]:
                code = 2
                report.append(f"baseline has no metric {workload}/{name}")
                continue
            if name not in result["metrics"]:
                continue
            old = base["metrics"][name]["value"]
            new = result["metrics"][name]["value"]
            if spec["better"] == "lower":
                worse = new > old * (1 + bound)
            else:
                worse = new < old * (1 - bound)
            status = "FAIL" if worse else "ok  "
            if worse:
                code = max(code, 1)
            report.append(
                f"{status} {workload} {name}: {new:.6g} vs baseline "
                f"{old:.6g} {spec['unit']} (ratio {new / old:.3f}, "
                f"{spec['better']} is better, bound {bound:.0%})"
            )
    return code, report


def main() -> int:
    """Run every workload, write ``perf-gate.json`` and gate on it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fresh = {
        "python": platform.python_version(),
        "seed": SEED,
        "seconds": SECONDS,
        "commit": _commit(),
        "results": {
            workload["name"]: run_workload(workload["name"])
            for workload in spec["workloads"]
        },
    }
    OUTPUT.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    if not BASELINE.is_file():
        print(f"no baseline at {BASELINE}; copy {OUTPUT} there to record one")
        return 2
    code, report = compare(
        json.loads(BASELINE.read_text()), fresh, spec["end_to_end"]
    )
    print("\n".join(report))
    print(f"perf gate: {('pass', 'FAIL', 'cannot compare')[code]}")
    return code


if __name__ == "__main__":
    sys.exit(main())
