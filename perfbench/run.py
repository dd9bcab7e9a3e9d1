"""The repository benchmark: four seeded workloads through the public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-scalar --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``): it sets the
workload up, times one run and checks the run's outputs.  Repetitions
start until ``--seconds`` have passed (at least ``MIN_REPETITIONS``), and
every metric is the median over them.  Each repetition is bracketed by a
pass of the host-speed reference (``reference.py``), and the gated time
metrics are scaled to the nominal host; the unscaled figures are printed
beside them.

``--trace 0`` reports the end-to-end metrics of untraced repetitions;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are for people.

Every repetition of one run must produce the same result digest, traced
or not; the traced twin of ``scale-sharded`` runs on the serial backend,
so its digest also proves serial/sharded parity.  A repetition whose run
raises, fails an output check or disagrees on the digest counts as
failed, and so does one that crashes or times out after the first.  The
exit code is not 0 only when the benchmark itself cannot run (``src/`` is
missing, or the first repetition crashes), and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.layers import PER_LAYER, barrier_metrics  # noqa: E402
from perfbench.reference import NOMINAL_S  # noqa: E402
from perfbench.worker import WORKDIR  # noqa: E402

WORKLOADS = ("fleet-scalar", "scale-sharded", "journal-faults", "paper-powercap")
"""Workload names, in ``BENCHMARK.json`` order."""

TRACED_BACKEND = {"scale-sharded": "serial"}
"""Backend of the traced twin where it differs from the workload's own."""

END_TO_END = {
    "events_per_s": "events/s",
    "cpu_us_per_event": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
"""Gated end-to-end metrics and their units."""

MIN_REPETITIONS = 3
REPETITION_TIMEOUT_S = 60.0
"""A repetition takes under 20 s; a hung one must not outlast the run."""

Record = dict[str, Any]


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed repetition)."""


def repetition(
    workload: str, seed: int, trace: bool, backend: str | None = None
) -> Record:
    """Run one repetition in a fresh interpreter and return its record.

    A repetition that times out or whose interpreter exits without a
    record is returned as a failed record carrying the reason.
    """
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if trace:
        command.append("--trace")
    if backend is not None:
        command += ["--backend", backend]
    # A session of its own, so a timeout also stops the shard workers
    # the repetition forked.
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=REPETITION_TIMEOUT_S)
    except BaseException as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            return _crashed(
                trace, backend, f"timed out after {REPETITION_TIMEOUT_S} s"
            )
        raise
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return _crashed(
            trace, backend, f"exited {process.returncode}: {stderr.strip()}"
        )
    return json.loads(lines[-1])


def _crashed(trace: bool, backend: str | None, reason: str) -> Record:
    """The failed record of a repetition that left no record of its own."""
    return {
        "traced": trace,
        "backend": backend,
        "ok": False,
        "crashed": True,
        "failures": [reason],
    }


def collect(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[list[Record], list[Record], list[Record]]:
    """Run repetitions until ``seconds`` have passed.

    Returns (untraced, traced, wire) records: untraced repetitions on the
    traced twin's backend, traced ones, and untraced ones on the
    workload's own backend (the untraced list itself unless the twin's
    backend differs).  Raises ``BenchmarkError`` if the first repetition
    crashes: then the benchmark cannot run at all.  A later crash is a
    failed repetition.
    """
    started = time.monotonic()
    twin = TRACED_BACKEND.get(workload) if trace else None
    untraced: list[Record] = []
    traced: list[Record] = []
    wire = [] if twin is not None else untraced

    def start(records: list[Record], *options: Any) -> None:
        record = repetition(workload, seed, *options)
        if record.get("crashed") and not (untraced or traced or wire):
            raise BenchmarkError(
                f"{workload} repetition {record['failures'][0]}"
            )
        records.append(record)

    if twin is not None:
        start(wire, False)
    while True:
        start(untraced, False, twin)
        if trace:
            start(traced, True, twin)
        enough = len(untraced) >= (1 if trace else MIN_REPETITIONS)
        if enough and time.monotonic() - started >= seconds:
            return untraced, traced, wire


def _median(values: Any) -> float:
    return statistics.median(list(values))


def _host_scale(record: Record) -> float:
    """Factor from this host's speed to the nominal host's."""
    return NOMINAL_S / record["reference_s"]


def end_to_end(records: list[Record], scaled: bool = True) -> dict[str, float]:
    """Medians of the end-to-end metrics over the given repetitions.

    With ``scaled``, time metrics are scaled to the nominal host by each
    repetition's own reference passes.
    """

    def scale(record: Record) -> float:
        return _host_scale(record) if scaled else 1.0

    return {
        "events_per_s": _median(
            r["events"] / (r["wall_s"] * scale(r)) for r in records
        ),
        "cpu_us_per_event": _median(
            1e6 * r["cpu_s"] * scale(r) / r["events"] for r in records
        ),
        "setup_s": _median(r["setup_s"] * scale(r) for r in records),
        "peak_rss_mb": _median(r["rss_mb"] for r in records),
    }


def replay_rate(records: list[Record]) -> float:
    """Median events/s through ``replay()`` on this host, 0 without one."""
    rates = [r["events"] / 2 / r["replay_s"] for r in records if r["replay_s"]]
    return _median(rates) if rates else 0.0


def per_layer(
    untraced: list[Record], traced: list[Record], wire: list[Record]
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Medians over traced repetitions; barrier telemetry from ``wire``;
    traced ÷ untraced host-scaled wall-clock as the tracing overhead; the
    replay rate from untraced repetitions.
    """
    metrics = {
        name: _median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    wire_metrics = [barrier_metrics(r["barrier"]) for r in wire]
    for name in wire_metrics[0]:
        metrics[name] = _median(m[name] for m in wire_metrics)
    metrics["trace.overhead"] = _median(
        r["wall_s"] * _host_scale(r) for r in traced
    ) / _median(r["wall_s"] * _host_scale(r) for r in untraced)
    metrics["journal.replay_events_per_s"] = replay_rate(untraced)
    metrics["host.reference_s"] = _median(
        r["reference_s"] for r in untraced + traced
    )
    return metrics


def _print_record(record: Record) -> None:
    kind = "traced" if record["traced"] else "untraced"
    backend = record["backend"] or "own backend"
    status = "ok" if record["ok"] else "FAILED " + "; ".join(record["failures"])
    if record.get("crashed"):
        print(f"  {kind:8} {backend:11} {status}")
        return
    print(
        f"  {kind:8} {backend:11} setup {record['setup_s']:.3f} s  "
        f"run {record['wall_s']:.3f} s  "
        f"reference {record['reference_s']:.3f} s  "
        f"{record.get('events', 0)} events  "
        f"digest {str(record.get('digest'))[:16]}  {status}"
    )


def _span_medians(traced: list[Record]) -> dict[str, float]:
    """Median self time per span name over the traced repetitions."""
    names = set().union(*(r["spans"] for r in traced))
    return {
        name: _median(r["spans"].get(name, 0.0) for r in traced)
        for name in names
    }


def summarize(
    untraced: list[Record], traced: list[Record], wire: list[Record]
) -> dict[str, Any]:
    """Print the report of one run's repetitions and return its result.

    A repetition fails when it crashed, when its run raised, when an
    output check failed, or when its result digest differs from the one
    most repetitions share.  Metrics are taken over the repetitions that
    did not fail.
    """
    records = untraced + traced + (wire if wire is not untraced else [])
    digests = Counter(r["digest"] for r in records if "digest" in r)
    common = digests.most_common(1)[0][0] if digests else None
    for record in records:
        if record["ok"] and record.get("digest") != common:
            record["ok"] = False
            record["failures"].append("result digest differs from the others")
    for record in records:
        _print_record(record)
    failed = sum(1 for record in records if not record["ok"])
    good_untraced = [r for r in untraced if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    good_wire = [r for r in wire if r["ok"]]
    metrics: dict[str, dict[str, Any]] = {}
    if traced and good_traced and good_untraced and good_wire:
        print("  self time per span of the traced run (median s):")
        spans = _span_medians(good_traced)
        for name, value in sorted(spans.items(), key=lambda item: -item[1]):
            print(f"    {name:34} {value:.4f}")
        for name, value in per_layer(good_untraced, good_traced, good_wire).items():
            metrics[name] = {"value": value, "unit": PER_LAYER[name]}
            print(f"  {name:34} {value:.6g} {PER_LAYER[name]}")
    elif not traced and good_untraced:
        unscaled = end_to_end(good_untraced, scaled=False)
        for name, value in end_to_end(good_untraced).items():
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
            print(
                f"  {name:34} {value:.6g} {END_TO_END[name]}"
                f"  (this host, unscaled: {unscaled[name]:.6g})"
            )
        if any(r["replay_s"] for r in good_untraced):
            print(
                f"  {'replay_events_per_s':34} "
                f"{replay_rate(good_untraced):.6g} events/s (this host)"
            )
            journal_mb = _median(r["journal_bytes"] for r in good_untraced) / 1e6
            print(f"  {'journal_mb':34} {journal_mb:.6g} MB")
    print(f"  {'failed_frac':34} {failed / len(records):.6g} ratio")
    print(f"  result digest {common}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    """Parse the command line, run the benchmark, print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        runs = collect(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"{args.workload} seed {args.seed}:")
        result = summarize(*runs)
    except BenchmarkError as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 2
    finally:
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
