"""One repetition of one workload, in the interpreter that runs this file.

``run.py`` starts a fresh interpreter for every repetition: repeated runs
inside one process slow down from run to run (see ``README.md``), so a
repetition never shares a heap with another.  The repetition sets up the
workload, collects garbage, times the run, checks its outputs and prints
one JSON object as the last line of its standard output.

Set-up time is counted from the first line of this file, so it includes
importing the program.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED [--trace] [--backend B]``
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".perfbench-work"


def _rusage(who: int) -> tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of this process or its children."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure(
    workload: str,
    seed: int,
    trace: bool = False,
    backend: str | None = None,
    size: Any = None,
    workdir: str | None = None,
) -> dict[str, Any]:
    """Set up, run and check one repetition; return its record.

    A run that raises, or whose outputs fail a check, is recorded with
    ``ok`` false and its failures; it does not raise here.  ``size``
    (a ``workloads.Size``) replaces the workloads' full dimensions, and
    ``workdir`` is where the journal goes.
    """
    from perfbench import workloads
    from perfbench.reference import reference_seconds

    tracer = None
    if trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = workdir or str(WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    options: dict[str, Any] = {"workdir": workdir}
    if size is not None:
        options["size"] = size
    if backend is not None:
        options["backend"] = backend
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "backend": backend,
        "traced": trace,
    }
    prepared = None
    try:
        setup = workloads.SETUPS[workload]
        if tracer is not None:
            prepared = tracer.call("setup", lambda: setup(seed, **options))
        else:
            prepared = setup(seed, **options)
        record["setup_s"] = time.perf_counter() - STARTED
        gc.collect()
        reference_before = reference_seconds()
        if tracer is not None:
            tracer.restart_counts()
        cpu_before = time.process_time()
        children_before, _ = _rusage(resource.RUSAGE_CHILDREN)
        wall_before = time.perf_counter()
        failures: list[str] = []
        outcome = None
        try:
            if tracer is not None:
                outcome = tracer.call("run", prepared.run)
            else:
                outcome = prepared.run()
        except Exception as error:  # a failed run is counted, not fatal
            failures.append(f"run raised {error!r}")
        record["wall_s"] = time.perf_counter() - wall_before
        record["reference_s"] = (reference_before + reference_seconds()) / 2.0
        children_after, children_rss = _rusage(resource.RUSAGE_CHILDREN)
        record["cpu_s"] = (
            time.process_time() - cpu_before + children_after - children_before
        )
        _, own_rss = _rusage(resource.RUSAGE_SELF)
        record["rss_mb"] = own_rss + children_rss
        if outcome is not None:
            failures.extend(workloads.check(prepared, outcome))
            record.update(
                events=outcome.events,
                digest=workloads.digest(outcome),
                replay_s=outcome.replay_seconds,
                journal_bytes=outcome.journal_bytes,
                barrier=outcome.barrier,
            )
        record["failures"] = failures
        record["ok"] = not failures
    finally:
        if tracer is not None:
            tracer.uninstall()
        if prepared is not None and prepared.journal_path is not None:
            if os.path.exists(prepared.journal_path):
                os.remove(prepared.journal_path)
    if tracer is not None and outcome is not None:
        from perfbench.layers import layer_metrics

        record["layers"], record["spans"] = layer_metrics(tracer, outcome)
    return record


def main(argv: list[str] | None = None) -> int:
    """Parse the command line, run one repetition, print its record."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--backend", default=None)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    record = measure(args.workload, args.seed, args.trace, args.backend)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
