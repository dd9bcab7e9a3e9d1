"""Shared experiment infrastructure: machines, scales, formatting.

Experiments run on simulated machines whose throughput constant is chosen
so that one main-loop item takes tens to hundreds of milliseconds of
virtual time — the heartbeat granularity of the paper's benchmarks — so
the 1 Hz power meter and the 20-beat control quantum behave as they did
on the authors' testbed.
"""

from __future__ import annotations

import enum
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.datacenter import shard
from repro.hardware.cpu import Processor
from repro.hardware.machine import Machine

__all__ = [
    "Scale",
    "experiment_machine",
    "EXPERIMENT_THROUGHPUT",
    "format_table",
    "fork_map",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

EXPERIMENT_THROUGHPUT = 1.0e6
"""Work units per GHz-second on experiment machines (see module doc)."""


class Scale(enum.Enum):
    """Experiment scale presets.

    TINY keeps unit tests fast; PAPER is the scale the benchmark harness
    regenerates the paper's tables and figures at.
    """

    TINY = "tiny"
    PAPER = "paper"


def experiment_machine(frequency_ghz: float = 2.4) -> Machine:
    """A fresh experiment server in the requested initial P-state."""
    machine = Machine(
        processor=Processor(work_units_per_ghz_second=EXPERIMENT_THROUGHPUT)
    )
    machine.set_frequency(frequency_ghz)
    return machine


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned plain-text table (the bench harness's output)."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts = [line(list(headers)), line(["-" * w for w in widths])]
    parts.extend(line(row) for row in materialized)
    return "\n".join(parts)


def fork_map(function: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """``[function(item) for item in items]``, spread over forked children.

    Items are dealt round-robin to one child per usable CPU (never more
    children than items).  Each child inherits ``function`` and
    everything it closes over through ``fork``, so only the results are
    pickled.  Without ``fork``, or with one usable CPU, the list is
    built in this process.  The result is the same either way
    provided each call depends only on state set up before the map —
    one call never sees another's side effects.  The children are
    daemonic, so ``function`` must not start processes of its own.

    Raises:
        RuntimeError: A child raised (its traceback is included) or
            died before reporting.
    """
    items = list(items)
    workers = min(shard.usable_cpu_count(), len(items))
    if workers <= 1 or not shard.fork_available():
        return [function(item) for item in items]
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for index in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_fork_map_child,
                args=(function, items[index::workers], sender),
                daemon=True,
            )
            child.start()
            sender.close()
            children.append((receiver, child))
        results: list = [None] * len(items)
        for index, (receiver, child) in enumerate(children):
            try:
                status, payload = receiver.recv()
            except EOFError:
                child.join(timeout=1.0)
                raise RuntimeError(
                    f"fork_map child {index} died without reporting "
                    f"(exit code {child.exitcode!r})"
                ) from None
            if status == "error":
                raise RuntimeError(f"fork_map child {index} failed:\n{payload}")
            results[index::workers] = payload
        return results
    finally:
        for receiver, child in children:
            receiver.close()
            child.join(timeout=5.0)
            if child.is_alive():
                child.kill()
                child.join()


def _fork_map_child(function, share, sender) -> None:
    try:
        sender.send(("ok", [function(item) for item in share]))
    except BaseException:
        sender.send(("error", traceback.format_exc()))
    finally:
        sender.close()
