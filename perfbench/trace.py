"""Spans and counters around the public calls into each layer.

The tracer patches the entry points listed in :func:`layer_patches` for
one traced repetition and restores them afterwards; no tracing code lives
in ``src/``.  Each patched call records a span (name, start, end, parent)
in flat arrays and adds to a counter.  A span's self time is its duration
minus the part its child spans cover, so the self times of all spans under
the run's root sum to the run's wall-clock, and the root's own self time
is what no layer span covers.

Every patched call is timed, per-beat ones too (``HeartbeatMonitor.
heartbeat``, ``Machine.execute``, ``process_item``, ``TenantLedger.charge``);
what that costs is reported as ``trace.overhead``.
"""

from __future__ import annotations

import gc
import importlib
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterable

NO_PARENT = -1


def _items(args: tuple) -> int:
    """Item count of a ``(self, items, ...)`` batch call."""
    return len(args[1])


def _first(args: tuple) -> int:
    """Count passed as the first argument of ``(self, count, ...)``."""
    return int(args[1])


def layer_patches() -> list[tuple[Any, str, str, Callable[[tuple], int] | None]]:
    """``(owner, attribute, span name, amount)`` for every traced call.

    A span name is ``<layer>.<call>``.  ``amount`` maps the call's
    positional arguments to how much work it counts for (``None``: one).
    Module-level functions are patched where their callers look them up.
    """
    from perfbench import workloads
    from repro.apps.x264.app import X264App
    from repro.core.actuator import Actuator
    from repro.core.controller import HeartRateController
    from repro.core.runtime import PowerDialRuntime
    from repro.datacenter import engine as engine_module
    from repro.datacenter.arbiter import PowerArbiter
    from repro.datacenter.billing import TenantLedger
    from repro.datacenter.controlplane import (
        ChaosPolicy,
        ConsolidatingPolicy,
        DegradedModePolicy,
        HierarchicalArbiter,
        MigratingPolicy,
        ScheduledBudgetPolicy,
    )
    from repro.datacenter.engine import DatacenterEngine
    from repro.datacenter.journal import JournalWriter, ReplayPolicy
    from repro.datacenter.service import ServiceApp
    from repro.experiments import datacenter as datacenter_module
    from repro.experiments import powercap as powercap_module
    from repro.hardware.machine import Machine
    from repro.heartbeats.api import HeartbeatMonitor

    # The package re-exports the function replay(), shadowing its module.
    replay_module = importlib.import_module("repro.datacenter.journal.replay")
    patches: list[tuple[Any, str, str, Callable[[tuple], int] | None]] = [
        (DatacenterEngine, "run", "engine.run", None),
        (PowerDialRuntime, "begin", "runtime.begin", None),
        (PowerDialRuntime, "feed", "runtime.feed", None),
        (PowerDialRuntime, "step", "runtime.step", None),
        (HeartbeatMonitor, "heartbeat", "heartbeats.heartbeat", None),
        (HeartbeatMonitor, "commit_run", "heartbeats.commit_run", _items),
        (HeartRateController, "update", "controller.update", None),
        (Actuator, "plan", "actuator.plan", None),
        (Machine, "execute", "machine.execute", None),
        (Machine, "execute_run", "machine.execute_run", _first),
        (Machine, "idle_until", "machine.idle_until", None),
        (ServiceApp, "process_item", "apps.process_item", None),
        (ServiceApp, "batch_process", "apps.batch_process", _items),
        (X264App, "process_item", "apps.process_item", None),
        (TenantLedger, "charge", "billing.charge", None),
        (engine_module, "plan_actions", "controlplane.plan_actions", None),
        (
            engine_module,
            "capture_tenant_checkpoint",
            "checkpoint.capture",
            None,
        ),
        (
            engine_module,
            "capture_machine_checkpoint",
            "checkpoint.capture",
            None,
        ),
        (JournalWriter, "write_record", "journal.write_record", None),
        (replay_module, "read_journal", "journal.read_journal", None),
        (workloads, "journaled_run", "journal.journaled_run", None),
        (workloads, "replay", "journal.replay", None),
    ]
    for policy in (
        PowerArbiter,
        HierarchicalArbiter,
        MigratingPolicy,
        ConsolidatingPolicy,
        ScheduledBudgetPolicy,
        ChaosPolicy,
        DegradedModePolicy,
        ReplayPolicy,
    ):
        patches.append((policy, "decide", "controlplane.decide", None))
    for module in (workloads, datacenter_module, powercap_module):
        for name in ("built_service_system", "built_system", "measure_baseline_rate"):
            if hasattr(module, name):
                patches.append((module, name, f"calibration.{name}", None))
    return patches


class Tracer:
    """In-memory span and counter recorder for one traced repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [NO_PARENT]
        self._undo: list[Callable[[], None]] = []
        self.gc_pause_s = 0.0
        self.gc_gen2_collections = 0
        self._gc_started = 0.0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(
        self,
        fn: Callable[..., Any],
        name: str,
        amount: Callable[[tuple], int] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span ``name`` that also counts the call."""
        name_id = self._name_id(name)
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1 if amount is None else amount(args)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` (the benchmark's own code) inside a span ``name``."""
        return self.timed(fn, name)()

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        amount: Callable[[tuple], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by its traced twin until :meth:`uninstall`."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr) if not had_own else vars(owner)[attr]
        setattr(owner, attr, self.timed(original, name, amount))
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def restart_counts(self) -> None:
        """Zero the counters and collector figures; spans are kept."""
        self.counts.clear()
        self.gc_pause_s = 0.0
        self.gc_gen2_collections = 0

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_started
        if info["generation"] == 2:
            self.gc_gen2_collections += 1

    def install(self) -> None:
        """Patch every layer entry point and start timing the collector."""
        for owner, attr, name, amount in layer_patches():
            self.patch(owner, attr, name, amount)
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._undo:
            self._undo.pop()()

    def root_index(self, name: str) -> int:
        """Index of the first root span called ``name``."""
        name_id = self._ids[name]
        for index, parent in enumerate(self.span_parent):
            if parent == NO_PARENT and self.span_name[index] == name_id:
                return index
        raise KeyError(name)

    def self_times(self, under: int) -> dict[str, float]:
        """Self time per span name, over the spans under root ``under``."""
        roots: list[int] = []
        totals: dict[str, float] = {}
        for index, parent in enumerate(self.span_parent):
            root = index if parent == NO_PARENT else roots[parent]
            roots.append(root)
            if root != under:
                continue
            duration = self.span_end[index] - self.span_start[index]
            name = self.names[self.span_name[index]]
            totals[name] = totals.get(name, 0.0) + duration
            if parent != NO_PARENT:
                parent_name = self.names[self.span_name[parent]]
                totals[parent_name] = totals.get(parent_name, 0.0) - duration
        return totals

    def inclusive(self, prefix: str) -> float:
        """Wall-clock inside spans named ``prefix*``, nested ones once."""
        total = 0.0
        wanted = {i for i, name in enumerate(self.names) if name.startswith(prefix)}
        outer: list[bool] = []
        for index, parent in enumerate(self.span_parent):
            inside = parent != NO_PARENT and (
                outer[parent] or self.span_name[parent] in wanted
            )
            outer.append(inside)
            if self.span_name[index] in wanted and not inside:
                total += self.span_end[index] - self.span_start[index]
        return total


def layer_sum(times: dict[str, float], prefixes: Iterable[str]) -> float:
    """Sum of the self times of spans whose names start with ``prefixes``."""
    prefixes = tuple(prefixes)
    return sum(
        value for name, value in times.items() if name.startswith(prefixes)
    )
