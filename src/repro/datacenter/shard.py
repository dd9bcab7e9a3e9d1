"""Sharded multiprocess transport for the datacenter engine.

Between control barriers, machines are completely independent: an
arrival only touches its own host, and co-residency contention is
confined to one machine's clock.  The sharded backend exploits this by
partitioning the machine pool across forked worker processes, each
advancing its partition as one :class:`~repro.datacenter.engine.
HostGroup` — the same object the serial backend runs over the whole
pool.  The engine's barrier loop (:meth:`~repro.datacenter.engine.
DatacenterEngine.run`) is the same on both backends; this module is
only the transport that carries each barrier's state between the
coordinator (the parent, the only process that runs the policy) and
the workers, plus the workers' supervision.

**Barrier protocol.**  One channel per worker: a Pipe whose frames
are pickled plain data.

1. *gather* — every worker settles its hosts to the barrier and sends
   a ``ready`` frame: the
   :class:`~repro.datacenter.controlplane.actions.TenantView` of every
   resident, keyed by binding index, and the barrier's tenant and
   machine checkpoints when something reads this barrier's (``None``
   otherwise; see ``DatacenterEngine._checkpoint_rule``).
   The coordinator puts the views in binding order; a binding missing
   from every frame, or sent twice, is a protocol error;
2. *effect* — after the engine's barrier step decides and places, the
   coordinator sends each worker a ``plan`` frame: the machines
   failing now, the caps for its machines (only those the barrier step
   changed), the victim restores (with their checkpoints) whose
   destination it owns, and the migrations leaving it;
3. if the plan migrates anyone, source workers drain the leaving
   tenants into ``(TenantCheckpoint, run segments)`` pairs in a
   ``migrants`` frame, and the coordinator routes each pair with its
   migration record to the destination worker in an ``absorb`` frame
   — machines never change shards, tenants do.

Every captured barrier's checkpoints reach the coordinator exactly as
the serial backend captures them, which is what failure restores, the
journal and ``resume``'s attestation all read.

Determinism: every worker dispatches exactly the arrivals the serial
scheduler would on its machines, settles at the same barrier instants,
and applies the plan through the same :class:`HostGroup` methods.
Pickle carries every float as its IEEE-754 bits, so the coordinator's
views are the workers' views.  At the ``done`` barrier each worker
returns its group's closing payload, and the engine composes the result
from all payloads exactly as it does from the serial group's — so a
sharded run is byte-identical to a serial one (asserted by the parity
tests).  A worker whose machines have all failed stays in the protocol
with nothing to run.

Supervision: each worker closes the coordinator's ends of every Pipe it
inherited, so closing those ends at teardown reaches a worker blocked
in ``recv`` as EOF.  Every frame from a worker is awaited on its Pipe
and its process sentinel together, under
:data:`_WORKER_BARRIER_TIMEOUT_SECONDS`, and a worker that dies,
raises, or wedges raises an :class:`EngineError` naming the worker, its
machines, and the barrier (for a raise, the one its ``error`` frame
says it was running).

The backend requires the ``fork`` start method (workers inherit the
armed engine — closures, generators and all — without pickling); the
engine raises :class:`~repro.datacenter.engine.EngineError` on
platforms without it.  Only plain-data frames — views, caps,
checkpoints, run segments, and closing payloads — cross the Pipes.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.datacenter.engine import EngineError, HostGroup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datacenter.engine import DatacenterEngine

__all__ = [
    "fork_available",
    "partition_machines",
    "run_sharded",
    "usable_cpu_count",
]

_WORKER_BARRIER_TIMEOUT_SECONDS = 120.0
"""How long the coordinator waits for a worker's next frame before
declaring it hung.  Generous — barriers are milliseconds apart in
practice — and read at call time, so tests shrink it."""


def fork_available() -> bool:
    """Whether the host supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpu_count() -> int:
    """CPUs this process may actually run on.

    Respects cgroup/affinity limits (CI containers routinely expose a
    64-core box but pin the job to a couple of cores), unlike
    ``multiprocessing.cpu_count()``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def partition_machines(machine_count: int, workers: int) -> list[list[int]]:
    """Round-robin machine indices across ``workers`` shards.

    Round-robin keeps shards balanced when load correlates with machine
    index (scenario builders typically fill machines in order).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    workers = min(workers, machine_count)
    return [list(range(start, machine_count, workers)) for start in range(workers)]


def _expect(message: tuple, kind: str) -> tuple:
    """A worker's protocol guard: the coordinator's next frame kind."""
    if message[0] != kind:  # pragma: no cover - protocol guard
        raise RuntimeError(f"expected {kind!r} at barrier, got {message[0]!r}")
    return message


def _worker_main(
    engine: "DatacenterEngine",
    machine_indices: Sequence[int],
    tick_times: Sequence[float],
    final_time: float,
    conn,
    inherited: Sequence[Any],
) -> None:
    """Advance one shard to completion, carrying its barriers over the wire.

    ``inherited`` are the coordinator's Pipe ends this fork copied —
    its own and every earlier sibling's — closed first thing so the
    coordinator's close at teardown is the last one and reaches a
    worker blocked in ``recv`` as EOF.
    """
    for end in inherited:
        end.close()
    # The barrier the worker is running, named in its error frame.
    barrier = tick_times[0] if tick_times else final_time
    try:
        # Workers never journal: the coordinator owns the journal (and
        # the inherited file handle must not be double-written).
        engine.journal = None
        # Workers are short-lived batch processes: everything they
        # allocate dies with them, so cyclic GC is pure overhead here.
        gc.disable()
        group = HostGroup(engine, machine_indices)
        for barrier in tick_times:
            group.settle(barrier)
            checkpoints = group.checkpoints(barrier)
            conn.send(("ready", group.views(barrier), checkpoints))
            _, dead, caps, restores, emigrations, migrating = _expect(
                conn.recv(), "plan"
            )
            group.kill(dead)
            group.enforce(caps)
            for tenant, dest, checkpoint in restores:
                group.restore(tenant, checkpoint, dest)
            if migrating:
                conn.send(("migrants", [group.emigrate(r) for r in emigrations]))
                for move in _expect(conn.recv(), "absorb")[1]:
                    group.absorb(*move)
        barrier = final_time
        conn.send(("done", group.finish(final_time)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc(), barrier))
        except Exception:  # pragma: no cover - broken pipe on teardown
            pass
    finally:
        conn.close()


class _Wire:
    """The coordinator's transport: one barrier exchange with every worker.

    ``gather``/``apply``/``finish`` are the transport calls the engine's
    barrier loop makes; every frame passes through ``receive`` or
    ``dispatch``, which supervise the worker and count the frame in the
    engine's ``barrier_stats`` (bytes, pickling and waiting seconds).
    """

    def __init__(self, engine: "DatacenterEngine", shards: list[list[int]]):
        self.engine = engine
        self.shards = shards
        self.shard_of = {
            machine: worker
            for worker, shard in enumerate(shards)
            for machine in shard
        }
        self.connections: list[Any] = []
        self.processes: list[Any] = []
        self.now = 0.0
        self.cpu_started = time.process_time()

    def label(self, worker: int, barrier_time: float) -> str:
        """Name a worker in supervision errors."""
        return (
            f"shard worker {worker} (machines {list(self.shards[worker])}) "
            f"at barrier t={barrier_time:g}"
        )

    def receive(self, worker: int, expected: str, barrier_time: float) -> Any:
        """Await one frame from ``worker``, supervising it meanwhile.

        Blocks in the kernel until the frame arrives, the pipe hits EOF
        or the process exits, or the timeout runs out — a worker that
        fail-stops, raises or wedges is named, never waited on forever,
        and a waiting coordinator burns no CPU.  Returns the frame's
        body (everything after its kind).
        """
        conn = self.connections[worker]
        process = self.processes[worker]
        stats = self.engine.barrier_stats
        timeout = _WORKER_BARRIER_TIMEOUT_SECONDS
        waited = time.perf_counter()
        if not multiprocessing.connection.wait([conn, process.sentinel], timeout):
            # Named hung: no grace period at teardown.
            process.terminate()
            raise EngineError(
                f"{self.label(worker, barrier_time)} hung: no {expected!r} "
                f"message within {timeout:g}s (pid {process.pid})"
            )
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            # EOFError once the worker exits (it held the only other
            # end); OSError (e.g. ECONNRESET) when it dies while a read
            # is in flight — which surfaces is a race.
            process.join(timeout=1.0)
            raise EngineError(
                f"{self.label(worker, barrier_time)} died without sending "
                f"its {expected!r} message (exit code {process.exitcode!r})"
            ) from None
        decoding = time.perf_counter()
        message = pickle.loads(frame)
        stats["wait_seconds"] += decoding - waited
        stats["serialize_seconds"] += time.perf_counter() - decoding
        stats["payload_bytes"] += len(frame)
        if message[0] == "error":
            # Named at the barrier the worker was running, which may be
            # earlier than the one awaited here.
            raise EngineError(
                f"{self.label(worker, message[2])} failed:\n{message[1]}"
            )
        if message[0] != expected:  # pragma: no cover - protocol guard
            raise EngineError(
                f"shard protocol error: expected {expected!r}, "
                f"got {message[0]!r}"
            )
        return message[1:]

    def dispatch(self, worker: int, message: tuple) -> None:
        """Send one frame; a worker that died since its last report
        surfaces here as a broken pipe, named the way ``receive`` names
        it."""
        stats = self.engine.barrier_stats
        encoding = time.perf_counter()
        frame = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        stats["serialize_seconds"] += time.perf_counter() - encoding
        stats["payload_bytes"] += len(frame)
        process = self.processes[worker]
        try:
            self.connections[worker].send_bytes(frame)
        except (BrokenPipeError, OSError):
            process.join(timeout=1.0)
            raise EngineError(
                f"{self.label(worker, self.now)} died before accepting a "
                f"{message[0]!r} message (exit code {process.exitcode!r})"
            ) from None

    def gather(self, now: float) -> tuple[tuple[Any, ...], Any]:
        """Every worker's ready frame: views in binding order,
        checkpoints merged."""
        self.now = now
        views: list[Any] = [None] * len(self.engine.bindings)
        tenant_cps: dict[str, Any] = {}
        machine_cps: dict[int, Any] = {}
        checkpointing = False
        for worker in range(len(self.shards)):
            shipped, checkpoints = self.receive(worker, "ready", now)
            for bindex, view in shipped:
                if views[bindex] is not None:
                    raise EngineError(
                        f"shard protocol error: binding {bindex} sent twice "
                        f"at barrier t={now:g}"
                    )
                views[bindex] = view
            if checkpoints is not None:
                checkpointing = True
                tenant_cps.update(checkpoints[0])
                machine_cps.update(checkpoints[1])
        missing = [bindex for bindex, view in enumerate(views) if view is None]
        if missing:
            raise EngineError(
                f"shard protocol error: no worker sent bindings {missing} "
                f"at barrier t={now:g}"
            )
        return tuple(views), (
            (tenant_cps, machine_cps) if checkpointing else None
        )

    def apply(
        self,
        caps: tuple[float | None, ...] | None,
        dead: Sequence[int],
        restores: Sequence[tuple[str, int, Any]],
        migrations: Sequence[Any],
    ) -> None:
        """The effect over the wire: plan frames, then migrants."""
        for worker, shard in enumerate(self.shards):
            self.dispatch(
                worker,
                (
                    "plan",
                    dead,
                    [] if caps is None else [
                        (index, caps[index]) for index in shard
                        if caps[index] is not None
                    ],
                    [r for r in restores if self.shard_of[r[1]] == worker],
                    [
                        m for m in migrations
                        if self.shard_of[m.source_machine_index] == worker
                    ],
                    bool(migrations),
                ),
            )
        if migrations:
            migrants = {
                checkpoint.tenant: (checkpoint, segments)
                for worker in range(len(self.shards))
                for checkpoint, segments in self.receive(
                    worker, "migrants", self.now
                )[0]
            }
            for worker in range(len(self.shards)):
                self.dispatch(
                    worker,
                    (
                        "absorb",
                        [
                            (*migrants[m.tenant], m) for m in migrations
                            if self.shard_of[m.dest_machine_index] == worker
                        ],
                    ),
                )

    def finish(self, final_time: float) -> list[dict[str, Any]]:
        """Every worker's closing payload, plus the CPU telemetry."""
        payloads = []
        for worker in range(len(self.shards)):
            payloads.extend(self.receive(worker, "done", final_time)[0])
        self.engine.shard_busy_seconds = [p["busy_seconds"] for p in payloads]
        self.engine.coordinator_busy_seconds = (
            time.process_time() - self.cpu_started
        )
        return payloads


@contextlib.contextmanager
def run_sharded(
    engine: "DatacenterEngine",
    tick_times: Sequence[float],
    final_time: float,
) -> Iterator[_Wire]:
    """Fork the shard workers and yield the coordinator's transport.

    Entered by :meth:`~repro.datacenter.engine.DatacenterEngine.run`
    after the in-process time-zero barrier, so the workers inherit the
    armed engine.  On exit — normal or an :class:`EngineError` naming a
    dead or hung worker — every pipe is closed and every worker reaped.
    """
    if not fork_available():
        raise EngineError(
            "sharded backend requires the 'fork' multiprocessing start "
            "method (unavailable on this platform); use backend='serial'"
        )
    context = multiprocessing.get_context("fork")
    shards = partition_machines(
        len(engine.machines), engine.workers or usable_cpu_count()
    )
    wire = _Wire(engine, shards)
    try:
        for shard in shards:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(
                    engine,
                    shard,
                    tick_times,
                    final_time,
                    child_conn,
                    [*wire.connections, parent_conn],
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            wire.connections.append(parent_conn)
            wire.processes.append(process)
        yield wire
    finally:
        # Teardown only: worker death/hang is detected and raised by
        # receive(), which already terminated any worker it named hung,
        # so this just reaps.  Closing the pipes first unblocks any
        # worker still waiting at a barrier (workers hold no copies of
        # these ends, so its recv sees EOF and it exits); terminate(),
        # then kill(), is the last resort for a worker wedged outside
        # the protocol, so teardown never waits without a bound.
        for conn in wire.connections:
            conn.close()
        for process in wire.processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - ignores SIGTERM
                process.kill()
                process.join()
