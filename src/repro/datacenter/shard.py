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

**Barrier protocol v2.**  Bulk state rides preallocated
``multiprocessing.shared_memory`` segments as O(changes) typed deltas
(the :mod:`repro.datacenter.deltas` codec); pipes carry small control
frames:

1. *gather* — every worker settles its hosts to the barrier, encodes
   the :class:`~repro.datacenter.controlplane.actions.TenantView`
   records of its residents *that changed since it last published*
   into its upstream segment, stamps the segment header's barrier
   ordinal, and sends a ``ready`` frame carrying the barrier's tenant
   and machine checkpoints when the run checkpoints (``None``
   otherwise).  The coordinator blocks on that frame, reads the header
   once, and overlays the deltas on its resident view table;
2. *effect* — after the engine's barrier step decides and places, the
   coordinator writes the *changed* applied caps into each worker's
   downstream segment and sends each worker a ``plan`` frame: the
   machines failing now, the victim restores (with their checkpoints)
   whose destination it owns, and the migrations leaving it;
3. if the plan migrates anyone, source workers return the picklable
   :class:`~repro.datacenter.controlplane.applier.MigrantState`
   objects in a ``migrants`` frame, and the coordinator routes them to the
   destination workers in ``absorb`` frames — machines never change
   shards, tenants do.

When a run checkpoints, every barrier's checkpoints reach the
coordinator exactly as the serial backend captures them, which is what
failure restores, the journal and ``resume``'s attestation all read.

Determinism: every worker dispatches exactly the arrivals the serial
scheduler would on its machines, settles at the same barrier instants,
and applies the plan through the same :class:`HostGroup` methods; a
delta is shipped precisely when its packed bytes changed, so the
overlay table equals freshly computed views bit for bit.  At the
``done`` barrier each worker returns its group's closing payload, and
the engine composes the result from all payloads exactly as it does
from the serial group's — so a sharded run is byte-identical to a
serial one (asserted by the parity tests).  A worker whose machines
have all failed stays in the protocol with nothing to run.

Lifecycle: :func:`run_sharded` creates the ``reproshard_*`` segments
before forking and owns their teardown — close + unlink in a
``finally`` that also covers every worker-death :class:`EngineError`
path, so crashed runs leak nothing into ``/dev/shm`` (pinned by the
shard tests).  Workers only close their inherited mappings, and each
closes the coordinator's ends of every Pipe it inherited, so closing
those ends at teardown reaches a worker blocked in ``recv`` as EOF.
Supervision is one blocking wait: every frame — ready frames included
— is awaited on the Pipe and the worker's process sentinel together,
under :data:`_WORKER_BARRIER_TIMEOUT_SECONDS`, and a worker that dies,
raises, or wedges mid-segment-write raises an :class:`EngineError`
naming the worker, its machines, and the barrier.

The backend requires the ``fork`` start method (workers inherit the
armed engine — closures, generators and all — without pickling); the
engine raises :class:`~repro.datacenter.engine.EngineError` on
platforms without it.  Only plain-data control frames, checkpoints,
migrant states, and closing payloads cross the Pipes.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.datacenter import deltas
from repro.datacenter.engine import EngineError, HostGroup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datacenter.engine import DatacenterEngine

__all__ = [
    "SEGMENT_PREFIX",
    "fork_available",
    "partition_machines",
    "run_sharded",
    "usable_cpu_count",
]

_WORKER_BARRIER_TIMEOUT_SECONDS = 120.0
"""How long the coordinator waits for a worker's barrier message or
ready flag before declaring it hung.  Generous — barriers are
milliseconds apart in practice — and read at call time, so tests
shrink it."""

SEGMENT_PREFIX = "reproshard"
"""Shared-memory segment name prefix; the leak tests glob for it."""


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


def _publish_upstream(segment, seq: int, records: Sequence[bytes]) -> int:
    """Publish one barrier's upstream delta payload and stamp its flag.

    A module-level seam on purpose: the supervision tests monkeypatch
    it before forking (workers inherit the patched module) to simulate
    a worker dying or wedging mid-segment-write.
    """
    return deltas.publish(segment.buf, seq, records)


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
    upstream,
    downstream,
) -> None:
    """Advance one shard to completion, carrying its barriers over the wire.

    ``inherited`` are the coordinator's Pipe ends this fork copied —
    its own and every earlier sibling's — closed first thing so the
    coordinator's close at teardown is the last one and reaches a
    worker blocked in ``recv`` as EOF.
    """
    for end in inherited:
        end.close()
    try:
        # Workers never journal: the coordinator owns the journal (and
        # the inherited file handle must not be double-written).
        engine.journal = None
        # Workers are short-lived batch processes: everything they
        # allocate dies with them, so cyclic GC is pure overhead here.
        gc.disable()
        group = HostGroup(engine, machine_indices)
        # Delta baseline: the packed bytes last published per resident
        # binding.  A record ships exactly when its bytes changed, so
        # the coordinator's table stays bitwise equal to a fresh view;
        # a tenant that leaves drops out, so if it ever comes back it
        # is republished in full.
        last_sent: dict[int, bytes] = {}
        for seq, now in enumerate(tick_times, start=1):
            group.settle(now)
            checkpoints = group.checkpoints()
            records = []
            sent = {}
            for bindex, view in group.views(now):
                record = sent[bindex] = deltas.encode_tenant_record(bindex, view)
                if last_sent.get(bindex) != record:
                    records.append(record)
            last_sent = sent
            _publish_upstream(upstream, seq, records)
            conn.send(("ready", checkpoints))

            _, dead, restores, emigrations, migrating = _expect(
                conn.recv(), "plan"
            )
            group.kill(dead)
            cap_seq, cap_count = deltas.read_header(downstream.buf)
            if cap_seq == seq and cap_count:
                # Only this shard's live machines whose applied watts
                # changed: everything else keeps its DVFS state, exactly
                # like the serial backend's idempotent re-application.
                group.enforce(deltas.decode_cap_records(downstream.buf, cap_count))
            for tenant, dest, checkpoint in restores:
                group.restore(tenant, checkpoint, dest)
            if migrating:
                conn.send(("migrants", [group.emigrate(r) for r in emigrations]))
                for migrant, record in _expect(conn.recv(), "absorb")[1]:
                    group.absorb(migrant, record)
        conn.send(("done", group.finish(final_time)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - broken pipe on teardown
            pass
    finally:
        conn.close()
        for segment in (upstream, downstream):
            try:
                segment.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass


class _Wire:
    """The coordinator's transport: one barrier exchange with every worker.

    ``gather``/``apply``/``finish`` are the transport calls the engine's
    barrier loop makes; ``receive``/``dispatch``/``await_upstream`` are
    the supervision every frame passes through.
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
        self.upstreams: list[shared_memory.SharedMemory] = []
        self.downstreams: list[shared_memory.SharedMemory] = []
        self.names = [b.tenant.name for b in engine.bindings]
        self.weights = [b.tenant.weight for b in engine.bindings]
        # Resident overlay table: the last decoded record per binding.
        # Workers ship deltas against it, so between updates an entry
        # is bitwise the sender's current state.
        self.views: list[Any] = [None] * len(engine.bindings)
        # Last cap record published per worker per machine — the
        # downstream delta baseline.  The cache always equals the watts
        # the worker last enforced, so skipping an unchanged record is
        # exactly the serial backend's idempotent re-application.
        self.sent_caps: list[dict[int, bytes]] = [{} for _ in shards]
        self.seq = 0
        self.now = 0.0
        self.cpu_started = time.process_time()

    def label(self, worker: int, barrier_time: float) -> str:
        """Name a worker in supervision errors."""
        return (
            f"shard worker {worker} (machines {list(self.shards[worker])}) "
            f"at barrier t={barrier_time:g}"
        )

    def receive(
        self,
        worker: int,
        expected: str,
        barrier_time: float,
        awaited: str | None = None,
        lost: str = "without reporting",
    ) -> Any:
        """Await one frame from ``worker``, supervising it meanwhile.

        Blocks in the kernel until the frame arrives, the pipe hits EOF
        or the process exits, or the timeout runs out — a worker that
        fail-stops, raises or wedges is named, never waited on forever,
        and a waiting coordinator burns no CPU.
        """
        conn = self.connections[worker]
        process = self.processes[worker]
        timeout = _WORKER_BARRIER_TIMEOUT_SECONDS
        if not multiprocessing.connection.wait([conn, process.sentinel], timeout):
            # Named hung: no grace period at teardown.
            process.terminate()
            raise EngineError(
                f"{self.label(worker, barrier_time)} hung: no "
                f"{awaited or repr(expected) + ' message'} within "
                f"{timeout:g}s (pid {process.pid})"
            )
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # EOFError once the worker exits (it held the only other
            # end); OSError (e.g. ECONNRESET) when it dies while a read
            # is in flight — which surfaces is a race.
            process.join(timeout=1.0)
            raise EngineError(
                f"{self.label(worker, barrier_time)} died {lost} "
                f"(exit code {process.exitcode!r})"
            ) from None
        if message[0] == "error":
            raise EngineError(
                f"{self.label(worker, barrier_time)} failed:\n{message[1]}"
            )
        if message[0] != expected:  # pragma: no cover - protocol guard
            raise EngineError(
                f"shard protocol error: expected {expected!r}, "
                f"got {message[0]!r}"
            )
        return message[1]

    def dispatch(self, worker: int, message: tuple) -> None:
        """Send one frame; a worker that died since its last report
        surfaces here as a broken pipe, named the way ``receive`` names
        it."""
        process = self.processes[worker]
        try:
            self.connections[worker].send(message)
        except (BrokenPipeError, OSError):
            process.join(timeout=1.0)
            raise EngineError(
                f"{self.label(worker, self.now)} died before accepting a "
                f"{message[0]!r} message (exit code {process.exitcode!r})"
            ) from None

    def await_upstream(self, worker: int) -> tuple[int, Any]:
        """Await a worker's ready frame; its delta count and checkpoints.

        The worker sends the frame right after stamping its upstream
        header, so the coordinator sleeps in ``receive`` and reads the
        header once, never polling the segment.
        """
        checkpoints = self.receive(
            worker,
            "ready",
            self.now,
            awaited=f"barrier-ready flag (seq {self.seq})",
            lost="without publishing its barrier delta",
        )
        got, count = deltas.read_header(self.upstreams[worker].buf)
        if got != self.seq:  # pragma: no cover - protocol guard
            raise EngineError(
                f"shard protocol error: {self.label(worker, self.now)} "
                f"stamped barrier seq {got}, expected {self.seq}"
            )
        return count, checkpoints

    def gather(self, seq: int, now: float) -> tuple[tuple[Any, ...], Any]:
        """Every worker's barrier: view deltas overlaid, checkpoints merged."""
        self.seq, self.now = seq, now
        stats = self.engine.barrier_stats
        tenant_cps: dict[str, Any] = {}
        machine_cps: dict[int, Any] = {}
        checkpointing = False
        for worker in range(len(self.shards)):
            waited = time.perf_counter()
            count, checkpoints = self.await_upstream(worker)
            stats["wait_seconds"] += time.perf_counter() - waited
            decoded = time.perf_counter()
            for bindex, view in deltas.decode_tenant_records(
                self.upstreams[worker].buf, count, self.names, self.weights
            ):
                self.views[bindex] = view
            stats["payload_bytes"] += (
                deltas.HEADER.size + count * deltas.TENANT_RECORD.size
            )
            stats["serialize_seconds"] += time.perf_counter() - decoded
            if checkpoints is not None:
                checkpointing = True
                tenant_cps.update(checkpoints[0])
                machine_cps.update(checkpoints[1])
        return tuple(self.views), (
            (tenant_cps, machine_cps) if checkpointing else None
        )

    def apply(
        self,
        caps: tuple[float | None, ...] | None,
        dead: Sequence[int],
        restores: Sequence[tuple[str, int, Any]],
        migrations: Sequence[Any],
    ) -> None:
        """The effect over the wire: caps down, plan frames, migrants."""
        stats = self.engine.barrier_stats
        dead_machines = self.engine.dead_machines
        for worker, shard in enumerate(self.shards):
            # Downstream deltas: only this shard's live machines whose
            # applied watts changed since the last publish.
            encoding = time.perf_counter()
            records = []
            cache = self.sent_caps[worker]
            if caps is not None:
                for index in shard:
                    watts = caps[index]
                    if watts is None or index in dead_machines:
                        continue
                    record = deltas.encode_cap_record(index, watts)
                    if cache.get(index) != record:
                        cache[index] = record
                        records.append(record)
            count = deltas.publish(self.downstreams[worker].buf, self.seq, records)
            stats["payload_bytes"] += (
                deltas.HEADER.size + count * deltas.CAP_RECORD.size
            )
            stats["serialize_seconds"] += time.perf_counter() - encoding
            self.dispatch(
                worker,
                (
                    "plan",
                    dead,
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
                migrant.tenant: migrant
                for worker in range(len(self.shards))
                for migrant in self.receive(worker, "migrants", self.now)
            }
            for worker in range(len(self.shards)):
                self.dispatch(
                    worker,
                    (
                        "absorb",
                        [
                            (migrants[m.tenant], m) for m in migrations
                            if self.shard_of[m.dest_machine_index] == worker
                        ],
                    ),
                )

    def finish(self, final_time: float) -> list[dict[str, Any]]:
        """Every worker's closing payload, plus the CPU telemetry."""
        payloads = []
        for worker in range(len(self.shards)):
            payloads.extend(self.receive(worker, "done", final_time))
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
    dead or hung worker — every pipe is closed, every worker reaped,
    and every segment closed and unlinked.
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
    # Preallocated segments, one pair per worker, sized for the worst
    # case (every binding resident in one shard; caps for every
    # machine), created before forking so workers inherit the mappings.
    sizes = {
        "up": deltas.HEADER.size + len(engine.bindings) * deltas.TENANT_RECORD.size,
        "down": deltas.HEADER.size + len(engine.machines) * deltas.CAP_RECORD.size,
    }
    run_token = f"{SEGMENT_PREFIX}_{os.getpid()}_{os.urandom(4).hex()}"
    segments: list[shared_memory.SharedMemory] = []
    try:
        for worker in range(len(shards)):
            for end, streams in (("up", wire.upstreams), ("down", wire.downstreams)):
                segment = shared_memory.SharedMemory(
                    name=f"{run_token}_{worker}_{end}", create=True, size=sizes[end]
                )
                segments.append(segment)
                streams.append(segment)
        for worker, shard in enumerate(shards):
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
                    wire.upstreams[worker],
                    wire.downstreams[worker],
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
        # Segments are closed and unlinked here and nowhere else — the
        # parent owns the /dev/shm lifetime, so even a run aborted by a
        # worker-death EngineError leaves no stray reproshard_*
        # segments behind.
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
        for segment in segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
