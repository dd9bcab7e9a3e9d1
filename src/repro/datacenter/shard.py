"""Sharded multiprocess backend for the datacenter engine.

Between control barriers, machines are completely independent: an
arrival only touches its own host, and co-residency contention is
confined to one machine's clock.  The sharded backend exploits this by
partitioning the machine pool (with the tenants resident on each
machine) across forked worker processes.  Each worker advances its
shard through the same lazy event pump the serial backend runs; the
only cross-shard traffic is at the control barriers.

**Barrier protocol v2** moves that traffic through preallocated
``multiprocessing.shared_memory`` segments instead of pickling whole
snapshots over Pipes, and ships O(changes) typed deltas (the
:mod:`repro.datacenter.deltas` codec) instead of O(machines) state:

1. every worker encodes the :class:`~repro.datacenter.controlplane.
   actions.TenantView` records of its resident tenants *that changed
   since it last published* into its upstream segment, stamps the
   segment header's barrier ordinal, and sends a tiny ``("ready",
   seq)`` frame on its Pipe — the coordinator blocks on that frame,
   never polls, then reads the header once;
2. the parent — the only process that runs the
   :class:`~repro.datacenter.controlplane.actions.ControlPolicy` —
   keeps every worker's last-published views resident, overlays the
   deltas, assembles the :class:`ClusterView` in binding order,
   decides, validates through the shared
   :func:`~repro.datacenter.controlplane.applier.plan_actions`, writes
   the *changed* applied caps into each worker's downstream segment,
   and sends a tiny ``plan`` control frame over the Pipe (placement
   and failure routing only — bulk state never rides the Pipe);
3. if the plan migrates anyone, source workers run
   :func:`~repro.datacenter.controlplane.applier.emigrate` and return
   the picklable :class:`MigrantState`s, which the parent routes to
   the destination workers to :func:`~repro.datacenter.controlplane.
   applier.absorb` — machines never change shards, tenants do.  A
   binding that leaves or joins a worker resets that worker's delta
   baseline for it, so the next barrier republishes it in full.

Under a policy whose ``aggregation`` is ``"machine-demand"`` (the
``hier-arbitrated`` :class:`~repro.datacenter.controlplane.hierarchy.
HierarchicalArbiter`) and no journal/fault machinery, workers skip
tenant views entirely and publish one demand score per owned machine —
summed over residents in binding order, so the partial sums are
bit-identical to the serial
:meth:`~repro.datacenter.controlplane.actions.ClusterView.
machine_shortfalls` — and the parent arbitrates through the policy's
``caps_for_demand`` (the same arithmetic path ``decide`` uses).

Journal checkpoints are **lazy**: full tenant + machine checkpoints
ride the Pipe every barrier only when a journal is attached (the
journal record needs them).  A failure-capable run *without* a journal
captures tenant checkpoints worker-locally and ships only the victims'
at a failure barrier — the coordinator asks the owning workers
(``victim_cps`` replies), a fully-failed shard returns its residents'
checkpoints with its ``dead`` report, and destination workers receive
exactly the checkpoints they must restore in a ``restore`` frame.

Determinism: every worker replays exactly the event subsequence the
serial scheduler would have applied to its machines, settles its hosts
at the same barrier instants, and the parent runs the same policy on
the same assembled view — a delta is shipped precisely when its packed
bytes changed, so the overlay table equals freshly computed views
bit-for-bit — so a sharded run yields *identical* per-tenant reports,
billing ledgers/bills, cap/budget/migration history, and pool energy
to a serial run of the same scenario (asserted by the parity tests).
At the ``done`` barrier each worker returns its tenants' stats,
ledgers, and per-host run segments plus its machines' unattributed
idle energy; the parent composes the bills from those reassembled
pieces exactly as the serial collector would.

Lifecycle: the parent creates the ``reproshard_*`` segments before
forking and owns their teardown — close + unlink in a ``finally`` that
also covers every worker-death :class:`EngineError` path, so crashed
runs leak nothing into ``/dev/shm`` (pinned by the shard tests).
Workers only close their inherited mappings, and each closes the
coordinator's ends of every Pipe it inherited, so closing those ends
at teardown reaches a worker blocked in ``recv`` as EOF.  Supervision
is one blocking wait: every frame — ready flags included — is awaited
on the Pipe and the worker's process sentinel together, under
:data:`_WORKER_BARRIER_TIMEOUT_SECONDS`, and a worker that dies,
raises, or wedges mid-segment-write raises an :class:`EngineError`
naming the worker, its machines, and the barrier.

The backend requires the ``fork`` start method (workers inherit the
armed engine — closures, generators and all — without pickling); the
engine raises :class:`~repro.datacenter.engine.EngineError` on
platforms without it.  Only plain-data control frames, migrant states,
and final results cross the Pipes.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Sequence

from repro.datacenter import deltas
from repro.datacenter.checkpoint import (
    capture_machine_checkpoint,
    capture_tenant_checkpoint,
    restore_from_checkpoint,
)
from repro.datacenter.controlplane.actions import (
    FailureRecord,
    MigrationRecord,
    SetCaps,
)
from repro.datacenter.controlplane.applier import (
    absorb,
    emigrate,
    enforce_caps,
    merge_run_results,
    plan_actions,
    plan_failures,
)
from repro.datacenter.billing import compose_bill

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datacenter.engine import DatacenterEngine, DatacenterResult

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


def _final_payload(
    engine: "DatacenterEngine",
    machine_indices: Sequence[int],
    resident: Sequence[Any],
    started: float,
) -> dict[str, Any]:
    """A worker's closing report: tenants served, machines metered.

    Shared by the normal ``done`` barrier and the ``dead`` reply of a
    fully-failed shard (which reports no residents — its tenants were
    rebuilt elsewhere — and whose machine meters are frozen at the
    death barrier, so the values equal what the serial backend reads at
    the end of the run).
    """
    machine_power: dict[int, float] = {}
    machine_energy: dict[int, float] = {}
    machine_idle: dict[int, float] = {}
    machine_now: dict[int, float] = {}
    for index in machine_indices:
        machine = engine.machines[index]
        try:
            machine_power[index] = machine.meter.mean_power()
        except Exception:
            machine_power[index] = 0.0
        machine_energy[index] = machine.meter.energy_joules
        machine_idle[index] = engine.idle_energy_joules[index]
        machine_now[index] = machine.now
    return {
        "reports": {
            b.tenant.name: b.stats.report(b.tenant.name, b.tenant.sla)
            for b in resident
        },
        "stats": {b.tenant.name: b.stats for b in resident},
        "ledgers": {b.tenant.name: b.ledger for b in resident},
        "run_segments": {
            b.tenant.name: (*b.run_segments, b.runtime.finish())
            for b in resident
        },
        "machine_power": machine_power,
        "machine_energy": machine_energy,
        "machine_idle": machine_idle,
        "machine_now": machine_now,
        # Shard CPU seconds (barrier waits excluded by construction)
        # — the bench harness uses it to project multi-core
        # wall-clock from single-core hosts.
        "busy_seconds": time.process_time() - started,
    }


def _worker_main(
    engine: "DatacenterEngine",
    machine_indices: Sequence[int],
    tick_times: Sequence[float],
    final_time: float,
    conn,
    inherited: Sequence[Any],
    upstream,
    downstream,
    protocol: str,
    ship_checkpoints: bool,
) -> None:
    """Advance one shard to completion, exchanging deltas at barriers.

    ``inherited`` are the coordinator's Pipe ends this fork copied —
    its own and every earlier sibling's — closed first thing so the
    coordinator's close at teardown is the last one and reaches a
    worker blocked in ``recv`` as EOF.  ``protocol`` selects the
    upstream payload — ``"views"`` (tenant-view deltas) or
    ``"demand"`` (per-machine demand scores).
    ``ship_checkpoints`` sends full tenant + machine checkpoints over
    the pipe every barrier (journal mode); otherwise a checkpointing
    worker captures tenant checkpoints locally and ships only the
    victims the coordinator asks for at a failure barrier.
    """
    from repro.datacenter.engine import _EventPump

    for end in inherited:
        end.close()
    try:
        # Workers never journal: the coordinator owns the journal (and
        # the inherited file handle must not be double-written).
        engine.journal = None
        # Workers are short-lived batch processes: everything they
        # allocate dies with them, so cyclic GC is pure overhead here.
        gc.disable()
        # CPU time, not wall: on hosts with fewer cores than workers the
        # processes time-slice, and wall-clock deltas would count the
        # *other* workers' turns.  Blocking at barriers burns no CPU.
        started = time.process_time()
        owned = set(machine_indices)
        hosts = [engine.hosts[i] for i in machine_indices]
        # Binding order everywhere: ``resident`` must stay a
        # subsequence of engine.bindings so demand partial sums and
        # view tuples keep the serial float order.
        resident = [b for b in engine.bindings if b.machine_index in owned]
        by_name = {b.tenant.name: b for b in engine.bindings}
        binding_index = {
            b.tenant.name: i for i, b in enumerate(engine.bindings)
        }
        # Delta baselines: the packed bytes last published per key.  A
        # record ships exactly when its bytes changed, so the
        # coordinator's overlay table stays bitwise equal to a fresh
        # snapshot.  Keys are dropped whenever a binding leaves or
        # joins this worker, forcing a full republish.
        last_sent: dict[int, bytes] = {}
        local_cps: dict[str, Any] = {}
        pump = _EventPump(engine, resident)

        for seq, now in enumerate(tick_times, start=1):
            pump.run_until(now)
            engine._advance_barrier(hosts, now)
            if engine._checkpointing:
                local_cps = {
                    b.tenant.name: capture_tenant_checkpoint(b)
                    for b in resident
                }
            if ship_checkpoints:
                # Journal mode: the coordinator's barrier record needs
                # the full checkpoint, so it rides the pipe, ahead of
                # this barrier's ready frame.
                conn.send(
                    (
                        "cps",
                        (
                            dict(local_cps),
                            {
                                i: capture_machine_checkpoint(engine, i)
                                for i in machine_indices
                            },
                        ),
                    )
                )
            if protocol == "demand":
                scores = {i: 0.0 for i in machine_indices}
                for b in resident:
                    scores[b.machine_index] += (
                        b.tenant.weight * engine._tenant_shortfall(b, now)
                    )
                records = []
                for i in machine_indices:
                    record = deltas.encode_score_record(i, scores[i])
                    if last_sent.get(i) != record:
                        last_sent[i] = record
                        records.append(record)
            else:
                records = []
                for b in resident:
                    bindex = binding_index[b.tenant.name]
                    record = deltas.encode_tenant_record(
                        bindex, engine._tenant_view(b, now)
                    )
                    if last_sent.get(bindex) != record:
                        last_sent[bindex] = record
                        records.append(record)
            _publish_upstream(upstream, seq, records)
            conn.send(("ready", seq))

            message = conn.recv()
            if message[0] == "die":
                # Every machine in this shard fail-stopped at this
                # barrier; its residents are being rebuilt in surviving
                # workers.  Report the frozen machine state — plus the
                # victims' locally captured checkpoints when the
                # coordinator is not gathering them every barrier —
                # and exit.
                conn.send(
                    (
                        "dead",
                        (
                            {} if ship_checkpoints else dict(local_cps),
                            _final_payload(
                                engine, machine_indices, [], started
                            ),
                        ),
                    )
                )
                return
            if message[0] != "plan":  # pragma: no cover - protocol guard
                raise RuntimeError(
                    f"expected plan at barrier, got {message[0]!r}"
                )
            _, emigrations, any_migrations, failure_moves, want_victims = (
                message
            )
            # Deaths first (mirroring the serial applier: a dying
            # machine keeps its pre-barrier frequency), then caps on
            # the shard's surviving machines, then victim restores.
            for dead_index, _moves in failure_moves:
                if dead_index in owned:
                    engine.dead_machines.add(dead_index)
                    dead_host = engine.hosts[dead_index]
                    for binding in list(dead_host.instances):
                        pump.remove(binding)
                        resident.remove(binding)
                        last_sent.pop(binding_index[binding.tenant.name], None)
                    dead_host.instances.clear()
            if want_victims:
                # Lazy-checkpoint mode: ship exactly the checkpoints
                # the coordinator must route to destination workers.
                conn.send(
                    (
                        "victim_cps",
                        {name: local_cps[name] for name in want_victims},
                    )
                )
            cap_seq, cap_count = deltas.read_header(downstream.buf)
            if cap_seq == seq and cap_count:
                # The coordinator publishes only this shard's live
                # machines whose applied watts changed; everything
                # else keeps its DVFS state, exactly like the serial
                # backend's idempotent re-application of an unchanged
                # cap.  A None entry coordinator-side (dropped command
                # or retry backoff under an injected actuator fault)
                # simply never becomes a record.
                targets = [
                    (i, watts)
                    for i, watts in deltas.decode_cap_records(
                        downstream.buf, cap_count
                    )
                    if i not in engine.dead_machines
                ]
                enforce_caps(
                    [engine.machines[i] for i, _ in targets],
                    [watts for _, watts in targets],
                )
            incoming = [
                (tenant, dest)
                for _dead_index, moves in failure_moves
                for tenant, dest in moves
                if dest in owned
            ]
            for _dead_index, moves in failure_moves:
                for tenant, dest in moves:
                    by_name[tenant].machine_index = dest
            if incoming:
                message = conn.recv()
                if message[0] != "restore":  # pragma: no cover - guard
                    raise RuntimeError(
                        f"expected restore at barrier, got {message[0]!r}"
                    )
                restored_cps = message[1]
                for tenant, dest in incoming:
                    binding = by_name[tenant]
                    checkpoint = restored_cps[tenant]
                    restore_from_checkpoint(engine, binding, checkpoint, dest)
                    # offered == the tenant's arrival-stream cursor.
                    pump.add(binding, checkpoint.offered)
                    resident.append(binding)
                    last_sent.pop(binding_index[tenant], None)
            if any_migrations:
                migrants = []
                for migration in emigrations:
                    binding = by_name[migration.tenant]
                    trace_pos = pump.remove(binding)
                    migrants.append(
                        emigrate(engine, binding, trace_pos, warm=migration.warm)
                    )
                    resident.remove(binding)
                    last_sent.pop(binding_index[migration.tenant], None)
                conn.send(("migrants", migrants))
                message = conn.recv()
                if message[0] != "absorb":  # pragma: no cover - protocol guard
                    raise RuntimeError(
                        f"expected absorb at barrier, got {message[0]!r}"
                    )
                for migrant, dest_index, cost_seconds in message[1]:
                    binding = by_name[migrant.tenant]
                    absorb(engine, binding, migrant, dest_index, cost_seconds)
                    pump.add(binding, migrant.trace_pos)
                    resident.append(binding)
                    last_sent.pop(binding_index[migrant.tenant], None)

        pump.run_until(None)
        engine._advance_barrier(hosts, final_time)
        for binding in resident:
            binding.runtime.close_input()
        for host in hosts:
            engine._drain(host)
        conn.send(
            ("done", _final_payload(engine, machine_indices, resident, started))
        )
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


def run_sharded(engine: "DatacenterEngine") -> "DatacenterResult":
    """Execute ``engine``'s scenario across forked shard workers.

    The parent arms the runtimes and runs the time-zero control barrier
    *before* forking (workers inherit that state), then acts purely as
    the control-plane coordinator: overlay the workers' shared-memory
    deltas onto its resident view table, run the policy and central
    validation, publish changed caps downstream, and route migrant
    states between workers.  Results are reassembled in binding/machine
    order so every float is summed in the same order the serial backend
    uses.
    """
    from repro.datacenter.engine import DatacenterResult, EngineError

    if not fork_available():
        raise EngineError(
            "sharded backend requires the 'fork' multiprocessing start "
            "method (unavailable on this platform); use backend='serial'"
        )
    cpu_started = time.process_time()
    context = multiprocessing.get_context("fork")
    requested = engine.workers or usable_cpu_count()
    shards = partition_machines(len(engine.machines), requested)
    shard_of_machine = {
        machine_index: worker_index
        for worker_index, shard in enumerate(shards)
        for machine_index in shard
    }
    parent_bindings = {b.tenant.name: b for b in engine.bindings}
    names = [b.tenant.name for b in engine.bindings]
    weights = [b.tenant.weight for b in engine.bindings]

    # Barrier times before _begin_run: a policy may derive per-run
    # state (e.g. a chaos kill schedule) in barrier_times(), which the
    # time-zero decide inside _begin_run() already relies on.
    tick_times = engine._tick_times()
    cap_history = engine._begin_run()
    final_time = engine._final_event_time(tick_times)

    # Wire-protocol selection, fixed before forking.  The demand fast
    # path needs nothing but per-machine scores at the coordinator: a
    # policy that declares score aggregation, no fault machinery (fault
    # observation rewrites tenant views), and no checkpoint consumers.
    journal_active = engine.journal is not None
    demand_mode = (
        getattr(engine.policy, "aggregation", None) == "machine-demand"
        and engine.faults is None
        and not engine._checkpointing
    )
    protocol = "demand" if demand_mode else "views"
    stats = {
        "protocol": protocol,
        "barriers": len(tick_times),
        "payload_bytes": 0,
        "serialize_seconds": 0.0,
        "wait_seconds": 0.0,
        "apply_seconds": 0.0,
    }

    # Preallocated shared-memory segments, one pair per worker, sized
    # for the worst case (every binding resident in one shard; caps for
    # every owned machine).  Created before forking so workers inherit
    # the mappings; the parent owns close + unlink in the finally.
    if demand_mode:
        up_size = deltas.HEADER.size + (
            len(engine.machines) * deltas.SCORE_RECORD.size
        )
    else:
        up_size = deltas.HEADER.size + (
            len(engine.bindings) * deltas.TENANT_RECORD.size
        )
    down_size = deltas.HEADER.size + (
        len(engine.machines) * deltas.CAP_RECORD.size
    )
    run_token = f"{SEGMENT_PREFIX}_{os.getpid()}_{os.urandom(4).hex()}"

    connections = []
    processes = []
    segments: list[shared_memory.SharedMemory] = []
    upstreams: list[shared_memory.SharedMemory] = []
    downstreams: list[shared_memory.SharedMemory] = []
    try:
        for worker_index in range(len(shards)):
            up = shared_memory.SharedMemory(
                name=f"{run_token}_{worker_index}_up",
                create=True,
                size=up_size,
            )
            segments.append(up)
            upstreams.append(up)
            down = shared_memory.SharedMemory(
                name=f"{run_token}_{worker_index}_down",
                create=True,
                size=down_size,
            )
            segments.append(down)
            downstreams.append(down)

        for worker_index, shard in enumerate(shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(
                    engine,
                    shard,
                    tick_times,
                    final_time,
                    child_conn,
                    [*connections, parent_conn],
                    upstreams[worker_index],
                    downstreams[worker_index],
                    protocol,
                    journal_active,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            connections.append(parent_conn)
            processes.append(process)

        def worker_label(worker_index, barrier_time):
            return (
                f"shard worker {worker_index} "
                f"(machines {list(shards[worker_index])}) "
                f"at barrier t={barrier_time:g}"
            )

        def receive(
            worker_index,
            expected: str,
            barrier_time,
            awaited=None,
            lost="without reporting",
        ):
            # Supervise at the barrier protocol level: block in the
            # kernel until the worker's frame arrives, its pipe hits EOF
            # or its process exits, or the timeout runs out — a worker
            # that fail-stops or wedges is named, never waited on
            # forever, and a waiting coordinator burns no CPU.
            conn = connections[worker_index]
            process = processes[worker_index]
            timeout = _WORKER_BARRIER_TIMEOUT_SECONDS
            if not multiprocessing.connection.wait(
                [conn, process.sentinel], timeout
            ):
                # Named hung: no grace period at teardown.
                process.terminate()
                raise EngineError(
                    f"{worker_label(worker_index, barrier_time)} hung: no "
                    f"{awaited or repr(expected) + ' message'} within "
                    f"{timeout:g}s (pid {process.pid})"
                )
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # EOFError once the worker exits (it held the only
                # other end); OSError (e.g. ECONNRESET) when it dies
                # while a read is in flight — which surfaces is a race.
                process.join(timeout=1.0)
                raise EngineError(
                    f"{worker_label(worker_index, barrier_time)} died "
                    f"{lost} (exit code {process.exitcode!r})"
                ) from None
            if message[0] == "error":
                raise EngineError(
                    f"{worker_label(worker_index, barrier_time)} failed:\n"
                    f"{message[1]}"
                )
            if message[0] != expected:  # pragma: no cover - protocol guard
                raise EngineError(
                    f"shard protocol error: expected {expected!r}, "
                    f"got {message[0]!r}"
                )
            return message[1]

        def await_upstream(worker_index, seq, barrier_time):
            # The worker sends ("ready", seq) right after stamping its
            # upstream header, so the coordinator sleeps in receive()
            # and reads the header once, never polling the segment.
            receive(
                worker_index,
                "ready",
                barrier_time,
                awaited=f"barrier-ready flag (seq {seq})",
                lost="without publishing its barrier delta",
            )
            got, count = deltas.read_header(upstreams[worker_index].buf)
            if got != seq:  # pragma: no cover - protocol guard
                raise EngineError(
                    f"shard protocol error: "
                    f"{worker_label(worker_index, barrier_time)} stamped "
                    f"barrier seq {got}, expected {seq}"
                )
            return count

        def dispatch(worker_index, message, barrier_time):
            # The send half of the supervisor: a worker that died since
            # its last report surfaces here as a broken pipe, named the
            # same way receive() names it.
            process = processes[worker_index]
            try:
                connections[worker_index].send(message)
            except (BrokenPipeError, OSError):
                process.join(timeout=1.0)
                raise EngineError(
                    f"{worker_label(worker_index, barrier_time)} died "
                    f"before accepting a {message[0]!r} message "
                    f"(exit code {process.exitcode!r})"
                ) from None

        alive_worker = [True] * len(shards)
        payload_by_worker: dict[int, Any] = {}
        # Death-barrier machine checkpoints of fully-failed shards, so
        # later journal records still carry every machine's state.
        frozen_machine_cps: dict[int, Any] = {}
        # Resident overlay tables: the last decoded record per key.
        # Workers ship deltas against these, so between updates an
        # entry is bitwise the sender's current state.
        resident_views: list[Any] = [None] * len(engine.bindings)
        resident_scores: list[float] = [0.0] * len(engine.machines)
        # Last cap record published per worker per machine — the
        # downstream delta baseline.  The cache always equals the watts
        # the worker last enforced, so skipping an unchanged record is
        # exactly the serial backend's idempotent re-application.
        sent_caps: list[dict[int, bytes]] = [{} for _ in shards]

        def live_workers():
            return [i for i, alive in enumerate(alive_worker) if alive]

        for seq, now in enumerate(tick_times, start=1):
            tenant_cps: dict[str, Any] = {}
            machine_cps: dict[int, Any] = dict(frozen_machine_cps)
            for worker_index in live_workers():
                if journal_active:
                    cps = receive(worker_index, "cps", now)
                    tenant_cps.update(cps[0])
                    machine_cps.update(cps[1])
                waited = time.perf_counter()
                count = await_upstream(worker_index, seq, now)
                stats["wait_seconds"] += time.perf_counter() - waited
                decoded = time.perf_counter()
                buf = upstreams[worker_index].buf
                if demand_mode:
                    for index, score in deltas.decode_score_records(
                        buf, count
                    ):
                        resident_scores[index] = score
                    stats["payload_bytes"] += (
                        deltas.HEADER.size + count * deltas.SCORE_RECORD.size
                    )
                else:
                    for bindex, view in deltas.decode_tenant_records(
                        buf, count, names, weights
                    ):
                        resident_views[bindex] = view
                    stats["payload_bytes"] += (
                        deltas.HEADER.size + count * deltas.TENANT_RECORD.size
                    )
                stats["serialize_seconds"] += time.perf_counter() - decoded
            if journal_active:
                engine._last_checkpoints = tenant_cps
                engine._last_machine_checkpoints = [
                    machine_cps[i] for i in range(len(engine.machines))
                ]

            applying = time.perf_counter()
            if demand_mode:
                # The hierarchical fast path: arbitrate O(machines)
                # scores through the policy's one arithmetic path (the
                # same caps_for_demand its decide() uses, on the same
                # floors/ceilings the serial view carries) and validate
                # through the shared trust boundary.  The synthetic
                # empty-tenant view is safe: cap validation reads only
                # the floors/ceilings/budget arguments.
                caps = engine.policy.caps_for_demand(
                    resident_scores,
                    engine._budget,
                    engine._cap_floors,
                    engine._cap_ceilings,
                )
                actions = [SetCaps(tuple(caps))]
                plan = plan_actions(
                    actions,
                    engine._control_view(now, tenants=()),
                    engine._cap_floors,
                    engine._cap_ceilings,
                    engine._budget,
                )
            else:
                tenants = tuple(resident_views)
                actions, plan = engine._decide_plan(
                    engine._control_view(now, tenants)
                )
            engine._record_plan(plan, now, cap_history)
            # Push the commanded caps through the (possibly faulty)
            # actuators exactly as the serial backend does — the same
            # choke point, run in the coordinator so retry state and
            # journaled records are identical; workers only enforce.
            applied_caps, fault_records, retry_records = engine._actuate(
                now, plan
            )

            # Failures: the coordinator runs the same placement math as
            # the serial applier, marks the deaths, and routes each
            # victim's checkpoint to the worker owning its destination.
            failure_moves: list[tuple[int, list[tuple[str, int]]]] = []
            victim_cps: dict[str, Any] = {}
            want_by_worker: list[list[str]] = [[] for _ in shards]
            failure_records: list[FailureRecord] = []
            if plan.failures:
                if not engine._checkpointing:
                    from repro.datacenter.controlplane.actions import (
                        ControlError,
                    )

                    raise ControlError(
                        "FailMachine requires barrier checkpoints: run with "
                        "a journal attached or a policy declaring "
                        "may_fail_machines (e.g. ChaosPolicy)"
                    )
                failed = [f.machine_index for f in plan.failures]
                placements = [
                    (b.tenant.name, b.machine_index) for b in engine.bindings
                ]
                failure_moves = plan_failures(
                    placements,
                    len(engine.machines),
                    set(engine.dead_machines),
                    failed,
                )
                engine.dead_machines.update(failed)
                for dead_index, moves in failure_moves:
                    replacements = []
                    for tenant, dest in moves:
                        if journal_active:
                            victim_cps[tenant] = tenant_cps[tenant]
                        else:
                            # Lazy checkpoints: ask the worker holding
                            # the victim (its shard owns the dead
                            # machine); a fully-failed shard ships its
                            # residents' checkpoints with its ``dead``
                            # reply instead.
                            want_by_worker[
                                shard_of_machine[dead_index]
                            ].append(tenant)
                        parent_bindings[tenant].machine_index = dest
                        replacements.append(
                            MigrationRecord(
                                time=now,
                                tenant=tenant,
                                source_machine_index=dead_index,
                                dest_machine_index=dest,
                                cost_seconds=0.0,
                                warm=True,
                            )
                        )
                    failure_records.append(
                        FailureRecord(
                            time=now,
                            machine_index=dead_index,
                            replacements=tuple(replacements),
                        )
                    )
                engine.failure_history.extend(failure_records)

            dying_workers = [
                worker_index
                for worker_index, shard in enumerate(shards)
                if alive_worker[worker_index]
                and all(i in engine.dead_machines for i in shard)
            ]
            if journal_active:
                for worker_index in dying_workers:
                    for machine_index in shards[worker_index]:
                        frozen_machine_cps[machine_index] = (
                            dataclasses.replace(
                                machine_cps[machine_index], alive=False
                            )
                        )

            emigrations_by_worker: list[list[Any]] = [[] for _ in shards]
            for migration in plan.migrations:
                source = parent_bindings[migration.tenant].machine_index
                emigrations_by_worker[shard_of_machine[source]].append(
                    migration
                )
            any_migrations = bool(plan.migrations)
            stats["apply_seconds"] += time.perf_counter() - applying
            for worker_index in live_workers():
                if worker_index in dying_workers:
                    dispatch(worker_index, ("die",), now)
                    continue
                # Downstream deltas: only this shard's live machines
                # whose applied watts changed since last publish.
                encoding = time.perf_counter()
                records = []
                cache = sent_caps[worker_index]
                if applied_caps is not None:
                    for machine_index in shards[worker_index]:
                        if machine_index in engine.dead_machines:
                            continue
                        watts = applied_caps[machine_index]
                        if watts is None:
                            continue
                        record = deltas.encode_cap_record(
                            machine_index, watts
                        )
                        if cache.get(machine_index) != record:
                            cache[machine_index] = record
                            records.append(record)
                count = deltas.publish(
                    downstreams[worker_index].buf, seq, records
                )
                stats["payload_bytes"] += (
                    deltas.HEADER.size + count * deltas.CAP_RECORD.size
                )
                stats["serialize_seconds"] += time.perf_counter() - encoding
                dispatch(
                    worker_index,
                    (
                        "plan",
                        emigrations_by_worker[worker_index],
                        any_migrations,
                        failure_moves,
                        want_by_worker[worker_index],
                    ),
                    now,
                )
            for worker_index in dying_workers:
                dead_cps, payload = receive(worker_index, "dead", now)
                victim_cps.update(dead_cps)
                payload_by_worker[worker_index] = payload
                alive_worker[worker_index] = False
            if not journal_active:
                for worker_index in live_workers():
                    if want_by_worker[worker_index]:
                        victim_cps.update(
                            receive(worker_index, "victim_cps", now)
                        )
            if failure_moves:
                restores_by_worker: list[dict[str, Any]] = [
                    {} for _ in shards
                ]
                for _dead_index, moves in failure_moves:
                    for tenant, dest in moves:
                        restores_by_worker[shard_of_machine[dest]][tenant] = (
                            victim_cps[tenant]
                        )
                for worker_index in live_workers():
                    if restores_by_worker[worker_index]:
                        dispatch(
                            worker_index,
                            ("restore", restores_by_worker[worker_index]),
                            now,
                        )

            migration_records: list[MigrationRecord] = []
            if any_migrations:
                migrants_by_tenant: dict[str, Any] = {}
                for worker_index in live_workers():
                    for migrant in receive(worker_index, "migrants", now):
                        migrants_by_tenant[migrant.tenant] = migrant
                absorb_by_worker: list[list[Any]] = [[] for _ in shards]
                for migration in plan.migrations:
                    migrant = migrants_by_tenant[migration.tenant]
                    dest = migration.dest_machine_index
                    absorb_by_worker[shard_of_machine[dest]].append(
                        (migrant, dest, migration.cost_seconds)
                    )
                    binding = parent_bindings[migration.tenant]
                    record = MigrationRecord(
                        time=now,
                        tenant=migration.tenant,
                        source_machine_index=binding.machine_index,
                        dest_machine_index=dest,
                        cost_seconds=migration.cost_seconds,
                        warm=migration.warm,
                    )
                    engine.migration_history.append(record)
                    migration_records.append(record)
                    binding.machine_index = dest
                for worker_index in live_workers():
                    dispatch(
                        worker_index,
                        ("absorb", absorb_by_worker[worker_index]),
                        now,
                    )
            engine._journal_barrier(
                now,
                actions,
                migration_records,
                failure_records,
                fault_records,
                retry_records,
            )

        for worker_index in live_workers():
            payload_by_worker[worker_index] = receive(
                worker_index, "done", final_time
            )
        payloads = [
            payload_by_worker[worker_index] for worker_index in range(len(shards))
        ]
    finally:
        # Teardown only: worker death/hang is detected and raised by
        # receive() above, which already terminated any worker it
        # named hung, so this just reaps.  Closing the pipes first
        # unblocks any worker still waiting at a barrier (workers hold
        # no copies of these ends, so its recv sees EOF and it exits);
        # terminate(), then kill(), is the last resort for a worker
        # wedged outside the protocol, so teardown never waits without
        # a bound.  Segments are closed and unlinked here and
        # nowhere else — the parent owns the /dev/shm lifetime, so
        # even a run aborted by a worker-death EngineError leaves no
        # stray reproshard_* segments behind.
        for conn in connections:
            conn.close()
        for process in processes:
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

    reports_by_name: dict[str, Any] = {}
    stats_by_name: dict[str, Any] = {}
    ledgers_by_name: dict[str, Any] = {}
    segments_by_name: dict[str, Any] = {}
    machine_power: dict[int, float] = {}
    machine_energy: dict[int, float] = {}
    machine_idle: dict[int, float] = {}
    machine_now: dict[int, float] = {}
    for payload in payloads:
        reports_by_name.update(payload["reports"])
        stats_by_name.update(payload["stats"])
        ledgers_by_name.update(payload["ledgers"])
        segments_by_name.update(payload["run_segments"])
        machine_power.update(payload["machine_power"])
        machine_energy.update(payload["machine_energy"])
        machine_idle.update(payload["machine_idle"])
        machine_now.update(payload["machine_now"])
    # Telemetry for the bench harness: per-shard CPU seconds, the
    # coordinator's own CPU seconds, and the barrier-plane breakdown.
    engine.shard_busy_seconds = [p["busy_seconds"] for p in payloads]
    engine.coordinator_busy_seconds = time.process_time() - cpu_started
    engine.barrier_stats = stats

    # Reflect worker-side accounting on the parent's bindings and idle
    # account so callers inspecting the engine after run() see the same
    # data serial leaves behind (runtime generator state stays
    # worker-side).
    for binding in engine.bindings:
        binding.stats = stats_by_name[binding.tenant.name]
        binding.ledger = ledgers_by_name[binding.tenant.name]
    for index, idle in machine_idle.items():
        engine.idle_energy_joules[index] = idle

    # Bills are composed from the same (report, ledger, run-segments)
    # triples a serial run would pass, in the same binding order, so
    # every float matches the serial backend bit for bit.
    bills = [
        compose_bill(
            binding.machine_index,
            reports_by_name[binding.tenant.name],
            binding.ledger,
            segments_by_name[binding.tenant.name],
        )
        for binding in engine.bindings
    ]

    return DatacenterResult(
        tenant_reports=[
            reports_by_name[b.tenant.name] for b in engine.bindings
        ],
        run_results={
            b.tenant.name: merge_run_results(
                segments_by_name[b.tenant.name]
            )
            for b in engine.bindings
        },
        bills=bills,
        idle_energy_joules=list(engine.idle_energy_joules),
        machine_mean_power=[
            machine_power[i] for i in range(len(engine.machines))
        ],
        total_energy_joules=sum(
            machine_energy[i] for i in range(len(engine.machines))
        ),
        makespan=max(machine_now[i] for i in range(len(engine.machines))),
        budget_watts=engine._budget,
        cap_history=cap_history,
        budget_history=list(engine.budget_history),
        migrations=list(engine.migration_history),
        failures=list(engine.failure_history),
        faults=list(engine.fault_history),
        retries=list(engine.retry_history),
    )
