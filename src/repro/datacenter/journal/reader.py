"""Read a run journal back into typed records.

Line-by-line NDJSON parsing with errors that name the journal path,
the line number, and the record kind — a truncated *final* line (the
classic crash artifact: the process died mid-write) is tolerated and
dropped, since by construction everything before it is complete.

One reader loop serves every consumer, and each decodes only what it
reads.  By default every record is decoded and validated, the
per-barrier tenant and machine checkpoints included, which is what
:func:`~repro.datacenter.journal.replay.resume` attests against.
``checkpoints=False`` (what
:func:`~repro.datacenter.journal.replay.replay` reads, since it
re-executes actions and compares results) still checks the header,
every line, the barrier order, the actions and the result, and that
each barrier's ``tenants`` and ``machines`` are lists, but leaves the
checkpoint entries undecoded: a malformed checkpoint is reported by
the default read, not by that one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.datacenter.checkpoint import MachineCheckpoint, TenantCheckpoint
from repro.datacenter.controlplane.actions import (
    Action,
    FailureRecord,
    MigrationRecord,
)
from repro.datacenter.faults import FaultRecord, RetryRecord
from repro.datacenter.journal.codec import (
    JournalDecodeError,
    decode_action,
    decode_failure_record,
    decode_fault_record,
    decode_migration_record,
    decode_retry_record,
    decode_tenant_checkpoint,
    decode_machine_checkpoint,
    require_list,
)
from repro.datacenter.journal.writer import JOURNAL_SCHEMA_VERSION

__all__ = ["BarrierRecord", "Journal", "read_journal"]


@dataclass(frozen=True)
class BarrierRecord:
    """One journaled control barrier, fully decoded.

    Attributes:
        index: Zero-based barrier index (0 is the time-zero barrier).
        time: The barrier's facility time.
        actions: The policy's raw actions, decoded.
        budget_watts: Global budget in force after the barrier.
        caps: Enforced caps after the barrier (None before the first
            ``SetCaps``).
        tenants: Tenant checkpoints keyed by name — *pre-decision*
            state, with completions re-accumulated across barriers —
            or None when the journal was read without checkpoints.
        machines: Machine checkpoints in pool order (pre-decision), or
            None when the journal was read without checkpoints.
        migrations: Migrations applied at this barrier.
        failures: Machine failures applied at this barrier.
        faults: Gray faults that first bit at this barrier (sensor /
            actuator / straggler windows and straggler recoveries).
        retries: Applier retry attempts made at this barrier.
    """

    index: int
    time: float
    actions: tuple[Action, ...]
    budget_watts: float | None
    caps: tuple[float, ...] | None
    tenants: dict[str, TenantCheckpoint] | None
    machines: tuple[MachineCheckpoint, ...] | None
    migrations: tuple[MigrationRecord, ...]
    failures: tuple[FailureRecord, ...]
    faults: tuple[FaultRecord, ...] = ()
    retries: tuple[RetryRecord, ...] = ()


@dataclass(frozen=True)
class Journal:
    """A fully parsed run journal.

    Attributes:
        path: Where it was read from.
        header: The raw header record (scenario config, versions,
            backend provenance).
        barriers: Every complete barrier record, in time order.
        result: The canonical result payload, or None if the run never
            completed (a crash artifact — resume material).
    """

    path: str
    header: dict[str, Any]
    barriers: tuple[BarrierRecord, ...]
    result: dict[str, Any] | None = field(default=None)

    @property
    def complete(self) -> bool:
        """Whether the journaled run ran to completion."""
        return self.result is not None


def read_journal(path: str, checkpoints: bool = True) -> Journal:
    """Parse a journal file into a :class:`Journal`.

    Raises :class:`~repro.datacenter.journal.codec.JournalDecodeError`
    naming the path, line, and record kind for malformed content; a
    truncated final line is dropped as a crash artifact.  With
    ``checkpoints=False`` each barrier's tenant and machine
    checkpoints are left undecoded (its ``tenants`` and ``machines``
    are None), so a malformed checkpoint entry goes unreported.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        raise JournalDecodeError(f"cannot read journal: {error}", path)

    header: dict[str, Any] | None = None
    barriers: list[BarrierRecord] = []
    previous: dict[str, TenantCheckpoint] = {}
    result: dict[str, Any] | None = None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{number}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines):
                break  # torn final write from a crash; drop it
            raise JournalDecodeError("line is not valid JSON", where) from None
        if not isinstance(record, dict):
            raise JournalDecodeError(
                f"expected a JSON object, got {record!r}", where
            )
        kind = record.get("kind")
        if kind == "header":
            if header is not None:
                raise JournalDecodeError("duplicate header record", where)
            version = record.get("journal_schema")
            if version != JOURNAL_SCHEMA_VERSION:
                raise JournalDecodeError(
                    f"schema version {version!r} != supported "
                    f"{JOURNAL_SCHEMA_VERSION}",
                    where,
                )
            header = record
        elif kind == "barrier":
            if header is None:
                raise JournalDecodeError(
                    "barrier record before the header", where
                )
            where = f"{where} (barrier record)"
            try:
                barrier = _decode_barrier(
                    record, previous, where, checkpoints
                )
            except KeyError as error:
                raise JournalDecodeError(
                    f"missing field {error.args[0]!r}", where
                ) from None
            if barrier.index != len(barriers):
                raise JournalDecodeError(
                    f"barrier index {barrier.index!r} out of order "
                    f"(expected {len(barriers)})",
                    where,
                )
            barriers.append(barrier)
            previous = barrier.tenants or {}
        elif kind == "result":
            if result is not None:
                raise JournalDecodeError("duplicate result record", where)
            result = record.get("payload")
            if not isinstance(result, dict):
                raise JournalDecodeError(
                    "result record has no payload object", where
                )
        else:
            raise JournalDecodeError(
                f"unknown record kind {kind!r}", where
            )
    if header is None:
        raise JournalDecodeError("no header record", path)
    return Journal(
        path=path,
        header=header,
        barriers=tuple(barriers),
        result=result,
    )


def _decode_barrier(
    record: dict[str, Any],
    previous: dict[str, TenantCheckpoint],
    where: str,
    checkpoints: bool,
) -> BarrierRecord:
    """One barrier record; ``previous`` holds the prior barrier's tenants.

    Without ``checkpoints`` the tenant and machine entries are only
    required to be lists.
    """
    index = record["index"]
    if type(index) is not int:
        raise JournalDecodeError(
            f"barrier index must be an integer, got {index!r}", where
        )
    tenant_objs = require_list(record, "tenants", where)
    machine_objs = require_list(record, "machines", where)
    tenants: dict[str, TenantCheckpoint] | None = None
    machines: tuple[MachineCheckpoint, ...] | None = None
    if checkpoints:
        tenants = {}
        for obj in tenant_objs:
            name = obj.get("tenant") if isinstance(obj, dict) else None
            prior = previous.get(name) if isinstance(name, str) else None
            checkpoint = decode_tenant_checkpoint(obj, prior, where)
            tenants[checkpoint.tenant] = checkpoint
        machines = tuple(
            decode_machine_checkpoint(obj, where) for obj in machine_objs
        )
    return BarrierRecord(
        index=index,
        time=record["time"],
        actions=tuple(
            decode_action(obj, where)
            for obj in require_list(record, "actions", where)
        ),
        budget_watts=record["budget_watts"],
        caps=(
            None
            if record["caps"] is None
            else tuple(require_list(record, "caps", where))
        ),
        tenants=tenants,
        machines=machines,
        migrations=tuple(
            decode_migration_record(obj, where)
            for obj in require_list(record, "migrations", where)
        ),
        failures=tuple(
            decode_failure_record(obj, where)
            for obj in require_list(record, "failures", where)
        ),
        faults=tuple(
            decode_fault_record(obj, where)
            for obj in require_list(record, "faults", where)
        ),
        retries=tuple(
            decode_retry_record(obj, where)
            for obj in require_list(record, "retries", where)
        ),
    )
