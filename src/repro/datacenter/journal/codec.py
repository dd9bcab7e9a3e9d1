"""The one versioned JSON codec for control-plane and journal data.

Every serialized control-plane object in the repo — journal records,
the ``--bill`` CLI document, and any future telemetry stream — goes
through this module, so there is exactly one wire format to version.
Encoding is *canonical*: `sort_keys` plus minimal separators, floats
via Python's shortest-repr (which round-trips every IEEE-754 double
exactly), so ``encode(decode(encode(x))) == encode(x)`` byte for byte
— the property the journal's replay guarantee rests on.

Flat records — every field a JSON scalar — go through one generic
pair, :func:`encode_record`/:func:`decode_record`, driven by the
dataclass's own fields.  Only what is not flat is written by hand:
actions (type-tagged), runtime snapshots, failure records (nested
re-placements), tenant checkpoints (completions as a delta) and the
barrier record (:func:`encode_barrier`/:func:`decode_barrier`).

Decode errors raise :class:`JournalDecodeError` naming the offending
record (and, via the reader, its line number) instead of surfacing a
bare ``KeyError`` from deep inside the engine.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import fields
from functools import cache
from typing import Any, TypeVar

from repro.core.runtime import RuntimeSnapshot
from repro.datacenter.checkpoint import (
    BarrierRecord,
    MachineCheckpoint,
    TenantCheckpoint,
)
from repro.datacenter.controlplane.actions import (
    Action,
    FailMachine,
    FailureRecord,
    Migrate,
    MigrationRecord,
    SetBudget,
    SetCaps,
)
from repro.datacenter.faults import FaultRecord, RetryRecord
from repro.heartbeats.api import HeartbeatWindowState

__all__ = [
    "CODEC_VERSION",
    "JournalError",
    "JournalDecodeError",
    "canonical_json",
    "encode_record",
    "decode_record",
    "encode_action",
    "decode_action",
    "encode_failure_record",
    "decode_failure_record",
    "encode_snapshot",
    "decode_snapshot",
    "encode_tenant_checkpoint",
    "decode_tenant_checkpoint",
    "encode_barrier",
    "decode_barrier",
]

_Record = TypeVar("_Record")

CODEC_VERSION = 1
"""Version of the JSON wire format this module reads and writes."""


class JournalError(RuntimeError):
    """Raised for journal I/O, schema, or replay-contract violations."""


class JournalDecodeError(JournalError):
    """A malformed record, naming what and where it is.

    Attributes:
        where: Human-readable locator — the record kind, and (when
            decoded by the reader) the journal path and line number.
    """

    def __init__(self, message: str, where: str = "") -> None:
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def canonical_json(obj: Any) -> str:
    """Serialize to the codec's canonical byte form (one line, no NL).

    Sorted keys, minimal separators, shortest-repr floats: encoding
    the same values always yields the same bytes, and every finite
    float survives a decode/encode round trip exactly.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if not isinstance(obj, Mapping):
        raise JournalDecodeError(f"expected an object, got {obj!r}", where)
    if key not in obj:
        raise JournalDecodeError(f"missing field {key!r}", where)
    return obj[key]


def _require_list(obj: Mapping[str, Any], key: str, where: str) -> list[Any]:
    """Field ``key`` of a decoded object, which must be a JSON array."""
    value = _require(obj, key, where)
    if not isinstance(value, list):
        raise JournalDecodeError(
            f"field {key!r} must be a list, got {value!r}", where
        )
    return value


def _require_pairs(
    obj: Mapping[str, Any], key: str, where: str
) -> tuple[tuple[Any, Any], ...]:
    """Field ``key`` as a tuple of two-element tuples."""
    items = _require_list(obj, key, where)
    for item in items:
        if not (isinstance(item, list) and len(item) == 2):
            raise JournalDecodeError(
                f"field {key!r} holds {item!r}, not a two-element list", where
            )
    return tuple((first, second) for first, second in items)


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A record dataclass's field names, in declaration order."""
    return tuple(field.name for field in fields(cls))


def encode_record(record: Any) -> dict[str, Any]:
    """A flat record dataclass as a JSON object, one key per field.

    For records whose every field is a JSON scalar:
    :class:`~repro.datacenter.controlplane.actions.MigrationRecord`,
    :class:`~repro.datacenter.faults.FaultRecord`,
    :class:`~repro.datacenter.faults.RetryRecord`,
    :class:`~repro.datacenter.checkpoint.MachineCheckpoint`,
    :class:`~repro.datacenter.billing.TenantBill` and
    :class:`~repro.datacenter.tenants.TenantReport`.
    """
    return {name: getattr(record, name) for name in _field_names(type(record))}


def decode_record(
    cls: type[_Record], obj: Mapping[str, Any], where: str
) -> _Record:
    """The inverse of :func:`encode_record`: every field is required."""
    return cls(**{name: _require(obj, name, where) for name in _field_names(cls)})


def encode_action(action: Action) -> dict[str, Any]:
    """One control action as a type-tagged JSON object."""
    if isinstance(action, SetCaps):
        return {"type": "set_caps", "caps": [float(c) for c in action.caps]}
    if isinstance(action, SetBudget):
        return {"type": "set_budget", "budget_watts": action.budget_watts}
    if isinstance(action, Migrate):
        return {
            "type": "migrate",
            "tenant": action.tenant,
            "dest_machine_index": action.dest_machine_index,
            "cost_seconds": action.cost_seconds,
            "warm": action.warm,
        }
    if isinstance(action, FailMachine):
        return {"type": "fail_machine", "machine_index": action.machine_index}
    raise JournalError(f"cannot encode unknown control action {action!r}")


def decode_action(obj: Mapping[str, Any], where: str = "action") -> Action:
    """The inverse of :func:`encode_action`, with actionable errors."""
    kind = _require(obj, "type", where)
    if kind == "set_caps":
        return SetCaps(caps=tuple(_require_list(obj, "caps", where)))
    if kind == "set_budget":
        return SetBudget(budget_watts=_require(obj, "budget_watts", where))
    if kind == "migrate":
        return Migrate(
            tenant=_require(obj, "tenant", where),
            dest_machine_index=_require(obj, "dest_machine_index", where),
            cost_seconds=_require(obj, "cost_seconds", where),
            warm=_require(obj, "warm", where),
        )
    if kind == "fail_machine":
        return FailMachine(machine_index=_require(obj, "machine_index", where))
    raise JournalDecodeError(f"unknown action type {kind!r}", where)


def encode_failure_record(record: FailureRecord) -> dict[str, Any]:
    """One applied machine failure (with its re-placements) as JSON."""
    return {
        "time": record.time,
        "machine_index": record.machine_index,
        "replacements": [encode_record(r) for r in record.replacements],
    }


def decode_failure_record(
    obj: Mapping[str, Any], where: str = "failure record"
) -> FailureRecord:
    """The inverse of :func:`encode_failure_record`."""
    return FailureRecord(
        time=_require(obj, "time", where),
        machine_index=_require(obj, "machine_index", where),
        replacements=tuple(
            decode_record(MigrationRecord, r, where)
            for r in _require_list(obj, "replacements", where)
        ),
    )


def _encode_opaque(value: Any) -> Any:
    """Encode an opaque scalar tree (controller state) tuple-as-list."""
    if isinstance(value, (list, tuple)):
        return [_encode_opaque(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise JournalError(
        f"cannot encode opaque controller state containing {value!r}"
    )


def _decode_opaque(value: Any) -> Any:
    """Decode an opaque scalar tree, lists back to tuples."""
    if isinstance(value, list):
        return tuple(_decode_opaque(v) for v in value)
    return value


def encode_snapshot(snapshot: RuntimeSnapshot | None) -> dict[str, Any] | None:
    """A warm :class:`RuntimeSnapshot` as JSON (None stays None)."""
    if snapshot is None:
        return None
    window = snapshot.window
    return {
        "controller_state": _encode_opaque(snapshot.controller_state),
        "plan_speedup": snapshot.plan_speedup,
        "window": {
            "count": window.count,
            "last_timestamp": window.last_timestamp,
            "intervals": list(window.intervals),
            "window_sum": window.window_sum,
        },
        "beats_in_quantum": snapshot.beats_in_quantum,
        "quantum_start": snapshot.quantum_start,
        "taken_at": snapshot.taken_at,
    }


def decode_snapshot(
    obj: Mapping[str, Any] | None, where: str = "snapshot"
) -> RuntimeSnapshot | None:
    """The inverse of :func:`encode_snapshot`."""
    if obj is None:
        return None
    window_obj = _require(obj, "window", where)
    window = HeartbeatWindowState(
        count=_require(window_obj, "count", where),
        last_timestamp=window_obj.get("last_timestamp"),
        intervals=tuple(_require(window_obj, "intervals", where)),
        window_sum=_require(window_obj, "window_sum", where),
    )
    return RuntimeSnapshot(
        controller_state=_decode_opaque(
            _require(obj, "controller_state", where)
        ),
        plan_speedup=obj.get("plan_speedup"),
        window=window,
        beats_in_quantum=_require(obj, "beats_in_quantum", where),
        quantum_start=_require(obj, "quantum_start", where),
        taken_at=_require(obj, "taken_at", where),
    )


def encode_tenant_checkpoint(
    checkpoint: TenantCheckpoint,
    previous: TenantCheckpoint | None = None,
) -> dict[str, Any]:
    """One tenant checkpoint as JSON, completions as a delta.

    Completions only ever append, so each barrier records just the
    requests completed since ``previous`` (the same tenant's checkpoint
    at the previous journaled barrier) plus the cumulative count; the
    reader re-accumulates.  The billing ledger is recorded cumulatively
    *and* as this barrier's delta — the delta is what an auditor reads,
    the cumulative values are what a resume restores.
    """
    prior = 0 if previous is None else len(previous.completions)
    if checkpoint.completions[:prior] != (
        () if previous is None else previous.completions
    ):
        raise JournalError(
            f"tenant {checkpoint.tenant!r}: completions are not "
            "append-only against the previous checkpoint"
        )
    return {
        "tenant": checkpoint.tenant,
        "machine_index": checkpoint.machine_index,
        "offered": checkpoint.offered,
        "rejected": checkpoint.rejected,
        "completed_total": len(checkpoint.completions),
        "completions_delta": [
            [arrival, completion]
            for arrival, completion in checkpoint.completions[prior:]
        ],
        "next_request": checkpoint.next_request,
        "pending": [[index, arrival] for index, arrival in checkpoint.pending],
        "ledger": {
            "energy_joules": checkpoint.energy_joules,
            "busy_seconds": checkpoint.busy_seconds,
            "steps": checkpoint.steps,
        },
        "ledger_delta": {
            "energy_joules": checkpoint.energy_joules
            - (0.0 if previous is None else previous.energy_joules),
            "busy_seconds": checkpoint.busy_seconds
            - (0.0 if previous is None else previous.busy_seconds),
            "steps": checkpoint.steps
            - (0 if previous is None else previous.steps),
        },
        "finished": checkpoint.finished,
        "snapshot": encode_snapshot(checkpoint.snapshot),
    }


def decode_tenant_checkpoint(
    obj: Mapping[str, Any],
    previous: TenantCheckpoint | None = None,
    where: str = "tenant checkpoint",
) -> TenantCheckpoint:
    """The inverse of :func:`encode_tenant_checkpoint`.

    ``previous`` supplies the completions accumulated through the
    previous barrier; the record's delta extends them, and the
    cumulative count cross-checks the reconstruction.
    """
    base = () if previous is None else previous.completions
    completions = base + _require_pairs(obj, "completions_delta", where)
    total = _require(obj, "completed_total", where)
    if len(completions) != total:
        raise JournalDecodeError(
            f"completions reconstruct to {len(completions)} entries but the "
            f"record claims {total} (journal barriers missing or reordered?)",
            where,
        )
    ledger = _require(obj, "ledger", where)
    return TenantCheckpoint(
        tenant=_require(obj, "tenant", where),
        machine_index=_require(obj, "machine_index", where),
        offered=_require(obj, "offered", where),
        rejected=_require(obj, "rejected", where),
        completions=completions,
        next_request=_require(obj, "next_request", where),
        pending=_require_pairs(obj, "pending", where),
        energy_joules=_require(ledger, "energy_joules", where),
        busy_seconds=_require(ledger, "busy_seconds", where),
        steps=_require(ledger, "steps", where),
        finished=_require(obj, "finished", where),
        snapshot=decode_snapshot(obj.get("snapshot"), where),
    )


def encode_barrier(
    record: BarrierRecord,
    checkpoints: tuple[Sequence[TenantCheckpoint], Sequence[MachineCheckpoint]],
    previous: Mapping[str, TenantCheckpoint],
) -> dict[str, Any]:
    """One barrier as its journal line.

    ``checkpoints`` is the barrier's ``(tenants, machines)``, tenants
    in binding order and machines in pool order; the journal lists
    them in that order whatever order they were captured in.
    ``previous`` holds each tenant's checkpoint at the previous
    journaled barrier, by name, for the completions delta.
    """
    tenants, machines = checkpoints
    return {
        "kind": "barrier",
        "index": record.index,
        "time": record.time,
        "actions": [encode_action(action) for action in record.actions],
        "budget_watts": record.budget_watts,
        "caps": None if record.caps is None else list(record.caps),
        "tenants": [
            encode_tenant_checkpoint(checkpoint, previous.get(checkpoint.tenant))
            for checkpoint in tenants
        ],
        "machines": [encode_record(checkpoint) for checkpoint in machines],
        "migrations": [encode_record(r) for r in record.migrations],
        "failures": [encode_failure_record(r) for r in record.failures],
        "faults": [encode_record(r) for r in record.faults],
        "retries": [encode_record(r) for r in record.retries],
    }


def decode_barrier(
    obj: Mapping[str, Any],
    previous: Mapping[str, TenantCheckpoint],
    where: str,
    checkpoints: bool = True,
) -> BarrierRecord:
    """The inverse of :func:`encode_barrier`; ``previous`` holds the
    prior barrier's tenants.

    Without ``checkpoints`` the tenant and machine entries are only
    required to be lists, and the record's ``tenants`` and ``machines``
    are None.
    """
    index = _require(obj, "index", where)
    if type(index) is not int:
        raise JournalDecodeError(
            f"barrier index must be an integer, got {index!r}", where
        )
    tenant_objs = _require_list(obj, "tenants", where)
    machine_objs = _require_list(obj, "machines", where)
    tenants: dict[str, TenantCheckpoint] | None = None
    machines: tuple[MachineCheckpoint, ...] | None = None
    if checkpoints:
        tenants = {}
        for entry in tenant_objs:
            name = entry.get("tenant") if isinstance(entry, dict) else None
            prior = previous.get(name) if isinstance(name, str) else None
            checkpoint = decode_tenant_checkpoint(entry, prior, where)
            tenants[checkpoint.tenant] = checkpoint
        machines = tuple(
            decode_record(MachineCheckpoint, entry, where)
            for entry in machine_objs
        )
    time = _require(obj, "time", where)
    actions = tuple(
        decode_action(entry, where)
        for entry in _require_list(obj, "actions", where)
    )
    budget_watts = _require(obj, "budget_watts", where)
    caps = _require(obj, "caps", where)
    return BarrierRecord(
        index=index,
        time=time,
        actions=actions,
        budget_watts=budget_watts,
        caps=None if caps is None else tuple(_require_list(obj, "caps", where)),
        tenants=tenants,
        machines=machines,
        migrations=tuple(
            decode_record(MigrationRecord, entry, where)
            for entry in _require_list(obj, "migrations", where)
        ),
        failures=tuple(
            decode_failure_record(entry, where)
            for entry in _require_list(obj, "failures", where)
        ),
        faults=tuple(
            decode_record(FaultRecord, entry, where)
            for entry in _require_list(obj, "faults", where)
        ),
        retries=tuple(
            decode_record(RetryRecord, entry, where)
            for entry in _require_list(obj, "retries", where)
        ),
    )
