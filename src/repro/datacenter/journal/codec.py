"""The one versioned JSON codec for control-plane and journal data.

Every serialized control-plane object in the repo — journal records,
the ``--bill`` CLI document, and any future telemetry stream — goes
through this module, so there is exactly one wire format to version.
Encoding is *canonical*: `sort_keys` plus minimal separators, floats
via Python's shortest-repr (which round-trips every IEEE-754 double
exactly), so ``encode(decode(encode(x))) == encode(x)`` byte for byte
— the property the journal's replay guarantee rests on.

Decode errors raise :class:`JournalDecodeError` naming the offending
record (and, via the reader, its line number) instead of surfacing a
bare ``KeyError`` from deep inside the engine.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.runtime import RuntimeSnapshot
from repro.datacenter.billing import TenantBill
from repro.datacenter.checkpoint import MachineCheckpoint, TenantCheckpoint
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
    "encode_action",
    "decode_action",
    "encode_migration_record",
    "decode_migration_record",
    "encode_failure_record",
    "decode_failure_record",
    "encode_fault_record",
    "decode_fault_record",
    "encode_retry_record",
    "decode_retry_record",
    "encode_snapshot",
    "decode_snapshot",
    "encode_tenant_checkpoint",
    "decode_tenant_checkpoint",
    "encode_machine_checkpoint",
    "decode_machine_checkpoint",
    "encode_bill",
    "decode_bill",
    "require_list",
]

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


def require_list(obj: Mapping[str, Any], key: str, where: str) -> list[Any]:
    """Field ``key`` of a decoded object, which must be a JSON array.

    Raises :class:`JournalDecodeError` naming the field and its value
    when it is missing or of another type.
    """
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
    items = require_list(obj, key, where)
    for item in items:
        if not (isinstance(item, list) and len(item) == 2):
            raise JournalDecodeError(
                f"field {key!r} holds {item!r}, not a two-element list", where
            )
    return tuple((first, second) for first, second in items)


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
        return SetCaps(caps=tuple(require_list(obj, "caps", where)))
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


def encode_migration_record(record: MigrationRecord) -> dict[str, Any]:
    """One applied migration as a JSON object."""
    return {
        "time": record.time,
        "tenant": record.tenant,
        "source_machine_index": record.source_machine_index,
        "dest_machine_index": record.dest_machine_index,
        "cost_seconds": record.cost_seconds,
        "warm": record.warm,
    }


def decode_migration_record(
    obj: Mapping[str, Any], where: str = "migration record"
) -> MigrationRecord:
    """The inverse of :func:`encode_migration_record`."""
    return MigrationRecord(
        time=_require(obj, "time", where),
        tenant=_require(obj, "tenant", where),
        source_machine_index=_require(obj, "source_machine_index", where),
        dest_machine_index=_require(obj, "dest_machine_index", where),
        cost_seconds=_require(obj, "cost_seconds", where),
        warm=_require(obj, "warm", where),
    )


def encode_failure_record(record: FailureRecord) -> dict[str, Any]:
    """One applied machine failure (with its re-placements) as JSON."""
    return {
        "time": record.time,
        "machine_index": record.machine_index,
        "replacements": [
            encode_migration_record(r) for r in record.replacements
        ],
    }


def decode_failure_record(
    obj: Mapping[str, Any], where: str = "failure record"
) -> FailureRecord:
    """The inverse of :func:`encode_failure_record`."""
    return FailureRecord(
        time=_require(obj, "time", where),
        machine_index=_require(obj, "machine_index", where),
        replacements=tuple(
            decode_migration_record(r, where)
            for r in require_list(obj, "replacements", where)
        ),
    )


def encode_fault_record(record: FaultRecord) -> dict[str, Any]:
    """One injected gray fault as a JSON object."""
    return {
        "time": record.time,
        "kind": record.kind,
        "machine_index": record.machine_index,
        "mode": record.mode,
    }


def decode_fault_record(
    obj: Mapping[str, Any], where: str = "fault record"
) -> FaultRecord:
    """The inverse of :func:`encode_fault_record`."""
    return FaultRecord(
        time=_require(obj, "time", where),
        kind=_require(obj, "kind", where),
        machine_index=_require(obj, "machine_index", where),
        mode=_require(obj, "mode", where),
    )


def encode_retry_record(record: RetryRecord) -> dict[str, Any]:
    """One applier retry attempt as a JSON object."""
    return {
        "time": record.time,
        "machine_index": record.machine_index,
        "target_watts": record.target_watts,
        "applied_watts": record.applied_watts,
        "attempt": record.attempt,
        "outcome": record.outcome,
    }


def decode_retry_record(
    obj: Mapping[str, Any], where: str = "retry record"
) -> RetryRecord:
    """The inverse of :func:`encode_retry_record`."""
    return RetryRecord(
        time=_require(obj, "time", where),
        machine_index=_require(obj, "machine_index", where),
        target_watts=_require(obj, "target_watts", where),
        applied_watts=_require(obj, "applied_watts", where),
        attempt=_require(obj, "attempt", where),
        outcome=_require(obj, "outcome", where),
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


def encode_machine_checkpoint(checkpoint: MachineCheckpoint) -> dict[str, Any]:
    """One machine checkpoint as JSON."""
    return {
        "index": checkpoint.index,
        "now": checkpoint.now,
        "frequency_ghz": checkpoint.frequency_ghz,
        "energy_joules": checkpoint.energy_joules,
        "idle_energy_joules": checkpoint.idle_energy_joules,
        "mean_power": checkpoint.mean_power,
        "alive": checkpoint.alive,
    }


def decode_machine_checkpoint(
    obj: Mapping[str, Any], where: str = "machine checkpoint"
) -> MachineCheckpoint:
    """The inverse of :func:`encode_machine_checkpoint`."""
    return MachineCheckpoint(
        index=_require(obj, "index", where),
        now=_require(obj, "now", where),
        frequency_ghz=_require(obj, "frequency_ghz", where),
        energy_joules=_require(obj, "energy_joules", where),
        idle_energy_joules=_require(obj, "idle_energy_joules", where),
        mean_power=_require(obj, "mean_power", where),
        alive=_require(obj, "alive", where),
    )


_BILL_FIELDS = (
    "tenant",
    "machine_index",
    "offered",
    "admitted",
    "rejected",
    "completed",
    "busy_seconds",
    "energy_joules",
    "qos_loss_seconds",
    "mean_qos_loss",
    "attainment",
    "sla_met",
)


def encode_bill(bill: TenantBill) -> dict[str, Any]:
    """One :class:`~repro.datacenter.billing.TenantBill` as JSON."""
    return {field: getattr(bill, field) for field in _BILL_FIELDS}


def decode_bill(
    obj: Mapping[str, Any], where: str = "tenant bill"
) -> TenantBill:
    """The inverse of :func:`encode_bill`."""
    return TenantBill(
        **{field: _require(obj, field, where) for field in _BILL_FIELDS}
    )
