"""The one versioned JSON codec for control-plane and journal data.

Every serialized control-plane object in the repo — journal records,
the ``--bill`` CLI document, and any future telemetry stream — goes
through this module, so there is exactly one wire format to version.
Encoding is *canonical*: `sort_keys` plus minimal separators, floats
via Python's shortest-repr (which round-trips every IEEE-754 double
exactly), so ``encode(decode(encode(x))) == encode(x)`` byte for byte
— the property the journal's replay guarantee rests on.

One schema reads every record: its dataclass's field annotations
(:func:`typing.get_type_hints`).  :func:`decode_record` checks each
value as its type before it builds anything: ``float`` (an int too,
except in ``SetCaps.caps``, which the encoder writes through
``float()``), ``int`` and ``bool`` (neither stands in for the other,
nor ``2.0`` for an int), ``str``, ``X | None``, ``tuple[X, ...]``,
``tuple[X, Y]``, a nested record, ``Any`` (the controller state's
opaque tree of scalars and lists) and the action union, tagged by
``type``.  An error names the record and the field's path:
``run.ndjson:3 (barrier record): actions[0].caps[1]: expected float,
got 'a'``.  Only the tenant checkpoint's pair is hand-written: no
annotation describes its layout (completions as a delta, the ledger
nested), but its values go through the same typed codecs.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import fields, is_dataclass
from functools import cache
from itertools import repeat
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

from repro.datacenter import faults
from repro.datacenter.checkpoint import (
    BarrierRecord,
    MachineCheckpoint,
    TenantCheckpoint,
)
from repro.datacenter.controlplane import actions
from repro.datacenter.controlplane.actions import (
    Action,
    FailMachine,
    Migrate,
    SetBudget,
    SetCaps,
)

__all__ = [
    "CODEC_VERSION",
    "JournalError",
    "JournalDecodeError",
    "canonical_json",
    "encode_record",
    "decode_record",
    "encode_tenant_checkpoint",
    "decode_tenant_checkpoint",
    "encode_barrier",
    "decode_barrier",
]

CODEC_VERSION = 1
"""Version of the JSON wire format this module reads and writes."""

Encoder = Callable[[Any], Any]
Decoder = Callable[[Any], Any]

_ACTION_TAGS: dict[str, type] = {
    "set_caps": SetCaps,
    "set_budget": SetBudget,
    "migrate": Migrate,
    "fail_machine": FailMachine,
}
"""The control-action union's members by their JSON ``type`` tag."""

_TAG_OF = {cls: tag for tag, cls in _ACTION_TAGS.items()}

_COERCED = frozenset({(SetCaps, "caps")})
"""Float fields the encoder writes through ``float()``; a JSON int
there is one the encoder never writes, so their decoder refuses it."""

_HINT_NAMES = {n: getattr(m, n) for m in (actions, faults) for n in m.__all__}
"""The names the checkpoint module imports only for type checking."""

_LEDGER = ("energy_joules", "busy_seconds", "steps")
"""The tenant checkpoint's billing-ledger fields, nested on the wire."""


def _fields_but(cls: type, *omitted: str) -> tuple[str, ...]:
    """``cls``'s field names in declaration order, but ``omitted``."""
    return tuple(f.name for f in fields(cls) if f.name not in omitted)


# What the schema writes of the two records with a hand-written layout.
_TENANT_TOP = _fields_but(TenantCheckpoint, "completions", *_LEDGER)
_BARRIER_TOP = _fields_but(BarrierRecord, "tenants", "machines")


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


class _FieldError(Exception):
    """A value that is not its field's type; each enclosing container
    prepends its part of the path as the error propagates."""

    path = ""

    def within(self, part: str) -> _FieldError:
        self.path = part + self.path
        return self

    def located(self, where: str) -> JournalDecodeError:
        path = self.path.removeprefix(".")
        return JournalDecodeError(f"{path}: {self}" if path else str(self), where)


def canonical_json(obj: Any) -> str:
    """Serialize to the codec's canonical byte form (one line, no NL).

    Sorted keys, minimal separators, shortest-repr floats: encoding
    the same values always yields the same bytes, and every finite
    float survives a decode/encode round trip exactly.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _scalar(kind: str, *accepted: type) -> Decoder:
    """A decoder taking values of exactly the ``accepted`` JSON types."""

    def decode(value: Any) -> Any:
        if type(value) in accepted:
            return value
        raise _FieldError(f"expected {kind}, got {value!r}")

    return decode


def _list(value: Any, size: int | None = None) -> list[Any]:
    """``value``, which must be a JSON array (of ``size`` items)."""
    if type(value) is list and size in (None, len(value)):
        return value
    expected = "a list" if size is None else f"a {size}-element list"
    raise _FieldError(f"expected {expected}, got {value!r}")


def _decode_field(obj: Any, key: str, decode: Decoder) -> Any:
    """``obj[key]`` as ``decode`` reads it, errors located at ``key``."""
    if not isinstance(obj, dict):
        raise _FieldError(f"expected an object, got {obj!r}")
    if key not in obj:
        raise _FieldError(f"missing field {key!r}")
    try:
        return decode(obj[key])
    except _FieldError as error:
        raise error.within(f".{key}")


def _decode_items(decoders: Any, value: list[Any]) -> tuple[Any, ...]:
    """Each item of ``value`` read by its decoder, errors at its index."""
    items = []
    for index, (decode, item) in enumerate(zip(decoders, value)):
        try:
            items.append(decode(item))
        except _FieldError as error:
            raise error.within(f"[{index}]")
    return tuple(items)


def _encode_opaque(value: Any) -> Any:
    """Encode an opaque scalar tree (controller state) tuple-as-list."""
    if isinstance(value, (list, tuple)):
        return [_encode_opaque(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise JournalError(f"cannot encode opaque controller state {value!r}")


def _decode_opaque(value: Any) -> Any:
    """Decode an opaque scalar tree, lists back to tuples."""
    if type(value) is list:
        return _decode_items(repeat(_decode_opaque), value)
    if isinstance(value, dict):
        raise _FieldError(f"expected a scalar or a list, got {value!r}")
    return value


def _encode_action(action: Any) -> dict[str, Any]:
    """One control action as its type-tagged object."""
    if type(action) not in _TAG_OF:
        raise JournalError(f"cannot encode unknown control action {action!r}")
    return _schema(type(action)).encode(action)


def _decode_action(value: Any) -> Any:
    """The action its ``type`` tag names, read as that record."""
    tag = _decode_field(value, "type", lambda tag: tag)
    if type(tag) is not str or tag not in _ACTION_TAGS:
        raise _FieldError(f"unknown action type {tag!r}")
    return _schema(_ACTION_TAGS[tag]).decode(value)


@cache
def _codec(tp: Any, coerced: bool = False) -> tuple[Encoder | None, Decoder]:
    """The encoder and decoder of one annotated type.

    The encoder is None where the value is already its JSON form.
    ``coerced`` marks a float the encoder writes through ``float()``.
    """
    if tp is float:
        if coerced:
            return float, _scalar("float", float)
        return None, _scalar("float", float, int)
    if tp in (int, bool, str):
        return None, _scalar(tp.__name__, tp)
    if tp is Any:
        return _encode_opaque, _decode_opaque
    if tp == Action:
        return _encode_action, _decode_action
    if is_dataclass(tp):
        return _schema(tp).encode, _schema(tp).decode
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        encode, decode = _codec(args[args[0] is type(None)], coerced)
        return encode and (lambda v: None if v is None else encode(v)), (
            lambda v: None if v is None else decode(v)
        )
    if origin is tuple and args[1:] == (Ellipsis,):
        encode, decode = _codec(args[0], coerced)

        def decode_sequence(value: Any) -> tuple[Any, ...]:
            items = _list(value)
            try:
                return tuple(map(decode, items))
            except _FieldError:  # read again, item by item, to locate it
                return _decode_items(repeat(decode), items)

        return list if encode is None else lambda v: list(map(encode, v)), (
            decode_sequence
        )
    if origin is tuple and not any(_codec(arg)[0] for arg in args):
        decoders = [_codec(arg)[1] for arg in args]
        return list, lambda v: _decode_items(decoders, _list(v, len(args)))
    raise TypeError(f"the journal schema has no codec for {tp!r}")


class _Schema:
    """Some of a record dataclass's fields, each with its codec."""

    def __init__(self, cls: type, names: tuple[str, ...]) -> None:
        hints = get_type_hints(cls, localns=_HINT_NAMES)
        self.cls = cls
        self.codecs = {
            name: _codec(hints[name], (cls, name) in _COERCED) for name in names
        }
        # ``encode`` is one dict display compiled once (as dataclasses
        # compiles ``__init__``): as fast as a hand-written literal.
        items = [
            f"{n!r}: r.{n}" if enc is None else f"{n!r}: _{n}(r.{n})"
            for n, (enc, _) in self.codecs.items()
        ]
        if cls in _TAG_OF:
            items.append(f"'type': {_TAG_OF[cls]!r}")
        scope = {f"_{n}": enc for n, (enc, _) in self.codecs.items()}
        self.encode = eval(f"lambda r: {{{', '.join(items)}}}", scope)

    def decode_fields(self, obj: Any) -> dict[str, Any]:
        """Every field of ``obj``, checked as its type, by name."""
        return {
            name: _decode_field(obj, name, decode)
            for name, (_, decode) in self.codecs.items()
        }

    def decode(self, obj: Any) -> Any:
        """The record ``obj`` holds."""
        return self.cls(**self.decode_fields(obj))


@cache
def _schema(cls: type, names: tuple[str, ...] | None = None) -> _Schema:
    """The schema of ``cls``'s fields ``names`` (default: all)."""
    if not is_dataclass(cls):
        raise JournalError(f"cannot encode {cls.__name__!r}: not a record")
    return _Schema(cls, names or _fields_but(cls))


def _located(decode: Callable[..., Any], where: str, *args: Any) -> Any:
    """``decode(*args)``, a field error raised as naming ``where``."""
    try:
        return decode(*args)
    except _FieldError as error:
        raise error.located(where) from None


def encode_record(record: Any) -> dict[str, Any]:
    """A record dataclass as a JSON object, one key per field (and an
    action's ``type`` tag); the tenant checkpoint and the barrier
    record have their own encoders."""
    return _schema(type(record)).encode(record)


def decode_record(cls: Any, obj: Any, where: str) -> Any:
    """The inverse of :func:`encode_record`.

    ``cls`` is a record dataclass or the control-action union.  Every
    field is required and checked as its annotated type; an error
    names ``where`` and the offending field's path.
    """
    return _located(_codec(cls)[1], where, obj)


def encode_tenant_checkpoint(
    checkpoint: TenantCheckpoint,
    previous: TenantCheckpoint | None = None,
) -> dict[str, Any]:
    """One tenant checkpoint as JSON, completions as a delta.

    Written by hand because no annotation describes its layout:
    completions only ever append, so each barrier records just the
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
    obj = _schema(TenantCheckpoint, _TENANT_TOP).encode(checkpoint)
    obj["completed_total"] = len(checkpoint.completions)
    obj["completions_delta"] = list(map(list, checkpoint.completions[prior:]))
    obj["ledger"] = _schema(TenantCheckpoint, _LEDGER).encode(checkpoint)
    obj["ledger_delta"] = {
        "energy_joules": checkpoint.energy_joules
        - (0.0 if previous is None else previous.energy_joules),
        "busy_seconds": checkpoint.busy_seconds
        - (0.0 if previous is None else previous.busy_seconds),
        "steps": checkpoint.steps - (0 if previous is None else previous.steps),
    }
    return obj


def _decode_tenant(
    obj: Any, previous: TenantCheckpoint | None
) -> TenantCheckpoint:
    """:func:`decode_tenant_checkpoint`, its errors not yet located."""
    values = _schema(TenantCheckpoint, _TENANT_TOP).decode_fields(obj)
    ledger = _schema(TenantCheckpoint, _LEDGER).decode_fields
    values.update(_decode_field(obj, "ledger", ledger))
    _decode_field(obj, "ledger_delta", ledger)
    completions = _schema(TenantCheckpoint).codecs["completions"][1]
    delta = _decode_field(obj, "completions_delta", completions)
    total = _decode_field(obj, "completed_total", _codec(int)[1])
    base = () if previous is None else previous.completions
    completions = values["completions"] = base + delta
    if len(completions) != total:
        raise _FieldError(
            f"completions reconstruct to {len(completions)} entries but the "
            f"record claims {total} (journal barriers missing or reordered?)"
        )
    return TenantCheckpoint(**values)


def decode_tenant_checkpoint(
    obj: Mapping[str, Any],
    previous: TenantCheckpoint | None = None,
    where: str = "tenant checkpoint",
) -> TenantCheckpoint:
    """The inverse of :func:`encode_tenant_checkpoint`, by hand for the
    same layout: ``previous`` supplies the completions accumulated
    through the previous barrier, the record's delta extends them, and
    the cumulative count cross-checks the reconstruction."""
    return _located(_decode_tenant, where, obj, previous)


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
    line = _schema(BarrierRecord, _BARRIER_TOP).encode(record)
    line["kind"] = "barrier"
    line["tenants"] = [
        encode_tenant_checkpoint(checkpoint, previous.get(checkpoint.tenant))
        for checkpoint in tenants
    ]
    line["machines"] = [encode_record(checkpoint) for checkpoint in machines]
    return line


def _decode_barrier(
    obj: Any, previous: Mapping[str, TenantCheckpoint], checkpoints: bool
) -> BarrierRecord:
    """:func:`decode_barrier`, its errors not yet located."""
    values = _schema(BarrierRecord, _BARRIER_TOP).decode_fields(obj)
    tenant_objs = _decode_field(obj, "tenants", _list)
    _decode_field(obj, "machines", _list)
    if not checkpoints:
        return BarrierRecord(**values, tenants=None, machines=None)
    tenants = {}
    for index, entry in enumerate(tenant_objs):
        name = entry.get("tenant") if isinstance(entry, dict) else None
        prior = previous.get(name) if isinstance(name, str) else None
        try:
            checkpoint = _decode_tenant(entry, prior)
        except _FieldError as error:
            raise error.within(f"[{index}]").within(".tenants")
        tenants[checkpoint.tenant] = checkpoint
    machines = _codec(tuple[MachineCheckpoint, ...])[1]
    return BarrierRecord(
        **values,
        tenants=tenants,
        machines=_decode_field(obj, "machines", machines),
    )


def decode_barrier(
    obj: Mapping[str, Any],
    previous: Mapping[str, TenantCheckpoint],
    where: str,
    checkpoints: bool = True,
) -> BarrierRecord:
    """The inverse of :func:`encode_barrier`; ``previous`` holds the
    prior barrier's tenants.

    The record's own fields go through the schema; the tenant entries
    are read by hand, since each extends ``previous``'s completions.
    Without ``checkpoints`` the tenant and machine entries are only
    required to be lists, and the record's ``tenants`` and ``machines``
    are None.
    """
    return _located(_decode_barrier, where, obj, previous, checkpoints)
